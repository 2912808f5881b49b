"""Seeded input generators for the benchmark, emitting decograph text.

Nothing here imports decograph: the program under test receives only the
text these functions write.  Every generator takes a ``random.Random`` so
that one seed fixes every input.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

MAG = 3  # random alpha and beta values lie in [-MAG, MAG]


@dataclass(frozen=True)
class Graph:
    """A trivalent graph as plain data.

    ``vertices`` lists (name, (h1, h2, h3)); ``edges`` lists internal edges
    as half-edge pairs; ``tree`` is the subset of ``edges`` forming the
    spanning tree the generator grew, which the alpha solve eliminates over.
    """

    vertices: tuple[tuple[str, tuple[str, str, str]], ...]
    edges: tuple[tuple[str, str], ...]
    boundary: tuple[str, ...]
    tree: tuple[tuple[str, str], ...]


def connected_graph(rng: random.Random, v: int, genus: int) -> Graph:
    """A random connected trivalent graph with ``v`` vertices and first
    Betti number ``genus``, with at least one boundary half-edge.

    A random recursive spanning tree uses 2(v - 1) of the 3v half-edge
    slots and always leaves v + 2 free; ``genus`` chords pair 2 * genus of
    the free slots (loops and multi-edges allowed), and the remaining
    v + 2 - 2 * genus slots are the boundary.  So every (v, genus) with
    v >= 1, genus >= 0 and 2 * genus <= v + 1 succeeds on the first try.
    """
    if v < 1 or genus < 0 or 2 * genus > v + 1:
        raise ValueError(f"no connected trivalent graph with v={v}, genus={genus} and boundary")
    names = [f"h{j}" for j in range(3 * v)]
    rng.shuffle(names)
    slots = [names[3 * k: 3 * k + 3] for k in range(v)]
    free = [list(s) for s in slots]
    tree = []
    for k in range(1, v):
        parent = rng.choice([p for p in range(k) if free[p]])
        a = free[parent].pop(rng.randrange(len(free[parent])))
        b = free[k].pop(rng.randrange(3))
        tree.append((a, b))
    rest = [h for f in free for h in f]
    rng.shuffle(rest)
    chords = [(rest[2 * c], rest[2 * c + 1]) for c in range(genus)]
    boundary = sorted(rest[2 * genus:])
    order = list(range(v))
    rng.shuffle(order)
    vertices = tuple((f"v{order[k]}", tuple(sorted(slots[k]))) for k in range(v))
    return Graph(
        vertices=tuple(sorted(vertices)),
        edges=tuple(sorted(tuple(sorted(e)) for e in tree + chords)),
        boundary=tuple(boundary),
        tree=tuple(sorted(tuple(sorted(e)) for e in tree)),
    )


def random_alpha(rng: random.Random, g: Graph) -> dict[str, int]:
    """A valid alpha: random values on chords and on every boundary
    half-edge but the first, then tree edges and the first boundary
    half-edge solved from the leaves of the spanning tree inwards."""
    alpha: dict[str, int] = {}
    tree = set(g.tree)
    for a, b in g.edges:
        if (a, b) not in tree:
            alpha[a] = rng.randint(-MAG, MAG)
            alpha[b] = -alpha[a]
    for h in g.boundary[1:]:
        alpha[h] = 2 * rng.randint(-(MAG // 2), MAG // 2) + (rng.random() < 0.5)
    return solve_alpha(g, alpha)


def solve_alpha(g: Graph, fixed: dict[str, int]) -> dict[str, int]:
    """Complete ``fixed`` (every chord half and all boundary half-edges but
    one) to a full alpha with vertex sums 2 and opposite edge halves."""
    alpha = dict(fixed)
    partner = {}
    for a, b in g.edges:
        partner[a], partner[b] = b, a
    unknown = {h for e in g.tree for h in e}
    unknown.update(h for h in g.boundary if h not in alpha)
    triples = [t for _, t in g.vertices]
    vertex_of = {h: k for k, t in enumerate(triples) for h in t}
    ready = [k for k, t in enumerate(triples) if sum(h in unknown for h in t) == 1]
    while ready:
        k = ready.pop()
        missing = [h for h in triples[k] if h in unknown]
        if len(missing) != 1:
            continue
        (h,) = missing
        alpha[h] = 2 - sum(alpha[t] for t in triples[k] if t != h)
        unknown.discard(h)
        p = partner.get(h)
        if p is not None:
            alpha[p] = -alpha[h]
            unknown.discard(p)
            w = vertex_of[p]
            if sum(x in unknown for x in triples[w]) == 1:
                ready.append(w)
    if unknown:
        raise ValueError("alpha solve needs exactly one unknown boundary half-edge")
    return alpha


def random_beta(
    rng: random.Random, g: Graph, alpha: dict[str, int]
) -> dict[tuple[str, str], int]:
    """One lift per source half-edge, toward its least co-half."""
    beta = {}
    for _, t in g.vertices:
        for s in t:
            a = abs(alpha[s])
            target = min(x for x in t if x != s)
            beta[(s, target)] = rng.randrange(a) if a else rng.randint(-MAG, MAG)
    return beta


def to_text(
    g: Graph,
    alpha: dict[str, int] | None = None,
    beta: dict[tuple[str, str], int] | None = None,
) -> str:
    """The decograph file format; a bare graph when ``alpha`` is None."""
    lines = [f"vertex {name} : {' '.join(t)}" for name, t in g.vertices]
    lines += [f"edge {a} {b}" for a, b in g.edges]
    lines.append("boundary " + " ".join(g.boundary))
    if alpha is not None:
        lines += [f"alpha {h} {alpha[h]}" for _, t in g.vertices for h in t]
        vertex_of = {h: name for name, t in g.vertices for h in t}
        lines += [f"beta {vertex_of[s]} {s} {t} {b}" for (s, t), b in sorted(beta.items())]
    return "\n".join(lines) + "\n"


def random_trivial_script(rng: random.Random, g: Graph, steps: int) -> str:
    """A V/I/E move script of ``steps`` lines with amounts in +-1..5."""
    lines = []
    for _ in range(steps):
        amount = rng.choice([-1, 1]) * rng.randint(1, 5)
        kind = rng.choice("VIE" if g.edges else "VE")
        if kind == "V":
            lines.append(f"V {rng.choice(g.vertices)[0]} {amount}")
        elif kind == "I":
            a, b = rng.choice(g.edges)
            lines.append(f"I {a}-{b} {amount}")
        else:
            lines.append(f"E {rng.choice(g.boundary)} {amount}")
    return "\n".join(lines) + "\n"


def boundary_distances(text: str) -> dict[tuple[str, str], int]:
    """Internal-edge distance between the vertices of every ordered pair of
    boundary half-edges, read from decograph text without decograph."""
    vertex_of: dict[str, str] = {}
    adj: dict[str, set[str]] = {}
    edges = []
    boundary: list[str] = []
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        if tok[0] == "vertex":
            adj[tok[1]] = set()
            for h in tok[3:6]:
                vertex_of[h] = tok[1]
        elif tok[0] == "edge":
            edges.append((tok[1], tok[2]))
        elif tok[0] == "boundary":
            boundary = tok[1:]
    for a, b in edges:
        adj[vertex_of[a]].add(vertex_of[b])
        adj[vertex_of[b]].add(vertex_of[a])
    out = {}
    for x in boundary:
        dist = {vertex_of[x]: 0}
        frontier = [vertex_of[x]]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        for y in boundary:
            out[(x, y)] = dist[vertex_of[y]]
    return out


def text_stats(text: str) -> tuple[int, int, int, int]:
    """(v, i, e, genus) of a connected graph, read from decograph text."""
    counts = {"vertex": 0, "edge": 0}
    e = 0
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if tok and tok[0] in counts:
            counts[tok[0]] += 1
        elif tok and tok[0] == "boundary":
            e = len(tok) - 1
    v, i = counts["vertex"], counts["edge"]
    return v, i, e, i - v + 1


# -- the <= 4-vertex corpus -------------------------------------------------


def _matrices(v: int):
    """Connected multigraphs of max degree 3 on v vertices: loops[i] in {0,1}
    and pair multiplicities in 0..3."""
    pairs = list(itertools.combinations(range(v), 2))
    for loops in itertools.product((0, 1), repeat=v):
        for mult in itertools.product(range(4), repeat=len(pairs)):
            deg = [2 * loops[i] for i in range(v)]
            adj = {i: set() for i in range(v)}
            for (i, j), m in zip(pairs, mult):
                deg[i] += m
                deg[j] += m
                if m:
                    adj[i].add(j)
                    adj[j].add(i)
            if any(d > 3 for d in deg):
                continue
            seen, stack = {0}, [0]
            while stack:
                for n in adj[stack.pop()]:
                    if n not in seen:
                        seen.add(n)
                        stack.append(n)
            if len(seen) == v:
                yield loops, dict(zip(pairs, mult))


def _canonical(v: int, loops, mult):
    best = None
    for perm in itertools.permutations(range(v)):
        key = (
            tuple(loops[perm.index(i)] for i in range(v)),
            tuple(
                mult.get(tuple(sorted((perm.index(i), perm.index(j)))), 0)
                for i, j in itertools.combinations(range(v), 2)
            ),
        )
        if best is None or key < best:
            best = key
    return best


def _realize(v: int, loops, mult) -> Graph:
    triples: dict[int, list[str]] = {i: [] for i in range(v)}
    edges = []
    for i in range(v):
        if loops[i]:
            a, b = f"l{i}a", f"l{i}b"
            triples[i] += [a, b]
            edges.append((a, b))
    for (i, j), m in sorted(mult.items()):
        for k in range(m):
            a, b = f"m{i}_{j}_{k}a", f"m{i}_{j}_{k}b"
            triples[i].append(a)
            triples[j].append(b)
            edges.append((a, b))
    ext = 0
    for i in range(v):
        while len(triples[i]) < 3:
            triples[i].append(f"e{ext}")
            ext += 1
    # BFS spanning tree from vertex 0 for the alpha solve.
    vertex_of = {h: i for i, t in triples.items() for h in t}
    tree, seen, frontier = [], {0}, [0]
    while frontier:
        u = frontier.pop(0)
        for a, b in sorted(edges):
            for x, y in ((a, b), (b, a)):
                if vertex_of[x] == u and vertex_of[y] not in seen:
                    seen.add(vertex_of[y])
                    tree.append(tuple(sorted((x, y))))
                    frontier.append(vertex_of[y])
    boundary = sorted(h for t in triples.values() for h in t if h.startswith("e"))
    return Graph(
        vertices=tuple(sorted((f"v{i}", tuple(sorted(t))) for i, t in triples.items())),
        edges=tuple(sorted(tuple(sorted(e)) for e in edges)),
        boundary=tuple(boundary),
        tree=tuple(sorted(tree)),
    )


def small_graph_corpus() -> list[Graph]:
    """Every connected trivalent multigraph with at most 4 vertices, up to
    isomorphism: the enumeration the test suite's corpus uses."""
    out = []
    for v in range(1, 5):
        seen = set()
        for loops, mult in _matrices(v):
            key = _canonical(v, loops, mult)
            if key not in seen:
                seen.add(key)
                out.append(_realize(v, loops, mult))
    return out
