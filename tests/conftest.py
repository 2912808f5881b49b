"""Shared corpus and decoration generators for the test suite.

The corpus holds every connected trivalent multigraph with at most 4
vertices (deduplicated up to isomorphism via adjacency matrices modulo
vertex permutation) plus named examples used throughout the tests.
"""

from __future__ import annotations

import itertools
import random

import pytest

from decograph import (
    Decoration,
    TrivalentGraph,
    build_graph,
    graph_stats,
    is_connected,
    make_decoration,
)
from decograph.decoration import TrivialMod, apply_trivial_mod, stored_lift
from decograph.graph import InternalError, spanning_tree
from decograph.moves import IhMove, InvalidMove, ih_apply


# -- exhaustive small-graph enumeration ----------------------------------


def _matrices(v: int):
    """Connected degree-3 multigraph adjacency data: loops[i] in {0,1},
    mult[i][j] in 0..3, degree(i) = 2*loops[i] + sum_j mult[i][j] <= 3."""
    pairs = list(itertools.combinations(range(v), 2))
    for loops in itertools.product((0, 1), repeat=v):
        for mult in itertools.product(range(4), repeat=len(pairs)):
            deg = [2 * loops[i] for i in range(v)]
            for (i, j), m in zip(pairs, mult):
                deg[i] += m
                deg[j] += m
            if any(d > 3 for d in deg):
                continue
            # connectivity over the multigraph
            adj = {i: set() for i in range(v)}
            for (i, j), m in zip(pairs, mult):
                if m:
                    adj[i].add(j)
                    adj[j].add(i)
            seen = {0}
            stack = [0]
            while stack:
                for n in adj[stack.pop()]:
                    if n not in seen:
                        seen.add(n)
                        stack.append(n)
            if len(seen) != v:
                continue
            yield loops, dict(zip(pairs, mult))


def _canonical(v, loops, mult):
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


def realize(v: int, loops, mult) -> TrivalentGraph:
    """Name the half-edges and build the TrivalentGraph."""
    triples = {i: [] for i in range(v)}
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
    return build_graph(
        {f"v{i}": tuple(t) for i, t in triples.items()}, edges
    )


def small_graph_corpus() -> list[TrivalentGraph]:
    out = []
    for v in range(1, 5):
        seen = set()
        for loops, mult in _matrices(v):
            key = _canonical(v, loops, mult)
            if key in seen:
                continue
            seen.add(key)
            out.append(realize(v, loops, mult))
    return out


# -- named examples -------------------------------------------------------


def fig_a_graph() -> TrivalentGraph:
    """The IH-move figure (a): internal edge u~v with externals x,y | z,w."""
    return build_graph(
        {"A": ("x", "y", "u"), "B": ("z", "w", "v")}, [("u", "v")]
    )


def wheel_graph() -> TrivalentGraph:
    """One vertex, a loop x~y, one external z."""
    return build_graph({"W": ("x", "y", "z")}, [("x", "y")])


def wheel_decoration(a: int, b: int) -> tuple[TrivalentGraph, Decoration]:
    g = wheel_graph()
    dec = make_decoration(
        g,
        {"x": a, "y": -a, "z": 2},
        {("x", "y"): b, ("y", "x"): 0, ("z", "x"): 0},
    )
    return g, dec


def triangle_graph() -> TrivalentGraph:
    """Three vertices in a triangle, one external leg each (genus 1)."""
    return build_graph(
        {
            "T1": ("r1", "p12", "p13"),
            "T2": ("r2", "p23", "p21"),
            "T3": ("r3", "p31", "p32"),
        },
        [("p12", "p21"), ("p23", "p32"), ("p31", "p13")],
    )


def straight_tree_graph(n: int = 5) -> TrivalentGraph:
    """A straight tree with n externals (n >= 3)."""
    vertices = {}
    edges = []
    leaves = [f"e{i}" for i in range(n)]
    m = len(leaves)
    if m == 3:
        return build_graph({"s0": tuple(leaves)})
    vertices["s0"] = (leaves[0], leaves[1], "i0a")
    for k in range(1, m - 3):
        vertices[f"s{k}"] = (f"i{k-1}b", leaves[k + 1], f"i{k}a")
        edges.append((f"i{k-1}a", f"i{k-1}b"))
    vertices[f"s{m-3}"] = (f"i{m-4}b", leaves[m - 2], leaves[m - 1])
    edges.append((f"i{m-4}a", f"i{m-4}b"))
    return build_graph(vertices, edges)


def apple2_graph() -> TrivalentGraph:
    """Genus-2 apple tree with one external edge."""
    return build_graph(
        {
            "W1": ("l0a", "l0b", "t0b"),
            "W2": ("l1a", "l1b", "t1b"),
            "S": ("t0a", "t1a", "r"),
        },
        [("l0a", "l0b"), ("l1a", "l1b"), ("t0a", "t0b"), ("t1a", "t1b")],
    )


def named_corpus() -> dict[str, TrivalentGraph]:
    return {
        "fig_a": fig_a_graph(),
        "wheel": wheel_graph(),
        "triangle": triangle_graph(),
        "straight_tree_5": straight_tree_graph(5),
        "apple2": apple2_graph(),
    }


# -- decoration generators -----------------------------------------------


def random_alpha(
    g: TrivalentGraph, rng: random.Random, mag: int = 3, even: bool = False
):
    """A valid random alpha: free values on externals and non-tree edges,
    tree edges solved by leaf elimination (one external absorbs the slack).
    With even=True all free draws are even, which forces every solved value
    even as well.  Returns None when the graph admits no decoration (no
    boundary)."""
    if not g.boundary:
        return None
    alpha: dict[str, int] = {}
    tree, non_tree = spanning_tree(g)
    for a, b in non_tree:
        v = rng.randint(-mag, mag)
        alpha[a] = 2 * (v // 2) if even else v
        alpha[b] = -alpha[a]
    slack = g.boundary[0]
    for h in g.boundary[1:]:
        alpha[h] = 2 * rng.randint(-mag // 2, mag // 2)  # keep parity options
    if not even:
        for h in g.boundary[1:]:
            if rng.random() < 0.5:
                alpha[h] += 1  # odd values too
    unknown = {h for e in tree for h in e}
    unknown.add(slack)
    while unknown:
        progressed = False
        for name, triple in g.vertices:
            missing = [h for h in triple if h in unknown]
            if len(missing) == 1:
                h = missing[0]
                alpha[h] = 2 - sum(alpha[t] for t in triple if t != h)
                unknown.discard(h)
                p = g.partner(h)
                if p is not None:
                    alpha[p] = -alpha[h]
                    unknown.discard(p)
                progressed = True
        assert progressed, "alpha elimination stalled (test bug)"
    assert all(
        sum(alpha[h] for h in t) == 2 for _, t in g.vertices
    ), "alpha solve failed"
    return alpha


def random_decoration(
    g: TrivalentGraph, rng: random.Random, mag: int = 3, alpha=None,
    even: bool = False,
):
    if alpha is None:
        alpha = random_alpha(g, rng, mag, even=even)
    if alpha is None:
        return None
    beta = {}
    for _, triple in g.vertices:
        for s in triple:
            t = min(x for x in triple if x != s)
            a = abs(alpha[s])
            beta[(s, t)] = rng.randrange(a) if a else rng.randint(-mag, mag)
    return make_decoration(g, alpha, beta)


def corpus_decorations(seed: int = 7, per_graph: int = 3):
    """Deterministic (graph, decoration) pairs over the whole corpus."""
    rng = random.Random(seed)
    out = []
    for g in small_graph_corpus() + list(named_corpus().values()):
        if not g.boundary:
            continue
        out.append((g, make_decoration(g, random_alpha(g, rng), {})))
        for _ in range(per_graph - 1):
            out.append((g, random_decoration(g, rng)))
    return out


def random_connected_graph(
    rng: random.Random, v: int, genus: int
) -> TrivalentGraph:
    """Random connected trivalent graph with v vertices and given genus."""
    i = genus + v - 1
    e = 3 * v - 2 * i
    assert e >= 1 and i >= 0
    for _ in range(500):
        halves = [f"h{j}" for j in range(3 * v)]
        triples = [tuple(halves[3 * k: 3 * k + 3]) for k in range(v)]
        picked = rng.sample(halves, 2 * i)
        rng.shuffle(picked)
        pairing = list(zip(picked[::2], picked[1::2]))
        g = build_graph(
            {f"v{k}": t for k, t in enumerate(triples)}, pairing
        )
        if is_connected(g) and graph_stats(g).genus[0] == genus:
            return g
    raise RuntimeError("failed to sample a connected graph (test bug)")


def tree_with_chords(rng, v, genus):
    """Random connected graph: a random spanning tree plus ``genus`` chords
    between free half-edges (works at any size, unlike rejection sampling)."""
    triples = {f"v{k}": tuple(f"h{3 * k + j}" for j in range(3)) for k in range(v)}
    free = list(triples["v0"])
    edges = []
    for k in range(1, v):
        a = free.pop(rng.randrange(len(free)))
        b, *rest = rng.sample(triples[f"v{k}"], 3)
        edges.append((a, b))
        free.extend(rest)
    for _ in range(genus):
        a, b = rng.sample(free, 2)
        free.remove(a)
        free.remove(b)
        edges.append((a, b))
    return build_graph(triples, edges)


# -- reference IH round trips ---------------------------------------------


def _rename_halves(dec: Decoration, mapping: dict[str, str]) -> Decoration:
    def ren(h: str) -> str:
        return mapping.get(h, h)

    alpha = {ren(h): a for h, a in dec.alpha}
    # renaming may change which co-half is least
    beta = {
        ren(s): stored_lift(alpha, ren(s), ren(t0), ren(t1), lift)
        for s, (t0, t1, lift) in dec.beta
    }
    return Decoration(
        alpha=tuple(sorted(alpha.items())), beta=tuple(sorted(beta.items()))
    )


def reference_ih_round_trips(g, dec, max_param):
    """The IH round trips of the orbit walk (oracle.move_orbit) at every
    amount 0, 1, -1, ..., max_param, -max_param, repeats included, as two
    whole ih_apply calls per round trip and a rename of every lift: the
    differential reference for the walk's two transports."""
    # Imported here: bench/tests loads this file by path, without tests/.
    from lemmas import invert_move

    amounts = [0] + [s * k for k in range(1, max_param + 1) for s in (1, -1)]
    for edge in g.edges:
        for choice in ("b", "c"):
            try:
                g1, dec1, tr1 = ih_apply(g, dec, IhMove(edge, choice))
            except InvalidMove:
                break  # loop edge: no IH move either way
            for m in amounts:
                d1 = dec1
                if m:
                    d1 = apply_trivial_mod(
                        g1, d1, TrivialMod("I", (tr1.u, tr1.v), m)
                    )
                g2, dec2, tr2 = ih_apply(g1, d1, invert_move(g1, tr1))
                vx = g2.vertex_of(tr1.x)
                if tr2.u in g2.triple(vx):
                    ren = {tr2.u: tr1.u, tr2.v: tr1.v}
                else:
                    ren = {tr2.v: tr1.u, tr2.u: tr1.v}
                restored = {
                    frozenset(ren.get(h, h) for h in triple)
                    for _, triple in g2.vertices
                }
                if restored != {frozenset(t) for _, t in g.vertices}:
                    raise InternalError("IH round trip did not restore the graph")
                yield _rename_halves(dec2, ren)


# -- fixtures -------------------------------------------------------------


@pytest.fixture(scope="session")
def corpus():
    return small_graph_corpus() + list(named_corpus().values())


@pytest.fixture(scope="session")
def decorated_corpus():
    return corpus_decorations()
