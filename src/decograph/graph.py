"""Half-edge representation of trivalent graphs.

A trivalent graph is a set of half-edges grouped into named vertices (each an
unordered triple) together with a fixed-point-free partial involution pairing
some half-edges into internal edges.  Unpaired half-edges form the boundary
(external edges).  Loops and multiple edges are allowed.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in decograph, never bad input."""


class GraphError(ValueError):
    """Base class for structural errors in graph construction."""


class DuplicateHalfEdge(GraphError):
    pass


class HalfEdgeInTwoVertices(GraphError):
    pass


class SelfPairing(GraphError):
    pass


class DanglingPair(GraphError):
    pass


class BadBoundaryMap(GraphError):
    pass


class InvalidCycle(GraphError):
    pass


class NotConnected(GraphError):
    pass


@dataclass(frozen=True)
class TrivalentGraph:
    """Immutable trivalent graph.

    ``vertices`` maps vertex names to sorted half-edge triples; ``pairing``
    is stored as a sorted tuple of sorted internal-edge pairs; ``boundary``
    is the stable declared order of the unpaired half-edges.  ``_memo``
    keeps topology computed once per graph (see ``_per_graph``).
    """

    vertices: tuple[tuple[str, tuple[str, str, str]], ...]
    edges: tuple[tuple[str, str], ...]
    boundary: tuple[str, ...]
    # Derived lookups, excluded from equality/hash.
    _vertex_of: dict = field(default_factory=dict, compare=False, repr=False)
    _partner: dict = field(default_factory=dict, compare=False, repr=False)
    _triple_of: dict = field(default_factory=dict, compare=False, repr=False)
    _memo: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if not self._triple_of:  # build_graph passes the lookups it checked
            for name, triple in self.vertices:
                self._triple_of[name] = triple
                for h in triple:
                    self._vertex_of[h] = name
            for a, b in self.edges:
                self._partner[a] = b
                self._partner[b] = a

    # -- queries ---------------------------------------------------------

    def half_edges(self) -> list[str]:
        return sorted(self._vertex_of)

    def vertex_of(self, h: str) -> str:
        return self._vertex_of[h]

    def triple(self, vertex: str) -> tuple[str, str, str]:
        return self._triple_of[vertex]

    def partner(self, h: str) -> Optional[str]:
        return self._partner.get(h)

    def others_at_vertex(self, h: str) -> tuple[str, ...]:
        """The other half-edges at h's vertex, in sorted order."""
        a, b, c = self._triple_of[self._vertex_of[h]]
        return (b, c) if h == a else (a, c) if h == b else (a, b)

    def vertex_names(self) -> list[str]:
        return [name for name, _ in self.vertices]


def _unwritable(name: str) -> bool:
    """True when name holds '#' or whitespace (str.isspace): the text format
    splits statements at whitespace and starts comments at '#'."""
    return "#" in name or "".join(name.split()) != name


def build_graph(
    vertex_triples: Mapping[str, Iterable[str]] | Iterable[Iterable[str]],
    pairing: Iterable[tuple[str, str]] = (),
    boundary: Optional[Sequence[str]] = None,
) -> TrivalentGraph:
    """Validate and build a TrivalentGraph.

    ``vertex_triples`` is either a mapping vertex-name -> half-edge triple or
    a plain iterable of triples (auto-named v0, v1, ...).  ``boundary`` may
    fix the declared order of external half-edges; it defaults to sorted.
    """
    if isinstance(vertex_triples, Mapping):
        items = vertex_triples.items()
    else:
        items = [(f"v{i}", v) for i, v in enumerate(vertex_triples)]
    vertex_of: dict[str, str] = {}
    triple_of: dict[str, tuple[str, ...]] = {}
    for name, triple in items:
        name, triple = str(name), tuple(map(str, triple))
        if name in triple_of:
            raise DuplicateHalfEdge(f"duplicate vertex name {name!r}")
        if len(triple) != 3:
            raise GraphError(f"vertex {name!r} must have exactly 3 half-edges")
        for h in triple:
            if not h:
                raise DuplicateHalfEdge("empty half-edge name")
            if h in vertex_of:
                first = vertex_of[h]
                kind = HalfEdgeInTwoVertices if first != name else DuplicateHalfEdge
                raise kind(f"half-edge {h!r} occurs twice (vertices {first!r}, {name!r})")
            vertex_of[h] = name
        triple_of[name] = tuple(sorted(triple))
    names = [*triple_of, *vertex_of]
    if _unwritable("".join(names)):  # one search; the culprit on a hit
        bad = next(filter(_unwritable, names))
        raise GraphError(f"name {bad!r} contains '#' or whitespace")
    vertices = tuple(sorted(triple_of.items()))

    partner: dict[str, str] = {}
    edges = []
    for a, b in pairing:
        a, b = str(a), str(b)
        if a == b:
            raise SelfPairing(f"half-edge {a!r} paired with itself")
        for h in (a, b):
            if h not in vertex_of:
                raise DanglingPair(f"pairing references unknown half-edge {h!r}")
            if h in partner:
                raise DanglingPair(f"half-edge {h!r} paired twice")
        partner[a] = b
        partner[b] = a
        edges.append((a, b) if a < b else (b, a))
    edges.sort()

    unpaired = sorted(vertex_of.keys() - partner.keys())
    if boundary is None:
        bound = tuple(unpaired)
    else:
        bound = tuple(map(str, boundary))
        if sorted(bound) != unpaired:
            raise GraphError(
                "declared boundary does not match the unpaired half-edges"
            )
    return TrivalentGraph(
        vertices=vertices, edges=tuple(edges), boundary=bound,
        _vertex_of=vertex_of, _partner=partner, _triple_of=triple_of,
    )


@dataclass(frozen=True)
class GraphStats:
    v: int
    i: int
    e: int
    components: int
    genus: tuple[int, ...]  # per component, in component order


def _per_graph(compute):
    """compute(g) once per (immutable) graph, kept in g._memo; the value must
    be immutable or copied for callers.  ``__wrapped__`` recomputes it."""
    key = compute.__name__

    @functools.wraps(compute)
    def once(g: TrivalentGraph):
        try:
            return g._memo[key]
        except KeyError:
            value = g._memo[key] = compute(g)
            return value

    return once


@_per_graph
def _forest(g: TrivalentGraph):
    """The one search of g's topology: from the least vertex of each
    component, in name order, it takes the least frontier vertex next.

    Returns (genus per component, tree, sorted non-tree edges, up).
    ``tree`` maps each tree edge (sorted pair) to (parent half, child half)
    in search order, and ``up`` each non-root vertex to the oriented tree
    edge that reached it.  A component's genus is i - v + 1, i half its
    internal half-edges.
    """
    tree: dict[tuple[str, str], tuple[str, str]] = {}
    up: dict[str, tuple[str, str]] = {}
    seen: set[str] = set()
    genus = []
    for root, _ in g.vertices:
        if root in seen:
            continue
        seen.add(root)
        frontier, size, halves = [root], 0, 0
        while frontier:
            vtx = heapq.heappop(frontier)
            size += 1
            for h in g.triple(vtx):
                p = g.partner(h)
                if p is None:
                    continue
                halves += 1
                w = g.vertex_of(p)
                if w not in seen:
                    seen.add(w)
                    up[w] = tree[(h, p) if h < p else (p, h)] = (h, p)
                    heapq.heappush(frontier, w)
        genus.append(halves // 2 - size + 1)
    non_tree = tuple(e for e in g.edges if e not in tree)
    return tuple(genus), tree, non_tree, up


@_per_graph
def graph_stats(g: TrivalentGraph) -> GraphStats:
    genus = _forest(g)[0]
    return GraphStats(
        v=len(g.vertices),
        i=len(g.edges),
        e=len(g.boundary),
        components=len(genus),
        genus=genus,
    )


def is_connected(g: TrivalentGraph) -> bool:
    return len(_forest(g)[0]) == 1


def _connected_genus(g: TrivalentGraph) -> int:
    """The genus of g, which must be one component."""
    genus = _forest(g)[0]
    if len(genus) != 1:
        raise NotConnected(f"graph has {len(genus)} components")
    return genus[0]


@dataclass(frozen=True)
class OrientedCycle:
    """A cycle as a tuple of oriented internal edges (out_half, in_half).

    Edge j leaves a vertex through ``out_half`` and arrives at the next
    vertex through ``in_half`` (its pairing partner).  Consecutive edges
    share a vertex: ``in_half`` of edge j and ``out_half`` of edge j+1 (mod
    length) lie at the same vertex.
    """

    steps: tuple[tuple[str, str], ...]

    def validate(self, g: TrivalentGraph) -> None:
        if not self.steps:
            raise InvalidCycle("empty cycle")
        seen_vertices = set()
        k = len(self.steps)
        for j, (out, inn) in enumerate(self.steps):
            if g.partner(out) != inn:
                raise InvalidCycle(f"{out!r} and {inn!r} are not an internal edge")
            nxt = self.steps[(j + 1) % k][0]
            vtx = g.vertex_of(inn)
            if g.vertex_of(nxt) != vtx:
                raise InvalidCycle(
                    f"edge {j} arrives at {vtx!r} but the next edge leaves elsewhere"
                )
            if vtx in seen_vertices:
                raise InvalidCycle(f"vertex {vtx!r} visited twice")
            seen_vertices.add(vtx)

    def half_edges(self) -> list[str]:
        out = []
        for a, b in self.steps:
            out.extend((a, b))
        return out


def spanning_tree(
    g: TrivalentGraph,
) -> tuple[dict[tuple[str, str], tuple[str, str]], list[tuple[str, str]]]:
    """Deterministic spanning forest of ``_forest``'s search: rooted at the
    least vertex of each component, it grows from the least vertex reached.

    Returns (tree edges, sorted non-tree internal edges), edges as sorted
    pairs.  The tree maps each of its edges to the same edge oriented away
    from the root, (parent half, child half), in the order the search
    reaches them, so each comes after the edge that reaches its parent.
    """
    _, tree, non_tree, _ = _forest(g)
    return dict(tree), list(non_tree)


def tree_path(
    g: TrivalentGraph,
    up: Mapping[str, tuple[str, str]],
    start_vertex: str,
    end_vertex: str,
) -> list[tuple[str, str]]:
    """Oriented edges (out_half, in_half) from start_vertex to end_vertex in
    the rooted forest ``up``, which maps each non-root vertex to its tree edge
    (parent half, child half), as ``_forest`` records it.  Both ends climb in
    turn until one reaches a vertex the other has passed, their lowest common
    ancestor, so the cost follows the path's length, not the graph's size."""
    a, b, vertex_of = start_vertex, end_vertex, g.vertex_of
    above_a, above_b = {a: None}, {b: None}  # vertex -> tree edge climbed to it
    while a not in above_b and b not in above_a:
        ea, eb = up.get(a), up.get(b)
        if ea is None and eb is None:
            raise GraphError(f"no tree path from {start_vertex!r} to {end_vertex!r}")
        if ea is not None:
            a = vertex_of(ea[0])
            above_a[a] = ea
        if eb is not None:
            b = vertex_of(eb[0])
            above_b[b] = eb
    top = a if a in above_b else b
    rise = list(above_a.values())[1 : list(above_a).index(top) + 1]
    fall = list(above_b.values())[1 : list(above_b).index(top) + 1]
    return [(p, h) for h, p in rise] + fall[::-1]


def cycle_basis(g: TrivalentGraph) -> list[OrientedCycle]:
    """Fundamental cycles of the spanning forest of ``spanning_tree``.

    One cycle per non-tree internal edge, in sorted order; each cycle is
    that edge oriented from its smaller half-edge, then the tree path back
    from its head's vertex to its tail's.
    """
    return list(_cycle_basis(g))


@_per_graph
def _cycle_basis(g: TrivalentGraph) -> tuple[OrientedCycle, ...]:
    _, _, non_tree, up = _forest(g)
    return tuple(
        OrientedCycle(((a, b), *tree_path(g, up, g.vertex_of(b), g.vertex_of(a))))
        for a, b in non_tree
    )


def _check_boundary_map(
    g1: TrivalentGraph, g2: TrivalentGraph, boundary_map: Mapping[str, str]
) -> None:
    """Raise BadBoundaryMap unless boundary_map is a bijection from g1's
    boundary onto g2's."""
    if set(boundary_map) != set(g1.boundary) or set(
        boundary_map.values()
    ) != set(g2.boundary) or len(boundary_map) != len(g2.boundary):
        raise BadBoundaryMap("boundary_map is not a bijection of the boundaries")


class _PartialMap:
    """A partial half-edge map g1 -> g2, closed under forcing.

    Each mapped half-edge forces its partner onto the image's partner and
    its vertex onto the image's vertex, and a vertex with two mapped
    half-edges forces its third onto the one left at the image vertex.
    The map stays injective on half-edges and on vertices and commutes with
    the pairing, so a total map between graphs with as many half-edges is
    an isomorphism.  g1 and g2 need only partner, vertex_of and triple.
    """

    def __init__(self, g1, g2):
        self.g1, self.g2 = g1, g2
        self.hmap: dict[str, str] = {}
        self.vmap: dict[str, str] = {}
        self.used: set[str] = set()  # mapped-to half-edges
        self.vused: set[str] = set()  # mapped-to vertices
        # (half-edge, vertex first mapped with it or None), in order
        self.trail: list[tuple[str, Optional[str]]] = []

    def assign(self, h: str, h2: str) -> bool:
        """Map h to h2 and everything that forces; False on a conflict,
        with what was mapped before the conflict left in place."""
        g1, g2, hmap, vmap = self.g1, self.g2, self.hmap, self.vmap
        used, vused = self.used, self.vused
        todo = [(h, h2)]
        while todo:
            h, h2 = todo.pop()
            if h in hmap:
                if hmap[h] != h2:
                    return False
                continue
            if h2 in used:
                return False
            p, q = g1.partner(h), g2.partner(h2)
            if (p is None) != (q is None):
                return False
            vtx, tgt = g1.vertex_of(h), g2.vertex_of(h2)
            new = vtx not in vmap
            if new:
                if tgt in vused:
                    return False
                vmap[vtx] = tgt
                vused.add(tgt)
            elif vmap[vtx] != tgt:
                return False
            hmap[h] = h2
            used.add(h2)
            self.trail.append((h, vtx if new else None))
            if p is not None:
                todo.append((p, q))
            rest = [x for x in g1.triple(vtx) if x not in hmap]
            if len(rest) == 1:
                # Only vtx's half-edges map into tgt, so one is left there.
                (left,) = [y for y in g2.triple(tgt) if y not in used]
                todo.append((rest[0], left))
        return True

    def mark(self) -> int:
        return len(self.trail)

    def undo(self, mark: int) -> None:
        """Unmap everything assigned since ``mark``."""
        while len(self.trail) > mark:
            h, vtx = self.trail.pop()
            self.used.discard(self.hmap.pop(h))
            if vtx is not None:
                self.vused.discard(self.vmap.pop(vtx))


def boundary_isomorphism(
    g1: TrivalentGraph,
    g2: TrivalentGraph,
    boundary_map: Mapping[str, str],
) -> Optional[dict[str, str]]:
    """Half-edge bijection g1 -> g2 extending boundary_map, or None.

    The bijection maps vertices to vertices and commutes with the pairing.
    This is a depth-first search over a _PartialMap, so every choice is
    propagated through what it forces before the next.  The search branches
    only on the least-named g1 vertex with an unmapped half-edge: target
    vertices by name, then the permutations of the target's sorted triple.
    So the map returned is the first in that order.  The search can still
    blow up: a wrong choice may surface only at a vertex branched on much
    later, and one v=200, genus-20 pair of aligned normal forms took over
    60 s.
    """
    _check_boundary_map(g1, g2, boundary_map)
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None
    pmap = _PartialMap(g1, g2)
    hmap, vmap, vused = pmap.hmap, pmap.vmap, pmap.vused
    order = g1.vertex_names()
    targets = g2.vertex_names()

    def extend(idx: int) -> bool:
        while idx < len(order) and all(h in hmap for h in g1.triple(order[idx])):
            idx += 1
        if idx == len(order):
            return True
        vtx = order[idx]
        triple = g1.triple(vtx)
        candidates = [vmap[vtx]] if vtx in vmap else [
            t for t in targets if t not in vused
        ]
        for tgt in candidates:
            for perm in itertools.permutations(g2.triple(tgt)):
                if any(hmap.get(h, h2) != h2 for h, h2 in zip(triple, perm)):
                    continue
                mark = pmap.mark()
                if all(pmap.assign(h, h2) for h, h2 in zip(triple, perm)) and extend(
                    idx + 1
                ):
                    return True
                pmap.undo(mark)
        return False

    if all(pmap.assign(h, h2) for h, h2 in boundary_map.items()) and extend(0):
        return dict(hmap)
    return None
