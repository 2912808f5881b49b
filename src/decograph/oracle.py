"""Brute-force oracles: bounded orbit enumeration and classification checks.

These are deliberately dumb searches used to cross-check the closed-form
invariants on desk-scale instances: a bounded walker over the full move
groupoid (trivial modifications and IH round trips), and an exhaustive
small-window comparison of move orbits against the classification.

The walker edits one working state in place, with no graph edit, and keys
each member by its stored lifts; it builds one Decoration per member.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .decoration import Decoration, make_decoration
from .graph import InternalError, TrivalentGraph, _connected_genus
from .invariants import classify
from .moves import IhMove, IhTrace, InvalidMove, _PlanState


class FrontierExceeded(RuntimeError):
    """Search frontier outgrew the configured bound; ``partial`` holds the
    states found so far."""

    def __init__(self, message: str, partial: set):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class OrbitBounds:
    """Caps for the bounded searches."""

    max_param: int = 1  # trivial-modification amounts searched: 1..max_param
    max_depth: int = 8  # BFS depth
    max_frontier: int = 20_000  # total states before giving up

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"OrbitBounds.{name} must be >= 0, got {value}")


def _round_trip_moves(g: TrivalentGraph) -> list[tuple[IhTrace, IhTrace, tuple]]:
    """(there, back, names) per IH round trip on g, by edge then choice,
    worked out once on a bare state: the traces of the move and of its
    inverse, which rejoins x and y, and the names that the inverse gives the
    edge's halves, ordered so that u is the half at x's vertex, as on g.
    Raises InternalError unless the two moves' graph edits cancel: then
    every stored co-half comes back too, and a round trip is the two
    decoration transports alone."""
    out = []
    for edge in g.edges:
        for choice in ("b", "c"):
            state = _PlanState(g)
            try:
                there = state.apply(IhMove(edge, choice))
            except InvalidMove:
                break  # loop edge: no IH move either way
            at_x, at_y = state.rejoin((there.u, there.v), there.x, there.y)
            ren = {at_x: there.u, at_y: there.v}
            restored = {
                frozenset(ren.get(h, h) for h in state.triple(n))
                for n in g.vertex_names()
            }
            if restored != {frozenset(t) for _, t in g.vertices}:
                raise InternalError(
                    "IH round trip did not restore the graph (internal bug)"
                )
            back = state.traces[-1]
            out.append((there, back, (ren[back.u], ren[back.v])))
    return out


def _amounts(max_param: int, alphas: Iterable[int]) -> list[int]:
    """1, -1, ..., max_param, -max_param less the amounts that repeat a
    decoration, for a trivial modification of sources with these alphas.
    Each lift moves modulo its |alpha|, so the lcm of the |alpha| is a
    period (none when one is 0); the first amount of each nonzero residue
    is kept, in place."""
    period = math.lcm(*(abs(a) for a in alphas))
    top = min(max_param, period // 2) if period else max_param
    return [n for k in range(1, top + 1) for n in (k, -k) if n == k or 2 * k != period]


def _neighbour_lifts(state: _PlanState, vector: tuple, shifts: list, trips: list):
    """The lift vector of each neighbour of the member whose lift vector is
    ``vector``, the state holding that neighbour until the next is asked
    for: first each shift (sources, amount), then each round trip ((there,
    back, names), amount): the transport of the move, an I shift of its
    edge by the amount unless 0, and the transport of the inverse.  Each
    edit is undone before the next: a shift by its negative, exact as every
    stored lift is reduced, and a round trip by loading the member again."""
    state.load(vector)
    for sources, n in shifts:
        state.shift(sources, n)
        yield state.lift_vector()
        state.shift(sources, -n)
    for (there, back, names), m in trips:
        edge = (there.u, there.v)
        state.transport(there, edge)
        if m:
            state.shift(edge, m)
        state.transport(back, names)
        yield state.lift_vector()
        state.load(vector)


def move_orbit(
    g: TrivalentGraph, dec: Decoration, bounds: OrbitBounds = OrbitBounds()
) -> set[Decoration]:
    """Bounded BFS orbit of dec under trivial modifications and IH round
    trips (the graph-preserving moves).  Raises FrontierExceeded past the
    frontier cap; the exception carries the partial orbit.

    Every such move keeps alpha and every stored co-half, so a member is
    its lift vector, and one working state walks them all: each neighbour
    is one edit of the state, and a Decoration, bound to g, is built only
    for a vector not seen before.  A shift moves each lift modulo its
    |alpha|, so only the amounts that reach a new residue are tried; an I
    shift inside a round trip acts modulo |alpha_u'| = |2 - alpha_x -
    alpha_z|.  Neighbours come by target (vertices, internal edges,
    external half-edges) and amount, then by round trip and amount."""
    state = _PlanState(g, dec)
    targets = [g.triple(name) for name in g.vertex_names()]
    targets += [*g.edges, *((x,) for x in g.boundary)]
    top = bounds.max_param
    shifts = [(t, n) for t in targets for n in _amounts(top, map(dec.a, t))]
    trips = [
        (trip, m)
        for trip in _round_trip_moves(g)
        for m in [0, *_amounts(top, [2 - dec.a(trip[0].x) - dec.a(trip[0].z)])]
    ]
    start = state.lift_vector()
    seen = {start: dec}
    frontier = deque([(start, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= bounds.max_depth:
            continue
        for nxt in _neighbour_lifts(state, cur, shifts, trips):
            if nxt not in seen:
                seen[nxt] = state.decoration()
                if len(seen) > bounds.max_frontier:
                    raise FrontierExceeded(
                        f"orbit exceeded {bounds.max_frontier} states",
                        set(seen.values()),
                    )
                frontier.append((nxt, depth + 1))
    return set(seen.values())


# -- exhaustive classification check -------------------------------------


def enumerate_alpha(
    g: TrivalentGraph, window: int
) -> list[dict[str, int]]:
    """All alpha assignments with every value in [-window, window].

    Free variables: one per external half-edge and one per internal edge
    (the value on its smaller half); constraints are the vertex sums."""
    variables: list[str] = list(g.boundary) + [a for a, _ in g.edges]
    if (2 * window + 1) ** len(variables) > 5_000_000:
        raise ValueError("alpha window too large to enumerate")
    out = []
    for combo in itertools.product(
        range(-window, window + 1), repeat=len(variables)
    ):
        val = dict(zip(variables, combo))
        alpha = {h: val[h] if h in val else -val[g.partner(h)] for h in g.half_edges()}
        if all(
            sum(alpha[h] for h in triple) == 2 for _, triple in g.vertices
        ) and all(abs(a) <= window for a in alpha.values()):
            out.append(alpha)
    return out


def enumerate_decorations(
    g: TrivalentGraph, alpha: dict[str, int], window: int
) -> list[Decoration]:
    """All decorations over a fixed alpha: one free lift per source
    half-edge, ranged over its residue classes (a window of integers when
    the source alpha is 0)."""
    sources = []
    ranges = []
    total = 1
    for _, triple in g.vertices:
        for s in triple:
            sources.append((s, min(t for t in triple if t != s)))
            a = abs(alpha[s])
            r = range(a) if a else range(-window, window + 1)
            ranges.append(r)
            total *= len(r)
            if total > 5_000_000:
                raise ValueError("beta window too large to enumerate")
    out = []
    for combo in itertools.product(*ranges):
        beta = {pair: v for pair, v in zip(sources, combo)}
        out.append(make_decoration(g, alpha, beta))
    # every lift ranged over is already reduced, so the decorations differ
    return sorted(out, key=lambda d: (d.alpha, d.beta))


@dataclass
class ClassificationReport:
    """Outcome of the exhaustive orbit-vs-classification comparison."""

    n_decorations: int
    n_orbits: int
    n_classes: int
    violations: list[str] = field(default_factory=list)
    orbits_per_class: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_classification(
    g: TrivalentGraph,
    bounds: OrbitBounds = OrbitBounds(),
    window: int = 2,
) -> ClassificationReport:
    """Enumerate all decorations in a window, partition them into bounded
    move orbits, and verify the classification is constant on every orbit.

    Orbits are computed with bounded search, so two decorations may show as
    distinct orbits while actually being connected outside the window; that
    direction is reported as orbit counts per class, not as a violation.
    Classification differing *within* one orbit is always a violation.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    _connected_genus(g)
    decs: list[Decoration] = []
    for alpha in enumerate_alpha(g, window):
        decs.extend(enumerate_decorations(g, alpha, window))
    index = {d: i for i, d in enumerate(decs)}
    # Bounded BFS orbits are not transitively closed, so orbits seeded at
    # different decorations may partially overlap; overlapping orbits are
    # merged (union-find) since overlap proves they lie in one true orbit.
    # An orbit with one key shares it with every orbit it overlaps, so each
    # orbit's keys are checked on their own.
    parent = list(range(len(decs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    keys: dict[Decoration, tuple] = {}  # classify(g, d).key(), once per d
    violations: list[str] = []
    for i, d in enumerate(decs):
        if d in keys:  # already in an orbit
            continue
        try:
            orbit = move_orbit(g, d, bounds)
        except FrontierExceeded as exc:
            orbit = exc.partial
        recs = set()
        for member in orbit:
            j = index.get(member)
            if j is not None:
                parent[find(j)] = find(i)
            if member not in keys:
                keys[member] = classify(g, member).key()
            recs.add(keys[member])
        if len(recs) > 1:
            violations.append(
                f"orbit of decoration {i} carries {len(recs)} distinct "
                f"classification records"
            )
    by_class: dict = {}
    for i, d in enumerate(decs):  # each d is in an orbit, so keyed
        by_class.setdefault(keys[d], set()).add(find(i))
    orbits_per_class = {
        str(k): len(v)
        for k, v in sorted(by_class.items(), key=lambda kv: str(kv[0]))
    }
    return ClassificationReport(
        n_decorations=len(decs),
        n_orbits=len({find(i) for i in range(len(decs))}),
        n_classes=len(by_class),
        violations=violations,
        orbits_per_class=orbits_per_class,
    )
