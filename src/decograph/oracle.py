"""The brute-force orbit oracle: bounded enumeration of move orbits.

A deliberately dumb search used to cross-check the closed-form invariants
on desk-scale instances: a bounded walker over the full move groupoid
(trivial modifications and IH round trips).  The exhaustive small-window
comparison of these orbits against the classification is a check of the
theorem, not a decision, and lives in tests/exhaustive.py.

The walker edits one working state in place, with no graph edit, and keys
each member by its stored lifts; it builds one Decoration per member.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .decoration import Decoration
from .graph import InternalError, TrivalentGraph
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
