"""The orbit walk edits lift vectors in place, and graphs keep their topology.

``oracle.move_orbit`` keys members by their lift vectors on one working
state, runs each IH round trip as two decoration transports with no graph
edit, and skips the amounts that repeat a decoration.  ``reference_orbit``
is the old form, kept as the differential reference: a breadth-first search
over whole Decorations, each neighbour built by ``apply_trivial_mod`` or by
``reference_ih_round_trips`` (conftest), two whole ``ih_apply`` calls and a
rename of every lift, at every amount.  ``graph_stats``, ``spanning_tree``
and ``cycle_basis`` are computed once per (immutable) graph and must hand
out values that callers cannot use to change what is kept.
"""

import dataclasses
import random
import sys
import time
from collections import deque

import pytest

import decograph.decoration as decoration
import decograph.graph as graph
import decograph.moves as moves
import decograph.oracle as oracle
from decograph import (
    OrbitBounds,
    TrivialMod,
    apply_trivial_mod,
    build_graph,
    cycle_basis,
    graph_stats,
    move_orbit,
)
from decograph.graph import _cycle_basis, _forest, spanning_tree
from decograph.moves import _PlanState
from decograph.oracle import FrontierExceeded
from conftest import (
    corpus_decorations,
    random_decoration,
    reference_ih_round_trips,
    small_graph_corpus,
    tree_with_chords,
    wheel_decoration,
)


def _small_decorated():
    return [(g, d) for g, d in corpus_decorations(seed=23) if len(g.vertices) <= 4]


def _prefix_named(g):
    """g with the half-edges at its k-th vertex named k, k$, k$$: names that
    share a prefix and sort by punctuation.  Moves keep every name, so a
    round trip renames only when its inverse leaves v at u's vertex; these
    names never reach that case (u's vertex sorts first), while the
    corpus's own names reach it in 31 of its 178 round trips."""
    name = {}
    for k, (_, triple) in enumerate(g.vertices):
        name.update((h, f"{k}" + "$" * j) for j, h in enumerate(triple))
    return build_graph(
        {v: [name[h] for h in t] for v, t in g.vertices},
        [(name[a], name[b]) for a, b in g.edges],
    )


def _prefix_named_decorated():
    rng = random.Random(29)
    graphs = [_prefix_named(g) for g in small_graph_corpus() if g.boundary]
    return [(g, random_decoration(g, rng)) for g in graphs for _ in range(2)]


@pytest.mark.parametrize("max_param", [1, 2])
def test_round_trips_match_reference(max_param):
    pairs = _small_decorated() + _prefix_named_decorated()
    assert len({g for g, _ in pairs}) >= 40
    amounts = [0] + [s * k for k in range(1, max_param + 1) for s in (1, -1)]
    traded = set()  # (graph, trip) where the inverse trades the edge's names
    for g, dec in pairs:
        trips = oracle._round_trip_moves(g)
        traded.update(
            (g, i) for i, (_, back, names) in enumerate(trips) if names != (back.u, back.v)
        )
        ref = list(reference_ih_round_trips(g, dec, max_param))
        assert len(ref) == len(trips) * len(amounts)
        want, steps = [], []  # the reference at each amount the walk keeps
        for i, trip in enumerate(trips):
            there = trip[0]
            at = dict(zip(amounts, ref[i * len(amounts):(i + 1) * len(amounts)]))
            kept = [0, *oracle._amounts(max_param, [2 - dec.a(there.x) - dec.a(there.z)])]
            want += [at[m] for m in kept]
            steps += [(trip, m) for m in kept]
        state = _PlanState(g, dec)
        vectors = oracle._neighbour_lifts(state, state.lift_vector(), [], steps)
        new = [state.decoration() for _ in vectors]
        assert new == want
        assert set(new) == set(ref)  # a skipped amount repeats a kept one
    assert len(traded) >= 31


def reference_neighbors(g, dec, bounds):
    """The walk's neighbours as they were first built: every amount 1, -1,
    ..., max_param, -max_param on every target and round trip, repeats
    included, each a whole Decoration."""
    amounts = [s * k for k in range(1, bounds.max_param + 1) for s in (1, -1)]
    targets = [("V", name) for name in g.vertex_names()]
    targets += [("I", edge) for edge in g.edges] + [("E", x) for x in g.boundary]
    for kind, target in targets:
        for n in amounts:
            yield apply_trivial_mod(g, dec, TrivialMod(kind, target, n))
    yield from reference_ih_round_trips(g, dec, bounds.max_param)


def reference_orbit(g, dec, bounds):
    """move_orbit as it was: a breadth-first search over whole Decorations."""
    seen = {dec}
    frontier = deque([(dec, 0)])
    while frontier:
        cur, depth = frontier.popleft()
        if depth >= bounds.max_depth:
            continue
        for nxt in reference_neighbors(g, cur, bounds):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > bounds.max_frontier:
                    raise FrontierExceeded("reference orbit too large", seen)
                frontier.append((nxt, depth + 1))
    return seen


def _one_per_graph():
    """One decoration of each small corpus graph, under the corpus's names
    (which reach the round trips that trade names) and under prefix names."""
    seen, pairs = set(), []
    for g, dec in _small_decorated() + _prefix_named_decorated():
        if g not in seen:
            seen.add(g)
            pairs.append((g, dec))
    return pairs


def _orbits(orbit, pairs, bounds):
    """orbit(g, dec, bounds) on each pair, or ("partial", set) when it
    raises FrontierExceeded."""
    out = []
    for g, dec in pairs:
        try:
            out.append(orbit(g, dec, bounds))
        except FrontierExceeded as exc:
            out.append(("partial", exc.partial))
    return out


def test_orbits_match_reference():
    pairs = _one_per_graph()
    bounds = OrbitBounds(max_param=1, max_depth=2)
    new = [move_orbit(g, dec, bounds) for g, dec in pairs]
    old = [reference_orbit(g, dec, bounds) for g, dec in pairs]
    assert [len(o) for o in new] == [len(o) for o in old]
    assert new == old


@pytest.mark.parametrize("max_param", [1, 2, 3, 4])
def test_orbits_skip_repeated_amounts(max_param):
    """Amounts that repeat a residue are skipped; orbits, and the partial
    sets of FrontierExceeded, stay as every amount gave them."""
    pairs = _one_per_graph()
    new, old = [], []
    for bounds in (
        OrbitBounds(max_param=max_param, max_depth=2, max_frontier=100),
        OrbitBounds(max_param=max_param, max_depth=3, max_frontier=60),
    ):
        new += _orbits(move_orbit, pairs, bounds)
        old += _orbits(reference_orbit, pairs, bounds)
    partial = sum(isinstance(o, tuple) for o in new)
    assert 0 < partial < len(new)
    sizes = [len(o[1]) if isinstance(o, tuple) else len(o) for o in new]
    assert sizes == [len(o[1]) if isinstance(o, tuple) else len(o) for o in old]
    assert new == old


def test_orbit_members_share_alpha_and_graph(monkeypatch):
    """Every orbit move keeps alpha, and the walk never edits the graph, so
    each member holds the start's alpha tuple and dict themselves and is
    bound to g; a Decoration is built once per member, and not for the
    start, in a partial orbit too, and sorts its lifts, not alpha."""
    calls = _count_calls(monkeypatch, decoration._decoration, decoration._items)
    bounds = OrbitBounds(max_param=2, max_depth=3, max_frontier=300)
    for g, dec in _one_per_graph():
        calls["_decoration"] = calls["_items"] = 0
        try:
            orbit = move_orbit(g, dec, bounds)
        except FrontierExceeded as exc:
            orbit = exc.partial
        assert all(d.alpha is dec.alpha and d._alpha is dec._alpha for d in orbit)
        assert all(d._graph is g for d in orbit)
        assert calls["_decoration"] == calls["_items"] == len(orbit) - 1


def test_orbit_cost_is_bounded_by_the_period():
    """On the wheel (alpha 3, -3, 2) every amount repeats modulo 6 at most,
    so a bound of a million walks what a bound of 3 walks, at once."""
    g, dec = wheel_decoration(3, 1)
    start = time.process_time()
    orbit = move_orbit(g, dec, OrbitBounds(max_param=10**6, max_depth=2))
    assert time.process_time() - start < 1.0
    assert orbit == move_orbit(g, dec, OrbitBounds(max_param=3, max_depth=2))
    assert len(orbit) == 6


def _graphs():
    rng = random.Random(31)
    sizes = ((4, 2), (40, 8), (200, 20))
    return small_graph_corpus() + [tree_with_chords(rng, v, k) for v, k in sizes]


def _fresh(g):
    """An equal graph with nothing computed on it yet."""
    return build_graph(dict(g.vertices), g.edges, boundary=g.boundary)


def test_memoized_topology_equals_fresh():
    for g in _graphs():
        for _ in range(2):  # first call computes, second reads the memo
            fresh = _fresh(g)
            assert graph_stats(g) == graph_stats.__wrapped__(g) == graph_stats(fresh)
            assert _forest(g) == _forest.__wrapped__(g) == _forest(fresh)
            assert spanning_tree(g) == spanning_tree(fresh)
            basis = cycle_basis(g)
            assert basis == list(_cycle_basis.__wrapped__(g)) == cycle_basis(fresh)


def test_memoized_values_cannot_be_changed():
    g = _graphs()[-1]
    stats, basis = graph_stats(g), cycle_basis(g)
    tree, non_tree = spanning_tree(g)
    tree_copy, non_tree_copy, basis_copy = dict(tree), list(non_tree), list(basis)
    tree.clear()
    non_tree.append(("x", "y"))
    basis.reverse()
    basis.pop()
    assert spanning_tree(g) == (tree_copy, non_tree_copy)
    assert cycle_basis(g) == basis_copy
    with pytest.raises(dataclasses.FrozenInstanceError):
        stats.v = 0
    assert isinstance(stats.genus, tuple)
    assert isinstance(_forest(g)[0], tuple) and isinstance(_forest(g)[2], tuple)


def _count_calls(monkeypatch, *fns):
    """Wrap each of fns wherever a decograph module binds it; returns the
    live call counts by name."""
    calls = {fn.__name__: 0 for fn in fns}
    for fn in fns:

        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("decograph") and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("index, depth", [(9, 2), (9, 3), (42, 2)])
def test_orbit_builds_no_graph(monkeypatch, index, depth):
    """Orbits of about 100 to 600 states, on 2 and 4 vertices."""
    g, dec = _small_decorated()[index]
    calls = _count_calls(monkeypatch, graph.build_graph, moves.ih_apply)
    orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=depth))
    assert len(orbit) > 100
    assert calls["build_graph"] <= 1
    assert calls["ih_apply"] <= 1
