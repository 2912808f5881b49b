"""The orbit walk edits decorations in place, and graphs keep their topology.

``oracle._round_trips`` runs each IH round trip as one edit of a working
state, and skips the amounts that repeat a decoration;
``reference_ih_round_trips`` (conftest) is the old form, two whole
``ih_apply`` calls and a rename of every lift at every amount, kept as the
differential reference.  ``graph_stats``, ``spanning_tree`` and
``cycle_basis`` are computed once per (immutable) graph and must hand out
values that callers cannot use to change what is kept.
"""

import dataclasses
import random
import sys
import time

import pytest

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
    for g, dec in pairs:
        trips = oracle._round_trip_moves(g)
        ref = list(reference_ih_round_trips(g, dec, max_param))
        assert len(ref) == len(trips) * len(amounts)
        want = []  # the reference's decoration at each amount the walk keeps
        for i, (_, _, _, (x, z)) in enumerate(trips):
            at = dict(zip(amounts, ref[i * len(amounts):(i + 1) * len(amounts)]))
            kept = [0, *oracle._amounts(max_param, [2 - dec.a(x) - dec.a(z)])]
            want += [at[m] for m in kept]
        new = list(oracle._round_trips(g, dec, max_param, trips))
        assert new == want
        assert set(new) == set(ref)  # a skipped amount repeats a kept one


def test_orbits_match_reference(monkeypatch):
    bounds = OrbitBounds(max_param=1, max_depth=2)
    seen = set()
    pairs = []
    for g, dec in _small_decorated():
        if g not in seen:  # one decoration per graph keeps this quick
            seen.add(g)
            pairs.append((g, dec))
    new = [move_orbit(g, dec, bounds) for g, dec in pairs]
    monkeypatch.setattr(
        oracle,
        "_round_trips",
        lambda g, dec, param, trips: reference_ih_round_trips(g, dec, param),
    )
    old = [move_orbit(g, dec, bounds) for g, dec in pairs]
    assert [len(o) for o in new] == [len(o) for o in old]
    assert new == old


def reference_neighbors(g, dec, bounds, trips):
    """oracle._neighbors as it was: every amount 1, -1, ..., max_param,
    -max_param on every target and round trip, repeats included."""
    amounts = [s * k for k in range(1, bounds.max_param + 1) for s in (1, -1)]
    targets = [("V", name) for name in g.vertex_names()]
    targets += [("I", edge) for edge in g.edges] + [("E", x) for x in g.boundary]
    for kind, target in targets:
        for n in amounts:
            yield apply_trivial_mod(g, dec, TrivialMod(kind, target, n))
    yield from reference_ih_round_trips(g, dec, bounds.max_param)


@pytest.mark.parametrize("max_param", [1, 2, 3, 4])
def test_orbits_skip_repeated_amounts(monkeypatch, max_param):
    """Amounts that repeat a residue are skipped; orbits, and the partial
    sets of FrontierExceeded, stay as every amount gave them."""
    seen, pairs = set(), []
    for g, dec in _small_decorated():
        if g not in seen:
            seen.add(g)
            pairs.append((g, dec))

    def walk():
        out = []
        for bounds in (
            OrbitBounds(max_param=max_param, max_depth=2, max_frontier=100),
            OrbitBounds(max_param=max_param, max_depth=3, max_frontier=60),
        ):
            for g, dec in pairs:
                try:
                    out.append(move_orbit(g, dec, bounds))
                except FrontierExceeded as exc:
                    out.append(("partial", exc.partial))
        return out

    new = walk()
    partial = sum(isinstance(o, tuple) for o in new)
    assert 0 < partial < len(new)
    monkeypatch.setattr(oracle, "_neighbors", reference_neighbors)
    assert new == walk()


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


def _count_calls(monkeypatch):
    """Wrap build_graph and ih_apply wherever a decograph module binds
    them; returns the live call counts."""
    calls = {"build_graph": 0, "ih_apply": 0}
    for fn in (graph.build_graph, moves.ih_apply):

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
    calls = _count_calls(monkeypatch)
    orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=depth))
    assert len(orbit) > 100
    assert calls["build_graph"] <= 1
    assert calls["ih_apply"] <= 1
