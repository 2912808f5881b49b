import math
import random
from types import SimpleNamespace

import pytest

from decograph import (
    FrontierExceeded,
    NotConnected,
    OrbitBounds,
    TrivialMod,
    apply_trivial_mod,
    build_graph,
    cycle_b,
    make_decoration,
    move_orbit,
)
from decograph.graph import OrientedCycle
from decograph.moves import _PlanState
from decograph.oracle import _neighbour_lifts, _round_trip_moves
import exhaustive
from exhaustive import check_classification, enumerate_alpha, enumerate_decorations
from lemmas import beta_map, sl2_orbit
from conftest import straight_tree_graph, wheel_decoration, wheel_graph


class TestSl2Orbit:
    def test_origin_fixed_point(self):
        assert sl2_orbit(0, 0, 5) == {(0, 0)}

    def test_reaches_gcd(self):
        orbit = sl2_orbit(4, 6, 10)
        assert (2, 0) in orbit
        assert all(math.gcd(a, b) == 2 for a, b in orbit)

    def test_window_partition_is_gcd(self):
        bound = 6
        points = [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
        ]
        seen: set = set()
        orbits = []
        for p in points:
            if p in seen:
                continue
            o = sl2_orbit(*p, bound)
            seen |= o
            orbits.append(o)
        for o in orbits:
            gcds = {math.gcd(a, b) for a, b in o}
            assert len(gcds) == 1

    def test_seed_outside_window(self):
        with pytest.raises(ValueError):
            sl2_orbit(12, 0, 10)


class TestMoveOrbit:
    def test_depth_zero_is_singleton(self):
        g, dec = wheel_decoration(3, 2)
        assert move_orbit(g, dec, OrbitBounds(max_depth=0)) == {dec}

    def test_wheel_orbit_preserves_a_tilde(self):
        from lemmas import a_tilde

        g, dec = wheel_decoration(3, 2)
        orbit = move_orbit(g, dec, OrbitBounds(max_param=2, max_depth=3))
        assert len(orbit) > 1
        cyc = OrientedCycle((("y", "x"),))
        base = cycle_b(g, dec, cyc)
        assert {cycle_b(g, d, cyc) for d in orbit} == {base}
        assert {a_tilde(g, d) for d in orbit} == {a_tilde(g, dec)}

    def test_tree_orbit_covers_window(self):
        g = straight_tree_graph(4)
        alpha = {"e0": 1, "e1": 1, "e2": 1, "e3": 1, "i0a": 0, "i0b": 0}
        dec = make_decoration(g, alpha, {})
        orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=4))
        # every decoration over this alpha with small lifts shows up
        small = [
            d
            for d in enumerate_decorations(g, alpha, 2)
            if all(abs(v) <= 1 for v in beta_map(d).values())
        ]
        assert small and all(d in orbit for d in small)

    def test_frontier_exceeded_carries_partial(self):
        g, dec = wheel_decoration(5, 1)
        with pytest.raises(FrontierExceeded) as exc:
            move_orbit(g, dec, OrbitBounds(max_param=3, max_depth=8,
                                           max_frontier=5))
        assert dec in exc.value.partial
        assert len(exc.value.partial) > 5


class TestEnumerators:
    def test_alpha_window_wheel(self):
        g = wheel_graph()
        alphas = enumerate_alpha(g, 2)
        # loop value free in [-2, 2], z forced to 2
        assert len(alphas) == 5
        assert all(a["z"] == 2 and a["y"] == -a["x"] for a in alphas)

    def test_decoration_counts(self):
        g = wheel_graph()
        decs = enumerate_decorations(g, {"x": 3, "y": -3, "z": 2}, 2)
        # lifts: beta_{xy} in range(3), beta_{yx} in range(3), beta_{zx} in
        # range(2), but completion reduces to canonical reps
        assert len(decs) == len(set(decs))
        assert all(0 <= beta_map(d)[("x", "y")] < 3 for d in decs)


class TestCheckClassification:
    def test_wheel_sound(self):
        g = wheel_graph()
        report = check_classification(
            g, OrbitBounds(max_param=2, max_depth=4), window=2
        )
        assert report.ok
        assert report.n_decorations > 0
        assert report.n_orbits >= report.n_classes
        assert sum(report.orbits_per_class.values()) >= report.n_classes

    def test_classifies_each_decoration_once(self, monkeypatch):
        classified = []
        classify = exhaustive.classify

        def counted(g, dec):
            classified.append(dec)
            return classify(g, dec)

        monkeypatch.setattr(exhaustive, "classify", counted)
        report = check_classification(
            wheel_graph(), OrbitBounds(max_param=2, max_depth=4), window=2
        )
        assert report.ok
        assert len(classified) == len(set(classified)) >= report.n_decorations

    def test_reports_a_key_that_splits_an_orbit(self, monkeypatch):
        bounds = OrbitBounds(max_param=2, max_depth=4)
        report = check_classification(wheel_graph(), bounds, window=2)
        assert report.ok
        assert (report.n_decorations, report.n_orbits, report.n_classes) == (70, 15, 5)
        assert report.orbits_per_class == {
            f"(1, (('z', 2),), {a}, None, None)": n
            for a, n in ((0, 1), (1, 6), (2, 4), (3, 2), (4, 2))
        }
        classify = exhaustive.classify

        def split(g, dec):
            # The loop's lift moves by the I modification on x~y, so its
            # parity is no invariant of the moves.
            key = (classify(g, dec).key(), dec.b("x", "y") % 2)
            return SimpleNamespace(key=lambda: key)

        monkeypatch.setattr(exhaustive, "classify", split)
        report = check_classification(wheel_graph(), bounds, window=2)
        assert not report.ok and len(report.violations) == 13
        assert all("distinct classification records" in v for v in report.violations)

    @pytest.mark.parametrize(
        "g, window, bounds, counts",
        [
            (wheel_graph(), 2, OrbitBounds(2, 4), (70, 15, 5)),
            (wheel_graph(), 6, OrbitBounds(2, 3, 3000), (702, 67, 13)),
            (straight_tree_graph(3), 3, OrbitBounds(1, 3, 3000), (621, 33, 33)),
        ],
        ids=("wheel-2", "wheel-6", "tree-3"),
    )
    def test_window_counts(self, g, window, bounds, counts):
        report = check_classification(g, bounds, window=window)
        assert report.ok
        assert (report.n_decorations, report.n_orbits, report.n_classes) == counts

    @pytest.mark.parametrize("field", ["max_param", "max_depth", "max_frontier"])
    def test_negative_bounds_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"OrbitBounds.{field} must be >= 0"):
            OrbitBounds(**{field: -1})

    def test_negative_window_is_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 0, got -1"):
            check_classification(wheel_graph(), OrbitBounds(max_depth=1), window=-1)

    def test_not_connected_propagates(self):
        g = build_graph(
            [("a", "b", "c"), ("d", "e", "f")], [("a", "b"), ("d", "e")]
        )
        with pytest.raises(NotConnected):
            check_classification(g, OrbitBounds(max_depth=1), window=1)


class TestRoundTripNeighbors:
    def test_ih_round_trip_changes_nothing_essential(self):
        g = straight_tree_graph(4)
        rng = random.Random(9)
        from conftest import random_decoration

        dec = random_decoration(g, rng)
        state = _PlanState(g, dec)
        steps = [(trip, m) for trip in _round_trip_moves(g) for m in (0, 1, -1)]
        vectors = _neighbour_lifts(state, state.lift_vector(), [], steps)
        outs = [state.decoration() for _ in vectors]
        assert outs  # one internal edge, two choices, three amounts
        for d in outs:
            assert dict(d.alpha) == dict(dec.alpha)

    def test_vertex_mod_neighbor_included(self):
        g, dec = wheel_decoration(4, 1)
        orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=1))
        shifted = apply_trivial_mod(g, dec, TrivialMod("V", "W", 1))
        assert shifted in orbit
