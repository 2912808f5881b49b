import random
import sys

import pytest

import decograph.invariants as invariants
import decograph.moves as moves
from decograph import (
    ConditionsFail,
    DecorationError,
    InvariantError,
    NotConnected,
    WrongGenus,
    a_tilde,
    arf,
    build_graph,
    classify,
    cycle_basis,
    equivalent,
    frak_C,
    graph_stats,
    make_decoration,
    normal_form,
    validate_decoration,
)
from decograph.invariants import build_canonical_apple
from decograph.moves import MoveScript, apply_script, normalize_to_apple_tree
from lemmas import (
    LoopTuple,
    decoration_class,
    extract_loop_tuple,
    tuple_class,
    tuple_reduce,
)
from conftest import (
    apple2_graph,
    fig_a_graph,
    random_decoration,
    straight_tree_graph,
    tree_with_chords,
    wheel_decoration,
)


def apple2_decoration(a0: int, b0: int, a1: int, b1: int):
    """Genus-2 apple tree: loops alpha a0, a1 with written b-values."""
    g = apple2_graph()
    alpha = {
        "l0a": a0, "l0b": -a0, "l1a": a1, "l1b": -a1,
        "t0b": 2, "t0a": -2, "t1b": 2, "t1a": -2, "r": 6,
    }
    beta = {
        ("l0a", "l0b"): b0, ("l0b", "l0a"): 0, ("t0b", "l0a"): 0,
        ("l1a", "l1b"): b1, ("l1b", "l1a"): 0, ("t1b", "l1a"): 0,
        ("t0a", "r"): 0, ("t1a", "r"): 0, ("r", "t0a"): 0,
    }
    dec = make_decoration(g, alpha, beta)
    assert validate_decoration(g, dec) == []
    return g, dec


class TestATilde:
    def test_wheel(self):
        g, dec = wheel_decoration(3, 1)
        assert a_tilde(g, dec) == 1
        g, dec = wheel_decoration(3, 0)
        assert a_tilde(g, dec) == 3
        g, dec = wheel_decoration(4, 6)
        assert a_tilde(g, dec) == 2

    def test_wrong_genus(self):
        g = fig_a_graph()
        dec = make_decoration(g, {"x": 2, "y": 0, "u": 0, "v": 0, "z": 0, "w": 2}, {})
        with pytest.raises(WrongGenus):
            a_tilde(g, dec)

    def test_not_connected(self):
        g = build_graph(
            [("a", "b", "c"), ("d", "e", "f")], [("a", "b"), ("d", "e")]
        )
        alpha = {"a": 1, "b": -1, "c": 2, "d": 1, "e": -1, "f": 2}
        dec = make_decoration(g, alpha, {})
        with pytest.raises(NotConnected):
            a_tilde(g, dec)


class TestFrakCAndArf:
    def test_two_loop_cycles(self):
        g, dec = apple2_decoration(4, 0, 4, 0)
        cycles = frak_C(g, dec)
        assert len(cycles) == 2
        assert all(len(c.steps) == 1 for c in cycles)

    def test_empty_when_no_multiple_of_four(self):
        g, dec = apple2_decoration(2, 0, 2, 0)
        assert frak_C(g, dec) == []

    def test_conditions_fail_odd(self):
        g, dec = apple2_decoration(3, 0, 4, 0)
        with pytest.raises(ConditionsFail, match=r"\(1\)"):
            frak_C(g, dec)

    def test_arf_values(self):
        g, dec = apple2_decoration(4, 0, 4, 0)
        assert arf(g, dec) == 0  # q = 1 + 1
        g, dec = apple2_decoration(4, 2, 4, 0)
        assert arf(g, dec) == 1
        g, dec = apple2_decoration(4, 2, 4, 2)
        assert arf(g, dec) == 0

    def test_arf_needs_even_b(self):
        g, dec = apple2_decoration(4, 1, 4, 0)
        with pytest.raises(ConditionsFail, match=r"\(3\)"):
            arf(g, dec)


class TestClasses:
    def test_class_I_odd_alpha(self):
        g, dec = apple2_decoration(3, 0, 4, 0)
        assert decoration_class(g, dec) == "I"

    def test_class_I_odd_b(self):
        g, dec = apple2_decoration(4, 1, 4, 0)
        assert decoration_class(g, dec) == "I"

    def test_class_II_boundary_0_mod_4(self):
        # apple trees with one external force boundary alpha 6, so class II
        # needs at least two externals
        g, dec = build_canonical_apple(
            [("q", 4), ("r", 4)], [(2, 0), (2, 0)]
        )
        assert decoration_class(g, dec) == "II"

    def test_class_III_vs_IV(self):
        g, dec = apple2_decoration(4, 0, 4, 0)
        assert decoration_class(g, dec) == "III"
        g, dec = apple2_decoration(4, 2, 4, 0)
        assert decoration_class(g, dec) == "IV"
        g, dec = apple2_decoration(2, 0, 2, 0)
        assert decoration_class(g, dec) == "III"  # frak_C empty, A = 0


class TestTupleReduce:
    def test_class_II_pair(self):
        t = LoopTuple(((2, 4), (2, 0)), (4,))
        assert tuple_class(t) == "II"
        out = tuple_reduce(t)
        assert out.pairs == ((2, 0), (2, 0))

    def test_class_I_tuple(self):
        t = LoopTuple(((1, 5), (3, 7)), (6,))
        assert tuple_class(t) == "I"
        out = tuple_reduce(t)
        assert out.pairs == ((1, 0), (1, 0))

    def test_class_IV_fixed_point(self):
        t = LoopTuple(((0, 0), (2, 0)), (6,))
        assert tuple_class(t) == "IV"
        out = tuple_reduce(t)
        assert out.pairs == ((0, 0), (2, 0))

    def test_class_III(self):
        t = LoopTuple(((4, 0), (4, 0)), (6,))
        assert tuple_class(t) == "III"
        out = tuple_reduce(t)
        assert out.pairs == ((2, 0), (2, 0))

    def test_genus_one(self):
        t = LoopTuple(((4, 6),), (2,))
        out = tuple_reduce(t)
        assert out.pairs == ((2, 0),)

    def test_reduction_keeps_the_class_at_genus_2_to_6(self):
        rng = random.Random(6)
        seen = set()
        for genus in range(2, 7):
            for _ in range(80):
                # mostly even entries, so that classes II to IV come up
                step = 2 if rng.random() < 0.8 else 1
                pairs = tuple(
                    (rng.randrange(-4, 5, step), rng.randrange(-4, 5, step))
                    for _ in range(genus)
                )
                boundary = tuple(rng.choice((2, 6, -2, -6, 4)) for _ in range(3))
                t = LoopTuple(pairs, boundary[: rng.randint(1, 3)])
                cls = tuple_class(t)
                assert tuple_class(tuple_reduce(t)) == cls
                seen.add((genus, cls))
        assert seen == {(g, c) for g in range(2, 7) for c in ("I", "II", "III", "IV")}


class TestNormalFormAndEquivalence:
    def test_idempotent(self):
        for args in ((4, 0, 4, 0), (4, 2, 4, 0), (3, 1, 2, 5)):
            g, dec = apple2_decoration(*args)
            nf = normal_form(g, dec)
            nf2 = normal_form(nf.graph, nf.decoration)
            assert (nf2.graph, nf2.decoration) == (nf.graph, nf.decoration)

    def test_class_preserved(self):
        g, dec = apple2_decoration(4, 2, 4, 0)
        nf = normal_form(g, dec)
        assert nf.report.cls == decoration_class(g, dec) == "IV"

    def test_report_keeps_a_tilde(self, decorated_corpus):
        checked = 0
        for g, dec in decorated_corpus:
            if graph_stats(g).genus == (1,):
                assert normal_form(g, dec).report.a_tilde == a_tilde(g, dec)
                checked += 1
        assert checked

    def test_normal_form_builds_one_graph(self, monkeypatch):
        """The class is read off classify of the input and the planner runs
        on the bare working state; the one graph built is the canonical
        apple, and the class rule runs once per classify call: on the input
        and on that apple."""
        calls = {"build_graph": 0, "_graph_class": 0}
        for fn in (invariants.build_graph, invariants._graph_class):

            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for name, mod in list(sys.modules.items()):
                if name.startswith("decograph") and getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, counted)
        rng = random.Random(12)
        cases = [apple2_decoration(4, 2, 4, 0), apple2_decoration(3, 1, 2, 5)]
        for genus in (2, 3, 5):
            g = tree_with_chords(rng, 4 * genus, genus)
            cases.append((g, random_decoration(g, rng)))
        for g, dec in cases:
            calls.update(build_graph=0, _graph_class=0)
            nf = normal_form(g, dec)
            assert nf.report.genus >= 2
            assert calls == {"build_graph": 1, "_graph_class": 2}

    def test_wheel_normal_forms_coincide(self):
        g, dec = wheel_decoration(4, 6)
        nf = normal_form(g, dec)
        assert nf.report.a_tilde == 2
        g2, dec2 = wheel_decoration(2, 0)
        nf2 = normal_form(g2, dec2)
        assert (nf.graph, nf.decoration) == (nf2.graph, nf2.decoration)

    def test_equivalent_wheels(self):
        g1, d1 = wheel_decoration(4, 6)
        g2, d2 = wheel_decoration(2, 0)
        assert equivalent(g1, d1, g2, d2, {"z": "z"})
        g3, d3 = wheel_decoration(3, 0)
        assert not equivalent(g1, d1, g3, d3, {"z": "z"})

    def test_bad_boundary_map(self):
        from decograph import BadBoundaryMap

        g1, d1 = wheel_decoration(4, 6)
        with pytest.raises(BadBoundaryMap):
            equivalent(g1, d1, g1, d1, {"z": "x"})


class TestNormalFormReadsTheClass:
    """normal_form builds the canonical apple of classify's class and
    normalizes the bare graph; the decoration moves only in replays."""

    def test_replayed_loop_tuple_reduces_to_the_normal_form(self):
        # the transport the hot path no longer runs, checked against the
        # invariants at the normalize benchmark's sizes
        rng = random.Random(36)
        seen = set()
        for k in range(36):
            g = tree_with_chords(rng, rng.randint(36, 44), k % 9)
            dec = random_decoration(g, rng, 4, even=k % 3 != 0)
            nf = normal_form(g, dec)
            _, loops = normalize_to_apple_tree(g, sorted(g.boundary))
            t = extract_loop_tuple(*apply_script(g, dec, nf.script), loops)
            boundary = [(h, dec.a(h)) for h in sorted(g.boundary)]
            apple = build_canonical_apple(boundary, list(tuple_reduce(t).pairs))
            assert (nf.graph, nf.decoration) == apple
            seen.add(nf.report.cls or nf.report.genus)
        assert seen >= {0, 1, "I", "II"}

    def test_decoration_of_another_graph_rejected(self):
        # dec fits g2, not g1, though both have the same half-edges and edges
        edges = [("a", "d"), ("b", "e")]
        g1 = build_graph({"A": ("a", "b", "c"), "B": ("d", "e", "f")}, edges)
        g2 = build_graph({"A": ("a", "b", "f"), "B": ("c", "d", "e")}, edges)
        alpha = {"a": 1, "d": -1, "b": 1, "e": -1, "f": 0, "c": 4}
        dec = make_decoration(g2, alpha, {})
        with pytest.raises(DecorationError, match="does not fit the graph: vertex 'A'"):
            normal_form(g1, dec)
        assert normal_form(g2, dec).report.genus == 1

    def test_no_transport(self, monkeypatch):
        calls = []
        transport = moves._PlanState.transport

        def counted(*args):
            calls.append(args)
            return transport(*args)

        monkeypatch.setattr(moves._PlanState, "transport", counted)
        rng = random.Random(5)
        for genus in (0, 1, 3):
            g = tree_with_chords(rng, 20, genus)
            dec = random_decoration(g, rng)
            nf = normal_form(g, dec)
            assert nf.script.steps and calls == []
            apply_script(g, dec, nf.script)  # a replay transports
            assert calls
            calls.clear()


class TestClassify:
    def test_genus_stratified_fields(self):
        g, dec = wheel_decoration(3, 1)
        rep = classify(g, dec)
        assert rep.genus == 1 and rep.a_tilde == 1 and rep.cls is None
        g, dec = apple2_decoration(4, 0, 4, 0)
        rep = classify(g, dec)
        assert rep.genus == 2 and rep.cls == "III" and rep.arf == 0
        assert rep.a_tilde is None
        assert rep.to_dict()["class"] == "III"


class TestOneClassRule:
    """The class rule is written once; the loop tuple and the graph read
    the same class, and classify reads each basis b_c once."""

    @staticmethod
    def _tuple_and_graph_class(g, dec):
        state, loops = normalize_to_apple_tree(g, sorted(g.boundary))
        g_norm, dec_norm = apply_script(g, dec, MoveScript(tuple(state.steps)))
        t = extract_loop_tuple(g_norm, dec_norm, loops)
        return tuple_class(t), decoration_class(g_norm, dec_norm)

    def test_tuple_class_on_corpus(self, decorated_corpus):
        seen = set()
        for g, dec in decorated_corpus:
            if graph_stats(g).components == 1:
                cls, graph_cls = self._tuple_and_graph_class(g, dec)
                assert cls == graph_cls
                seen.add(cls)
        assert len(seen) >= 2

    def test_tuple_class_at_genus_2_to_6(self):
        rng = random.Random(8)
        seen = set()
        for genus in range(2, 7):
            for k in range(12):
                # 1 to 3 externals: with one, its alpha is 2 mod 4
                g = tree_with_chords(rng, 2 * genus - 1 + k % 3, genus)
                dec = random_decoration(g, rng, 4, even=k % 4 != 0)
                cls, graph_cls = self._tuple_and_graph_class(g, dec)
                assert cls == graph_cls
                seen.add(cls)
        assert seen == {"I", "II", "III", "IV"}

    @staticmethod
    def _cycle_b_calls(monkeypatch):
        """The cycles invariants.cycle_b is called on from now, as a live list."""
        cycle_b = invariants.cycle_b
        calls = []

        def counting(g_, dec_, c):
            calls.append(c)
            return cycle_b(g_, dec_, c)

        monkeypatch.setattr(invariants, "cycle_b", counting)
        return calls

    @pytest.mark.parametrize("args", [(4, 0, 4, 0), (4, 2, 4, 0), (2, 0, 2, 0)])
    def test_classify_reads_each_basis_cycle_once(self, args, monkeypatch):
        g, dec = apple2_decoration(*args)
        calls = self._cycle_b_calls(monkeypatch)
        report = classify(g, dec)
        assert report.cls in ("III", "IV")
        # once per basis cycle, and once per frak_C cycle for the Arf sum
        assert len(calls) == len(cycle_basis(g)) + len(frak_C(g, dec))

    def test_equivalent_reads_no_b_c_past_an_odd_alpha(self, monkeypatch):
        # an odd alpha makes both sides class I, so the rule reads no b_c
        g, dec1 = apple2_decoration(3, 1, 2, 5)
        _, dec2 = apple2_decoration(3, 2, 2, 4)
        assert classify(g, dec1).cls == classify(g, dec2).cls == "I"
        calls = self._cycle_b_calls(monkeypatch)
        assert equivalent(g, dec1, g, dec2, {h: h for h in g.boundary})
        assert calls == []


class TestRareShapes:
    """Reachable corners of the decision and the normal form."""

    def test_genus_0_equivalent_whatever_the_lifts(self):
        g = straight_tree_graph(5)
        rng = random.Random(3)
        d1 = random_decoration(g, rng, 5)
        d2 = random_decoration(g, rng, 5, alpha=dict(d1.alpha))
        assert d1 != d2 and graph_stats(g).genus == (0,)
        assert equivalent(g, d1, g, d2, {h: h for h in g.boundary})

    def test_boundary_names_with_the_apple_prefix(self):
        # the canonical apple names its own half-edges _n0, _l0a, ...; a
        # boundary that starts with '_' pushes them to a longer prefix
        edges = [("a", "c"), ("b", "d")]
        g = build_graph({"A": ("a", "b", "_n0"), "B": ("c", "d", "_l0a")}, edges)
        alpha = {"a": 1, "c": -1, "b": 3, "d": -3, "_n0": -2, "_l0a": 6}
        dec = make_decoration(g, alpha, {})
        nf = normal_form(g, dec)
        assert nf.graph.boundary == ("_l0a", "_n0")
        inner = set(nf.graph.half_edges()) - set(nf.graph.boundary)
        assert inner and all(h.startswith("__") for h in inner)
        assert classify(nf.graph, nf.decoration) == classify(g, dec)

    @pytest.mark.parametrize("genus", (2, 3))
    def test_no_boundary_is_no_shape(self, genus):
        # with no boundary the vertex sums cannot cancel over the edges, so
        # no closed graph is decorated
        with pytest.raises(InvariantError, match="no decorated graph"):
            build_canonical_apple([], [(2, 0)] * genus)

    @pytest.mark.parametrize("n, genus", [(3, 0), (2, 1), (1, 2)])
    def test_smallest_spines(self, n, genus):
        # past the one-vertex wheel (n, genus) = (1, 1), the input check
        # leaves n + genus >= 3 leaves, so the smallest spine is one vertex
        boundary = [("e0", 4 * genus - 2)] + [(f"e{i}", 2) for i in range(1, n)]
        g, dec = build_canonical_apple(boundary, [(2, 0)] * genus)
        assert validate_decoration(g, dec) == []
        assert len(g.vertex_names()) == 2 * genus - 2 + n
        leaves = [h for h, _ in boundary] + [f"_t{i}a" for i in range(genus)]
        assert set(g.triple(g.vertex_of("e0"))) == set(leaves)
        assert classify(g, dec).genus == genus
