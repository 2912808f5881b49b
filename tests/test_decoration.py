import random

import pytest

from decograph import (
    AlphaMismatch,
    BadTarget,
    Decoration,
    DecorationError,
    Residue,
    TrivialMod,
    apply_trivial_mod,
    apply_script,
    build_graph,
    cycle_b,
    cycle_basis,
    gcd_all,
    make_decoration,
    trivial_mod_equivalent,
    validate_decoration,
)
from decograph.textio import parse_decorated_graph, serialize_decorated_graph
from lemmas import (
    ConditionFails,
    NotAtVertex,
    OddAlpha,
    OrientedCycle,
    beta_map,
    canonical_beta_planar,
    delta_edge,
    gamma,
    weak_class,
    weaken,
)
from conftest import (
    fig_a_graph,
    random_alpha,
    random_decoration,
    tree_with_chords,
    triangle_graph,
    wheel_decoration,
    wheel_graph,
)


class TestResidue:
    def test_modulus_zero_is_integers(self):
        assert Residue(7, 0).value == 7
        assert Residue(-7, 0).value == -7

    def test_reduction(self):
        assert Residue(7, 3) == Residue(1, 3)
        assert Residue(-1, 3).value == 2

    def test_arithmetic(self):
        assert Residue(2, 5) + Residue(4, 5) == Residue(1, 5)
        assert -Residue(1, 4) == Residue(3, 4)

    def test_gcd_conventions(self):
        assert gcd_all(()) == 0
        assert gcd_all((0, -6)) == 6
        assert gcd_all((4, 6)) == 2


class TestValidation:
    def test_wheel_example_valid(self):
        g, dec = wheel_decoration(3, 1)
        assert validate_decoration(g, dec) == []

    def test_vertex_sum_violation(self):
        g = build_graph([("a", "b", "c")])
        with pytest.raises(DecorationError, match="alpha sum"):
            make_decoration(g, {"a": 1, "b": 1, "c": 1}, {})

    def test_closed_graph_undecoratable(self):
        # no external edges: vertex sums force sum(alpha) = 2v over internal
        # pairs which cancel to 0, so some vertex must fail
        g = build_graph(
            [("a1", "b1", "c1"), ("a2", "b2", "c2")],
            [("a1", "a2"), ("b1", "b2"), ("c1", "c2")],
        )
        alpha = {"a1": 1, "a2": -1, "b1": 1, "b2": -1, "c1": 0, "c2": 0}
        with pytest.raises(DecorationError, match="alpha sum"):
            make_decoration(g, alpha, {})

    def test_wheel_alpha_sum_rejected(self):
        with pytest.raises(DecorationError, match="vertex 'W': alpha sum 7"):
            make_decoration(
                wheel_graph(), {"x": 3, "y": -3, "z": 7},
                {("x", "y"): 1, ("y", "x"): 0, ("z", "x"): 0},
            )

    def test_antisymmetry_violation(self):
        alpha = {"x": 2, "y": 0, "u": 0, "z": 0, "w": 1, "v": 1}
        with pytest.raises(DecorationError, match="edge 'u'~'v'"):
            make_decoration(fig_a_graph(), alpha, {})

    def test_congruence_violation(self):
        # two supplied lifts of source a that break the vertex congruence
        g = build_graph([("a", "b", "c")])
        alpha = {"a": 4, "b": -4, "c": 2}
        dec = make_decoration(g, alpha, {})
        beta = {("a", "b"): 0, ("a", "c"): dec.b("a", "c") + 1,
                ("b", "a"): 0, ("c", "a"): 0}
        with pytest.raises(DecorationError, match=r"vertex 'v0': beta_\(a,c\)"):
            make_decoration(g, alpha, beta)

    @pytest.mark.parametrize(
        "bad",
        [("x", "nope"), ("q", "r"), ("x", "x"), ("z", "W"), ("x",), "xy", 7],
    )
    def test_bad_beta_key_is_named(self, bad):
        # each key must be an ordered pair of distinct half-edges at a vertex
        g, dec = wheel_decoration(3, 1)
        beta = {**beta_map(dec), bad: 123, ("q", "r"): 1}
        with pytest.raises(DecorationError, match="beta key") as exc:
            make_decoration(g, dict(dec.alpha), beta)
        assert repr(bad) in str(exc.value)

    @pytest.mark.parametrize(
        "alpha, beta, named",
        [({"x": 3.7, "y": -3.7}, {}, "alpha at 'x'"),
         ({"x": "3"}, {}, "alpha at 'x'"),
         ({}, {("x", "y"): 1.9}, "beta at ('x', 'y')"),
         ({}, {("z", "y"): "0"}, "beta at ('z', 'y')")],
    )
    def test_non_integer_value_is_named(self, alpha, beta, named):
        # no value is truncated or parsed: 3.7 would otherwise read as 3
        g, dec = wheel_decoration(3, 1)
        with pytest.raises(DecorationError, match="is not an integer") as exc:
            make_decoration(g, {**dict(dec.alpha), **alpha}, {**beta_map(dec), **beta})
        assert named in str(exc.value)

    def test_missing_lifts_default_to_zero(self):
        g, dec = wheel_decoration(3, 1)
        zero = make_decoration(g, dict(dec.alpha), {})
        assert [lift for _, (_, _, lift) in zero.beta] == [0, 0, 0]
        beta = {("x", "y"): 1}  # y and z get lift 0 toward their least co-half
        partial = make_decoration(g, dict(dec.alpha), beta)
        assert partial.b("x", "y") == 1
        assert partial.b("y", "x") == partial.b("z", "x") == 0


class TestGammaDeltaB:
    def test_wheel_gamma(self):
        g, dec = wheel_decoration(3, 1)
        assert gamma(g, dec, "W", "y", "x") == Residue(2, 3)
        assert gamma(g, dec, "W", "x", "y") == Residue(1, 3)

    def test_gamma_antisymmetry_and_relation(self):
        rng = random.Random(0)
        g = fig_a_graph()
        for _ in range(20):
            dec = random_decoration(g, rng, mag=5)
            for name, triple in g.vertices:
                x, y, z = triple
                assert gamma(g, dec, name, x, y) == -gamma(g, dec, name, y, x)
                m = gcd_all(dec.a(h) for h in triple)
                total = (
                    gamma(g, dec, name, x, y).value
                    + gamma(g, dec, name, y, z).value
                    + gamma(g, dec, name, z, x).value
                )
                assert Residue(total, m) == Residue(1, m)

    def test_gamma_not_at_vertex(self):
        g, dec = wheel_decoration(3, 1)
        with pytest.raises(NotAtVertex):
            gamma(g, dec, "W", "x", "x")

    def test_delta_relation_asserted(self):
        rng = random.Random(1)
        g = fig_a_graph()
        for _ in range(20):
            dec = random_decoration(g, rng, mag=5)
            out = delta_edge(g, dec, ("u", "v"))
            assert len(out) == 4
            # delta_{x_i y_j'} = delta_{x_i y_j} - alpha_{y_j'} + 1
            (y2, y3) = sorted(t for t in g.triple("B") if t != "v")
            for xi in ("x", "y"):
                assert out[(xi, y3)] == Residue(
                    out[(xi, y2)].value - dec.a(y3) + 1, abs(dec.a("u"))
                )

    def test_wheel_cycle_b(self):
        g, dec = wheel_decoration(3, 1)
        c = OrientedCycle((("y", "x"),))
        assert cycle_b(g, dec, c) == Residue(2, 3)
        assert cycle_b(g, dec, c.reversed()) == Residue(1, 3)

    def test_gluing_choice_b_zero(self):
        # beta_{xy} = beta_{yx} = 0 on the wheel gives b = 0
        g = wheel_graph()
        dec = make_decoration(
            g, {"x": 3, "y": -3, "z": 2},
            {("x", "y"): 0, ("y", "x"): 0, ("z", "x"): 0},
        )
        c = OrientedCycle((("x", "y"),))
        assert cycle_b(g, dec, c) == Residue(0, 3)


class TestTrivialMods:
    def test_identity_mod(self):
        g, dec = wheel_decoration(3, 1)
        assert apply_trivial_mod(g, dec, TrivialMod("V", "W", 0)) == dec

    def test_inverse_pair(self):
        g, dec = wheel_decoration(5, 2)
        d2 = apply_trivial_mod(g, dec, TrivialMod("E", "z", 5))
        d3 = apply_trivial_mod(g, d2, TrivialMod("E", "z", -5))
        assert d3 == dec

    def test_wheel_loop_mod_preserves_invariants(self):
        g, dec = wheel_decoration(3, 2)
        d2 = apply_trivial_mod(g, dec, TrivialMod("I", ("x", "y"), 1))
        assert validate_decoration(g, d2) == []
        c = OrientedCycle((("x", "y"),))
        assert cycle_b(g, dec, c) == cycle_b(g, d2, c)
        assert gamma(g, dec, "W", "x", "y") == gamma(g, d2, "W", "x", "y")

    def test_bad_target(self):
        g, dec = wheel_decoration(3, 1)
        with pytest.raises(BadTarget):
            apply_trivial_mod(g, dec, TrivialMod("V", "nope", 1))
        with pytest.raises(BadTarget):
            apply_trivial_mod(g, dec, TrivialMod("E", "x", 1))  # x internal
        with pytest.raises(BadTarget):
            apply_trivial_mod(g, dec, TrivialMod("I", ("x", "z"), 1))
        # a fractional amount would store lifts the file format cannot hold
        for amount in (0.5, 1.0, "1"):
            with pytest.raises(BadTarget, match="V amount must be an integer"):
                apply_trivial_mod(g, dec, TrivialMod("V", "W", amount))

    @pytest.mark.parametrize(
        "kind, target",
        [("I", "ad"), ("I", ("a",)), ("I", ("a", "d", "x")), ("I", ("a", 1)),
         ("E", ["c"]), ("E", ("c",)), ("V", ("A",)), ("V", 1)],
    )
    def test_target_of_the_wrong_shape(self, kind, target):
        # 'I' takes two str names and 'V'/'E' one: the str "ad" would
        # otherwise unpack into the edge a~d and modify it
        with pytest.raises(BadTarget, match="target must be") as err:
            TrivialMod(kind, target, 1)
        assert repr(target) in str(err.value)


class TestTrivialModEquivalent:
    def test_genus_zero_always_equivalent(self):
        rng = random.Random(2)
        g = fig_a_graph()
        from conftest import random_alpha

        for _ in range(10):
            alpha = random_alpha(g, rng, 4)
            d1 = random_decoration(g, rng, 4, alpha=alpha)
            d2 = random_decoration(g, rng, 4, alpha=alpha)
            script = trivial_mod_equivalent(g, d1, d2)
            assert script is not None
            _, replayed = apply_script(g, d1, script)
            assert replayed == d2

    def test_wheel_b_classifies(self):
        g, d2 = wheel_decoration(3, 2)
        _, d0 = wheel_decoration(3, 0)
        assert trivial_mod_equivalent(g, d2, d0) is None

    def test_single_step_witness(self):
        g, dec = wheel_decoration(3, 1)
        d2 = apply_trivial_mod(g, dec, TrivialMod("V", "W", 7))
        script = trivial_mod_equivalent(g, dec, d2)
        assert script is not None
        _, replayed = apply_script(g, dec, script)
        assert replayed == d2

    def test_alpha_mismatch(self):
        g, d1 = wheel_decoration(3, 0)
        _, d2 = wheel_decoration(5, 0)
        with pytest.raises(AlphaMismatch):
            trivial_mod_equivalent(g, d1, d2)


class TestWeak:
    def test_odd_alpha_rejected(self):
        g, dec = wheel_decoration(3, 1)
        with pytest.raises(OddAlpha):
            weaken(g, dec)

    def test_wheel_weak_class(self):
        g, dec = wheel_decoration(4, 2)
        assert weak_class(g, dec) == (0,)
        _, dec1 = wheel_decoration(4, 1)
        assert weak_class(g, dec1) == (1,)

    def test_weaken_is_a_decoration_mod_2(self, decorated_corpus):
        checked = 0
        for g, dec in decorated_corpus:
            if any(a % 2 for _, a in dec.alpha):
                with pytest.raises(OddAlpha):
                    weaken(g, dec)
                continue
            weak = weaken(g, dec)
            assert isinstance(weak, Decoration) and weak.alpha == dec.alpha
            assert all(lift in (0, 1) for _, (_, _, lift) in weak.beta)
            assert weak_class(g, weak) == weak_class(g, dec)
            checked += 1
        assert checked

    def test_weakened_class_at_scale(self):
        rng = random.Random(400)
        g = tree_with_chords(rng, 400, 10)
        dec = random_decoration(g, rng, 4, even=True)
        assert weak_class(g, weaken(g, dec)) == weak_class(g, dec)


class TestCanonicalPlanar:
    def test_straight_tree_any_admissible_alpha(self):
        g = fig_a_graph()
        rot = {"A": ("x", "y", "u"), "B": ("v", "z", "w")}
        alpha = {"x": 2, "y": 0, "u": 0, "v": 0, "z": 0, "w": 2}
        dec = canonical_beta_planar(g, rot, alpha)
        assert validate_decoration(g, dec) == []
        # delta vanishes on the embedding's side pairing: succ(u)=x, pred(v)=w
        d = delta_edge(g, dec, ("u", "v"))
        assert d[("x", "w")] == Residue(0, 0)

    def test_triangle_face_cycle_zero(self):
        g = triangle_graph()
        rot = {
            "T1": ("r1", "p12", "p13"),
            "T2": ("r2", "p23", "p21"),
            "T3": ("r3", "p31", "p32"),
        }
        alpha = {
            "p12": 2, "p21": -2, "p23": 2, "p32": -2, "p31": 2, "p13": -2,
            "r1": 2, "r2": 2, "r3": 2,
        }
        dec = canonical_beta_planar(g, rot, alpha)
        assert validate_decoration(g, dec) == []
        face = OrientedCycle((("p12", "p21"), ("p23", "p32"), ("p31", "p13")))
        face.validate(g)
        assert cycle_b(g, dec, face).value % cycle_b(g, dec, face).modulus == 0
        assert cycle_b(g, dec, face) == Residue(0, 2)

    def test_condition_fails(self):
        g = fig_a_graph()
        rot = {"A": ("x", "y", "u"), "B": ("v", "z", "w")}
        # alpha_x = 1 vs alpha_w = 2 disagree mod alpha_u = 2
        alpha = {"x": 1, "y": -1, "u": 2, "v": -2, "z": 2, "w": 2}
        with pytest.raises(ConditionFails):
            canonical_beta_planar(g, rot, alpha)


# -- one stored lift per source against the six-entry completion -----------


def reference_completion(g, alpha, beta):
    """All six lifts per vertex as a six-entry decoration completed them:
    supplied lifts reduced, a missing companion through the congruence."""
    out = {}
    for _, triple in g.vertices:
        for s in triple:
            t1, t2 = (t for t in triple if t != s)
            given = [(t, beta[(s, t)]) for t in (t1, t2) if (s, t) in beta]
            for t, lift in given:
                out[(s, t)] = lift % abs(alpha[s]) if alpha[s] else lift
            if len(given) == 1:
                t_known, lift = given[0]
                t_other = t2 if t_known == t1 else t1
                lift += alpha[t_other] - 1
                out[(s, t_other)] = lift % abs(alpha[s]) if alpha[s] else lift
    return out


class TestStoredLifts:
    @pytest.mark.parametrize("v", (4, 40, 200))
    def test_b_matches_six_entry_completion(self, v):
        rng = random.Random(71 + v)
        for _ in range(4):
            g = tree_with_chords(rng, v, rng.randint(0, min(v // 2, 10)))
            alpha = random_alpha(g, rng, 5)
            beta = {}
            for _, triple in g.vertices:
                for s in triple:
                    known, other = rng.sample([t for t in triple if t != s], 2)
                    beta[(s, known)] = rng.randint(-20, 20)
                    if rng.random() < 0.2:  # both lifts, consistent
                        beta[(s, other)] = (
                            beta[(s, known)] + alpha[other] - 1
                            + rng.randint(-2, 2) * alpha[s]
                        )
            dec = make_decoration(g, alpha, beta)
            want = reference_completion(g, alpha, beta)
            assert beta_map(dec) == want
            assert all(dec.b(s, t) == lift for (s, t), lift in want.items())
            assert len(dec.beta) == 3 * v
            text = serialize_decorated_graph(g, dec)
            assert parse_decorated_graph(text) == (g, dec)
            assert serialize_decorated_graph(*parse_decorated_graph(text)) == text
