import random

import pytest

from decograph import (
    GenusMismatch,
    IhMove,
    InvalidMove,
    MoveScript,
    Residue,
    ScriptError,
    TrivialMod,
    apply_script,
    apply_trivial_mod,
    boundary_isomorphism,
    build_graph,
    ih_apply,
    ih_plan,
    trivial_mod_equivalent,
    validate_decoration,
)
from decograph.decoration import ExternalEdge
from decograph.moves import _PlanState, with_hashes
from lemmas import (
    LocalB,
    ModuliMismatch,
    _local_B_labelled,
    invert_move,
    local_B,
    local_B_prime,
    local_equivalent,
    refined_epsilon,
)
from conftest import (
    fig_a_graph,
    random_connected_graph,
    random_decoration,
    straight_tree_graph,
    tree_with_chords,
    wheel_decoration,
    wheel_graph,
)


def fig_a_decoration():
    g = fig_a_graph()
    alpha = {"x": 2, "y": 0, "u": 0, "v": 0, "z": 0, "w": 2}
    from decograph import make_decoration

    return g, make_decoration(g, alpha, {})


class TestLocalB:
    def test_fig_a_direct(self):
        g, dec = fig_a_decoration()
        B = local_B(g, dec, ("u", "v"))
        assert B.alpha_u == 0
        # stable sorted labels: x,y = (x,y); z,w = (w,z)
        assert B.moduli == (dec.a("x"), dec.a("y"), dec.a("w"), dec.a("z"))
        assert B.alpha_uprime == 2 - B.moduli[0] - B.moduli[2]

    def test_external_edge_rejected(self):
        g, dec = fig_a_decoration()
        with pytest.raises(ExternalEdge):
            local_B(g, dec, ("x", "y"))

    def test_loop_rejected(self):
        g, dec = wheel_decoration(3, 1)
        with pytest.raises(InvalidMove):
            ih_apply(g, dec, IhMove(("x", "y"), "b"))

    @pytest.mark.parametrize("edge", ["uv", ("u",), ("u", "v", "x"), ("u", 1), None])
    def test_edge_of_the_wrong_shape(self, edge):
        # the str "uv" would otherwise unpack into the edge u~v and move it
        with pytest.raises(InvalidMove, match="two half-edge names") as err:
            IhMove(edge, "b")
        assert repr(edge) in str(err.value)

    def test_gauge_shift_stays_in_class(self):
        g, dec = fig_a_decoration()
        B1 = local_B(g, dec, ("u", "v"))
        d2 = apply_trivial_mod(g, dec, TrivialMod("V", "A", 3))
        B2 = local_B(g, d2, ("u", "v"))
        assert local_equivalent(B1, B2)


class TestRefinedEpsilon:
    def test_zero_B(self):
        B = LocalB((0, 0, 0, 0), (0, 0, 0, 0), 0, 2)
        eps = refined_epsilon(B)
        assert tuple(e.value for e in eps) == (1, 0, 0, 0, 0, 3)

    def test_identities_random(self):
        rng = random.Random(3)
        for _ in range(200):
            lifts = tuple(rng.randint(-20, 20) for _ in range(4))
            B = LocalB(lifts, (0, 0, 0, 0), 0, 0)
            e = [r.value for r in refined_epsilon(B)]
            e_yx, e_zx, e_wx, e_zy, e_wy, e_wz = e
            assert (e_wz - e_yx) % 4 == (e_wy - e_zx + 2) % 4
            assert (e_yx + e_wz) % 4 == (e_zx + e_wy - 2 * e_zy) % 4


class TestLocalEquivalent:
    def test_reflexive(self):
        B = LocalB((1, 2, 3, 4), (4, 4, 4, 4), 2, -6)
        assert local_equivalent(B, B)

    def test_shift_generator(self):
        B = LocalB((1, 2, 3, 4), (4, 4, 4, 4), 2, -6)
        B2 = LocalB((2, 3, 4, 5), (4, 4, 4, 4), 2, -6)
        assert local_equivalent(B, B2)

    def test_mod4_subtlety_detected(self):
        # all external alpha 0 mod 4, alpha_u = 2: the (0,0,1,1) shift is
        # NOT an equivalence, and the refined epsilon tells the two apart:
        # (1,0,0,0,0,3) against (1,1,1,1,1,3)
        B = LocalB((0, 0, 0, 0), (4, 4, 4, 4), 2, -6)
        B2 = LocalB((0, 0, 1, 1), (4, 4, 4, 4), 2, -6)
        assert not local_equivalent(B, B2)
        assert tuple(refined_epsilon(B)) != tuple(refined_epsilon(B2))

    def test_moduli_mismatch(self):
        B = LocalB((0, 0, 0, 0), (4, 4, 4, 4), 2, -6)
        B2 = LocalB((0, 0, 0, 0), (2, 4, 4, 4), 2, -4)
        with pytest.raises(ModuliMismatch):
            local_equivalent(B, B2)


class TestIhApply:
    def test_fig_a_to_b(self):
        g, dec = fig_a_decoration()
        g2, dec2, tr = ih_apply(g, dec, IhMove(("u", "v"), "b"))
        assert validate_decoration(g2, dec2) == []
        assert dec2.a(tr.u) == 2 - dec.a(tr.x) - dec.a(tr.z)
        # left vertex groups the trace's {x, z}
        assert set(g2.triple(g2.vertex_of(tr.x))) == {tr.x, tr.z, tr.u}

    def test_transport_exactness_and_epsilon(self):
        rng = random.Random(4)
        checked = 0
        while checked < 60:
            genus = rng.randint(0, 2)
            g = random_connected_graph(rng, rng.randint(max(2, 2 * genus - 1), 5), genus)
            edges = [e for e in g.edges if g.vertex_of(e[0]) != g.vertex_of(e[1])]
            if not edges or not g.boundary:
                continue
            dec = random_decoration(g, rng, 5)
            edge = rng.choice(edges)
            choice = rng.choice("bc")
            B = _labelled_B(g, dec, edge, choice)
            g2, dec2, tr = ih_apply(g, dec, IhMove(edge, choice))
            B2 = local_B_prime(dec2, tr)
            assert B2.lifts == B.lifts
            assert B2.moduli == B.moduli
            assert B2.alpha_u == B.alpha_u and B2.alpha_uprime == B.alpha_uprime
            assert tuple(refined_epsilon(B2)) == tuple(refined_epsilon(B))
            checked += 1

    def test_round_trip_trivial_mod_equivalent(self):
        g, dec = fig_a_decoration()
        g1, dec1, tr1 = ih_apply(g, dec, IhMove(("u", "v"), "c"))
        g2, dec2, tr2 = ih_apply(g1, dec1, invert_move(g1, tr1))
        iso = boundary_isomorphism(g2, g, {h: h for h in g.boundary})
        assert iso is not None
        from conftest import _rename_halves

        back = _rename_halves(dec2, iso)
        assert trivial_mod_equivalent(g, dec, back) is not None


def _labelled_B(g, dec, edge, choice):
    from decograph.moves import _labels

    u, v, x, y, z, w = _labels(g, edge)
    if choice == "c":
        x, y = y, x
    return _local_B_labelled(dec, u, v, x, y, z, w)


class TestScripts:
    def test_empty_script(self):
        g, dec = fig_a_decoration()
        assert apply_script(g, dec, MoveScript(())) == (g, dec)

    def test_hash_verification_and_tamper(self):
        g, dec = fig_a_decoration()
        script = MoveScript(
            (TrivialMod("V", "A", 1), IhMove(("u", "v"), "b"))
        )
        hashed = with_hashes(g, dec, script)
        apply_script(g, dec, hashed)  # verifies
        tampered = MoveScript(hashed.steps, ("0" * 16,) + hashed.hashes[1:])
        with pytest.raises(ScriptError):
            apply_script(g, dec, tampered)

    def test_failing_step_reports_index(self):
        g, dec = fig_a_decoration()
        script = MoveScript((IhMove(("u", "v"), "b"), IhMove(("u", "q"), "b")))
        with pytest.raises(ScriptError, match="step 1"):
            apply_script(g, dec, script)

    @pytest.mark.parametrize("replay", (apply_script, with_hashes))
    def test_every_replay_reports_the_failing_step(self, replay):
        # apply_script and with_hashes replay through one loop
        g, dec = fig_a_decoration()
        script = MoveScript((TrivialMod("V", "A", 1), TrivialMod("V", "Q", 1)))
        with pytest.raises(ScriptError, match="^step 1 failed: no vertex named 'Q'$"):
            replay(g, dec, script)


class TestNamesKept:
    """No move adds, drops or renames a half-edge or changes the pairing."""

    @staticmethod
    def random_step(state, g, rng, decorated):
        edges = [e for e in g.edges if state.vertex_of(e[0]) != state.vertex_of(e[1])]
        kinds = ["IH"] + (["V", "I", "E"] if decorated else [])
        kind = rng.choice(kinds)
        if kind == "IH":
            return IhMove(rng.choice(edges), rng.choice("bc"))
        n = rng.randint(-3, 3)
        if kind == "V":
            return TrivialMod("V", rng.choice(g.vertex_names()), n)
        if kind == "I":
            return TrivialMod("I", rng.choice(g.edges), n)
        return TrivialMod("E", rng.choice(g.boundary), n)

    @pytest.mark.parametrize("decorated", (True, False))
    @pytest.mark.parametrize("v, genus", ((4, 1), (40, 4), (200, 10)))
    def test_random_scripts_keep_every_name(self, v, genus, decorated):
        rng = random.Random(1400 + v + decorated)
        g = tree_with_chords(rng, v, genus)
        dec = random_decoration(g, rng, 5) if decorated else None
        names = set(g.half_edges())
        state = _PlanState(g, dec)
        for _ in range(60):
            state.apply(self.random_step(state, g, rng, decorated))
            assert state._vertex_of.keys() == names
            assert state._partner is g._partner
            if decorated:
                assert state._alpha.keys() == state._beta.keys() == names
        g2, dec2 = state.freeze()
        assert set(g2.half_edges()) == names and g2.edges == g.edges
        assert apply_script(g, dec, MoveScript(tuple(state.steps))) == (g2, dec2)

    def test_plan_at_400_keeps_every_name(self):
        rng = random.Random(20)
        g1, g2 = tree_with_chords(rng, 400, 20), tree_with_chords(rng, 400, 20)
        bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
        script = ih_plan(g1, g2, bmap)
        assert len(script.steps) > 1000
        g3, _ = apply_script(g1, None, script)
        assert sorted(g3.half_edges()) == sorted(g1.half_edges())
        assert boundary_isomorphism(g3, g2, bmap) is not None


class TestPlanner:
    def test_identity_plan(self):
        g = straight_tree_graph(5)
        script = ih_plan(g, g, {h: h for h in g.boundary})
        g2, _ = apply_script(g, None, script)
        assert boundary_isomorphism(g2, g, {h: h for h in g.boundary})

    def test_two_random_trees(self):
        rng = random.Random(5)
        for _ in range(5):
            g1 = random_connected_graph(rng, 3, 0)
            g2 = random_connected_graph(rng, 3, 0)
            bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
            script = ih_plan(g1, g2, bmap)
            gN, _ = apply_script(g1, None, script)
            assert boundary_isomorphism(gN, g2, bmap)

    def test_genus_mismatch(self):
        from conftest import triangle_graph

        g1 = straight_tree_graph(3)
        g2 = triangle_graph()
        with pytest.raises(GenusMismatch):
            ih_plan(g1, g2, dict(zip(sorted(g1.boundary), sorted(g2.boundary))))
