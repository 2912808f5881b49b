"""Local moves against whole-graph rebuilds, and pinned outputs.

IH moves and trivial modifications edit a working state in place and freeze
it once.  The reference functions below rebuild the whole graph and
decoration per move (``build_graph`` + ``make_decoration``); the local edits
must give equal values.  The pinned SHA-256 digests hold normal forms,
normal-form scripts and planner scripts as the whole-graph rebuild produced
them (scripts re-taken since, for the reasons given beside the pins), so
the byte-level outputs cannot drift.
"""

import hashlib
import random

import pytest

from decograph import (
    IhMove,
    MoveScript,
    TrivialMod,
    apply_script,
    apply_trivial_mod,
    build_graph,
    ih_apply,
    ih_plan,
    make_decoration,
    normal_form,
    serialize_decorated_graph,
    serialize_script,
)
from decograph.decoration import BadTarget
from decograph.moves import IhTrace, _labels, normalize_to_apple_tree, with_hashes
from conftest import random_connected_graph, random_decoration, tree_with_chords
from lemmas import beta_map


# -- references: one whole-graph rebuild per move --------------------------


def reference_ih_apply(g, dec, move):
    u, v, x, y, z, w = _labels(g, move.edge)
    if move.pairing_choice == "c":
        x, y = y, x
    u_new, v_new = u, v  # the move keeps the edge's names

    vu, vv = g.vertex_of(u), g.vertex_of(v)
    new_vertices = {}
    for name, triple in g.vertices:
        if name == vu:
            new_vertices[name] = (x, z, u_new)
        elif name == vv:
            new_vertices[name] = (y, w, v_new)
        else:
            new_vertices[name] = triple
    new_edges = [(a, b) for a, b in g.edges if a != u] + [(u_new, v_new)]
    g2 = build_graph(new_vertices, new_edges, boundary=g.boundary)

    if dec is None:
        return g2, None, IhTrace(u, v, x, y, z, w)

    # B(beta) = (beta_xu, beta_yx, beta_zw + delta, beta_wv + delta),
    # delta = beta_ux - beta_vw: the paper's formula on all six lifts.
    old = beta_map(dec)
    delta = old[(u, x)] - old[(v, w)]
    bx, by = old[(x, u)], old[(y, x)]
    bz, bw = old[(z, w)] + delta, old[(w, v)] + delta
    a_unew = 2 - dec.a(x) - dec.a(z)
    alpha = dict(dec.alpha)
    del alpha[u], alpha[v]
    alpha[u_new] = a_unew
    alpha[v_new] = -a_unew
    beta = {
        p: val
        for p, val in old.items()
        if u not in p and v not in p and not (
            {p[0], p[1]} <= {x, y, u} or {p[0], p[1]} <= {z, w, v}
        )
    }
    beta[(u_new, x)] = 0
    beta[(v_new, w)] = 0
    beta[(x, u_new)] = bx
    beta[(y, v_new)] = by
    beta[(z, u_new)] = bz
    beta[(w, v_new)] = bw
    dec2 = make_decoration(g2, alpha, beta)
    return g2, dec2, IhTrace(u, v, x, y, z, w)


def reference_apply_trivial_mod(g, dec, mod):
    beta = beta_map(dec)
    n = mod.amount
    if mod.kind == "V":
        if mod.target not in dict(g.vertices):
            raise BadTarget(f"no vertex named {mod.target!r}")
        triple = g.triple(mod.target)
        for s in triple:
            for t in triple:
                if s != t:
                    beta[(s, t)] += n
    elif mod.kind == "I":
        x1, y1 = mod.target
        if g.partner(x1) != y1:
            raise BadTarget(f"{mod.target!r} is not an internal edge")
        for h in (x1, y1):
            for t in g.others_at_vertex(h):
                beta[(h, t)] += n
    else:
        x = mod.target
        if x not in set(g.half_edges()):
            raise BadTarget(f"no half-edge named {x!r}")
        if g.partner(x) is not None:
            raise BadTarget(f"half-edge {x!r} is not external")
        for t in g.others_at_vertex(x):
            beta[(x, t)] += n
    return make_decoration(g, dict(dec.alpha), beta)


def reference_replay(g, dec, steps):
    for step in steps:
        if isinstance(step, TrivialMod):
            dec = reference_apply_trivial_mod(g, dec, step)
        else:
            g, dec, _ = reference_ih_apply(g, dec, step)
    return g, dec


# -- inputs -------------------------------------------------------------------


def decorated_inputs(v, count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        genus = rng.randint(0, min(v // 2, 10))
        g = tree_with_chords(rng, v, genus)
        out.append((rng, g, random_decoration(g, rng, 5)))
    return out


def random_mods(rng, g, count):
    mods = []
    for _ in range(count):
        kind = rng.choice("VIE")
        if kind == "V":
            target = rng.choice(g.vertex_names())
        elif kind == "I":
            target = rng.choice(g.edges)
            if rng.random() < 0.5:
                target = target[::-1]
        else:
            target = rng.choice(g.boundary)
        mods.append(TrivialMod(kind, target, rng.randint(-7, 7)))
    return mods


def movable_edges(g):
    return [e for e in g.edges if g.vertex_of(e[0]) != g.vertex_of(e[1])]


SIZES = (4, 40, 200)


# -- differential tests -------------------------------------------------------


class TestLocalIhMove:
    @pytest.mark.parametrize("v", SIZES)
    def test_matches_rebuild(self, v):
        for rng, g, dec in decorated_inputs(v, 4, seed=31 + v):
            edges = movable_edges(g)
            for edge in rng.sample(edges, min(8, len(edges))):
                for choice in "bc":
                    move = IhMove(edge, choice)
                    assert ih_apply(g, dec, move) == reference_ih_apply(g, dec, move)
                    assert ih_apply(g, None, move) == reference_ih_apply(g, None, move)

    @pytest.mark.parametrize("v", SIZES)
    def test_chains_match_rebuild(self, v):
        for rng, g, dec in decorated_inputs(v, 2, seed=47 + v):
            steps = []
            gr, dr = g, dec
            for _ in range(25):
                edges = movable_edges(gr)
                if edges and rng.random() < 0.6:
                    step = IhMove(rng.choice(edges), rng.choice("bc"))
                else:
                    (step,) = random_mods(rng, gr, 1)
                steps.append(step)
                gr, dr = reference_replay(gr, dr, [step])
            assert apply_script(g, dec, MoveScript(tuple(steps))) == (gr, dr)


class TestLocalTrivialMod:
    @pytest.mark.parametrize("v", SIZES)
    def test_matches_rebuild(self, v):
        for rng, g, dec in decorated_inputs(v, 4, seed=53 + v):
            for mod in random_mods(rng, g, 15) + [TrivialMod("V", g.vertex_names()[0], 0)]:
                assert apply_trivial_mod(g, dec, mod) == reference_apply_trivial_mod(g, dec, mod)

    def test_bad_targets_match_rebuild(self):
        (rng, g, dec), = decorated_inputs(40, 1, seed=59)
        internal = g.edges[0][0]
        bad = [
            TrivialMod("V", "nope", 1),
            TrivialMod("I", (g.edges[0][0], g.boundary[0]), 1),
            TrivialMod("I", ("nope", "nada"), 1),
            TrivialMod("E", internal, 1),
            TrivialMod("E", "nope", 1),
        ]
        for mod in bad:
            with pytest.raises(BadTarget) as want:
                reference_apply_trivial_mod(g, dec, mod)
            with pytest.raises(BadTarget) as got:
                apply_trivial_mod(g, dec, mod)
            assert str(got.value) == str(want.value)


class TestSinglePassNormalForm:
    @pytest.mark.parametrize("v", (4, 40))
    def test_replay_reaches_frozen_state(self, v):
        for _, g, dec in decorated_inputs(v, 3, seed=61 + v):
            state, _ = normalize_to_apple_tree(g, external_order=sorted(g.boundary))
            script = normal_form(g, dec).script
            assert script == MoveScript(tuple(state.steps))
            g_norm, dec_norm = apply_script(g, dec, script)
            assert (g_norm, None) == state.freeze()
            assert reference_replay(g, dec, script.steps) == (g_norm, dec_norm)


# -- pinned outputs -----------------------------------------------------------


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# (v, genus) -> (normal form digest, normal-form script digest).  The script
# digests were re-taken when IH moves began to keep their edge's names (they
# primed them before); with the trailing primes stripped, the former scripts
# equal these step for step, and the normal forms did not change:
#   (24, 0): 5c72fbb37c8efb5f664bad2b69d98af465d8acb3bf37b0074e14e73aa0ed797d
#   -> 8393043be60ad460fd8b06ca0f52374e7e466f6e1d43b93743f59fdb32cb6945
#   (30, 1): 0399b99bb4e8f3f1298e7fed71022cad6c4302a8407c83870de96ee61ceca898
#   -> 4186e1e3c14aa9c3dc8bd9202167083887dba1733f5b9b453112625a2217c149
#   (36, 2): 44e49c04353fe196e584fd77f1b195e84e31b12902164b002c85e17f016bf5e5
#   -> d52b026806a99e0b17c8821ba190e8596f59d0554b80f6b25102033a5befc137
#   (44, 3): b94f19159f0ae4e67c5080130cef1a6ba03d34405f64b63ec768accf0d6034cd
#   -> d323ebcd1fa3ac454195895553051692f2949456270f34c4160baa9593724a5e
#   (52, 5): ce697a55ac1d8ce62c1e9ca77da510f8599b186c1c40d72d7c9a088676cb4705
#   -> f6a2c215c883956c6e410283cfd2a69cf09d5c812c500747a14ed43df30d7736
#   (60, 6): cabf84a23b34b00414b2d6cb06d2ab2846d703a07538bbe10da504c9d035fdea
#   -> 2f4962ba7afe43fb6a3ca41322caf84697a753d1d66be94ac1f3a1bd758ea7e9
PINNED_NORMAL_FORMS = {
    (24, 0): ("9dfcf5493d79417c89cd0ea5e57e0d7e6020bc0fb0d2742ce13a3dc8ae256fcf",
              "8393043be60ad460fd8b06ca0f52374e7e466f6e1d43b93743f59fdb32cb6945"),
    (30, 1): ("72429dc817f55fe6a3855d70e2358e0cebb5e11e5e7b063ded2d1716cb9b7619",
              "4186e1e3c14aa9c3dc8bd9202167083887dba1733f5b9b453112625a2217c149"),
    (36, 2): ("e985fee59ff702537d477b98c538d01d6ecf4ccc17cb80300f91a8037098bdfb",
              "d52b026806a99e0b17c8821ba190e8596f59d0554b80f6b25102033a5befc137"),
    (44, 3): ("5d8a5c8533e2ba204e344b3ae96e3dc07bd8ad8777e111f9afbb38c49a4112ea",
              "d323ebcd1fa3ac454195895553051692f2949456270f34c4160baa9593724a5e"),
    (52, 5): ("f5cd3ad1d92d075b22690f09a4c4d5d7e90c71f6b48e5f39e07435833a11c76d",
              "f6a2c215c883956c6e410283cfd2a69cf09d5c812c500747a14ed43df30d7736"),
    (60, 6): ("40272afa53aff25aec96e5f5dac2f7b0c4cff856a4f3ed04c8105e62615625d1",
              "2f4962ba7afe43fb6a3ca41322caf84697a753d1d66be94ac1f3a1bd758ea7e9"),
}

# v of a genus-2 pair -> digest of its hashed ih_plan script.  The v=10 and
# v=12 digests were re-taken when ih_plan began to read its bijection off the
# two normalizations: in both pairs the two loops hang off the last spine
# vertex, a boundary-fixing automorphism of the normal form, and the read-off
# sends loop k to loop k where the search it replaced sent it to the other
# loop.  Both scripts replay to g2; v=8 and the normal forms did not change.
# All three were re-taken again when snapshot_hash became a tagged sum of
# per-line SHA-256 hashes, which changes only the hash comment of each line:
#   8: bd9cf0a8b484936619bee53287dfa1c43b44018b1b81dd58e2e74308ce057fbd
#   -> 061da6557145845efcc6149c071edfea8228db597f1884fb3fcc22a6f9e1363e
#   10: e02e069dda07e1e9356a416f915b0ec408bb2c9c8060f9c51f22c2ee6d98736d
#   -> 161340cdb39f036c6aa63e59405130f44f8e89289547d9dc4bc1f4cb1f4b2a09
#   12: 606b80d8f35bb8159c1c3c587b5df263122d95624d65ac220d2f6e7531ed8d84
#   -> c460c0ea8412a711baa53213144829b766dc59f87ed41736c627e6b6521b20e7
# PINNED_PLAN_STEPS, taken before that change, pins the steps without hashes
# and did not change with it.
# All three, and PINNED_PLAN_STEPS, were re-taken when IH moves began to keep
# their edge's names; with the trailing primes stripped, the former scripts
# equal these step for step:
#   8: 061da6557145845efcc6149c071edfea8228db597f1884fb3fcc22a6f9e1363e
#   -> 52c1c9a64cb375fc48d7de4b25c5f70db2b78d4f241a731bd4c574acd02f6f7c
#   10: 161340cdb39f036c6aa63e59405130f44f8e89289547d9dc4bc1f4cb1f4b2a09
#   -> 3e59e10fad214f051b7d458dc4217c1449f3304560c7fbe1ebae87ca713121ac
#   12: c460c0ea8412a711baa53213144829b766dc59f87ed41736c627e6b6521b20e7
#   -> 37b66a00d1a34be6e3235a3c3c86c6ac0e3bd5afd168a5871f401d281807a608
# All three were re-taken when snapshot_hash became the 'm2:' sum over vertex
# blocks (a vertex line with the alpha and beta lines of its triple), edge
# lines and the boundary line; only the hash comments changed, and
# PINNED_PLAN_STEPS did not:
#   8: 52c1c9a64cb375fc48d7de4b25c5f70db2b78d4f241a731bd4c574acd02f6f7c
#   -> 4db50c777c4308ffc36c8b3544bd2f3dc67cda60b744512da8643afad1ad09dc
#   10: 3e59e10fad214f051b7d458dc4217c1449f3304560c7fbe1ebae87ca713121ac
#   -> be5899458852609571c46992f4083c2f44302b2cab7ec12c9487d51ccdf2e475
#   12: 37b66a00d1a34be6e3235a3c3c86c6ac0e3bd5afd168a5871f401d281807a608
#   -> 7bc4ef629e067ae99cb7c9ef7f54ab169dbeff7046727e119f606d0a86f99f6c
PINNED_PLANS = {
    8: "4db50c777c4308ffc36c8b3544bd2f3dc67cda60b744512da8643afad1ad09dc",
    10: "be5899458852609571c46992f4083c2f44302b2cab7ec12c9487d51ccdf2e475",
    12: "7bc4ef629e067ae99cb7c9ef7f54ab169dbeff7046727e119f606d0a86f99f6c",
}

# v of the same pairs -> digest of the plan's steps alone, without hashes.
# Re-taken with the names kept:
#   8: 1c0fc5672cea6cfdcba18c6cdff0d1e3854b5297c7dff6063f2225c2c03e3c5c
#   -> aaf92364ae54967603507caca8a071bf3ec51a51f78efe0cb3318cdf18b74ff0
#   10: 69168c2ca12db6c88aacd9f129486b852d9a7f58b42414d67b3653f8384202bc
#   -> 8001f4694f1f276c7e87a59c76ea50771bc4d3c195bb9c27619cc5e209af0fc1
#   12: d5e0cec898efb0582c7700e6b247fa6b2eab03a7be9a61dafbb6d618a31d57c1
#   -> 913d8a8a8b480717ebb236380abec6fd72884c7ff19f122600ccd406c65502a9
PINNED_PLAN_STEPS = {
    8: "aaf92364ae54967603507caca8a071bf3ec51a51f78efe0cb3318cdf18b74ff0",
    10: "8001f4694f1f276c7e87a59c76ea50771bc4d3c195bb9c27619cc5e209af0fc1",
    12: "913d8a8a8b480717ebb236380abec6fd72884c7ff19f122600ccd406c65502a9",
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("k, key", list(enumerate(PINNED_NORMAL_FORMS)))
    def test_normal_form(self, k, key):
        rng = random.Random(2100 + k)
        g = random_connected_graph(rng, *key)
        dec = random_decoration(g, rng, 5)
        nf = normal_form(g, dec)
        got = (_sha(serialize_decorated_graph(nf.graph, nf.decoration)),
               _sha(serialize_script(nf.script)))
        assert got == PINNED_NORMAL_FORMS[key]

    @pytest.mark.parametrize("k, v", list(enumerate(PINNED_PLANS)))
    def test_plan(self, k, v):
        rng = random.Random(2200 + k)
        g1 = random_connected_graph(rng, v, 2)
        g2 = random_connected_graph(rng, v, 2)
        dec1 = random_decoration(g1, rng, 5)
        bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
        script = with_hashes(g1, dec1, ih_plan(g1, g2, bmap))
        assert _sha(serialize_script(MoveScript(script.steps))) == PINNED_PLAN_STEPS[v]
        assert _sha(serialize_script(script)) == PINNED_PLANS[v]
