"""trivial_mod_equivalent against the dense lattice construction.

The library decides trivial-mod equivalence on the cycle space: one lattice
row per fundamental cycle.  The reference below is the construction it
replaced, kept here as an oracle: one row per source half-edge, one column
per V/I/E modification and one modulus column |alpha_s| * e_s per source,
solved by column Hermite reduction as the library did before it shortened
its solutions.  Both must give the same None/non-None answer.  The
library's witness must replay to dec2, use at most one step per vertex,
internal edge and external half-edge, keep each I and E amount within
|alpha|/2, and over the positive pairs of a test its largest amount may be
no larger than the oracle's.
"""

from __future__ import annotations

import hashlib
import random

import pytest

import decograph.decoration as decoration
from decograph import (
    Decoration,
    DecorationError,
    IhMove,
    MoveScript,
    OrbitBounds,
    TrivialMod,
    a_tilde,
    apply_script,
    build_graph,
    classify,
    cycle_b,
    equivalent,
    ih_apply,
    make_decoration,
    move_orbit,
    normal_form,
    serialize_decorated_graph,
    serialize_script,
    trivial_mod_equivalent,
    validate_decoration,
)
from decograph.graph import cycle_basis
from decograph.lattice import solve_lattice
from decograph.moves import snapshot_hash, with_hashes

from conftest import (
    random_alpha,
    random_decoration,
    small_graph_corpus,
    tree_with_chords,
    wheel_decoration,
)


def hermite_solve(columns, target):
    """Column Hermite reduction, the lattice solver as it was before it
    shortened its solutions.  Each column carries its coefficients over
    the given columns after its first m entries."""
    m, n = len(target), len(columns)
    cols = [list(c) + [int(i == j) for i in range(n)] for j, c in enumerate(columns)]
    pivots = {}
    for r in range(m):
        j0 = len(pivots)
        while True:
            nz = [j for j in range(j0, n) if cols[j][r]]
            if len(nz) <= 1:
                if nz:
                    cols[j0], cols[nz[0]] = cols[nz[0]], cols[j0]
                    pivots[r] = j0
                break
            jmin = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                q = cols[j][r] // cols[jmin][r]
                if j != jmin and q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[jmin])]
    x, residual = [0] * n, list(target)
    for r in range(m):
        if r not in pivots:
            if residual[r]:
                return None
            continue
        col = cols[pivots[r]]
        if residual[r] % col[r]:
            return None
        q = residual[r] // col[r]
        residual = [a - q * b for a, b in zip(residual, col)]
        x = [a + q * b for a, b in zip(x, col[m:])]
    return x


def dense_witness(g, dec1, dec2):
    """The dense V/I/E system over the stored lifts, solved as one lattice."""
    sources = sorted(g.half_edges())
    index = {h: i for i, h in enumerate(sources)}
    moved = (
        [(("V", name), triple) for name, triple in g.vertices]
        + [(("I", (a, b)), (a, b)) for a, b in g.edges]
        + [(("E", x), (x,)) for x in g.boundary]
    )
    columns = []
    for _, halves in moved:
        vec = [0] * len(sources)
        for h in halves:
            vec[index[h]] = 1
        columns.append(vec)
    for i, s in enumerate(sources):
        if dec1.a(s):
            vec = [0] * len(sources)
            vec[i] = abs(dec1.a(s))
            columns.append(vec)
    target = [dec2._beta[s][2] - dec1._beta[s][2] for s in sources]
    coeffs = hermite_solve(columns, target)
    if coeffs is None:
        return None
    return MoveScript(
        steps=tuple(
            TrivialMod(kind, tgt, c)
            for ((kind, tgt), _), c in zip(moved, coeffs)
            if c
        )
    )


def random_script(rng, g, count):
    steps = []
    for _ in range(count):
        kind = rng.choice("VIE" if g.edges else "VE")
        if kind == "V":
            target = rng.choice(g.vertex_names())
        elif kind == "I":
            target = rng.choice(g.edges)
        else:
            target = rng.choice(g.boundary)
        steps.append(TrivialMod(kind, target, rng.choice([-1, 1]) * rng.randint(1, 5)))
    return MoveScript(steps=tuple(steps))


def shifted(g, dec, src, delta):
    """dec with the stored lift of ``src`` moved by ``delta``."""
    beta = {(s, t0): lift for s, (t0, _, lift) in dec.beta}
    beta[(src, dec._beta[src][0])] += delta
    return make_decoration(g, dict(dec.alpha), beta)


def off_class(g, dec):
    """dec with one lift moved off its b_c class, or None when every cycle
    ideal is the unit ideal (then no b_c can differ)."""
    for c in cycle_basis(g):
        if cycle_b(g, dec, c).modulus == 1:
            continue
        # b_c counts -beta_{in, out_next}: one more on that source's lift
        # moves b_c by -1, nonzero modulo I_c.
        moved = shifted(g, dec, c.steps[0][1], 1)
        if cycle_b(g, moved, c) == cycle_b(g, dec, c):
            raise AssertionError("shifted lift kept its b_c (test bug)")
        return moved
    return None


def max_amount(script):
    return max((abs(m.amount) for m in script.steps), default=0)


class Tally:
    """Positive/negative counts and the largest positive witness amounts."""

    def __init__(self):
        self.positive = self.negative = 0
        self.largest = self.largest_oracle = 0

    def check(self, g, dec1, dec2):
        got = trivial_mod_equivalent(g, dec1, dec2)
        want = dense_witness(g, dec1, dec2)
        assert (got is None) == (want is None)
        if got is None:
            self.negative += 1
            return
        self.positive += 1
        assert apply_script(g, dec1, got)[1] == dec2
        assert apply_script(g, dec1, want)[1] == dec2
        assert len(got.steps) <= len(g.vertices) + len(g.edges) + len(g.boundary)
        for m in got.steps:  # I and E amounts are nearest 0 modulo |alpha|
            if m.kind != "V":
                a = dec1.a(m.target[0] if m.kind == "I" else m.target)
                assert not a or 2 * abs(m.amount) <= abs(a)
        self.largest = max(self.largest, max_amount(got))
        self.largest_oracle = max(self.largest_oracle, max_amount(want))


def decorations_sharing_alpha(g, rng, alpha, count=2):
    """Random decorations with one alpha, each with a random script image
    and an off-class copy."""
    out = []
    for _ in range(count):
        dec = random_decoration(g, rng, 3, alpha=alpha)
        out.append(dec)
        out.append(apply_script(g, dec, random_script(rng, g, 8))[1])
        moved = off_class(g, dec)
        if moved is not None:
            out.append(moved)
    return out


def disjoint_union(rng, g1, g2, mag):
    """g1 + g2 with half-edges and vertices prefixed a/b, and a random alpha
    drawn on each component."""
    triples, edges, alpha = {}, [], {}
    for tag, g in (("a", g1), ("b", g2)):
        triples.update({tag + n: tuple(tag + h for h in t) for n, t in g.vertices})
        edges += [(tag + x, tag + y) for x, y in g.edges]
        alpha.update({tag + h: a for h, a in random_alpha(g, rng, mag).items()})
    return build_graph(triples, edges), alpha


def chord_graphs(v, seed):
    rng = random.Random(seed)
    top = min(10, (3 * v - 2 * (v - 1) - 1) // 2)  # leave one external
    return [(rng, tree_with_chords(rng, v, genus)) for genus in range(top + 1)]


# -- the solver ------------------------------------------------------------


def test_solver_solutions_are_exact_and_no_longer_than_hermite():
    rng = random.Random(3)
    solved = shorter = 0
    for _ in range(400):
        m, n = rng.randint(1, 4), rng.randint(1, 8)
        columns = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        if rng.random() < 0.5:
            target = [rng.randint(-9, 9) for _ in range(m)]
        else:
            coeffs = [rng.randint(-3, 3) for _ in range(n)]
            target = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(m)]
        got, want = solve_lattice(columns, target), hermite_solve(columns, target)
        assert (got is None) == (want is None)
        if got is None:
            continue
        solved += 1
        assert [sum(c * col[i] for c, col in zip(got, columns)) for i in range(m)] == target
        assert sum(c * c for c in got) <= sum(c * c for c in want)
        shorter += sum(c * c for c in got) < sum(c * c for c in want)
    assert solved > 200 and shorter > 100


# -- the <= 4-vertex corpus ---------------------------------------------------


def test_corpus_pairs_agree_with_dense_oracle():
    rng = random.Random(41)
    tally = Tally()
    for g in small_graph_corpus():
        if not g.boundary:
            continue
        for mag in (0, 3):
            decs = decorations_sharing_alpha(g, rng, random_alpha(g, rng, mag))
            for dec1 in decs:
                for dec2 in decs:
                    tally.check(g, dec1, dec2)
    assert tally.positive > 500 and tally.negative > 100
    assert tally.largest <= tally.largest_oracle


# -- larger graphs ----------------------------------------------------------


@pytest.mark.parametrize("v", (10, 40, 200))
def test_chord_graphs_agree_with_dense_oracle(v):
    tally = Tally()
    graphs = chord_graphs(v, seed=v)
    # mag 0 puts alpha 0 on every chord; all-even alphas make every cycle
    # ideal proper, so each of those graphs gets a negative pair.
    kinds = ((0, False), (5, False), (4, True))
    if v == 200:  # the dense oracle takes about a second a pair here
        graphs, kinds = graphs[-1:], kinds[1:]
    for rng, g in graphs:
        for mag, even in kinds:
            alpha = random_alpha(g, rng, mag, even=even)
            dec = random_decoration(g, rng, 5, alpha=alpha)
            tally.check(g, dec, apply_script(g, dec, random_script(rng, g, 20))[1])
            moved = off_class(g, dec)
            if moved is not None:
                tally.check(g, dec, moved)
    assert tally.positive == len(kinds) * len(graphs) and tally.negative > 0
    assert tally.largest <= tally.largest_oracle


def test_chord_graphs_have_loops_and_multi_edges():
    graphs = [g for v in (10, 40) for _, g in chord_graphs(v, seed=v)]
    assert any(g.vertex_of(a) == g.vertex_of(b) for g in graphs for a, b in g.edges)
    assert any(
        len({tuple(sorted((g.vertex_of(a), g.vertex_of(b)))) for a, b in g.edges})
        < len(g.edges)
        for g in graphs
    )


def test_two_components_agree_with_dense_oracle():
    rng = random.Random(5)
    g1, g2 = tree_with_chords(rng, 12, 3), tree_with_chords(rng, 9, 2)
    tally = Tally()
    for mag in (0, 4):
        g, alpha = disjoint_union(rng, g1, g2, mag)
        for dec1 in decorations_sharing_alpha(g, rng, alpha, 3):
            for dec2 in decorations_sharing_alpha(g, rng, dict(dec1.alpha), 1):
                tally.check(g, dec1, dec2)
    assert tally.positive > 0 and tally.negative > 0
    assert tally.largest <= tally.largest_oracle


# -- pinned witnesses -------------------------------------------------------

# The kinds of alpha a pinned pair draws: (magnitude, all even).  Magnitude 0
# puts alpha 0 on every chord.
ALPHA_KINDS = {"zero": (0, False), "mixed": (5, False), "even": (4, True)}

# (v, genus, alpha kind) -> SHA-256 of the serialized witness for a seeded
# pair: a random decoration and its image under a random 20-step script.
PINNED_WITNESSES = {
    (10, 4, "zero"): "29320c78961ad3acf3b82cf563779d794aa83dd05e7a851bb882572de3ce21eb",
    (10, 4, "mixed"): "4c4aafa7dc08b768e8afc2a765efdc5a51ea8300aa194120079f7c6aeaf7230a",
    (10, 4, "even"): "70a17ebc847ea108b9ee4e11af1c681d1e55ff83ae2b4f631ad9ecf41164874a",
    (40, 10, "zero"): "3e3aca36c9ef5f50e26aad496accf00a60465af8d156803104bad8af9220d08f",
    (40, 10, "mixed"): "99adf4aa8f84821382c4851fb2240153c456a34e550729d20e567921116c76b9",
    (40, 10, "even"): "fcd96354fecea4f5fc3d46b857dade124dec66d31ff855b2dc08e75d0818de93",
    (200, 10, "zero"): "1d05ae9050801c3500b40cef1477352701551e942ffc3d73e01aad57ccd79c25",
    (200, 10, "mixed"): "020c7eb35fca885d28a36cbc005e7615f098b14d69278a0c3548ba2147b2fcf3",
    (200, 10, "even"): "9f43ab2896059ff9b33308c82cc5ed207e89ec548b4dfd0757606734b482ed55",
}


@pytest.mark.parametrize("k, key", list(enumerate(PINNED_WITNESSES)))
def test_pinned_witness(k, key):
    v, genus, kind = key
    mag, even = ALPHA_KINDS[kind]
    rng = random.Random(2300 + k)
    g = tree_with_chords(rng, v, genus)
    dec = random_decoration(g, rng, 5, alpha=random_alpha(g, rng, mag, even=even))
    dec2 = apply_script(g, dec, random_script(rng, g, 20))[1]
    text = serialize_script(trivial_mod_equivalent(g, dec, dec2))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_WITNESSES[key]


# -- edge cases -------------------------------------------------------------


def test_zero_alpha_loop_needs_equal_lifts():
    g, dec = wheel_decoration(0, 3)
    assert trivial_mod_equivalent(g, dec, shifted(g, dec, "y", 1)) is None
    both = shifted(g, shifted(g, dec, "x", -4), "y", -4)
    script = trivial_mod_equivalent(g, dec, both)
    assert script == MoveScript(steps=(TrivialMod("I", ("x", "y"), -4),))


def test_foreign_decoration_rejected():
    g, dec = wheel_decoration(3, 1)
    smaller = build_graph({"W": ("x", "y", "q")}, [("x", "y")])
    with pytest.raises(
        DecorationError, match=r"fit the graph: alpha missing for half-edges \['q'\]"
    ):
        trivial_mod_equivalent(smaller, dec, dec)
    larger = build_graph({"W": ("x", "y", "z"), "U": ("p", "q", "r")}, [("x", "y")])
    with pytest.raises(
        DecorationError, match=r"fit the graph: alpha missing for half-edges \['p', 'q', 'r'\]"
    ):
        trivial_mod_equivalent(larger, dec, dec)
    extra = make_decoration(
        larger,
        {"x": 3, "y": -3, "z": 2, "p": 1, "q": 1, "r": 0},
        {("x", "y"): 0, ("y", "x"): 0, ("z", "x"): 0,
         ("p", "q"): 0, ("q", "p"): 0, ("r", "p"): 0},
    )
    with pytest.raises(
        DecorationError, match=r"fit the graph: alpha given for unknown half-edges \['p', 'q', 'r'\]"
    ):
        trivial_mod_equivalent(g, extra, extra)


def test_decoration_of_another_graph_rejected():
    # same half-edges, other triples: the lifts of g2's decoration go toward
    # half-edges that are not co-halves on g1
    edges = [("a", "d"), ("b", "e")]
    g1 = build_graph({"A": ("a", "b", "c"), "B": ("d", "e", "f")}, edges)
    g2 = build_graph({"A": ("a", "b", "e"), "B": ("d", "c", "f")}, edges)
    alpha = {"a": 2, "d": -2, "b": 1, "e": -1, "c": -1, "f": 5}
    dec = make_decoration(g2, alpha, {})
    dec2 = apply_script(g2, dec, MoveScript(steps=(TrivialMod("E", "f", 1),)))[1]
    problems = validate_decoration(g1, dec)
    assert [p.split(" is stored")[0] for p in problems] == [
        f"beta of {s!r}" for s in "abcdef"
    ]
    assert problems[0] == (
        "beta of 'a' is stored toward ('b', 'e'), not the other half-edges "
        "('b', 'c') at vertex 'A'"
    )
    assert validate_decoration(g2, dec) == []
    with pytest.raises(DecorationError, match="does not fit the graph: beta of 'a'"):
        trivial_mod_equivalent(g1, dec, dec2)
    own = make_decoration(g1, alpha, {})
    with pytest.raises(DecorationError, match="beta of 'a' is stored toward"):
        trivial_mod_equivalent(g1, own, dec)
    assert trivial_mod_equivalent(g1, own, own) == MoveScript(steps=())
    # the readers check the fit first and name every lift dec stores toward
    # half-edges that are not co-halves on g1
    readers = [
        lambda: classify(g1, dec),
        lambda: equivalent(g1, own, g1, dec, {"c": "c", "f": "f"}),
        lambda: a_tilde(g1, dec),
        lambda: cycle_b(g1, dec, cycle_basis(g1)[0]),
        lambda: ih_apply(g1, dec, IhMove(("a", "d"), "b")),
        lambda: move_orbit(g1, dec, OrbitBounds(max_depth=2)),
    ]
    for read in readers:
        with pytest.raises(
            DecorationError,
            match=r"does not fit the graph: .*beta of '[cd]' is stored toward \('[cd]', 'f'\)",
        ):
            read()


def test_replay_and_serializer_reject_decoration_of_another_graph():
    # the g1/g2 pair above: the V and E steps would replay and the serializer
    # would write a file, but dec is no decoration of g1
    edges = [("a", "d"), ("b", "e")]
    g1 = build_graph({"A": ("a", "b", "c"), "B": ("d", "e", "f")}, edges)
    g2 = build_graph({"A": ("a", "b", "e"), "B": ("d", "c", "f")}, edges)
    alpha = {"a": 2, "d": -2, "b": 1, "e": -1, "c": -1, "f": 5}
    dec = make_decoration(g2, alpha, {})
    script = MoveScript(steps=(TrivialMod("V", "A", 1), TrivialMod("E", "f", 1)))
    fit = "decoration does not fit the graph: beta of 'a' is stored toward"
    for call in (
        lambda: apply_script(g1, dec, script),
        lambda: apply_script(g1, dec, with_hashes(g2, dec, script)),
        lambda: with_hashes(g1, dec, script),
        lambda: snapshot_hash(g1, dec),
        lambda: serialize_decorated_graph(g1, dec),
        lambda: normal_form(g1, dec),
    ):
        with pytest.raises(DecorationError, match=fit):
            call()
    assert apply_script(g2, dec, script)[1] != dec
    own = make_decoration(g1, alpha, {})
    assert validate_decoration(g1, apply_script(g1, own, script)[1]) == []


@pytest.mark.parametrize("hashed", (False, True))
def test_replay_checks_the_fit_once(hashed, monkeypatch):
    # a decoration bound to its graph is never scanned; an unbound copy is
    # scanned once, when the working state is made, and is then bound, so
    # neither a hashed nor an unhashed replay scans it twice
    calls = []
    validate = decoration.validate_decoration

    def counted(g, dec):
        calls.append(g)
        return validate(g, dec)

    monkeypatch.setattr(decoration, "validate_decoration", counted)
    rng = random.Random(16)
    g = tree_with_chords(rng, 16, 2)
    dec = random_decoration(g, rng)
    script = normal_form(g, dec).script
    if hashed:
        calls.clear()
        hashed_script = with_hashes(g, dec, script)
        assert calls == []
        copy = Decoration(alpha=dec.alpha, beta=dec.beta)
        assert with_hashes(g, copy, script) == hashed_script
        assert len(calls) == 1
        script = hashed_script
    calls.clear()
    apply_script(g, dec, script)
    assert calls == []
    unbound = Decoration(alpha=dec.alpha, beta=dec.beta)
    assert apply_script(g, unbound, script) == apply_script(g, dec, script)
    assert len(calls) == 1
    apply_script(g, unbound, script)  # bound to g by its first check
    assert len(calls) == 1


def test_lookup_of_a_missing_half_edge_rejected():
    g, dec = wheel_decoration(3, 1)  # half-edges x, y, z
    with pytest.raises(DecorationError, match="no alpha on half-edge 'q'"):
        dec.a("q")
    with pytest.raises(DecorationError, match="no beta lift from 'q' toward 'x'"):
        dec.b("q", "x")
    with pytest.raises(DecorationError, match=r"stored toward \('y', 'z'\), not 'q'"):
        dec.b("x", "q")
    smaller = build_graph({"W": ("x", "y", "q")}, [("x", "y")])
    assert "no beta lift from 'q' at vertex 'W'" in validate_decoration(smaller, dec)
    # classify checks the fit before any lookup
    with pytest.raises(
        DecorationError, match=r"does not fit the graph: alpha missing for half-edges \['q'\]"
    ):
        classify(smaller, dec)
    # a lift stored toward a half-edge without alpha, built by hand
    lone = Decoration(alpha=(("x", 3),), beta=(("x", ("y", "z", 1)),))
    assert lone.b("x", "y") == 1
    with pytest.raises(DecorationError, match="no beta lift from 'x' toward 'z'"):
        lone.b("x", "z")
