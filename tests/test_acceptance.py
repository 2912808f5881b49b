"""Acceptance criteria: ten property-based checks over the bundled corpus,
each with an explicit runtime budget, and budgets for the graph topology."""

import math
import random
import time
from contextlib import contextmanager

from decograph import (
    IhMove,
    MoveScript,
    OrbitBounds,
    Residue,
    TrivialMod,
    a_tilde,
    apply_script,
    boundary_isomorphism,
    build_graph,
    classify,
    cycle_b,
    cycle_basis,
    equivalent,
    gcd_all,
    graph_stats,
    ih_apply,
    ih_plan,
    is_connected,
    make_decoration,
    normal_form,
    parse_decorated_graph,
    reduce_lift,
    serialize_decorated_graph,
)
from decograph.cli import run_command
from decograph.invariants import ConditionsFail, _check_conditions, arf, frak_C
from decograph.moves import _labels, normalize_to_apple_tree
from exhaustive import check_classification
from lemmas import (
    OrientedCycle,
    _local_B_labelled,
    canonical_beta_planar,
    gamma,
    local_B_prime,
    refined_epsilon,
    sl2_orbit,
    weak_class,
)
from conftest import (
    corpus_decorations,
    named_corpus,
    random_connected_graph,
    random_decoration,
    small_graph_corpus,
    straight_tree_graph,
    tree_with_chords,
    triangle_graph,
    wheel_decoration,
    wheel_graph,
)


@contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeded budget {seconds}s"


def _labelled_B(g, dec, edge, choice):
    u, v, x, y, z, w = _labels(g, edge)
    if choice == "c":
        x, y = y, x
    return _local_B_labelled(dec, u, v, x, y, z, w)


def transport_cycle(tr, c):
    """Transport a cycle through an IH move per the three remark bullets.

    Returns ("avoid"|"same"|"short", cycle-on-the-new-graph), or None for
    the skipped case of a cycle meeting a move vertex without the edge.
    """
    halves = {h for step in c.steps for h in step}
    if tr.u in halves or tr.v in halves:
        j = next(
            i for i, s in enumerate(c.steps)
            if s in ((tr.u, tr.v), (tr.v, tr.u))
        )
        prev_in = c.steps[j - 1][1]
        next_out = c.steps[(j + 1) % len(c.steps)][0]
        left = {tr.x, tr.z}
        p_left, q_left = prev_in in left, next_out in left
        if p_left == q_left:
            return "short", OrientedCycle(c.steps[:j] + c.steps[j + 1:])
        out_half = tr.u if p_left else tr.v
        in_half = tr.v if p_left else tr.u
        return "same", OrientedCycle(
            c.steps[:j] + ((out_half, in_half),) + c.steps[j + 1:]
        )
    if halves & {tr.x, tr.y, tr.z, tr.w}:
        return None
    return "avoid", c


def test_criterion_1_structural_identities(decorated_corpus):
    with budget(1):
        for g in small_graph_corpus() + list(named_corpus().values()):
            s = graph_stats(g)
            assert 3 * s.v == 2 * s.i + s.e
        for g, dec in decorated_corpus:
            s = graph_stats(g)
            assert sum(dec.a(h) for h in g.boundary) == 2 * s.v


def test_criterion_2_cycle_b_triple_agreement():
    with budget(10):
        rng = random.Random(20)
        checked_graphs = 0
        while checked_graphs < 1000:
            genus = rng.randint(1, 3)
            v = rng.randint(max(2, 2 * genus - 1), 2 * genus + 2)
            g = random_connected_graph(rng, v, genus)
            dec = random_decoration(g, rng, mag=rng.choice((3, 8, 20)))
            if dec is None:
                continue
            for c in cycle_basis(g):
                k = len(c.steps)
                modulus = gcd_all(dec.a(h) for h in c.half_edges())
                beta_sum = 0
                gamma_sum = 0
                delta_sum = 0
                for j in range(k):
                    out, inn = c.steps[j]
                    out_next, _ = c.steps[(j + 1) % k]
                    y_prev = c.steps[(j - 1) % k][1]
                    beta_sum += dec.b(out_next, inn) - dec.b(inn, out_next)
                    gamma_sum += gamma(
                        g, dec, g.vertex_of(inn), out_next, inn
                    ).value
                    delta_sum += reduce_lift(
                        dec.b(out, y_prev) - dec.b(inn, out_next), dec.a(out)
                    )
                assert (
                    Residue(beta_sum, modulus)
                    == Residue(gamma_sum, modulus)
                    == Residue(delta_sum, modulus)
                    == cycle_b(g, dec, c)
                )
            checked_graphs += 1


def _gamma_record(g, dec):
    return tuple(
        gamma(g, dec, name, x, y)
        for name, triple in g.vertices
        for x in triple
        for y in triple
        if x != y
    )


def _delta_record(g, dec):
    from lemmas import delta_edge

    return tuple(
        tuple(sorted(delta_edge(g, dec, e).items())) for e in g.edges
    )


def _global_record(g, dec):
    """The quantities invariant under the full trivial-modification group."""
    rec = {"b_c": tuple(cycle_b(g, dec, c) for c in cycle_basis(g))}
    if all(a % 2 == 0 for _, a in dec.alpha):
        rec["weak"] = weak_class(g, dec)
    genus = graph_stats(g).genus[0]
    if genus == 1:
        rec["a_tilde"] = a_tilde(g, dec)
    elif genus >= 2:
        rec["class"] = classify(g, dec).key()
        try:
            rec["arf"] = arf(g, dec)
        except ConditionsFail:
            pass
    return rec


def _random_steps(g, rng, kinds):
    vertices = [name for name, _ in g.vertices]
    steps = []
    for _ in range(rng.randint(1, 3)):
        usable = [
            k for k in kinds
            if (k != "I" or g.edges) and (k != "E" or g.boundary)
        ]
        kind = rng.choice(usable)
        amount = rng.choice((-3, -2, -1, 1, 2, 3))
        if kind == "V":
            steps.append(TrivialMod("V", rng.choice(vertices), amount))
        elif kind == "I":
            steps.append(TrivialMod("I", rng.choice(g.edges), amount))
        else:
            steps.append(TrivialMod("E", rng.choice(g.boundary), amount))
    return MoveScript(tuple(steps))


def test_criterion_3_trivial_mod_invariance(decorated_corpus):
    # b_c, weak class, A~, class and Arf are invariant under every trivial
    # modification.  The local residues are invariant under the subgroup
    # fixing them: gamma under vertex modifications (a V-mod adds the same
    # constant to both beta_{xy} and beta_{yx}), delta under edge and
    # external modifications (their sources are the edge's own halves).
    with budget(30):
        rng = random.Random(21)
        for g, dec in decorated_corpus:
            base = _global_record(g, dec)
            base_gamma = _gamma_record(g, dec)
            base_delta = _delta_record(g, dec)
            for _ in range(100):
                _, dec2 = apply_script(g, dec, _random_steps(g, rng, "VIE"))
                assert _global_record(g, dec2) == base
                _, dec3 = apply_script(g, dec, _random_steps(g, rng, "V"))
                assert _gamma_record(g, dec3) == base_gamma
                _, dec4 = apply_script(g, dec, _random_steps(g, rng, "IE"))
                assert _delta_record(g, dec4) == base_delta


def test_criterion_4_ih_transport_exactness():
    with budget(60):
        rng = random.Random(22)
        checked = 0
        through_cases = 0
        while checked < 500:
            genus = rng.randint(0, 2)
            v = rng.randint(max(2, 2 * genus - 1), 6)
            g = random_connected_graph(rng, v, genus)
            edges = [
                e for e in g.edges if g.vertex_of(e[0]) != g.vertex_of(e[1])
            ]
            if not edges or not g.boundary:
                continue
            dec = random_decoration(
                g, rng, mag=5, even=rng.random() < 0.5
            )
            edge = rng.choice(edges)
            choice = rng.choice("bc")
            B = _labelled_B(g, dec, edge, choice)
            g2, dec2, tr = ih_apply(g, dec, IhMove(edge, choice))
            # B'(beta') = B(beta) identically
            B2 = local_B_prime(dec2, tr)
            assert B2.lifts == B.lifts and B2.moduli == B.moduli
            assert B2.alpha_u == B.alpha_u and B2.alpha_uprime == B.alpha_uprime
            # refined epsilon agrees and satisfies both Z_4 identities
            eps = [r.value for r in refined_epsilon(B)]
            assert eps == [r.value for r in refined_epsilon(B2)]
            e_yx, e_zx, e_wx, e_zy, e_wy, e_wz = eps
            assert (e_wz - e_yx) % 4 == (e_wy - e_zx + 2) % 4
            assert (e_yx + e_wz) % 4 == (e_zx + e_wy - 2 * e_zy) % 4
            # b_c transport for cycles avoiding / passing through the edge
            for c in cycle_basis(g):
                moved = transport_cycle(tr, c)
                if moved is None:
                    continue
                kind, c2 = moved
                c2.validate(g2)
                b1 = cycle_b(g, dec, c)
                b2 = cycle_b(g2, dec2, c2)
                if kind in ("avoid", "same"):
                    assert b1 == b2
                else:
                    through_cases += 1
                    assert b1.modulus == gcd_all((b2.modulus, dec.a(tr.u)))
                    assert Residue(b2.value, b1.modulus) == b1
                if kind == "same":
                    through_cases += 1
            # Arf preserved whenever conditions (1)-(3) hold
            if is_connected(g) and not _check_conditions(g, dec, even_b=True):
                assert not _check_conditions(g2, dec2, even_b=True)
                assert arf(g2, dec2) == arf(g, dec)
            checked += 1
        assert through_cases >= 50  # the through-the-edge bullets were exercised
        # targeted Arf cases: genus-2 apple trees with conditions (1)-(3)
        from test_invariants import apple2_decoration

        for b0 in (0, 2):
            for b1 in (0, 2):
                g, dec = apple2_decoration(4, b0, 4, b1)
                for edge in (("t0a", "t0b"), ("t1a", "t1b")):
                    for choice in "bc":
                        g2, dec2, _ = ih_apply(g, dec, IhMove(edge, choice))
                        assert arf(g2, dec2) == arf(g, dec)


def test_criterion_5_planner_soundness():
    with budget(60):
        rng = random.Random(23)
        done = 0
        while done < 200:
            genus = rng.randint(0, 2)
            v = rng.randint(max(2, 2 * genus - 1), 8)
            g1 = random_connected_graph(rng, v, genus)
            g2 = random_connected_graph(rng, v, genus)
            if not g1.boundary:
                continue
            bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
            script = ih_plan(g1, g2, bmap)
            gN, _ = apply_script(g1, None, script)
            assert boundary_isomorphism(gN, g2, bmap) is not None
            done += 1


def test_criterion_6_genus_one_oracle():
    with budget(10):
        bound = 10
        points = [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
        ]
        assigned: dict = {}
        for p in points:
            if p in assigned:
                continue
            orbit = sl2_orbit(*p, bound)
            d = math.gcd(*p)
            assert orbit == {
                q for q in points if math.gcd(*q) == d
            }, f"orbit of {p} is not the full gcd class"
            for q in orbit:
                assigned[q] = d
        # a_tilde is constant on each orbit (= the gcd, on the wheel)
        for (a, b), d in assigned.items():
            g, dec = wheel_decoration(a, b)
            assert a_tilde(g, dec) == d


def test_criterion_7_normal_form_coherence(decorated_corpus):
    with budget(60):
        entries = []
        for g, dec in decorated_corpus:
            nf = normal_form(g, dec)
            nf_again = normal_form(nf.graph, nf.decoration)
            assert (nf_again.graph, nf_again.decoration, nf_again.report) == (
                nf.graph, nf.decoration, nf.report
            )
            rep = classify(g, dec)
            key = (
                rep.genus,
                tuple(sorted(rep.boundary_alpha)),
                rep.a_tilde, rep.cls, rep.arf,
            )
            stripped = (
                rep.genus,
                tuple(a for _, a in sorted(rep.boundary_alpha)),
                rep.a_tilde, rep.cls, rep.arf,
            )
            entries.append((g, dec, nf, key, stripped))
        for i in range(len(entries)):
            g1, d1, nf1, key1, s1 = entries[i]
            for j in range(i + 1, len(entries)):
                g2, d2, nf2, key2, s2 = entries[j]
                if len(g1.boundary) != len(g2.boundary):
                    continue
                bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
                eq = equivalent(g1, d1, g2, d2, bmap)
                if sorted(g1.boundary) == sorted(g2.boundary):
                    same_nf = (nf1.graph, nf1.decoration, nf1.report) == (
                        nf2.graph, nf2.decoration, nf2.report
                    )
                    assert eq == same_nf == (key1 == key2)
                else:
                    assert eq == (s1 == s2)


def test_criterion_8_classification_soundness():
    with budget(300):
        single = straight_tree_graph(3)
        report = check_classification(
            single, OrbitBounds(max_param=1, max_depth=3, max_frontier=3000),
            window=3,
        )
        assert report.ok, report.violations
        assert report.n_decorations > 0
        wheel = wheel_graph()
        report = check_classification(
            wheel, OrbitBounds(max_param=2, max_depth=3, max_frontier=3000),
            window=6,
        )
        assert report.ok, report.violations
        assert report.n_decorations > 0


def _cycle_edge_set(c):
    return {frozenset(step) for step in c.steps}


def _walk_cycles(g, edge_sets):
    """Decompose a set of edges (every incident vertex has degree 2) into
    oriented cycles."""
    remaining = set(edge_sets)
    halves = {h for e in remaining for h in e}
    cycles = []
    while remaining:
        start = min(min(e) for e in remaining)
        steps = []
        out = start
        while True:
            inn = g.partner(out)
            steps.append((out, inn))
            remaining.discard(frozenset((out, inn)))
            nxt = [
                h for h in g.others_at_vertex(inn)
                if h in halves and frozenset((h, g.partner(h))) in remaining
            ]
            if not nxt:
                break
            (out,) = nxt
        c = OrientedCycle(tuple(steps))
        c.validate(g)
        cycles.append(c)
    return cycles


def test_criterion_9_weak_cocycle():
    with budget(10):
        rng = random.Random(24)
        checked = 0
        while checked < 60:
            g = random_connected_graph(rng, rng.randint(3, 5), 2)
            if not g.boundary:
                continue
            dec = random_decoration(g, rng, mag=4, even=True)
            c1, c2 = cycle_basis(g)[:2]
            sym = _cycle_edge_set(c1) ^ _cycle_edge_set(c2)
            if not sym:
                continue
            parts = _walk_cycles(g, sym)
            total = sum(cycle_b(g, dec, c).value for c in parts)
            b1 = cycle_b(g, dec, c1).value
            b2 = cycle_b(g, dec, c2).value
            assert (total - b1 - b2) % 2 == 0
            checked += 1
        # planar canonical beta: b_c = 0 on the bounded face
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
        face = OrientedCycle((("p12", "p21"), ("p23", "p32"), ("p31", "p13")))
        assert cycle_b(g, dec, face) == Residue(0, 2)
        assert cycle_b(g, dec, face.reversed()) == Residue(0, 2)


def test_criterion_10_cli_round_trip(decorated_corpus, tmp_path, capsys):
    with budget(5):
        paths = []
        for idx, (g, dec) in enumerate(decorated_corpus):
            text = serialize_decorated_graph(g, dec)
            g2, dec2 = parse_decorated_graph(text)
            assert serialize_decorated_graph(g2, dec2) == text
            p = tmp_path / f"c{idx}.dg"
            p.write_text(text)
            paths.append((str(p), g, dec))
        # spot-check the CLI against the library on a handful of pairs
        rng = random.Random(25)
        pairs = 0
        while pairs < 12:
            (p1, g1, d1), (p2, g2, d2) = rng.sample(paths, 2)
            if sorted(g1.boundary) != sorted(g2.boundary):
                continue
            bmap = {h: h for h in g1.boundary}
            expected = 0 if equivalent(g1, d1, g2, d2, bmap) else 1
            assert run_command(["equiv", p1, p2]) == expected
            capsys.readouterr()
            pairs += 1
        assert run_command(["validate", paths[0][0]]) == 0
        capsys.readouterr()


# -- topology budgets --------------------------------------------------------
# One forest search per graph: the cost grows with the graph and the basis,
# not with components x edges or chords x vertices.


def test_stats_of_many_components():
    n = 5000
    g = build_graph({f"W{k}": (f"x{k}", f"y{k}", f"z{k}") for k in range(n)},
                    [(f"x{k}", f"y{k}") for k in range(n)])
    with budget(1):
        s = graph_stats(g)
    assert s.components == n and s.genus == (1,) * n


def test_cycle_basis_of_many_chords():
    g = tree_with_chords(random.Random(1), 4000, 1500)
    with budget(2):
        basis = cycle_basis(g)
    assert len(basis) == 1500


def test_planner_at_v4000():
    # Each IH step of the planner costs the same at any size: its tree path
    # is climbed along parent pointers kept through the moves.
    g = tree_with_chords(random.Random(11), 4000, 80)
    with budget(3.5):
        state, loops = normalize_to_apple_tree(g)
    assert len(loops) == 80 and len(state.steps) == 99623


def bubble_chain(n):
    """Class III chain of n double-edge bubbles A_k=B_k, each joined to the
    next by b_{k-1}s~a_ks, with alpha 0 and +-4k on the bubble's edges:
    frak_C is the n bubbles."""
    vertices, edges, alpha = {}, [], {}
    for k in range(1, n + 1):
        vertices[f"A{k}"] = (f"a{k}p", f"a{k}q", f"a{k}s")
        vertices[f"B{k}"] = (f"b{k}p", f"b{k}q", f"b{k}s")
        edges += [(f"a{k}p", f"b{k}p"), (f"a{k}q", f"b{k}q")]
        if k > 1:
            edges.append((f"b{k - 1}s", f"a{k}s"))
        alpha.update({f"a{k}p": 0, f"b{k}p": 0, f"a{k}q": 4 * k, f"b{k}q": -4 * k,
                      f"a{k}s": 2 - 4 * k, f"b{k}s": 2 + 4 * k})
    g = build_graph(vertices, edges)
    return g, make_decoration(g, alpha, {})


def test_frak_C_of_many_bubbles():
    g, dec = bubble_chain(4000)
    with budget(1):
        cycles = frak_C(g, dec)
    assert [c.steps[0][0] for c in cycles[:3]] == ["a1000p", "a1001p", "a1002p"]
    assert len(cycles) == 4000 and classify(g, dec).cls == "III"
