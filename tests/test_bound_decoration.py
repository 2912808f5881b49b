"""A decoration is bound to the graph it was built on.

``make_decoration`` and the working state's ``freeze`` record that graph on
the Decoration, and equality ignores it.  ``decoration._check_fit`` returns
at once for a decoration bound to the very graph it is given, runs
``validate_decoration`` only otherwise (an equal graph included), and binds
a decoration that fits.  Every public reader of a (graph, decoration) pair goes through
it, so none answers for a decoration of another graph, and the flows of the
benchmark's four workloads, built from parsed files, never scan a
decoration at all.
"""

import random

import pytest

import decograph.decoration as decoration
import decograph.moves as moves
from decograph import (
    Decoration,
    DecorationError,
    IhMove,
    MoveScript,
    OrbitBounds,
    TrivialMod,
    apply_script,
    apply_trivial_mod,
    build_graph,
    classify,
    cycle_b,
    cycle_basis,
    dot_export,
    equivalent,
    frak_C,
    ih_apply,
    ih_plan,
    make_decoration,
    move_orbit,
    normal_form,
    parse_decorated_graph,
    parse_script,
    serialize_decorated_graph,
    serialize_script,
    trivial_mod_equivalent,
    validate_decoration,
)
from decograph.moves import snapshot_hash, with_hashes
from decograph.moves import _PlanState
from decograph.oracle import _neighbour_lifts, _round_trip_moves
from lemmas import (
    a_tilde,
    arf,
    decoration_class,
    delta_edge,
    extract_loop_tuple,
    gamma,
    local_B,
    weak_class,
    weaken,
)

from conftest import random_decoration, small_graph_corpus, tree_with_chords

EDGES = [("a", "d"), ("b", "e")]
G1 = {"A": ("a", "b", "c"), "B": ("d", "e", "f")}


def _foreign_pairs():
    """(g1, dec) with dec a decoration of a graph g2 that has g1's
    half-edges and edges but other triples: the pair of the README, and
    that of test_decoration_of_another_graph_rejected."""
    g1 = build_graph(G1, EDGES)
    readme = make_decoration(
        build_graph({"A": ("a", "b", "f"), "B": ("c", "d", "e")}, EDGES),
        {"a": 1, "d": -1, "b": 1, "e": -1, "f": 0, "c": 4}, {},
    )
    other = make_decoration(
        build_graph({"A": ("a", "b", "e"), "B": ("d", "c", "f")}, EDGES),
        {"a": 2, "d": -2, "b": 1, "e": -1, "c": -1, "f": 5}, {},
    )
    return [(g1, readme), (g1, other)]


FOREIGN = _foreign_pairs()
BMAP = {"c": "c", "f": "f"}
SCRIPT = MoveScript(steps=(TrivialMod("V", "A", 1), TrivialMod("E", "f", 1)))


def _own(g, d):
    """A graph d fits: the one it is bound to, or g for an unbound d of g."""
    return d._graph or g


# Every public reader of a (graph, decoration) pair, and the lemma readers
# of tests/lemmas.py, which check the fit as the library's readers do.  The
# orbit walk's round trips are read through move_orbit, which checks it.
READERS = {
    "ih_apply": lambda g, d: ih_apply(g, d, IhMove(("a", "d"), "b")),
    "apply_trivial_mod": lambda g, d: apply_trivial_mod(g, d, TrivialMod("E", "f", 1)),
    "apply_script": lambda g, d: apply_script(g, d, SCRIPT),
    "apply_script hashed": lambda g, d: apply_script(
        g, d, with_hashes(_own(g, d), d, SCRIPT)
    ),
    "with_hashes": lambda g, d: with_hashes(g, d, SCRIPT),
    "classify": classify,
    "normal_form": normal_form,
    "equivalent": lambda g, d: equivalent(g, d, g, d, BMAP),
    "equivalent second": lambda g, d: equivalent(_own(g, d), d, g, d, BMAP),
    "a_tilde": a_tilde,
    "decoration_class": decoration_class,
    "arf": arf,
    "cycle_b": lambda g, d: cycle_b(g, d, cycle_basis(g)[0]),
    "gamma": lambda g, d: gamma(g, d, "A", "a", "b"),
    "delta_edge": lambda g, d: delta_edge(g, d, ("a", "d")),
    "local_B": lambda g, d: local_B(g, d, ("a", "d")),
    "move_orbit": lambda g, d: move_orbit(g, d, OrbitBounds(max_depth=2)),
    "move_orbit depth 0": lambda g, d: move_orbit(g, d, OrbitBounds(max_depth=0)),
    "serialize_decorated_graph": serialize_decorated_graph,
    "snapshot_hash": snapshot_hash,
    "trivial_mod_equivalent": lambda g, d: trivial_mod_equivalent(g, d, d),
    "dot_export": dot_export,
    "weaken": weaken,
    "weak_class": weak_class,
    "frak_C": frak_C,
    "extract_loop_tuple": lambda g, d: extract_loop_tuple(g, d, []),
}


@pytest.mark.parametrize("pair", range(len(FOREIGN)), ids=["readme", "other"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_rejects_a_decoration_of_another_graph(name, pair):
    g1, dec = FOREIGN[pair]
    assert validate_decoration(g1, dec) != []
    with pytest.raises(DecorationError, match="^decoration does not fit the graph: "):
        READERS[name](g1, dec)


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_reader_answers_for_a_decoration_of_its_graph(name):
    # the same readers on a decoration of g1 itself, bound or not
    g1 = build_graph(G1, EDGES)
    dec = make_decoration(g1, {"a": 2, "d": -2, "b": 2, "e": -2, "c": -2, "f": 6}, {})
    unbound = Decoration(alpha=dec.alpha, beta=dec.beta)
    assert READERS[name](g1, dec) == READERS[name](g1, unbound)


def test_dot_export_checks_the_fit():
    g1, dec = FOREIGN[0]
    with pytest.raises(DecorationError, match="vertex 'A': alpha sum 6 != 2"):
        dot_export(g1, dec)
    own = dec._graph
    assert "(a=4)" in dot_export(own, dec)  # c carries alpha 4 on its own graph
    assert dot_export(g1) == dot_export(g1, None)


def test_binding_is_invisible_to_equality():
    g1, dec = FOREIGN[1]
    g2 = dec._graph
    copy = Decoration(alpha=dec.alpha, beta=dec.beta)
    assert copy._graph is None and dec._graph is g2
    assert copy == dec and hash(copy) == hash(dec) and repr(copy) == repr(dec)
    # the same decoration on two graphs that are not equal (boundary order)
    g3 = build_graph(dict(g2.vertices), g2.edges, boundary=g2.boundary[::-1])
    assert g3 != g2 and serialize_decorated_graph(g3, dec)
    assert dec._graph is g3  # checked once and bound to g3, where it fits too


def test_unbound_decoration_is_checked_once(monkeypatch):
    calls = []
    validate = decoration.validate_decoration

    def counted(g, dec):
        calls.append(g)
        return validate(g, dec)

    monkeypatch.setattr(decoration, "validate_decoration", counted)
    rng = random.Random(3)
    g = tree_with_chords(rng, 12, 3)
    dec = random_decoration(g, rng)
    unbound = Decoration(alpha=dec.alpha, beta=dec.beta)
    for _ in range(3):
        assert classify(g, unbound) == classify(g, dec)
        assert equivalent(g, unbound, g, dec, {h: h for h in g.boundary})
    assert len(calls) == 1
    # a decoration that does not fit stays unbound and is checked each time
    g1, foreign = FOREIGN[0]
    stray = Decoration(alpha=foreign.alpha, beta=foreign.beta)
    for _ in range(2):
        with pytest.raises(DecorationError):
            classify(g1, stray)
    assert stray._graph is None and len(calls) == 3


def test_an_equal_graph_is_checked_once_and_bound(monkeypatch):
    # the fit is known by identity: the same text parsed twice gives equal
    # graphs, and the decoration of the first is checked once on the second
    rng = random.Random(5)
    g0 = tree_with_chords(rng, 12, 3)
    text = serialize_decorated_graph(g0, random_decoration(g0, rng))
    g, dec = parse_decorated_graph(text)
    g2, _ = parse_decorated_graph(text)
    assert g2 == g and g2 is not g and dec._graph is g
    calls = []
    validate = decoration.validate_decoration

    def counted(g, dec):
        calls.append(g)
        return validate(g, dec)

    monkeypatch.setattr(decoration, "validate_decoration", counted)
    for _ in range(2):
        classify(g2, dec)
    assert calls == [g2] and calls[0] is g2 and dec._graph is g2


def test_round_trips_come_back_bound_to_the_start_graph(monkeypatch):
    # the walk replays an IH round trip as two decoration transports on a
    # state whose graph it never edits, so it binds each decoration it
    # reaches to the very graph it started from and builds no graph
    built = []
    monkeypatch.setattr(moves, "build_graph", lambda *a, **k: built.append(a))
    rng = random.Random(9)
    walked = 0
    for g in small_graph_corpus():
        if not g.boundary or not g.edges:
            continue
        dec = random_decoration(g, rng)
        orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=2))
        assert all(d._graph is g for d in orbit)
        state = _PlanState(g, dec)
        steps = [(trip, m) for trip in _round_trip_moves(g) for m in (0, 1, -1)]
        vectors = _neighbour_lifts(state, state.lift_vector(), [], steps)
        trips = [state.decoration() for _ in vectors]
        assert all(d._graph is g for d in trips)
        walked += len(trips)
    assert walked and built == []


# -- the benchmark's flows, built from parsed files ----------------------


def _normalize_flow(rng):
    g = tree_with_chords(rng, 20, 3)
    text = serialize_decorated_graph(g, random_decoration(g, rng))

    def run():
        g, dec = parse_decorated_graph(text)
        nf = normal_form(g, dec)
        serialize_decorated_graph(nf.graph, nf.decoration)
        assert nf.report.key() == classify(g, dec).key()

    return run


def _plan_flow(rng):
    g1, g2 = tree_with_chords(rng, 10, 2), tree_with_chords(rng, 10, 2)
    source = serialize_decorated_graph(g1, random_decoration(g1, rng))
    target = serialize_decorated_graph(g2)
    bmap = dict(zip(g1.boundary, g2.boundary))

    def run():
        g1, dec1 = parse_decorated_graph(source)
        g2, _ = parse_decorated_graph(target)
        script = serialize_script(with_hashes(g1, dec1, ih_plan(g1, g2, bmap)))
        g, dec = parse_decorated_graph(source)
        g_out, dec_out = apply_script(g, dec, parse_script(script))
        serialize_decorated_graph(g_out, dec_out)
        assert classify(g_out, dec_out).key() == classify(g, dec).key()

    return run


def _decide_flow(rng):
    g = tree_with_chords(rng, 24, 3)
    dec = random_decoration(g, rng)
    text = serialize_decorated_graph(g, dec)
    steps = [TrivialMod("V", name, rng.randint(1, 5)) for name in g.vertex_names()[:4]]
    steps += [TrivialMod("I", g.edges[0], 2), TrivialMod("E", g.boundary[0], 3)]
    script = serialize_script(MoveScript(tuple(steps)))
    control = serialize_decorated_graph(g, random_decoration(g, rng))
    identity = {h: h for h in g.boundary}

    def run():
        g, dec1 = parse_decorated_graph(text)
        _, dec2 = apply_script(g, dec1, parse_script(script))
        witness = trivial_mod_equivalent(g, dec1, dec2)
        assert apply_script(g, dec1, witness)[1] == dec2
        assert classify(g, dec1).key() == classify(g, dec2).key()
        assert equivalent(g, dec1, g, dec2, identity)
        gc, dec_c = parse_decorated_graph(control)
        equivalent(g, dec1, gc, dec_c, identity)

    return run


def _orbit_flow(rng):
    g = rng.choice([g for g in small_graph_corpus() if g.boundary and len(g.edges) >= 2])
    text = serialize_decorated_graph(g, random_decoration(g, rng))

    def run():
        g, dec = parse_decorated_graph(text)
        orbit = move_orbit(g, dec, OrbitBounds(max_param=1, max_depth=2))
        assert len(orbit) > 1
        assert len({classify(g, d).key() for d in orbit}) == 1

    return run


FLOWS = {
    "normalize": _normalize_flow,
    "plan": _plan_flow,
    "decide": _decide_flow,
    "orbit": _orbit_flow,
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_flows_from_parsed_files_scan_no_decoration(name, monkeypatch):
    calls = []
    validate = decoration.validate_decoration

    def counted(g, dec):
        calls.append(g)
        return validate(g, dec)

    rng = random.Random(1)
    runs = [FLOWS[name](rng) for _ in range(3)]  # inputs made before counting
    monkeypatch.setattr(decoration, "validate_decoration", counted)
    for run in runs:
        run()
    assert calls == []
