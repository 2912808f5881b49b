import hashlib
import random
import re

import pytest

from decograph import (
    BadBoundaryMap,
    DanglingPair,
    DuplicateHalfEdge,
    GraphError,
    HalfEdgeInTwoVertices,
    InvalidCycle,
    NotConnected,
    OrbitBounds,
    OrientedCycle,
    SelfPairing,
    TrivalentGraph,
    boundary_isomorphism,
    build_graph,
    classify,
    cycle_basis,
    graph_stats,
    ih_plan,
    is_connected,
    make_decoration,
)
from decograph.graph import spanning_tree
from decograph.moves import normalize_to_apple_tree
import lemmas
from exhaustive import check_classification
from conftest import (
    fig_a_graph,
    small_graph_corpus,
    tree_with_chords,
    triangle_graph,
    wheel_graph,
)


class TestBuildGraph:
    def test_basic_counts(self):
        g = fig_a_graph()
        s = graph_stats(g)
        assert (s.v, s.i, s.e) == (2, 1, 4)
        assert 3 * s.v == 2 * s.i + s.e
        assert s.genus == (0,)

    def test_auto_named_vertices(self):
        g = build_graph([("a", "b", "c")])
        assert g.vertex_names() == ["v0"]

    def test_duplicate_half_edge(self):
        with pytest.raises(DuplicateHalfEdge):
            build_graph([("a", "a", "b")])

    def test_half_edge_in_two_vertices(self):
        with pytest.raises(HalfEdgeInTwoVertices):
            build_graph([("a", "b", "c"), ("a", "d", "e")])

    def test_self_pairing(self):
        with pytest.raises(SelfPairing):
            build_graph([("a", "b", "c")], [("a", "a")])

    def test_dangling_pair(self):
        with pytest.raises(DanglingPair):
            build_graph([("a", "b", "c")], [("a", "zzz")])

    def test_bad_declared_boundary(self):
        with pytest.raises(GraphError):
            build_graph([("a", "b", "c")], boundary=("a", "b"))

    def test_wrong_triple_size(self):
        with pytest.raises(GraphError):
            build_graph([("a", "b")])

    def test_duplicate_vertex_name(self):
        # distinct keys of the mapping, one name once read as text
        with pytest.raises(DuplicateHalfEdge, match="duplicate vertex name '1'"):
            build_graph({1: ("a", "b", "c"), "1": ("d", "e", "f")})

    def test_names_are_read_as_text(self):
        g = build_graph({0: (3, 1, 2), 5: ["4", "6", "5"]}, [(2, 5)], boundary=(6, 1, 4, 3))
        assert g.vertices == (("0", ("1", "2", "3")), ("5", ("4", "5", "6")))
        assert g.edges == (("2", "5"),) and g.boundary == ("6", "1", "4", "3")
        assert g.vertex_of("3") == "0" and g.partner("5") == "2"
        assert g.triple("5") == ("4", "5", "6") and g.partner("1") is None

    def test_name_with_space_rejected(self):
        # it would serialize as 'vertex W : x y z q', which does not parse back
        with pytest.raises(GraphError, match=r"name 'z q' contains '#' or whitespace"):
            build_graph({"W": ("x", "y", "z q")}, [("x", "y")])

    # '#', space, every character str.splitlines breaks at, other whitespace;
    # a form feed in a half-edge name used to make with_hashes raise KeyError.
    @pytest.mark.parametrize("c", list("# \n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\t\xa0\u3000"))
    def test_name_with_hash_or_line_break_rejected(self, c):
        with pytest.raises(GraphError, match=re.escape(f"name {'z' + c + 'q'!r} contains")):
            build_graph({"W": ("x", "y", f"z{c}q")}, [("x", "y")])
        with pytest.raises(GraphError, match=re.escape(f"name {'W' + c!r} contains")):
            build_graph({f"W{c}": ("x", "y", "z")}, [("x", "y")])

    def test_direct_construction_fills_lookups(self):
        g = build_graph({"u": ("a", "b", "c"), "w": ("d", "e", "f")}, [("a", "d")])
        direct = TrivalentGraph(vertices=g.vertices, edges=g.edges, boundary=g.boundary)
        assert direct == g
        assert direct.vertex_of("e") == "w" and direct.partner("d") == "a"
        assert direct.half_edges() == g.half_edges() and direct.triple("u") == ("a", "b", "c")


class TestStatsAndCycles:
    def test_wheel_genus_one(self):
        g = wheel_graph()
        assert graph_stats(g).genus == (1,)
        (c,) = cycle_basis(g)
        c.validate(g)
        assert len(c.steps) == 1

    def test_triangle_cycle(self):
        g = triangle_graph()
        basis = cycle_basis(g)
        assert len(basis) == 1
        assert len(basis[0].steps) == 3

    def test_cycle_validation_rejects_non_edge(self):
        g = fig_a_graph()
        with pytest.raises(InvalidCycle):
            OrientedCycle((("x", "y"),)).validate(g)

    def test_reversed_cycle_valid(self):
        g = triangle_graph()
        c = cycle_basis(g)[0]
        reversed_cycle = lemmas.OrientedCycle(c.steps).reversed()
        reversed_cycle.validate(g)
        assert reversed_cycle.half_edges() == c.half_edges()[::-1]

    def test_disconnected(self):
        g = build_graph([("a", "b", "c"), ("d", "e", "f")])
        assert not is_connected(g)
        assert graph_stats(g).components == 2
        assert not is_connected(build_graph({}))  # no vertices, 0 components


def _not_one_component():
    """(g, dec) with no vertices, and with two components."""
    empty = build_graph({})
    two = build_graph([("a", "b", "c"), ("d", "e", "f")], [("a", "b"), ("d", "e")])
    alpha = {"a": 1, "b": -1, "c": 2, "d": 1, "e": -1, "f": 2}
    return [
        (empty, make_decoration(empty, {}, {})),
        (two, make_decoration(two, alpha, {})),
    ]


READERS = {
    "ih_plan": lambda g, dec: ih_plan(g, g, {h: h for h in g.boundary}),
    "normalize_to_apple_tree": lambda g, dec: normalize_to_apple_tree(g),
    "check_classification": lambda g, dec: check_classification(
        g, OrbitBounds(max_depth=1), window=1
    ),
    "classify": classify,
}


class TestOneComponent:
    """Every reader needs one component: a graph with no vertices has none."""

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("g, dec", _not_one_component(), ids=("empty", "two"))
    def test_readers_raise(self, g, dec, reader):
        components = graph_stats(g).components
        with pytest.raises(NotConnected, match=f"graph has {components} components"):
            READERS[reader](g, dec)


def _union(parts):
    """The disjoint union of parts, each name suffixed with its part's
    letter, so the components interleave in name order."""
    triples, edges = {}, []
    for tag, g in zip("abc", parts):
        triples.update({n + tag: tuple(h + tag for h in t) for n, t in g.vertices})
        edges += [(x + tag, y + tag) for x, y in g.edges]
    return build_graph(triples, edges)


def _topology_graphs():
    rng = random.Random(12)
    sizes = [(10, 0), (10, 3), (25, 6), (50, 1), (50, 12), (120, 20), (200, 30)]
    chords = [tree_with_chords(rng, v, k) for v, k in sizes]
    unions = [
        _union([tree_with_chords(rng, v, k) for v, k in parts])
        for parts in (((1, 0), (1, 1), (2, 1)), ((12, 4), (3, 0), (30, 7)))
    ]
    return small_graph_corpus() + chords + unions + [_union([wheel_graph()] * 3)]


# SHA-256 of the stats, connectedness, spanning forest (in search order) and
# fundamental cycles of _topology_graphs(), taken when each came from its own
# pass (and each cycle from a tree_path search); the one forest search must
# give the same.
PINNED_TOPOLOGY = "710323d9b7aa1a2b47c75032e57cf9598d801d74918aa466c4dd2f20871d1a43"


def test_pinned_topology():
    lines = []
    for g in _topology_graphs():
        tree, non_tree = spanning_tree(g)
        basis = cycle_basis(g)
        for c in basis:
            c.validate(g)
        stats = f"{graph_stats(g)} {is_connected(g)}"
        steps = [c.steps for c in basis]
        lines.append(f"{stats} {list(tree.items())} {non_tree} {steps}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_TOPOLOGY


class TestBoundaryIsomorphism:
    def test_identity(self):
        g = fig_a_graph()
        iso = boundary_isomorphism(g, g, {h: h for h in g.boundary})
        assert iso is not None
        assert all(iso[h] == h for h in g.boundary)

    def test_relabelled(self):
        g1 = fig_a_graph()
        g2 = build_graph(
            {"P": ("p", "q", "m"), "Q": ("r", "s", "n")}, [("m", "n")]
        )
        iso = boundary_isomorphism(
            g1, g2, {"x": "p", "y": "q", "z": "r", "w": "s"}
        )
        assert iso is not None
        assert iso["u"] in ("m", "n")

    def test_incompatible_map(self):
        g1 = fig_a_graph()
        g2 = build_graph(
            {"P": ("p", "q", "m"), "Q": ("r", "s", "n")}, [("m", "n")]
        )
        # x, z sit at different vertices of g1 but p, q share one in g2
        iso = boundary_isomorphism(
            g1, g2, {"x": "p", "z": "q", "y": "r", "w": "s"}
        )
        assert iso is None

    def test_bad_boundary_map(self):
        g = fig_a_graph()
        with pytest.raises(BadBoundaryMap):
            boundary_isomorphism(g, g, {"x": "x"})

    def test_different_shape(self):
        g1 = wheel_graph()
        g2 = triangle_graph()
        with pytest.raises(BadBoundaryMap):
            boundary_isomorphism(g1, g2, {"z": "r1"})
