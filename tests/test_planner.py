"""The planner's read-off bijection, its maintained tree, and the
propagating isomorphism search.

ih_plan normalizes both graphs to the apple tree and reads the bijection
psi between the two normal forms off their alignment.  Before, it searched
for psi with boundary_isomorphism; that planner is kept here as the oracle.
The planner keeps the parent pointers of its spanning tree through its IH
moves and climbs them for each path; the breadth-first search it replaced
is kept here as the oracle.  boundary_isomorphism now propagates forced
assignments; the plain backtracking it replaced is kept here as its oracle.
"""

import itertools
import random
import time
from collections import deque

import pytest

from decograph import (
    BadBoundaryMap,
    IhMove,
    InternalError,
    MoveScript,
    apply_script,
    boundary_isomorphism,
    classify,
    graph_stats,
    ih_plan,
    is_connected,
)
from decograph import moves
from decograph.graph import GraphError, _forest, spanning_tree
from decograph.moves import (
    _PlanState,
    _read_off_psi,
    normalize_to_apple_tree,
)
from lemmas import choice_for
from conftest import (
    fig_a_graph,
    named_corpus,
    random_connected_graph,
    random_decoration,
    small_graph_corpus,
    tree_with_chords,
    wheel_graph,
)


# -- oracles: the code the change replaced -----------------------------------


def backtracking_isomorphism(g1, g2, boundary_map):
    """boundary_isomorphism as it was: plain backtracking over the g1
    vertices in name order, without propagation."""
    b1, b2 = set(g1.boundary), set(g2.boundary)
    if set(boundary_map) != b1 or set(boundary_map.values()) != b2 or len(
        boundary_map
    ) != len(b2):
        raise BadBoundaryMap("boundary_map is not a bijection of the boundaries")
    if len(g1.vertices) != len(g2.vertices) or len(g1.edges) != len(g2.edges):
        return None

    order = g1.vertex_names()
    targets = g2.vertex_names()
    hmap = dict(boundary_map)
    used_vertices = set()

    def consistent(h, h2):
        p = g1.partner(h)
        if p is None:
            return g2.partner(h2) is None
        q = g2.partner(h2)
        if q is None:
            return False
        if p in hmap:
            return hmap[p] == q
        return True

    def extend(idx):
        if idx == len(order):
            return all(
                hmap[g1.partner(h)] == g2.partner(hmap[h])
                for h in hmap
                if g1.partner(h) is not None
            )
        vtx = order[idx]
        triple = g1.triple(vtx)
        forced = None
        for h in triple:
            if h in hmap:
                w = g2.vertex_of(hmap[h])
                if forced is not None and forced != w:
                    return False
                forced = w
        candidates = [forced] if forced is not None else [
            t for t in targets if t not in used_vertices
        ]
        for tgt in candidates:
            if tgt is None or tgt in used_vertices:
                continue
            t2 = g2.triple(tgt)
            for perm in itertools.permutations(t2):
                pairs = list(zip(triple, perm))
                if not all(hmap.get(h, h2) == h2 for h, h2 in pairs):
                    continue
                if not all(consistent(h, h2) for h, h2 in pairs):
                    continue
                added = [h for h, _ in pairs if h not in hmap]
                for h, h2 in pairs:
                    hmap.setdefault(h, h2)
                used_vertices.add(tgt)
                if len(set(hmap.values())) == len(hmap) and extend(idx + 1):
                    return True
                used_vertices.discard(tgt)
                for h in added:
                    del hmap[h]
        return False

    return dict(hmap) if extend(0) else None


def bfs_tree_path(g, cut, start_vertex, end_vertex):
    """graph.tree_path as it was: a breadth-first search from start_vertex
    over the internal edges not in ``cut`` (sorted pairs)."""
    prev = {start_vertex: None}
    frontier = deque([start_vertex])
    while frontier and end_vertex not in prev:
        vtx = frontier.popleft()
        for h in g.triple(vtx):
            p = g.partner(h)
            if p is None or tuple(sorted((h, p))) in cut:
                continue
            w = g.vertex_of(p)
            if w not in prev:
                prev[w] = (h, p)
                frontier.append(w)
    if end_vertex not in prev:
        raise GraphError(f"no tree path from {start_vertex!r} to {end_vertex!r}")
    path, cur = [], end_vertex
    while cur != start_vertex:
        path.append(prev[cur])
        cur = g.vertex_of(path[-1][0])
    return path[::-1]


def _normalizations(g1, g2, bmap):
    state1, loops1 = normalize_to_apple_tree(g1, external_order=sorted(g1.boundary))
    order2 = [bmap[h] for h in sorted(g1.boundary)]
    state2, loops2 = normalize_to_apple_tree(g2, external_order=order2)
    inv_map = {bmap[h]: h for h in bmap}
    return state1, loops1, state2, loops2, inv_map


def search_plan(g1, g2, bmap):
    """ih_plan as it was: psi found by boundary_isomorphism between the two
    normal forms (whose answers equal the backtracking oracle's, see
    TestBoundaryIsomorphism).  Returns the script, that psi and the psi the
    read-off gives on the same normalizations."""
    state1, loops1, state2, loops2, inv_map = _normalizations(g1, g2, bmap)
    read = _read_off_psi(state2, state1, inv_map, loops2, loops1)
    psi = boundary_isomorphism(state2.freeze()[0], state1.freeze()[0], inv_map)
    found = dict(psi)
    for trace in reversed(state2.traces):
        edge = (psi[trace.u], psi[trace.v])
        tr2 = state1.apply(choice_for(state1, edge, {psi[trace.x], psi[trace.y]}))
        del psi[trace.u], psi[trace.v]
        vx = state1.vertex_of(psi[trace.x])
        if tr2.u in state1.triple(vx):
            psi[trace.u], psi[trace.v] = tr2.u, tr2.v
        else:
            psi[trace.u], psi[trace.v] = tr2.v, tr2.u
    return MoveScript(steps=tuple(state1.steps)), found, read


# -- samples ---------------------------------------------------------------


def _shape(g):
    s = graph_stats(g)
    return s.v, s.i, s.e


def corpus_pairs():
    """Every ordered pair of connected corpus graphs of the same shape, the
    boundaries matched in sorted order; closed pairs included."""
    graphs = [
        g for g in small_graph_corpus() + list(named_corpus().values())
        if is_connected(g)
    ]
    return [
        (g1, g2, dict(zip(sorted(g1.boundary), sorted(g2.boundary))))
        for g1, g2 in itertools.product(graphs, repeat=2)
        if _shape(g1) == _shape(g2)
    ]


def random_pairs(seed, count, max_v, shuffle=False):
    """Random connected pairs of one genus (at most 3) and v <= max_v."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        genus = rng.randint(0, 3)
        v = rng.randint(max(2, 2 * genus - 1), max_v)
        g1 = random_connected_graph(rng, v, genus)
        g2 = random_connected_graph(rng, v, genus)
        targets = sorted(g2.boundary)
        if shuffle:
            rng.shuffle(targets)
        out.append((g1, g2, dict(zip(sorted(g1.boundary), targets))))
    return out


# -- boundary_isomorphism --------------------------------------------------


class TestBoundaryIsomorphism:
    def test_same_answer_as_backtracking_on_corpus(self):
        for g1, g2, bmap in corpus_pairs():
            assert boundary_isomorphism(g1, g2, bmap) == backtracking_isomorphism(
                g1, g2, bmap
            )

    @pytest.mark.parametrize("seed", (1, 2))
    def test_same_answer_as_backtracking_on_random_pairs(self, seed):
        isomorphic = 0
        for g1, g2, bmap in random_pairs(seed, 60, 9, shuffle=seed == 2):
            # raw pairs (mostly not isomorphic) and their aligned normal forms
            state1, _, state2, _, _ = _normalizations(g1, g2, bmap)
            for a, b in ((g1, g2), (state1.freeze()[0], state2.freeze()[0])):
                got = boundary_isomorphism(a, b, bmap)
                assert got == backtracking_isomorphism(a, b, bmap)
                isomorphic += got is not None
        assert isomorphic >= 60


# -- ih_plan ---------------------------------------------------------------


def _check_against_search(pairs):
    agree = 0
    for g1, g2, bmap in pairs:
        script = ih_plan(g1, g2, bmap)
        old, psi_search, psi_read = search_plan(g1, g2, bmap)
        for s in (script, old):
            gN, _ = apply_script(g1, None, s)
            assert boundary_isomorphism(gN, g2, bmap) is not None
        if psi_search == psi_read:
            agree += 1
            assert script == old
    return agree


class TestPlanner:
    def test_corpus_pairs_against_search_planner(self):
        pairs = corpus_pairs()
        assert len(pairs) == 199
        assert sum(1 for g1, _, _ in pairs if not g1.boundary) == 29
        assert _check_against_search(pairs) > len(pairs) // 2

    def test_random_pairs_against_search_planner(self):
        pairs = random_pairs(5, 80, 10)
        assert _check_against_search(pairs) > len(pairs) // 2

    @pytest.mark.parametrize("v, genus", [(50, 0), (50, 5), (50, 20),
                                          (200, 10), (200, 20)])
    def test_soundness_at_scale(self, v, genus):
        start = time.monotonic()
        rng = random.Random(1000 * v + genus)
        g1 = tree_with_chords(rng, v, genus)
        g2 = tree_with_chords(rng, v, genus)
        dec1 = random_decoration(g1, rng)
        bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
        script = ih_plan(g1, g2, bmap)
        gN, decN = apply_script(g1, dec1, script)
        assert classify(gN, decN).key() == classify(g1, dec1).key()
        assert boundary_isomorphism(gN, g2, bmap) is not None
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"runtime {elapsed:.1f}s exceeded budget 10s"


class TestRejoin:
    """_PlanState.rejoin is the one place that says which new half of an IH
    move sits with which old half-edges."""

    def test_half_at_a_first(self, corpus):
        rng = random.Random(41)
        graphs = corpus + [tree_with_chords(rng, 40, k) for k in (0, 3, 8)]
        checked = 0
        for g in graphs:
            for u, v in g.edges:
                if g.vertex_of(u) == g.vertex_of(v):
                    continue  # a loop has no IH move
                cross = itertools.product(g.others_at_vertex(u), g.others_at_vertex(v))
                for x, z in cross:
                    for a, b in ((x, z), (z, x)):
                        state = _PlanState(g)
                        at_a, at_b = state.rejoin((u, v), a, b)
                        trace = state.traces[-1]
                        assert state.steps == [choice_for(g, (u, v), {a, b})]
                        assert {at_a, at_b} == {trace.u, trace.v}
                        assert state.partner(at_a) == at_b
                        assert state.vertex_of(at_a) == state.vertex_of(a)
                        assert state.vertex_of(b) == state.vertex_of(a)
                        assert state.vertex_of(at_b) != state.vertex_of(a)
                        checked += 1
        assert checked > 1000


class TestReadOffCheck:
    """The finished psi is checked; a wrong seed raises InternalError."""

    def _normal_forms(self):
        # genus 3 with a boundary: loop 0 hangs off its own spine vertex,
        # loops 1 and 2 off the last one
        rng = random.Random(77)
        g1 = tree_with_chords(rng, 10, 3)
        g2 = tree_with_chords(rng, 10, 3)
        bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
        return _normalizations(g1, g2, bmap)

    def test_loops_swapped_against_their_stems(self):
        state1, loops1, state2, loops2, inv_map = self._normal_forms()
        swapped = [loops1[1], loops1[0], loops1[2]]
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state2, state1, inv_map, loops2, swapped)

    def test_loop_halves_swapped_between_loops(self):
        # m of loop 0 seeded onto loop 1's vertex and the other way round
        state1, loops1, state2, loops2, inv_map = self._normal_forms()
        (m0, o0, t0), (m1, o1, t1) = loops1[:2]
        swapped = [(m1, o0, t0), (m0, o1, t1), loops1[2]]
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state2, state1, inv_map, loops2, swapped)

    def test_conflict_free_partial_map(self):
        # no seeds: nothing conflicts, but psi is not total
        state1, _, state2, _, _ = self._normal_forms()
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state2, state1, {}, [], [])

    def test_boundary_seed_out_of_order(self):
        state1, loops1, state2, loops2, inv_map = self._normal_forms()
        order = sorted(inv_map)
        wrong = dict(inv_map)
        wrong[order[0]], wrong[order[2]] = inv_map[order[2]], inv_map[order[0]]
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state2, state1, wrong, loops2, loops1)

    def test_sibling_loops_are_an_automorphism(self):
        # The two loops on the last spine vertex can swap: the check accepts
        # it, and this is where the search planner could pick another psi.
        state1, loops1, state2, loops2, inv_map = self._normal_forms()
        swapped = [loops1[0], loops1[2], loops1[1]]
        psi = _read_off_psi(state2, state1, inv_map, loops2, swapped)
        assert psi != _read_off_psi(state2, state1, inv_map, loops2, loops1)

    def test_total_map_that_splits_a_vertex(self):
        # pairing and injectivity hold; vertex A's half-edges land on A and B
        state = _PlanState(fig_a_graph())
        seed = {"x": "x", "y": "z", "z": "y", "w": "w", "u": "u", "v": "v"}
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state, state, seed, [], [])

    def test_total_map_that_breaks_the_pairing(self):
        # one vertex, so vertices hold; the loop half x lands on the external z
        state = _PlanState(wheel_graph())
        with pytest.raises(InternalError, match="planner bug"):
            _read_off_psi(state, state, {"x": "z", "z": "x", "y": "y"}, [], [])


# -- the maintained tree ---------------------------------------------------


def check_tree(state, cut, vertices=None):
    """state.up is a rooted spanning tree of the non-cut edges: each entry
    is a non-cut internal edge, parent half first, with its child half at
    its vertex, every non-cut edge is one, and every vertex climbs to the
    one root.  With ``vertices``, the two vertices of a move, only their
    entries are checked, and that one hangs below the other."""
    up = state.up
    for c in up if vertices is None else [c for c in vertices if c in up]:
        h, p = up[c]
        assert state.partner(h) == p and state.vertex_of(p) == c
        assert tuple(sorted((h, p))) not in cut
    if vertices is not None:
        parents = [state.vertex_of(up[c][0]) for c in vertices if c in up]
        assert sum(p in vertices for p in parents) == 1
        return
    tree = {tuple(sorted(e)) for e in up.values()}
    internal = {tuple(sorted(e)) for e in state._partner.items()}
    assert tree == internal - cut and len(tree) == len(up)
    (root,) = set(state._triple_of) - set(up)
    reached = {root}
    for c in up:
        climb = []
        while c not in reached:
            assert len(climb) <= len(up), "parent pointers form a cycle"
            climb.append(c)
            c = state.vertex_of(up[c][0])
        reached.update(climb)


class _Touched(dict):
    """A copy of the pointers that records the vertices a climb reads."""

    def __init__(self, up):
        super().__init__(up)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def cut_of(state):
    """The planner's cut edges: the non-tree edges of its start graph."""
    return set(spanning_tree(state.start)[1])


class Watch:
    """Wraps the planner's IH move and tree_path: checks the pointers after
    every tree move (in full every ``full_every`` moves, else at the move's
    two vertices) and, on every meet, the climb against bfs_tree_path and
    the vertices it touches against 2 * len(path) + 2."""

    def __init__(self, monkeypatch, full_every=1):
        self.full_every = full_every
        self.moves = self.paths = 0
        cuts = {}  # id(state) -> (state, its cut edges); the state keeps its id

        def cut(state):
            if id(state) not in cuts:
                cuts[id(state)] = state, cut_of(state)
            return cuts[id(state)][1]

        ih_move, climb = _PlanState._ih_move, moves.tree_path

        def checked_move(state, move, labels):
            ends = (state.vertex_of(labels[0]), state.vertex_of(labels[1]))
            trace = ih_move(state, move, labels)
            if state.up is not None:
                self.moves += 1
                full = self.moves % self.full_every == 0
                check_tree(state, cut(state), None if full else ends)
            return trace

        def checked_path(state, up, start, end):
            touched = _Touched(up)
            path = climb(state, touched, start, end)
            assert path == bfs_tree_path(state, cut(state), start, end)
            seen = {start, end, *touched.read}
            seen.update(state.vertex_of(up[c][0]) for c in touched.read if c in up)
            assert len(seen) <= 2 * len(path) + 2
            self.paths += 1
            return path

        monkeypatch.setattr(_PlanState, "_ih_move", checked_move)
        monkeypatch.setattr(moves, "tree_path", checked_path)


class TestMaintainedTree:
    def test_at_normalize_benchmark_sizes(self, monkeypatch):
        rng = random.Random(17)
        watch = Watch(monkeypatch)
        steps = 0
        for k in range(18):
            g = tree_with_chords(rng, rng.randint(36, 44), k % 9)
            state, _ = normalize_to_apple_tree(g)
            check_tree(state, cut_of(state))
            steps += len(state.steps)
        assert watch.moves == steps and watch.paths > 18

    @pytest.mark.parametrize("v, genus, full_every", [(200, 10, 1), (2000, 40, 500)])
    def test_at_scale(self, monkeypatch, v, genus, full_every):
        g = tree_with_chords(random.Random(11), v, genus)
        watch = Watch(monkeypatch, full_every)
        state, _ = normalize_to_apple_tree(g)
        check_tree(state, cut_of(state))
        assert watch.moves == len(state.steps) and watch.paths > 0

    def test_plan_replay_moves_drop_the_tree(self, monkeypatch):
        # ih_plan's replay of g2's inverse moves on state1 after its own
        # normalization; the watch checks the tree while it is kept.
        rng = random.Random(23)
        g1, g2 = tree_with_chords(rng, 40, 4), tree_with_chords(rng, 40, 4)
        Watch(monkeypatch)
        bmap = dict(zip(sorted(g1.boundary), sorted(g2.boundary)))
        script = ih_plan(g1, g2, bmap)
        gN, _ = apply_script(g1, None, script)
        assert boundary_isomorphism(gN, g2, bmap) is not None

    def test_non_tree_move_drops_the_pointers(self):
        g = tree_with_chords(random.Random(5), 12, 3)
        state = _PlanState(g)
        state.up = dict(_forest(g)[3])
        (m, o), *_ = [e for e in spanning_tree(g)[1]
                      if g.vertex_of(e[0]) != g.vertex_of(e[1])]
        state.apply(IhMove((m, o), "b"))
        assert state.up is None
        a = next(h for h in g.half_edges() if state.vertex_of(h) != state.vertex_of(m))
        with pytest.raises(InternalError, match="dropped"):
            state.meet(m, a)

    def test_climb_between_components_raises(self):
        g = tree_with_chords(random.Random(3), 6, 1)
        state = _PlanState(g)
        up = dict(_forest(g)[3])
        (root,) = set(state._triple_of) - set(up)
        child = next(c for c in up if state.vertex_of(up[c][0]) == root)
        del up[child]  # child now roots a second component
        with pytest.raises(GraphError, match="no tree path"):
            moves.tree_path(state, up, root, child)
