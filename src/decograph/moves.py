"""IH moves with exact decoration transport, and the IH-move planner.

An IH move contracts an internal edge u~v and re-expands it the other way.
With the outer half-edges labelled x, y at u's vertex and z, w at v's
vertex, the move regroups either {x,z}/{y,w} (pairing choice 'b') or
{y,z}/{x,w} (choice 'c').  Decoration transport goes through the local
torsor coordinate

    B(beta) = (beta_{xu}, beta_{yx}, beta_{zw}+delta, beta_{wv}+delta),
    delta = beta_{ux} - beta_{vw},

whose class in the common quotient group G^alpha (by (1,1,1,1),
(0,0,a_u,a_u) and (0,a_u',0,a_u')) defines equivalence across the move.
The canonical transport gauge sets beta'_{u'x} = beta'_{v'w} = 0 so that
B'(beta') = B(beta) holds identically on minimal lifts (u', v': u, v after).

Moves are local edits on one mutable working state (``_PlanState``): an IH
move trades two half-edges between its edge's vertices and rewrites the
edge's alphas and the six beta lifts there, a trivial modification at most
three beta lifts; no move adds, drops or renames a half-edge.  The state is
frozen back into an immutable graph and decoration once, where a value is
needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .decoration import (
    BadTarget,
    Decoration,
    ExternalEdge,
    TrivialMod,
    _check_fit,
    _companion,
    _decoration,
    _is_pair,
    _items,
    reduce_lift,
    stored_lift,
)
from .graph import (
    BadBoundaryMap,
    InternalError,
    TrivalentGraph,
    _check_boundary_map,
    _connected_genus,
    _forest,
    _PartialMap,
    build_graph,
    tree_path,
)


class MoveError(ValueError):
    pass


class InvalidMove(MoveError):
    pass


class GenusMismatch(MoveError):
    pass


class ScriptError(MoveError):
    pass


@dataclass(frozen=True)
class IhMove:
    """IH move on an internal edge with a pairing choice 'b' or 'c'.

    The outer labels x,y (at the vertex of the smaller edge half) and z,w
    (at the other vertex) are fixed by sorted order; 'b' regroups {x,z} and
    {y,w}, 'c' regroups {y,z} and {x,w} (Fig. (b) and (c) respectively).
    """

    edge: tuple[str, str]
    pairing_choice: str

    def __post_init__(self):
        if not _is_pair(self.edge):
            raise InvalidMove(f"IH edge must be two half-edge names, not {self.edge!r}")
        object.__setattr__(self, "edge", tuple(sorted(self.edge)))
        if self.pairing_choice not in ("b", "c"):
            raise InvalidMove(f"unknown pairing choice {self.pairing_choice!r}")


class IhTrace(NamedTuple):
    """One applied IH move, in its labels: the edge u~v keeps its names, x and
    z share u's vertex after it, y and w share v's (x, y swapped for 'c')."""

    u: str
    v: str
    x: str
    y: str
    z: str
    w: str


@dataclass(frozen=True)
class MoveScript:
    """Replayable sequence of trivial modifications and IH moves.

    ``hashes``, when nonempty, holds the snapshot_hash (under HASH_TAG) of
    the state after each step, as a sum over vertex blocks; replay checks them.
    """

    steps: tuple[Union[TrivialMod, IhMove], ...]
    hashes: tuple[str, ...] = ()


def _labels(g: TrivalentGraph, edge: Sequence[str]):
    u, v = sorted(edge)
    if g.partner(u) != v:
        raise ExternalEdge(f"{tuple(edge)!r} is not an internal edge")
    if g.vertex_of(u) == g.vertex_of(v):
        raise InvalidMove(f"edge {tuple(edge)!r} is a loop; IH move undefined")
    x, y = g.others_at_vertex(u)  # sorted, as triples are
    z, w = g.others_at_vertex(v)
    return u, v, x, y, z, w


def _B_lifts(alpha, lifts, u, v, x, y, z, w) -> tuple[int, int, int, int]:
    """The minimal lifts (B_x, B_y, B_z, B_w) of B(beta) at the labelled edge,
    read off alpha and stored-lift dicts laid out as in Decoration.  A lift
    from a source of alpha 0 stays a raw integer."""

    def b(s, t):  # beta_{st}, as Decoration.b derives it
        least, _, lift = lifts[s]
        return lift if t == least else _companion(lift, alpha[t], alpha[s])

    delta = b(u, x) - b(v, w)
    bz, bw = b(z, w) + delta, b(w, v) + delta
    return b(x, u), b(y, x), reduce_lift(bz, alpha[z]), reduce_lift(bw, alpha[w])


class _PlanState:
    """The mutable working state that moves edit in place.

    The graph is held as vertex/triple/partner lookups and, when decorated,
    the decoration as alpha and stored-lift dicts laid out as in Decoration.
    A decoration must fit its graph.  No move changes the pairing, so
    ``freeze`` builds the immutable graph on the start graph's edges, and
    the decoration bound to it, and keeps them until the next move changes
    the state.  Applied steps are recorded in ``steps``, with one trace per
    IH move in ``traces``.  An IH move edits the graph and then
    ``transport``s the decoration; a trivial modification ``shift``s lifts.
    The orbit walk calls these two edits alone, which record no step and
    leave the graph as it is, and reads and sets the lifts as one
    ``lift_vector``.  The planner keeps its frozen vertices here, and in
    ``up`` the tree edge (parent half, child half) of each non-root vertex
    of the spanning tree of its non-cut edges, from ``_forest``; a tree move
    changes at most two, any other IH move drops them.

    The first ``snapshot_hash`` call seeds the kept sum and ``_block_hash``,
    the hash of each vertex's block; edge and boundary lines never change.
    From then on ``apply`` keeps both, ``_rehash``ing the blocks a step
    rewrote; ``transport``, ``shift`` and ``load`` alone keep neither.
    snapshot_hash(g, dec) reads a fresh state.
    """

    # Read access as on TrivalentGraph, for _labels and tree_path.
    vertex_of = TrivalentGraph.vertex_of
    triple = TrivalentGraph.triple
    partner = TrivalentGraph.partner
    others_at_vertex = TrivalentGraph.others_at_vertex

    def __init__(self, g: TrivalentGraph, dec: Optional[Decoration] = None):
        _check_fit(g, dec)
        self.g, self.dec, self.start, self.start_dec = g, dec, g, dec
        self.boundary = g.boundary
        self._vertex_of = dict(g._vertex_of)
        self._triple_of = dict(g._triple_of)
        self._partner = g._partner  # shared: no move changes the pairing
        self._alpha = None if dec is None else dict(dec._alpha)
        self._beta = None if dec is None else dict(dec._beta)
        self.steps: list[Union[TrivialMod, IhMove]] = []
        self.traces: list[IhTrace] = []
        self.frozen: set[str] = set()  # vertex names
        self.up: Optional[dict[str, tuple[str, str]]] = None
        self._block_hash: Optional[dict[str, int]] = None

    def snapshot_hash(self) -> str:
        """snapshot_hash of the current state, read off the kept sum."""
        if self._block_hash is None:
            fixed = [edge_line(h, p) for h, p in self.start.edges]
            fixed += [boundary_line(self.boundary)] if self.boundary else []
            self._sum = sum(map(_line_hash, fixed))
            # Rehashing every block from kept hashes of 0 seeds them.
            self._block_hash = dict.fromkeys(self._triple_of, 0)
            self._rehash(self._triple_of)
        # The first 16 of the 64 hex digits of the sum modulo 2^256.
        return f"{HASH_TAG}{self._sum >> 192 & 0xFFFFFFFFFFFFFFFF:016x}"

    def _rehash(self, vertices) -> None:
        """Rehash the blocks of ``vertices``, which an edit rewrote; no edge
        line, as no move changes the pairing."""
        total, kept, triple_of = self._sum, self._block_hash, self._triple_of
        alpha, beta = self._alpha, self._beta
        for n in vertices:
            triple = triple_of[n]
            lines = [vertex_line(n, triple)]
            if beta is not None:
                lines += [alpha_line(h, alpha[h]) for h in triple]
                lines += [beta_line(n, s, beta[s]) for s in triple]
            total += (h := _line_hash("\n".join(lines))) - kept[n]
            kept[n] = h
        self._sum = total

    def freeze(self) -> tuple[TrivalentGraph, Optional[Decoration]]:
        """The current graph and the decoration bound to it, as immutable values."""
        if self.g is None:
            self.g = build_graph(self._triple_of, self.start.edges, boundary=self.boundary)
        return self.g, self.decoration()

    def decoration(self) -> Optional[Decoration]:
        """The current decoration, bound to the current graph: the start graph
        until an IH move, after one the graph that freeze builds.  While alpha
        is as at the start, as on orbit members, it shares the start's."""
        if self.dec is None and self._beta is not None:
            start = self.start_dec
            amap = start._alpha if self._alpha == start._alpha else dict(self._alpha)
            alpha = start.alpha if amap is start._alpha else _items(amap)
            # Reduced already, as make_decoration would leave it.
            self.dec = _decoration(alpha, amap, dict(self._beta), self.g)
        return self.dec

    def apply(self, step: Union[TrivialMod, IhMove]) -> Optional[IhTrace]:
        """Apply one step in place; returns the trace of an IH move."""
        if isinstance(step, IhMove):
            return self._ih_move(step, _labels(self, step.edge))
        if not isinstance(step, TrivialMod):
            raise ScriptError(f"unknown step type {type(step).__name__}")
        self._trivial_mod(step)
        return None

    def _ih_move(self, move: IhMove, labels) -> IhTrace:
        """One IH move as a local edit, as described at ih_apply, given its
        ``_labels``; records the move and its trace."""
        u, v, x, y, z, w = labels
        if move.pairing_choice == "c":
            x, y = y, x

        vertex_of, up = self._vertex_of, self.up
        vu, vv = vertex_of[u], vertex_of[v]
        vertex_of[z], vertex_of[y] = vu, vv
        self._triple_of[vu] = tuple(sorted((x, z, u)))
        self._triple_of[vv] = tuple(sorted((y, w, v)))
        self.g = self.dec = None
        if up is not None:
            # The parent-side vertex keeps its up edge unless that edge's
            # half moved; then the two swap roles and it hangs below by u~v.
            top = vu if up.get(vv) == (u, v) else vv if up.get(vu) == (v, u) else None
            if top is None:
                self.up = None  # not a tree move
            else:
                held = up.get(top)
                head = vertex_of[held[1]] if held else top
                if held:
                    up[head] = held
                half = u if head == vu else v
                up[vv if head == vu else vu] = (half, self._partner[half])

        trace = IhTrace(u, v, x, y, z, w)
        if self._beta is not None:
            self.transport(trace, (u, v))
        if self._block_hash is not None:
            self._rehash((vu, vv))
        self.steps.append(move)
        self.traces.append(trace)
        return trace

    def _trivial_mod(self, mod: TrivialMod) -> None:
        if self._beta is None:
            raise ScriptError("trivial modification needs a decoration")
        if mod.kind == "V":
            if mod.target not in self._triple_of:
                raise BadTarget(f"no vertex named {mod.target!r}")
            sources = self._triple_of[mod.target]
        elif mod.kind == "I":
            x1, y1 = mod.target
            if self.partner(x1) != y1:
                raise BadTarget(f"{mod.target!r} is not an internal edge")
            sources = (x1, y1)
        else:  # 'E'
            x = mod.target
            if x not in self._vertex_of:
                raise BadTarget(f"no half-edge named {x!r}")
            if self.partner(x) is not None:
                raise BadTarget(f"half-edge {x!r} is not external")
            sources = (x,)
        self.shift(sources, mod.amount)
        if self._block_hash is not None:
            self._rehash({self._vertex_of[s] for s in sources})
        self.steps.append(mod)

    def transport(self, trace: IhTrace, names: Sequence[str]) -> None:
        """The decoration's part of the IH move that ``trace`` records: alpha
        and the six beta lifts at the edge's vertices, with the edge's halves
        at u's and v's vertex after the move named ``names``.  An applied
        move keeps (u, v); the orbit walk trades them where the inverse of a
        round trip leaves v at u's vertex.  It reads only alpha and beta, so
        it needs the graph neither before nor after the move."""
        u_new, v_new = names
        x, y, z, w = trace.x, trace.y, trace.z, trace.w
        alpha, lifts = self._alpha, self._beta
        bx, by, bz, bw = _B_lifts(alpha, lifts, trace.u, trace.v, x, y, z, w)
        alpha_uprime = 2 - alpha[x] - alpha[z]
        alpha[u_new], alpha[v_new] = alpha_uprime, -alpha_uprime
        # Transport writes beta'_{u'x} = beta'_{v'w} = 0 and the four
        # B(beta) components, so B'(beta') = B(beta).
        for s, t, other, lift in (
            (u_new, x, z, 0), (x, u_new, z, bx), (z, u_new, x, bz),
            (v_new, w, y, 0), (y, v_new, w, by), (w, v_new, y, bw),
        ):
            lifts[s] = stored_lift(alpha, s, t, other, lift)
        self.dec = None

    def shift(self, sources: Sequence[str], amount: int) -> None:
        """Add ``amount`` to the stored lift of each source, modulo its
        |alpha|: the lift edit of every trivial modification."""
        alpha, lifts = self._alpha, self._beta
        for s in sources:
            least, other, lift = lifts[s]
            lifts[s] = (least, other, reduce_lift(lift + amount, alpha[s]))
        self.dec = None

    def lift_vector(self) -> tuple[int, ...]:
        """The stored lifts in the order the state holds their sources, which
        no move changes.  Over one alpha and one graph, where every stored
        co-half is fixed, they determine the decoration; vectors read off
        different states may list their sources in different orders."""
        return tuple([entry[2] for entry in self._beta.values()])

    def load(self, vector: Sequence[int]) -> None:
        """Store the lifts of ``vector``, as lift_vector reads them, keeping
        alpha and every stored co-half."""
        lifts = self._beta
        for (s, (least, other, _)), lift in zip(list(lifts.items()), vector):
            lifts[s] = (least, other, lift)
        self.dec = None

    def meet(self, a: str, b: str) -> str:
        """IH moves until a and b share a vertex; returns the vertex name.

        The non-cut edges stay a spanning tree, kept in ``up``, and each
        move along the tree path from a to b leaves a at the start of the
        rest of that path, so the path is climbed once.
        """
        va, vb = self._vertex_of[a], self._vertex_of[b]
        if va == vb:
            return va
        if va in self.frozen or vb in self.frozen:
            raise InternalError(f"planner met at a frozen vertex {va!r}/{vb!r}")
        if self.up is None:
            raise InternalError("planner tree was dropped by a non-tree move")
        path = tree_path(self, self.up, va, vb)
        for i, (p, q) in enumerate(path):
            cont = path[i + 1][0] if i + 1 < len(path) else b
            if p == a or self._vertex_of[q] in self.frozen:
                raise InternalError(f"planner path crosses {p!r}~{q!r}")
            self.rejoin((p, q), a, cont)
        va = self._vertex_of[a]
        if va != self._vertex_of[b]:
            raise InternalError("planner failed to converge")
        return va

    def rejoin(self, edge: Sequence[str], a: str, b: str) -> tuple[str, str]:
        """The IH move on ``edge`` that puts a and b (one from each end
        vertex) on one vertex; returns the edge's two halves, the one now at
        a's vertex first."""
        labels = _labels(self, edge)
        trace = self._ih_move(IhMove(labels[:2], _choice(labels, {a, b})), labels)
        if self._vertex_of[trace.u] == self._vertex_of[a]:
            return trace.u, trace.v
        return trace.v, trace.u


def ih_apply(
    g: TrivalentGraph,
    dec: Optional[Decoration],
    move: IhMove,
) -> tuple[TrivalentGraph, Optional[Decoration], IhTrace]:
    """Apply an IH move, transporting the decoration canonically.

    The move keeps every name: choice 'b' exchanges y and z between the
    two vertices, 'c' exchanges x and z, and u, v and the pairing stay.
    Transport writes beta'_{ux} = beta'_{vw} = 0 and the four B(beta)
    components at (x,u), (y,v), (z,u), (w,v) (x, y swapped for 'c'), so
    B'(beta') = B(beta).
    """
    state = _PlanState(g, dec)
    trace = state.apply(move)
    g2, dec2 = state.freeze()
    return g2, dec2, trace


def _choice(labels: tuple[str, ...], together: set[str]) -> str:
    """The pairing choice that puts the cross pair ``together`` of the
    outer half-edges of ``_labels`` onto one vertex."""
    _, _, x, y, z, w = labels
    if together in ({x, z}, {y, w}):
        return "b"
    if together in ({y, z}, {x, w}):
        return "c"
    raise InvalidMove(
        f"{sorted(together)} is not a cross pair of the outer half-edges"
    )


HASH_TAG = "m2:"


# The canonical lines of statements, as the canonical text (textio) holds
# them and _PlanState's vertex blocks join them.
def vertex_line(name: str, triple: tuple[str, str, str]) -> str:
    return f"vertex {name} : {' '.join(triple)}"


def edge_line(a: str, b: str) -> str:
    return f"edge {a} {b}"


def boundary_line(names: Sequence[str]) -> str:
    return "boundary " + " ".join(names)


def alpha_line(h: str, a: int) -> str:
    return f"alpha {h} {a}"


def beta_line(name: str, s: str, entry: tuple[str, str, int]) -> str:
    return f"beta {name} {s} {entry[0]} {entry[2]}"  # stored (least, other, lift)


def _line_hash(line: str) -> int:
    return int.from_bytes(hashlib.sha256(line.encode()).digest(), "big")


def snapshot_hash(g: TrivalentGraph, dec: Optional[Decoration]) -> str:
    """Multiset hash of the canonical text of (g, dec): the sum, modulo
    2^256, of the SHA-256 of each vertex block, edge line and boundary line
    of that text (as textio writes them), as the first 16 of its 64 hex
    digits behind HASH_TAG.  A vertex's block is its vertex line, then the
    alpha and then the beta lines of its triple, in the triple's order,
    joined by newlines; a bare graph's block is its vertex line.  Blocks and
    lines are distinct and determine the text.  As a sum, the hash follows an
    edit by swapping the hashes of the blocks it rewrites (AdHash, Bellare
    and Micciancio, 1997), on the fresh _PlanState it is read off, which
    checks that dec fits g.
    """
    return _PlanState(g, dec).snapshot_hash()


def _replay(state: _PlanState, steps: Sequence) -> Iterator[int]:
    """Apply ``steps`` to ``state`` in order, yielding each step's index
    once it is applied; a step that fails raises ScriptError."""
    for idx, step in enumerate(steps):
        try:
            state.apply(step)
        except ValueError as exc:
            raise ScriptError(f"step {idx} failed: {exc}") from exc
        yield idx


def apply_script(
    g: TrivalentGraph,
    dec: Optional[Decoration],
    script: MoveScript,
) -> tuple[TrivalentGraph, Optional[Decoration]]:
    """Replay a script left to right (dec must fit g), verifying hashes."""
    if script.hashes and len(script.hashes) != len(script.steps):
        raise ScriptError("hash count does not match step count")
    state = _PlanState(g, dec)
    for idx in _replay(state, script.steps):
        if script.hashes and script.hashes[idx] != state.snapshot_hash():
            raise ScriptError(f"step {idx}: snapshot hash mismatch")
    return state.freeze()


def with_hashes(
    g: TrivalentGraph, dec: Optional[Decoration], script: MoveScript
) -> MoveScript:
    """Attach snapshot hashes by replaying on (g, dec)."""
    state = _PlanState(g, dec)
    hashes = tuple(state.snapshot_hash() for _ in _replay(state, script.steps))
    return MoveScript(steps=script.steps, hashes=hashes)


# -- planner -------------------------------------------------------------


def normalize_to_apple_tree(
    g: TrivalentGraph,
    external_order: Optional[Sequence[str]] = None,
) -> tuple[_PlanState, list[tuple[str, str, Optional[str]]]]:
    """Normalize a connected bare graph to the canonical apple-tree shape.

    Cuts one non-tree edge per basis cycle, gathers each cut pair into a
    terminal loop vertex, then assembles a straight spine over the external
    edges (in ``external_order``, default sorted) followed by the loop
    stems.  A decoration follows by replaying the state's steps.  Returns
    the final plan state and the loop records (m, o, stem half at the loop
    vertex; stem is None for the bare wheel).
    """
    _connected_genus(g)
    state = _PlanState(g)
    _, _, non_tree, up = _forest(g)
    state.up = dict(up)
    order = list(external_order) if external_order is not None else sorted(g.boundary)
    if sorted(order) != sorted(g.boundary):
        raise BadBoundaryMap("external_order must list the boundary")

    loops: list[tuple[str, str, Optional[str]]] = []
    stems: list[str] = []
    for m, o in non_tree:
        wv = state.meet(m, o)
        (t,) = [h for h in state.triple(wv) if h not in (m, o)]
        state.frozen.add(wv)
        if state.partner(t) is None:
            loops.append((m, o, None))  # bare wheel: stem slot is external
        else:
            loops.append((m, o, t))
            stems.append(state.partner(t))

    leaves = order + stems
    # v = 2g - 2 + n, g loop vertices frozen: unfrozen ones mean >= 3 leaves.
    if len(state._triple_of) == len(state.frozen):
        return state, loops
    # Spine vertex k joins leaves[k + 1] to leaves[0] or, past the first,
    # to the far half of the edge leaving spine vertex k - 1.
    d = leaves[0]
    for k, leaf in enumerate(leaves[1:-1]):
        if k:
            d = state.partner(cur)
            if d is None or state.vertex_of(d) in state.frozen:
                raise InternalError(f"spine ends at {cur!r}")
        vtx = state.meet(d, leaf)
        state.frozen.add(vtx)
        (cur,) = [h for h in state.triple(vtx) if h not in (d, leaf)]
    if cur != leaves[-1]:
        raise InternalError("spine assembly left a dangling leaf")
    return state, loops


def _read_off_psi(
    state2: _PlanState,
    state1: _PlanState,
    inv_map: dict[str, str],
    loops2: list[tuple[str, str, Optional[str]]],
    loops1: list[tuple[str, str, Optional[str]]],
) -> dict[str, str]:
    """The half-edge bijection state2 -> state1 of two aligned apple trees.

    Both come from normalize_to_apple_tree with the externals in matching
    order, so the boundary map and loop k's two loop halves seed psi (each
    stem follows from its loop vertex).  A _PartialMap, the forcing that
    boundary_isomorphism searches with, propagates the seeds and reaches
    every half-edge.  A conflict-free total map is an isomorphism; anything
    else raises InternalError.
    """
    psi = _PartialMap(state2, state1)
    seeds = list(inv_map.items())
    for (m2, o2, _), (m1, o1, _) in zip(loops2, loops1):
        seeds += [(m2, m1), (o2, o1)]
    if not (
        all(psi.assign(h, h1) for h, h1 in seeds)
        and len(psi.hmap) == len(state2._vertex_of) == len(state1._vertex_of)
    ):
        raise InternalError("canonical forms failed to match (planner bug)")
    return psi.hmap


def ih_plan(
    g1: TrivalentGraph,
    g2: TrivalentGraph,
    boundary_map: dict[str, str],
) -> MoveScript:
    """A script of IH moves taking g1 to a graph boundary-isomorphic to g2.

    Both graphs are normalized to the canonical apple tree (g2 with its
    externals ordered by boundary_map preimage), which aligns the two
    normal forms half-edge by half-edge; the bijection psi between them is
    read off that alignment (no search), and g2's normalization is inverted
    on top of g1's.
    """
    _check_boundary_map(g1, g2, boundary_map)
    genus1, genus2 = _connected_genus(g1), _connected_genus(g2)
    if genus1 != genus2:
        raise GenusMismatch(f"genus {genus1} vs {genus2}")

    state1, loops1 = normalize_to_apple_tree(g1, external_order=sorted(g1.boundary))
    order2 = [boundary_map[h] for h in sorted(g1.boundary)]
    state2, loops2 = normalize_to_apple_tree(g2, external_order=order2)

    inv_map = {boundary_map[h]: h for h in boundary_map}
    psi = _read_off_psi(state2, state1, inv_map, loops2, loops1)

    for trace in reversed(state2.traces):
        edge = (psi[trace.u], psi[trace.v])
        # The half at the vertex of psi(x), psi(y) replays trace.u.
        psi[trace.u], psi[trace.v] = state1.rejoin(edge, psi[trace.x], psi[trace.y])
    return MoveScript(steps=tuple(state1.steps))
