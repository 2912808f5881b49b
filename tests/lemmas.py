"""The paper's lemma checks: steps of the proofs that no decision takes.

The local class B(beta) of an IH move and its mod-4 vector, the residues
gamma and delta, the weak class, the planar canonical beta, the four-way
class read off a decoration without ``classify``, A~ and the Arf invariant
of one decoration, loop tuples, the genus-1 orbit, and the alternating beta
sum along a cycle, the reference for ``cycle_b``.  Each reader of a (graph,
decoration) pair checks the fit through ``decoration._check_fit``, as the
library's readers do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from decograph import graph, invariants
from decograph.decoration import (
    Decoration,
    DecorationError,
    ExternalEdge,
    Residue,
    _check_fit,
    _decoration,
    cycle_b,
    gcd_all,
    make_decoration,
    reduce_lift,
)
from decograph.graph import TrivalentGraph, _connected_genus, cycle_basis
from decograph.invariants import (
    ConditionsFail,
    InvariantError,
    _a_tilde,
    _basis_bs,
    _canonical_pairs,
    _class_rule,
    _graph_class,
    classify,
)
from decograph.lattice import solve_lattice
from decograph.moves import IhMove, IhTrace, MoveError, _B_lifts, _choice, _labels


class NotAtVertex(DecorationError):
    """Two half-edges are not distinct and at the named vertex."""


class OddAlpha(DecorationError):
    """Weak (mod 2) data asks for every alpha even."""


class ConditionFails(DecorationError):
    """A rotation system does not fit the graph, or breaks admissibility."""


class ModuliMismatch(MoveError):
    """Two local classes live in different groups."""


class OrientedCycle(graph.OrientedCycle):
    """An oriented cycle that can be walked the other way."""

    def reversed(self) -> "OrientedCycle":
        return OrientedCycle(tuple((inn, out) for out, inn in reversed(self.steps)))


def beta_map(dec: Decoration) -> dict[tuple[str, str], int]:
    """All six lifts per vertex, derived from the stored ones."""
    return {(s, t): dec.b(s, t) for s, (t0, t1, _) in dec.beta for t in (t0, t1)}


def alternating_beta_sum(
    g: TrivalentGraph, dec: Decoration, c: graph.OrientedCycle
) -> Residue:
    """b_c as the alternating beta sum along c, modulo the gcd of alpha on
    c: the reference that ``cycle_b`` and the basis forms of ``classify``
    must equal."""
    _check_fit(g, dec)
    c.validate(g)
    modulus = gcd_all(dec.a(h) for h in c.half_edges())
    beta_sum = 0
    for j, (out, _) in enumerate(c.steps):
        inn = c.steps[j - 1][1]  # the edge before arrives at out's vertex
        beta_sum += dec.b(out, inn) - dec.b(inn, out)
    return Residue(beta_sum, modulus)


# -- vertex and edge residues, weak and planar data ------------------------


def gamma(g: TrivalentGraph, dec: Decoration, vertex: str, x: str, y: str) -> Residue:
    """gamma_{xy} = beta_{xy} - beta_{yx} mod gcd(alpha_x, alpha_y)."""
    _check_fit(g, dec)
    triple = g.triple(vertex)
    if x not in triple or y not in triple or x == y:
        raise NotAtVertex(f"{x!r}, {y!r} are not distinct half-edges at {vertex!r}")
    return Residue(dec.b(x, y) - dec.b(y, x), gcd_all((dec.a(x), dec.a(y))))


def delta_edge(
    g: TrivalentGraph, dec: Decoration, edge: tuple[str, str]
) -> dict[tuple[str, str], Residue]:
    """The four invariants delta_{x_i y_j} of an internal edge x1~y1.

    x1 is the smaller half-edge of the edge.  Keys are (x_i, y_j) where x_i
    runs over the other half-edges at x1's vertex and y_j over the others at
    y1's vertex; delta_{x_i y_j} = beta_{x1 x_i} - beta_{y1 y_j} mod alpha_{x1}.
    """
    _check_fit(g, dec)
    x1, y1 = sorted(edge)
    if g.partner(x1) != y1:
        raise ExternalEdge(f"{edge!r} is not an internal edge")
    mod = abs(dec.a(x1))
    xs, ys = g.others_at_vertex(x1), g.others_at_vertex(y1)
    pairs = ((xi, yj) for xi in xs for yj in ys)
    return {(xi, yj): Residue(dec.b(x1, xi) - dec.b(y1, yj), mod) for xi, yj in pairs}


def weaken(g: TrivalentGraph, dec: Decoration) -> Decoration:
    """The weak (mod 2) data of dec: a Decoration with the same alpha and
    each stored lift taken mod 2.  Every alpha is even, so the parity of
    every lift and of its companion stays that of dec."""
    _check_fit(g, dec)
    if any(a % 2 for _, a in dec.alpha):
        raise OddAlpha("weak decorations require all alpha even")
    lifts = {s: (t0, t1, v % 2) for s, (t0, t1, v) in dec.beta}
    return _decoration(dec.alpha, dec._alpha, lifts, g)


def weak_class(g: TrivalentGraph, dec: Decoration) -> tuple[int, ...]:
    """The H^1(Gamma, Z_2) class: b_c mod 2 over the cycle basis.  Every
    alpha is even, so I_c is even and b_c has a parity."""
    weak = weaken(g, dec)  # raises OddAlpha when inapplicable
    return tuple(cycle_b(g, weak, c).value % 2 for c in cycle_basis(g))


def canonical_beta_planar(
    g: TrivalentGraph,
    rotation_system: Mapping[str, tuple[str, str, str]],
    alpha: Mapping[str, int],
) -> Decoration:
    """The canonical beta of a planar rotation system.

    For every half-edge h with cyclic successor sigma(h) at its vertex we
    set beta_{h, sigma(h)} = 0 for the smaller half of each internal edge
    and beta_{h, sigma^{-1}(h)} = 0 for the larger half (and for externals
    beta_{h, sigma(h)} = 0).  This puts delta = 0 on the preferred side
    pairing of every internal edge; the other side vanishes as a residue
    because of the admissibility condition alpha_x == alpha_z, alpha_y ==
    alpha_w mod alpha_u, which is checked per edge.
    """
    succ: dict[str, str] = {}
    pred: dict[str, str] = {}
    for name, triple in g.vertices:
        rot = rotation_system[name]
        if sorted(rot) != sorted(triple):
            raise ConditionFails(f"rotation at {name!r} does not list its triple")
        for i, h in enumerate(rot):
            succ[h] = rot[(i + 1) % 3]
            pred[h] = rot[(i - 1) % 3]
    for u, v in g.edges:
        au = alpha[u]
        for x, z in ((succ[u], pred[v]), (pred[u], succ[v])):
            if reduce_lift(alpha[x] - alpha[z], au) != 0:
                raise ConditionFails(
                    f"edge {u!r}~{v!r}: alpha_{x} != alpha_{z} mod alpha_{u} = {au}"
                )
    beta: dict[tuple[str, str], int] = {}
    for h in g.half_edges():
        p = g.partner(h)
        beta[(h, pred[h]) if p is not None and h > p else (h, succ[h])] = 0
    return make_decoration(g, alpha, beta)


# -- the local class of an IH move ----------------------------------------


@dataclass(frozen=True)
class LocalB:
    """Local torsor coordinate of a decoration at an internal edge."""

    lifts: tuple[int, int, int, int]  # (B_x, B_y, B_z, B_w), minimal lifts
    moduli: tuple[int, int, int, int]  # (alpha_x, alpha_y, alpha_z, alpha_w)
    alpha_u: int
    alpha_uprime: int  # 2 - alpha_x - alpha_z, u's alpha after the move


def _local_B_labelled(dec: Decoration, u, v, x, y, z, w) -> LocalB:
    """B(beta) in given labels, its lifts by the library's transport."""
    ax, ay, az, aw = dec.a(x), dec.a(y), dec.a(z), dec.a(w)
    return LocalB(
        lifts=_B_lifts(dec._alpha, dec._beta, u, v, x, y, z, w),
        moduli=(ax, ay, az, aw),
        alpha_u=dec.a(u),
        alpha_uprime=2 - ax - az,
    )


def local_B(g: TrivalentGraph, dec: Decoration, edge: Sequence[str]) -> LocalB:
    """B(beta) at an internal edge, labels fixed by stable sorted order."""
    _check_fit(g, dec)
    return _local_B_labelled(dec, *_labels(g, edge))


def local_B_prime(dec: Decoration, trace: IhTrace) -> LocalB:
    """B'(beta') on the re-glued graph, in the labels recorded by the trace.

    B'(beta') = (beta'_{xu'}, beta'_{yv'}+delta', beta'_{zu'},
    beta'_{wv'}+delta') with delta' = beta'_{u'x} - beta'_{v'w}.  Under the
    canonical transport gauge this equals B(beta) on the nose.
    """
    un, vn, x, y, z, w = trace.u, trace.v, trace.x, trace.y, trace.z, trace.w
    delta = dec.b(un, x) - dec.b(vn, w)
    ax, ay, az, aw = dec.a(x), dec.a(y), dec.a(z), dec.a(w)
    lifts = (
        reduce_lift(dec.b(x, un), ax),
        reduce_lift(dec.b(y, vn) + delta, ay),
        reduce_lift(dec.b(z, un), az),
        reduce_lift(dec.b(w, vn) + delta, aw),
    )
    return LocalB(lifts, (ax, ay, az, aw), alpha_u=2 - ax - ay, alpha_uprime=dec.a(un))


def refined_epsilon(B: LocalB) -> tuple[Residue, ...]:
    """The refined mod-4 invariant vector.

    Component order (eps_yx, eps_zx, eps_wx, eps_zy, eps_wy, eps_wz).  The
    two Z_4 identities are

        eps_wz - eps_yx = eps_wy - eps_zx + 2
        eps_yx + eps_wz = eps_zx + eps_wy - 2*eps_zy

    and hold identically for every B.
    """
    bx, by, bz, bw = B.lifts
    vals = (by - bx + 1, bz - bx, bw - bx, bz - by, bw - by, bw - bz - 1)
    return tuple(Residue(v, 4) for v in vals)


def local_equivalent(B1: LocalB, B2: LocalB) -> bool:
    """Equality in the common quotient G^alpha, by lattice membership: the
    generators (1,1,1,1), (0,0,a_u,a_u) and (0,a_u',0,a_u'), and each
    nonzero modulus on its own coordinate."""
    if B1.moduli != B2.moduli:
        raise ModuliMismatch(f"moduli differ: {B1.moduli} vs {B2.moduli}")
    a, a2 = B1.alpha_u, B1.alpha_uprime
    columns = [[1, 1, 1, 1], [0, 0, a, a], [0, a2, 0, a2]]
    for i, m in enumerate(B1.moduli):
        if m != 0:
            columns.append([abs(m) if j == i else 0 for j in range(4)])
    target = [p - q for p, q in zip(B1.lifts, B2.lifts)]
    return solve_lattice(columns, target) is not None


def choice_for(g: TrivalentGraph, edge: Sequence[str], together: set[str]) -> IhMove:
    """The IhMove on ``edge`` that puts the two half-edges in ``together``
    (one from each end vertex) onto the same new vertex."""
    labels = _labels(g, edge)
    return IhMove(labels[:2], _choice(labels, together))


def invert_move(g_after: TrivalentGraph, trace: IhTrace) -> IhMove:
    """The IH move on the moved edge that undoes the recorded move."""
    return choice_for(g_after, (trace.u, trace.v), {trace.x, trace.y})


# -- loop tuples ------------------------------------------------------------


@dataclass(frozen=True)
class LoopTuple:
    """(alpha_i, b~_i) per loop of an apple tree, plus the boundary alpha."""

    pairs: tuple[tuple[int, int], ...]
    boundary_alpha: tuple[int, ...]


def decoration_class(g: TrivalentGraph, dec: Decoration) -> str:
    """The four-way partition I | II | III | IV (total on connected graphs)."""
    _check_fit(g, dec)
    _connected_genus(g)
    return _graph_class(g, dec, _basis_bs(g, dec))


class WrongGenus(InvariantError):
    """An invariant asked of a graph of another genus."""


def a_tilde(g: TrivalentGraph, dec: Decoration) -> int:
    """The genus-1 invariant gcd({alpha_x - 2 : x external}, a, b)."""
    report = classify(g, dec)
    if report.genus != 1:
        raise WrongGenus(f"a_tilde requires genus 1, got {report.genus}")
    return report.a_tilde


def _check_conditions(g: TrivalentGraph, dec: Decoration, even_b: bool) -> list[str]:
    """Violations of conditions (1) and (2) of the Arf setup, which
    ``invariants._check_conditions`` checks, and of (3), even b_c on the
    basis cycles, when ``even_b`` and (1), (2) hold."""
    problems = invariants._check_conditions(g, dec)
    if even_b and not problems:
        for idx, b in enumerate(_basis_bs(g, dec)):
            if b % 2:
                problems.append(f"(3) odd b_c on basis cycle {idx}")
    return problems


def arf(g: TrivalentGraph, dec: Decoration) -> int:
    """A = sum over frak_C of q_c = b_c/2 + 1 in Z_2 (b_c taken mod 4)."""
    problems = _check_conditions(g, dec, even_b=True)
    if problems:
        raise ConditionsFail("; ".join(problems))
    # Conditions (1)-(3) leave class III (A = 0) or IV (A = 1).
    return ("III", "IV").index(_graph_class(g, dec, ()))


def tuple_class(t: LoopTuple) -> str:
    """decoration_class recomputed at tuple level (on the apple tree all
    other alpha values are even combinations of these)."""
    return _class_rule(
        (*t.boundary_alpha, *(a for a, _ in t.pairs)),
        (b for _, b in t.pairs),
        t.boundary_alpha,
        lambda: (b for a, b in t.pairs if a % 4 == 0),
    )


def tuple_reduce(t: LoopTuple) -> LoopTuple:
    """Canonical representative of a LoopTuple under the proof's moves.

    Euclid's moves (a, b) -> (b, -a) and b -> b mod a take each pair to
    (gcd, 0), and the mod-4 moves reach the representative of the tuple's
    class, read off t by tuple_class.  Genus >= 2 canonical tuples: class I
    ((1,0))^g, class II and III ((2,0))^g, class IV ((0,0),(2,0)^(g-1)).
    Genus 1 has no mod-4 move (the double-apple needs two loops), so the
    canonical pair is (A~, 0) with A~ = gcd({alpha_x - 2}, alpha_1, b~_1).
    """
    g = len(t.pairs)
    if g == 0:
        return t
    if g == 1:
        at = _a_tilde(t.boundary_alpha, *t.pairs[0])
        return LoopTuple(_canonical_pairs(1, at, None), t.boundary_alpha)
    return LoopTuple(_canonical_pairs(g, None, tuple_class(t)), t.boundary_alpha)


def extract_loop_tuple(g: TrivalentGraph, dec: Decoration, loops: list) -> LoopTuple:
    """The loop tuple of an apple tree, its loops as normalize_to_apple_tree
    records them, with the boundary alpha in sorted order."""
    _check_fit(g, dec)
    pairs = tuple((dec.a(m), cycle_b(g, dec, graph.OrientedCycle(((m, o),))).value)
                  for m, o, _ in loops)
    return LoopTuple(pairs, tuple(dec.a(h) for h in sorted(g.boundary)))


# -- the genus-1 orbit ------------------------------------------------------


def sl2_orbit(a: int, b: int, bound: int) -> set[tuple[int, int]]:
    """Orbit of (a, b) under b -> b +- a and (a, b) -> (b, -a), restricted
    to the max-norm window |a|, |b| <= bound.

    The Euclidean reduction path from any window point to (gcd, 0) never
    leaves the window, so the restriction does not split gcd classes.
    """
    if max(abs(a), abs(b)) > bound:
        raise ValueError("seed outside the window")
    seen = {(a, b)}
    frontier = deque(seen)
    while frontier:
        p, q = frontier.popleft()
        for cand in ((p, q + p), (p, q - p), (q, -p), (-q, p)):
            if max(abs(cand[0]), abs(cand[1])) <= bound and cand not in seen:
                seen.add(cand)
                frontier.append(cand)
    return seen
