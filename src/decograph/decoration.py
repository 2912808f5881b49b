"""Decorations of trivalent graphs, the cycle invariant b_c, and trivial
modifications.

A decoration assigns an integer alpha to every half-edge (summing to 2 at
each vertex, opposite across internal edges) and an integer lift beta_{xy}
to every ordered pair of distinct half-edges at a common vertex, subject to
the vertex congruence

    beta_{xz} == beta_{xy} + alpha_z - 1   (mod alpha_x).

So each source half-edge has one free lift; a Decoration stores that one
and derives the other.

All residues live in Z modulo a nonnegative modulus, with modulus 0 meaning
the integers, and gcd(0, n) = |n| throughout.  The local residues gamma and
delta, the weak (mod 2) class and the canonical planar beta are steps of
the proofs, not of a decision; tests/lemmas.py computes them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .graph import OrientedCycle, TrivalentGraph, cycle_basis, spanning_tree
from .lattice import solve_lattice


class DecorationError(ValueError):
    pass


class ExternalEdge(DecorationError):
    pass


class BadTarget(DecorationError):
    pass


class AlphaMismatch(DecorationError):
    pass


def gcd_all(values: Iterable[int]) -> int:
    """Nonnegative gcd with gcd() = 0 and gcd(0, n) = |n|."""
    out = 0
    for v in values:
        out = math.gcd(out, v)
    return out


def reduce_lift(value: int, modulus: int) -> int:
    """Minimal nonnegative lift modulo |modulus|; identity when modulus is 0."""
    m = abs(modulus)
    return value % m if m else value


@dataclass(frozen=True)
class Residue:
    """An integer modulo a nonnegative modulus (0 encodes Z)."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 0:
            raise ValueError("modulus must be nonnegative")
        object.__setattr__(self, "value", reduce_lift(self.value, self.modulus))

    def __add__(self, other: "Residue") -> "Residue":
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return Residue(self.value + other.value, self.modulus)

    def __sub__(self, other: "Residue") -> "Residue":
        return self + -other

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True)
class Decoration:
    """Immutable alpha/beta data on a graph; build it with make_decoration.

    ``beta`` holds one lift per source half-edge, as (source, (least
    co-half, other co-half, lift)) with the lift taken toward the least
    co-half and stored as the minimal nonnegative lift modulo |alpha of the
    source| (raw integer when the source alpha is 0), so equality of
    Decoration values is exactly equality of decorations.  The lift toward
    the other co-half follows from the vertex congruence (see ``b``).
    ``_graph``, which equality ignores, is the graph it is bound to.
    """

    alpha: tuple[tuple[str, int], ...]
    beta: tuple[tuple[str, tuple[str, str, int]], ...]
    _alpha: dict = field(default_factory=dict, compare=False, repr=False)
    _beta: dict = field(default_factory=dict, compare=False, repr=False)
    _graph: Optional[TrivalentGraph] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self._alpha:  # _decoration passes the lookups it sorted
            self._alpha.update(self.alpha)
            self._beta.update(self.beta)

    def a(self, h: str) -> int:
        try:
            return self._alpha[h]
        except KeyError:
            raise DecorationError(f"no alpha on half-edge {h!r}") from None

    def b(self, src: str, tgt: str) -> int:
        """The lift beta_{src,tgt}; DecorationError when this decoration
        holds no such pair, as when it was built on another graph."""
        try:
            least, other, lift = self._beta[src]
            if tgt == least:
                return lift
            if tgt == other:
                return _companion(lift, self._alpha[tgt], self._alpha[src])
        except KeyError:
            raise DecorationError(f"no beta lift from {src!r} toward {tgt!r}") from None
        raise DecorationError(
            f"beta of {src!r} is stored toward {(least, other)}, not {tgt!r}"
        )


def _companion(lift: int, a_to: int, a_src: int) -> int:
    """The vertex congruence: from a source's lift toward one co-half, its
    minimal lift toward the other co-half, whose alpha is ``a_to``.  The
    rule reads the same in both directions because the vertex sum is 2."""
    return reduce_lift(lift + a_to - 1, a_src)


def _nearest(value: int, modulus: int) -> int:
    """The residue of value modulo |modulus| nearest 0, in [-m/2, m/2);
    value itself when modulus is 0."""
    half = abs(modulus) // 2
    return reduce_lift(value + half, modulus) - half


def stored_lift(
    alpha: Mapping[str, int], src: str, tgt: str, other: str, lift: int
) -> tuple[str, str, int]:
    """The stored entry (least co-half, other co-half, lift) of ``src``
    given its lift toward ``tgt``, with ``other`` its remaining co-half."""
    if tgt < other:
        return tgt, other, reduce_lift(lift, alpha[src])
    return other, tgt, _companion(lift, alpha[other], alpha[src])


def _alpha_problems(g: TrivalentGraph, alpha: Mapping[str, int]) -> list[str]:
    """Violations of the alpha rules on g, each naming its half-edges or
    vertex: the domain, the vertex sums and edge antisymmetry."""
    halves = g._vertex_of.keys()
    if alpha.keys() != halves:
        missing = sorted(halves - alpha.keys())
        if missing:
            return [f"alpha missing for half-edges {missing}"]
        return [f"alpha given for unknown half-edges {sorted(alpha.keys() - halves)}"]
    problems = []
    for name, (a, b, c) in g.vertices:
        total = alpha[a] + alpha[b] + alpha[c]
        if total != 2:
            problems.append(f"vertex {name!r}: alpha sum {total} != 2")
    for a, b in g.edges:
        if alpha[a] + alpha[b] != 0:
            problems.append(
                f"edge {a!r}~{b!r}: alpha_{a} + alpha_{b} = "
                f"{alpha[a] + alpha[b]} != 0"
            )
    return problems


def _integers(values: Mapping, what: str) -> dict:
    """``values`` read by ``operator.index``, so no float or str is truncated
    or parsed; DecorationError names a key whose value is not an integer."""
    try:
        return dict(zip(values, map(operator.index, values.values())))
    except TypeError:
        key = next(k for k, v in values.items() if not hasattr(type(v), "__index__"))
    raise DecorationError(f"{what} {key!r} is not an integer: {values[key]!r}")


def make_decoration(
    g: TrivalentGraph,
    alpha: Mapping[str, int],
    beta: Mapping[tuple[str, str], int],
) -> Decoration:
    """Build a Decoration, checking it once.

    A source's lift toward its least co-half is stored, derived through
    the vertex congruence when ``beta`` gives only the other one, and 0
    (the gauge-zero default) when it gives neither.  Raises
    DecorationError, naming the half-edges, vertex or key at fault, when a
    value is not an integer, alpha is not given on exactly the half-edges
    of g, a vertex sum is not 2, the alphas of an edge do not cancel, a
    source's two given lifts break the congruence, or a beta key is not an
    ordered pair of distinct half-edges at one vertex of g.
    """
    amap, bmap = _integers(alpha, "alpha at"), _integers(beta, "beta at")
    problems = _alpha_problems(g, amap)
    if problems:
        raise DecorationError("; ".join(problems))
    lifts: dict[str, tuple[str, str, int]] = {}
    used = 0  # keys of beta met below; the rest are not pairs at a vertex
    for name, (a, b, c) in g.vertices:
        # each source with its two co-halves, least first, as triples are sorted
        for s, t0, t1 in ((a, b, c), (b, a, c), (c, a, b)):
            to0, to1 = bmap.get((s, t0)), bmap.get((s, t1))
            lift = 0 if to0 is None else reduce_lift(to0, amap[s])
            read = lift if to1 is None else _companion(to1, amap[t0], amap[s])
            if to0 is not None and read != lift:
                raise DecorationError(
                    f"vertex {name!r}: beta_({s},{t1}) != beta_({s},{t0}) "
                    f"+ alpha_{t1} - 1 mod {amap[s]}"
                )
            used += (to0 is not None) + (to1 is not None)
            lifts[s] = (t0, t1, read)
    if used != len(bmap):
        pairs = {(s, t) for _, triple in g.vertices for s in triple for t in triple}
        bad = next(key for key in bmap if key not in pairs or key[0] == key[1])
        raise DecorationError(f"beta key {bad!r} is not two half-edges at a vertex")
    return _decoration(amap, lifts, g)


def _decoration(alpha: dict, lifts: dict, g: TrivalentGraph) -> Decoration:
    """The Decoration bound to g that keeps the dicts alpha and lifts (stored,
    reduced, fitting g) as lookups; sorting the names beats sorting items."""
    return Decoration(
        alpha=tuple([(h, alpha[h]) for h in sorted(alpha)]),
        beta=tuple([(s, lifts[s]) for s in sorted(lifts)]),
        _alpha=alpha, _beta=lifts, _graph=g,
    )


def validate_decoration(g: TrivalentGraph, dec: Decoration) -> list[str]:
    """Structured list of the ways dec does not fit g; empty means dec is
    a decoration of g.  This is the one fit rule: the alpha rules, and a
    lift from each half-edge stored toward the other two at its vertex on
    g (not so when dec was built on another graph with the same half-edges).

    make_decoration checks the alpha rules when it builds dec; the beta
    lifts satisfy the vertex congruence by construction.
    """
    problems = _alpha_problems(g, dec._alpha)
    for name, (a, b, c) in g.vertices:
        for s, t0, t1 in ((a, b, c), (b, a, c), (c, a, b)):
            stored = dec._beta.get(s)
            if stored is None:
                problems.append(f"no beta lift from {s!r} at vertex {name!r}")
            elif stored[0] != t0 or stored[1] != t1:
                problems.append(
                    f"beta of {s!r} is stored toward {stored[:2]}, not the other "
                    f"half-edges {(t0, t1)} at vertex {name!r}"
                )
    return problems


def _check_fit(g: TrivalentGraph, dec: Optional[Decoration]) -> None:
    """Raise DecorationError unless dec (None fits any g) fits g: at once if
    bound to g itself, else by validate_decoration, then bound to g."""
    if dec is not None and dec._graph is not g:
        problems = validate_decoration(g, dec)
        if problems:
            msg = "decoration does not fit the graph: " + "; ".join(problems)
            raise DecorationError(msg)
        object.__setattr__(dec, "_graph", g)


# -- the cycle invariant ------------------------------------------------


def cycle_b(g: TrivalentGraph, dec: Decoration, c: OrientedCycle) -> Residue:
    """The cycle invariant b_c modulo the ideal I_c = (alpha on the cycle),
    as the alternating beta sum along the cycle.  The gamma sum over its
    vertices and the delta sum over its edges give the same residue."""
    _check_fit(g, dec)
    c.validate(g)
    modulus = gcd_all(dec.a(h) for h in c.half_edges())
    beta_sum = 0
    for j, (out, _) in enumerate(c.steps):
        inn = c.steps[j - 1][1]  # the edge before arrives at out's vertex
        beta_sum += dec.b(out, inn) - dec.b(inn, out)
    return Residue(beta_sum, modulus)


# -- trivial modifications ----------------------------------------------


def _is_pair(target) -> bool:
    """True for a tuple or list of two str names (a str is not one)."""
    return (
        isinstance(target, (tuple, list))
        and len(target) == 2
        and isinstance(target[0], str)
        and isinstance(target[1], str)
    )


@dataclass(frozen=True)
class TrivialMod:
    """V(vertex, n) | I(internal edge, m) | E(external half-edge, m)."""

    kind: str  # 'V', 'I' or 'E'
    target: Union[str, tuple[str, str]]
    amount: int

    def __post_init__(self):
        if self.kind not in ("V", "I", "E"):
            raise BadTarget(f"unknown trivial modification kind {self.kind!r}")
        edge = self.kind == "I"
        if not (_is_pair(self.target) if edge else isinstance(self.target, str)):
            what = "a pair of half-edge names" if edge else "one name"
            raise BadTarget(f"{self.kind} target must be {what}, not {self.target!r}")
        if not isinstance(self.amount, int):
            raise BadTarget(f"{self.kind} amount must be an integer, not {self.amount!r}")


def apply_trivial_mod(
    g: TrivalentGraph, dec: Decoration, mod: TrivialMod
) -> Decoration:
    """The decoration after one V/I/E modification, a local edit of at most
    three beta lifts."""
    from .moves import _PlanState

    state = _PlanState(g, dec)
    state.apply(mod)
    return state.freeze()[1]


def trivial_mod_equivalent(
    g: TrivalentGraph, dec1: Decoration, dec2: Decoration
):
    """Witness MoveScript turning dec1 into dec2, or None.

    Let d be the difference of the stored lifts.  E-modifications absorb
    every external half-edge, and an internal edge a~b (a the smaller half)
    only asks for vertex potentials n with

        n_{v(a)} - n_{v(b)} = d_a - d_b + |alpha_a| * t_e

    for some integer t_e.  Along the spanning forest each potential is
    first the one nearest 0 that its tree edge allows (0 at the least
    vertex of each component).  Around a fundamental cycle of
    ``cycle_basis`` the potentials cancel, which leaves one lattice row per
    cycle, its b_c condition: entries +-|alpha_e| on the cycle's edges and,
    as right-hand side, what its chord still misses.  The solution corrects
    the potentials along the forest.  The witness is V by n_v at each
    vertex, then I by d_a - n_{v(a)} on each internal edge a~b, then E by
    d_x - n_{v(x)} on each external x, each I and E amount nearest 0 modulo
    its |alpha| (the lifts it reaches are the same); zero amounts are left
    out, so there are at most v + i + e steps.
    """
    from .moves import MoveScript

    _check_fit(g, dec1)
    _check_fit(g, dec2)
    if dec1.alpha != dec2.alpha:
        raise AlphaMismatch("decorations have different alpha data")
    d = {s: dec2._beta[s][2] - dec1._beta[s][2] for s in g._vertex_of}
    vertex_of = g.vertex_of

    tree, _ = spanning_tree(g)
    n0 = dict.fromkeys(g.vertex_names(), 0)
    for h, p in tree.values():
        n0[vertex_of(p)] = _nearest(n0[vertex_of(h)] - d[h] + d[p], dec1.a(h))
    cycles = cycle_basis(g)
    columns: dict[tuple[str, str], list[int]] = {}
    target = []
    for row, c in enumerate(cycles):
        for out, inn in c.steps:
            if dec1.a(out):
                edge, sign = ((out, inn), 1) if out < inn else ((inn, out), -1)
                entry = sign * abs(dec1.a(out))
                columns.setdefault(edge, [0] * len(cycles))[row] = entry
        a, b = c.steps[0]
        miss = n0[vertex_of(a)] - n0[vertex_of(b)] - d[a] + d[b]
        target.append(_nearest(miss, dec1.a(a)))
    coeffs = solve_lattice(list(columns.values()), target)
    if coeffs is None:
        return None
    t = dict(zip(columns, coeffs))

    n = dict(n0)
    for edge, (h, p) in tree.items():
        shift = (1 if h < p else -1) * abs(dec1.a(h)) * t.get(edge, 0)
        n[vertex_of(p)] += n[vertex_of(h)] - n0[vertex_of(h)] - shift
    steps = [TrivialMod("V", name, n[name]) for name, _ in g.vertices]
    for a, b in g.edges:
        amount = _nearest(d[a] - n[vertex_of(a)], dec1.a(a))
        steps.append(TrivialMod("I", (a, b), amount))
    for x in g.boundary:
        amount = _nearest(d[x] - n[vertex_of(x)], dec1.a(x))
        steps.append(TrivialMod("E", x, amount))
    return MoveScript(steps=tuple(m for m in steps if m.amount))
