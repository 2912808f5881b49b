"""Decorations of trivalent graphs and their congruence invariants.

A decoration assigns an integer alpha to every half-edge (summing to 2 at
each vertex, opposite across internal edges) and an integer lift beta_{xy}
to every ordered pair of distinct half-edges at a common vertex, subject to
the vertex congruence

    beta_{xz} == beta_{xy} + alpha_z - 1   (mod alpha_x).

All residues live in Z modulo a nonnegative modulus, with modulus 0 meaning
the integers, and gcd(0, n) = |n| throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

from .graph import (
    GraphError,
    OrientedCycle,
    TrivalentGraph,
    cycle_basis,
)


class DecorationError(ValueError):
    pass


class NotAtVertex(DecorationError):
    pass


class ExternalEdge(DecorationError):
    pass


class BadTarget(DecorationError):
    pass


class AlphaMismatch(DecorationError):
    pass


class OddAlpha(DecorationError):
    pass


class ConditionFails(DecorationError):
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
        if self.modulus != other.modulus:
            raise ValueError("modulus mismatch")
        return Residue(self.value - other.value, self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def reduce(self, modulus: int) -> "Residue":
        """Push forward along Z/m -> Z/m' (m' must divide m, or m == 0)."""
        if modulus and self.modulus and self.modulus % modulus != 0:
            raise ValueError(f"Z/{self.modulus} does not surject onto Z/{modulus}")
        if modulus == 0 and self.modulus != 0:
            raise ValueError("cannot lift a torsion residue to Z")
        return Residue(self.value, modulus)

    def __str__(self) -> str:
        return f"{self.value} mod {self.modulus}"


@dataclass(frozen=True)
class Decoration:
    """Immutable alpha/beta data on a graph.

    ``beta`` holds all six lifts per vertex, each stored as the minimal
    nonnegative lift modulo |alpha of the source| (raw integer when the
    source alpha is 0), so equality of Decoration values is exactly equality
    modulo the relevant alpha.
    """

    alpha: tuple[tuple[str, int], ...]
    beta: tuple[tuple[tuple[str, str], int], ...]
    _alpha: dict = field(default_factory=dict, compare=False, repr=False)
    _beta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        self._alpha.update(dict(self.alpha))
        self._beta.update(dict(self.beta))

    def a(self, h: str) -> int:
        return self._alpha[h]

    def b(self, src: str, tgt: str) -> int:
        return self._beta[(src, tgt)]

    def beta_map(self) -> dict[tuple[str, str], int]:
        return dict(self.beta)

    def alpha_map(self) -> dict[str, int]:
        return dict(self.alpha)


def _ordered_pairs(g: TrivalentGraph):
    for _, triple in g.vertices:
        for s in triple:
            for t in triple:
                if s != t:
                    yield (s, t)


def make_decoration(
    g: TrivalentGraph,
    alpha: Mapping[str, int],
    beta: Mapping[tuple[str, str], int],
) -> Decoration:
    """Build a Decoration, completing missing beta entries.

    At each vertex, at least one lift per source half-edge must be supplied;
    the companion entry is completed through the vertex congruence with the
    minimal nonnegative lift.  Supplied entries are kept (reduced).
    """
    missing = [h for h in g.half_edges() if h not in alpha]
    if missing:
        raise DecorationError(f"alpha missing for half-edges {missing}")
    amap = {h: int(alpha[h]) for h in g.half_edges()}
    bmap: dict[tuple[str, str], int] = {}
    for _, triple in g.vertices:
        for s in triple:
            t1, t2 = (t for t in triple if t != s)
            given = [(t, beta[(s, t)]) for t in (t1, t2) if (s, t) in beta]
            if not given:
                raise DecorationError(
                    f"no beta lift supplied for source half-edge {s!r}"
                )
            for t, lift in given:
                bmap[(s, t)] = reduce_lift(int(lift), amap[s])
            if len(given) == 1:
                t_known, lift = given[0]
                t_other = t2 if t_known == t1 else t1
                # beta_{s,t_other} = beta_{s,t_known} + alpha_{t_other} - 1
                bmap[(s, t_other)] = reduce_lift(
                    lift + amap[t_other] - 1, amap[s]
                )
    dec = Decoration(
        alpha=tuple(sorted(amap.items())),
        beta=tuple(sorted(bmap.items())),
    )
    return dec


def zero_beta(g: TrivalentGraph, alpha: Mapping[str, int]) -> Decoration:
    """The gauge-zero decoration: lift 0 from each source to its least target."""
    beta = {}
    for _, triple in g.vertices:
        for s in triple:
            tgt = min(t for t in triple if t != s)
            beta[(s, tgt)] = 0
    return make_decoration(g, alpha, beta)


def validate_decoration(g: TrivalentGraph, dec: Decoration) -> list[str]:
    """Structured list of violated constraints; empty means valid."""
    problems = []
    have = set(dec.alpha_map())
    want = set(g.half_edges())
    if have != want:
        problems.append(f"alpha domain mismatch: {sorted(have ^ want)}")
        return problems
    for name, triple in g.vertices:
        total = sum(dec.a(h) for h in triple)
        if total != 2:
            problems.append(f"vertex {name!r}: alpha sum {total} != 2")
    for a, b in g.edges:
        if dec.a(a) + dec.a(b) != 0:
            problems.append(
                f"edge {a!r}~{b!r}: alpha_{a} + alpha_{b} = "
                f"{dec.a(a) + dec.a(b)} != 0"
            )
    pairs = set(_ordered_pairs(g))
    if set(dec.beta_map()) != pairs:
        problems.append("beta domain mismatch")
        return problems
    for name, triple in g.vertices:
        for s in triple:
            t1, t2 = sorted(t for t in triple if t != s)
            lhs = dec.b(s, t2)
            rhs = dec.b(s, t1) + dec.a(t2) - 1
            if reduce_lift(lhs - rhs, dec.a(s)) != 0:
                problems.append(
                    f"vertex {name!r}: beta_({s},{t2}) != beta_({s},{t1}) "
                    f"+ alpha_{t2} - 1 mod {dec.a(s)}"
                )
    return problems


# -- invariants ----------------------------------------------------------


def gamma(g: TrivalentGraph, dec: Decoration, vertex: str, x: str, y: str) -> Residue:
    """gamma_{xy} = beta_{xy} - beta_{yx} mod gcd(alpha_x, alpha_y)."""
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
    x1, y1 = sorted(edge)
    if g.partner(x1) != y1:
        raise ExternalEdge(f"{edge!r} is not an internal edge")
    mod = abs(dec.a(x1))
    out = {}
    xs = [t for t in g.triple(g.vertex_of(x1)) if t != x1]
    ys = [t for t in g.triple(g.vertex_of(y1)) if t != y1]
    for xi in xs:
        for yj in ys:
            out[(xi, yj)] = Residue(dec.b(x1, xi) - dec.b(y1, yj), mod)
    # Assert the paper's relation among the four values:
    # delta_{x2 y3} = delta_{x2 y2} - alpha_{y3} + 1 (any fixed x_i, both y_j).
    for xi in xs:
        lhs = out[(xi, ys[1])]
        rhs = Residue(out[(xi, ys[0])].value - dec.a(ys[1]) + 1, mod)
        assert lhs == rhs, "delta relation violated (internal bug)"
    return out


def cycle_b(g: TrivalentGraph, dec: Decoration, c: OrientedCycle) -> Residue:
    """The cycle invariant b_c modulo the ideal I_c = (alpha on the cycle).

    Computed three ways (alternating beta sum, gamma sum over vertices,
    delta sum over edges) and asserted equal.
    """
    c.validate(g)
    modulus = gcd_all(dec.a(h) for h in c.half_edges())
    k = len(c.steps)
    # alternating beta sum, read directly off the stored lifts.
    beta_sum = 0
    for j in range(k):
        _, inn = c.steps[j]
        out_next, _ = c.steps[(j + 1) % k]
        beta_sum += dec.b(out_next, inn)
        beta_sum -= dec.b(inn, out_next)
    # gamma-sum over vertices: at the vertex where edge j arrives (in-half
    # y) and edge j+1 leaves (out-half x), add the residue gamma_{x y}.
    # Each gamma lift differs from the raw difference by a multiple of
    # gcd(alpha_x, alpha_y), which I_c divides, so the sums agree mod I_c.
    gamma_sum = 0
    for j in range(k):
        _, inn = c.steps[j]
        out_next, _ = c.steps[(j + 1) % k]
        gamma_sum += gamma(g, dec, g.vertex_of(inn), out_next, inn).value
    # delta-sum over edges: for edge j = (out, inn), the term is
    # delta_{y_j x_{j+1}} = beta_{out y_j} - beta_{inn x_{j+1}} where y_j is
    # the in-half arriving at out's vertex and x_{j+1} the out-half leaving
    # inn's vertex; each term reduced mod alpha of the edge first.
    delta_sum = 0
    for j in range(k):
        out, inn = c.steps[j]
        y_prev = c.steps[(j - 1) % k][1]
        x_next = c.steps[(j + 1) % k][0]
        delta_sum += reduce_lift(
            dec.b(out, y_prev) - dec.b(inn, x_next), dec.a(out)
        )
    r1 = Residue(beta_sum, modulus)
    r2 = Residue(gamma_sum, modulus)
    r3 = Residue(delta_sum, modulus)
    assert r1 == r2 == r3, "cycle_b formulas disagree (internal bug)"
    return r1


# -- trivial modifications ----------------------------------------------


@dataclass(frozen=True)
class TrivialMod:
    """V(vertex, n) | I(internal edge, m) | E(external half-edge, m)."""

    kind: str  # 'V', 'I' or 'E'
    target: Union[str, tuple[str, str]]
    amount: int

    def __post_init__(self):
        if self.kind not in ("V", "I", "E"):
            raise BadTarget(f"unknown trivial modification kind {self.kind!r}")


def apply_trivial_mod(
    g: TrivalentGraph, dec: Decoration, mod: TrivialMod
) -> Decoration:
    """The decoration after one V/I/E modification, a local edit of at most
    six beta lifts."""
    from .moves import _PlanState

    state = _PlanState(g, dec)
    state.apply(mod)
    return state.freeze()[1]


def trivial_mod_generators(
    g: TrivalentGraph,
) -> tuple[list[tuple[str, Union[str, tuple[str, str]]]], list[list[int]], list[tuple[str, str]]]:
    """Move vectors of the V/I/E modifications over the beta-entry basis.

    Returns (move labels, move vectors, entry order).
    """
    entries = sorted(_ordered_pairs(g))
    index = {p: i for i, p in enumerate(entries)}
    labels: list[tuple[str, Union[str, tuple[str, str]]]] = []
    vectors: list[list[int]] = []
    for name, triple in g.vertices:
        vec = [0] * len(entries)
        for s in triple:
            for t in triple:
                if s != t:
                    vec[index[(s, t)]] = 1
        labels.append(("V", name))
        vectors.append(vec)
    for a, b in g.edges:
        vec = [0] * len(entries)
        for h in (a, b):
            for t in g.others_at_vertex(h):
                vec[index[(h, t)]] = 1
        labels.append(("I", (a, b)))
        vectors.append(vec)
    for x in g.boundary:
        vec = [0] * len(entries)
        for t in g.others_at_vertex(x):
            vec[index[(x, t)]] = 1
        labels.append(("E", x))
        vectors.append(vec)
    return labels, vectors, entries


def trivial_mod_equivalent(
    g: TrivalentGraph, dec1: Decoration, dec2: Decoration
):
    """Witness MoveScript turning dec1 into dec2, or None.

    Decided by integer-lattice membership: the beta difference must lie in
    the span of the V/I/E move vectors together with the per-entry moduli
    vectors alpha_src * e.
    """
    from .lattice import solve_lattice
    from .moves import MoveScript

    if dec1.alpha != dec2.alpha:
        raise AlphaMismatch("decorations have different alpha data")
    labels, vectors, entries = trivial_mod_generators(g)
    columns = list(vectors)
    for p in entries:
        a = dec1.a(p[0])
        if a != 0:
            vec = [0] * len(entries)
            vec[entries.index(p)] = abs(a)
            columns.append(vec)
    target = [dec2.b(*p) - dec1.b(*p) for p in entries]
    coeffs = solve_lattice(columns, target)
    if coeffs is None:
        return None
    steps = []
    for (kind, tgt), c in zip(labels, coeffs[: len(labels)]):
        if c:
            steps.append(TrivialMod(kind, tgt, c))
    return MoveScript(steps=tuple(steps))


# -- weak decorations ----------------------------------------------------


@dataclass(frozen=True)
class WeakDecoration:
    """Mod-2 beta data with beta_{xz} = beta_{xy} + 1 at each vertex."""

    beta2: tuple[tuple[tuple[str, str], int], ...]

    def b(self, src: str, tgt: str) -> int:
        return dict(self.beta2)[(src, tgt)]


def weaken(g: TrivalentGraph, dec: Decoration) -> WeakDecoration:
    if any(a % 2 for _, a in dec.alpha):
        raise OddAlpha("weak decorations require all alpha even")
    return WeakDecoration(
        beta2=tuple(sorted((p, v % 2) for p, v in dec.beta))
    )


def weak_class(
    g: TrivalentGraph, dec: Union[Decoration, WeakDecoration]
) -> tuple[int, ...]:
    """The H^1(Gamma, Z_2) class: b_c mod 2 over the cycle basis."""
    if isinstance(dec, Decoration):
        weaken(g, dec)  # raises OddAlpha when inapplicable
        getb = dec.b
    else:
        getb = dec.b
    out = []
    for c in cycle_basis(g):
        total = 0
        k = len(c.steps)
        for j in range(k):
            _, inn = c.steps[j]
            out_next, _ = c.steps[(j + 1) % k]
            total += getb(out_next, inn) - getb(inn, out_next)
        out.append(total % 2)
    return tuple(out)


# -- canonical planar beta ----------------------------------------------


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
    # Admissibility: across each internal edge u~v, the side partners must
    # carry congruent alpha mod alpha_u.
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
        if p is not None and h > p:
            beta[(h, pred[h])] = 0
        else:
            beta[(h, succ[h])] = 0
    return make_decoration(g, alpha, beta)
