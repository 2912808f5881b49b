"""Genus-stratified classification of decorated trivalent graphs.

Genus 0: the boundary alpha vector.  Genus 1: the gcd invariant
A~ = gcd({alpha_x - 2 : x external}, a, b).  Genus >= 2: the four classes
I-IV cut out by parity of alpha, parity of the cycle invariants b_c, the
boundary alpha mod 4, and (for classes III/IV) the Arf invariant over the
disjoint cycle system frak_C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .decoration import (
    Decoration,
    _check_fit,
    cycle_b,
    gcd_all,
    make_decoration,
    reduce_lift,
)
from .graph import (
    InternalError,
    OrientedCycle,
    TrivalentGraph,
    _check_boundary_map,
    _connected_genus,
    build_graph,
    cycle_basis,
)
from .moves import MoveScript, normalize_to_apple_tree


class InvariantError(ValueError):
    pass


class WrongGenus(InvariantError):
    pass


class ConditionsFail(InvariantError):
    pass


def _a_tilde(boundary_alpha: Iterable[int], a: int, b: int) -> int:
    """A~ = gcd({alpha_x - 2 : x external}, a, b) of a genus-1 graph whose
    cycle has alpha a and b_c = b."""
    return gcd_all([x - 2 for x in boundary_alpha] + [a, b])


def a_tilde(g: TrivalentGraph, dec: Decoration) -> int:
    """The genus-1 invariant gcd({alpha_x - 2 : x external}, a, b)."""
    report = classify(g, dec)
    if report.genus != 1:
        raise WrongGenus(f"a_tilde requires genus 1, got {report.genus}")
    return report.a_tilde


def _check_conditions(
    g: TrivalentGraph, dec: Decoration, even_b: bool
) -> list[str]:
    """Violations of conditions (1) and (2) of the Arf setup, and of (3),
    even b_c on the basis cycles, when ``even_b`` and (1), (2) hold."""
    _check_fit(g, dec)
    problems = []
    odd = sorted(h for h, a in dec.alpha if a % 2)
    if odd:
        problems.append(f"(1) odd alpha at {odd}")
    bad = sorted(h for h in g.boundary if dec.a(h) % 4 != 2)
    if bad:
        problems.append(f"(2) boundary alpha != 2 mod 4 at {bad}")
    if even_b and not problems:
        for idx, c in enumerate(cycle_basis(g)):
            if cycle_b(g, dec, c).value % 2:
                problems.append(f"(3) odd b_c on basis cycle {idx}")
    return problems


def frak_C(g: TrivalentGraph, dec: Decoration) -> list[OrientedCycle]:
    """The disjoint cycles of internal edges with alpha == 0 mod 4.

    Requires conditions (1) and (2).  Every vertex of that subgraph has
    degree exactly 2 (the mod-2 residues p_x sum to zero at vertices), so
    components are simple cycles, returned in deterministic order.
    """
    problems = _check_conditions(g, dec, even_b=False)
    if problems:
        raise ConditionsFail("; ".join(problems))
    sub: set[str] = set()
    for a, b in g.edges:
        if dec.a(a) % 4 == 0:
            sub.add(a)
            sub.add(b)
    for name, triple in g.vertices:
        deg = sum(1 for h in triple if h in sub)
        if deg not in (0, 2):
            raise InternalError(f"vertex {name!r} has degree {deg} in frak_C")
    cycles = []
    used: set[str] = set()
    for start in sorted(sub):
        if start in used:
            continue
        steps = []
        out = start
        while True:
            inn = g.partner(out)
            steps.append((out, inn))
            used.add(out)
            used.add(inn)
            (out,) = [
                h for h in g.others_at_vertex(inn) if h in sub and h != inn
            ]
            if out == start:
                break
        cyc = OrientedCycle(tuple(steps))
        cyc.validate(g)
        cycles.append(cyc)
    return cycles


def _class_rule(
    alphas: Iterable[int],
    bs: Iterable[int],
    boundary_alpha: Iterable[int],
    frak_bs: Callable[[], Iterable[int]],
) -> str:
    """I if an alpha or a b_c is odd, II if a boundary alpha is 0 mod 4,
    else III or IV as the Arf sum over frak_C of q_c = b_c/2 + 1 (b_c taken
    mod 4) is 0 or 1 in Z_2; ``frak_bs`` gives those b_c, and is called only
    then."""
    if any(a % 2 for a in alphas) or any(b % 2 for b in bs):
        return "I"
    if any(a % 4 == 0 for a in boundary_alpha):
        return "II"
    total = 0
    for b in frak_bs():
        b4 = reduce_lift(b, 4)
        if b4 % 2:
            raise InternalError("odd b_c on a frak_C cycle after condition (3)")
        total += b4 // 2 + 1
    return ("III", "IV")[total % 2]


def _graph_class(g: TrivalentGraph, dec: Decoration, bs: Iterable[int]) -> str:
    """The class rule on (g, dec), given the basis b_c values ``bs``."""
    return _class_rule(
        (a for _, a in dec.alpha),
        bs,
        (dec.a(h) for h in g.boundary),
        lambda: (cycle_b(g, dec, c).value for c in frak_C(g, dec)),
    )


def _basis_bs(g: TrivalentGraph, dec: Decoration) -> Iterator[int]:
    """The b_c values over the cycle basis, each computed when read."""
    return (cycle_b(g, dec, c).value for c in cycle_basis(g))


def arf(g: TrivalentGraph, dec: Decoration) -> int:
    """A = sum over frak_C of q_c = b_c/2 + 1 in Z_2 (b_c taken mod 4)."""
    problems = _check_conditions(g, dec, even_b=True)
    if problems:
        raise ConditionsFail("; ".join(problems))
    # Conditions (1)-(3) leave class III (A = 0) or IV (A = 1).
    return ("III", "IV").index(_graph_class(g, dec, ()))


@dataclass(frozen=True)
class InvariantReport:
    """Classification record; only genus-appropriate fields are populated."""

    genus: int
    boundary_alpha: tuple[tuple[str, int], ...]  # in declared boundary order
    cycle_bs: tuple[str, ...]  # informational, basis-dependent
    a_tilde: Optional[int] = None
    cls: Optional[str] = None
    arf: Optional[int] = None

    def key(self):
        """The genus-stratified equivalence key (drops the basis-dependent
        per-cycle values)."""
        return (self.genus, self.boundary_alpha, self.a_tilde, self.cls, self.arf)

    def to_dict(self) -> dict:
        out = {
            "genus": self.genus,
            "boundary_alpha": {h: a for h, a in self.boundary_alpha},
            "cycle_b": list(self.cycle_bs),
        }
        optional = {"a_tilde": self.a_tilde, "class": self.cls, "arf": self.arf}
        return out | {key: v for key, v in optional.items() if v is not None}


def _invariant(
    g: TrivalentGraph, dec: Decoration, genus: int, bs: Iterable[int]
) -> tuple[Optional[int], Optional[str]]:
    """(A~, class) of a connected (g, dec) of this genus, None where the
    genus has none, from the basis b_c values ``bs``, read only as far as
    the rule needs them."""
    if genus == 0:
        return None, None
    if genus == 1:
        a = dec.a(cycle_basis(g)[0].steps[0][0])
        return _a_tilde((dec.a(h) for h in g.boundary), a, next(iter(bs))), None
    return None, _graph_class(g, dec, bs)


def classify(g: TrivalentGraph, dec: Decoration) -> InvariantReport:
    _check_fit(g, dec)
    genus = _connected_genus(g)
    boundary_alpha = tuple((h, dec.a(h)) for h in g.boundary)
    bs = [cycle_b(g, dec, c) for c in cycle_basis(g)]
    at, cls = _invariant(g, dec, genus, [b.value for b in bs])
    a = {"III": 0, "IV": 1}.get(cls)
    return InvariantReport(genus, boundary_alpha, tuple(map(str, bs)), at, cls, a)


def equivalent(
    g1: TrivalentGraph,
    dec1: Decoration,
    g2: TrivalentGraph,
    dec2: Decoration,
    boundary_map: dict[str, str],
) -> bool:
    """The theorems' decision rule: genus, boundary alpha under the map,
    then the genus-appropriate invariant (nothing / A~ / class), which
    computes a b_c only when the rule reads it."""
    _check_fit(g1, dec1)
    _check_fit(g2, dec2)
    _check_boundary_map(g1, g2, boundary_map)
    genus = _connected_genus(g1)
    if genus != _connected_genus(g2):
        return False
    if any(dec1.a(h) != dec2.a(boundary_map[h]) for h in g1.boundary):
        return False
    k1 = _invariant(g1, dec1, genus, _basis_bs(g1, dec1))
    return k1 == _invariant(g2, dec2, genus, _basis_bs(g2, dec2))


# -- the normal form ------------------------------------------------------


def _canonical_pairs(genus: int, a_tilde: Optional[int], cls: Optional[str]):
    """The loop pairs of the canonical apple tree of a genus, A~ and class."""
    if genus < 2:
        return ((a_tilde, 0),) * genus
    first, rest = {"I": ((1, 0),) * 2, "IV": ((0, 0), (2, 0))}.get(cls, ((2, 0),) * 2)
    return (first,) + (rest,) * (genus - 1)


def build_canonical_apple(
    boundary: list[tuple[str, int]], pairs: list[tuple[int, int]]
) -> tuple[TrivalentGraph, Decoration]:
    """The canonical apple tree with the given boundary names/alpha and
    loop pairs, carrying the canonical gauge-zero decoration with b~_i
    written on each loop."""
    n, g = len(boundary), len(pairs)
    # With no boundary the vertex sums (2 each) cannot cancel over the edges,
    # so no decorated graph has this shape.
    if 2 * g + n - 2 < 1 or n == 0:
        raise InvariantError("no decorated graph with this boundary/genus")
    prefix = "_"
    names = {h for h, _ in boundary}
    while any(h.startswith(prefix) for h in names):
        prefix += "_"

    vertices: dict[str, tuple[str, str, str]] = {}
    edges: list[tuple[str, str]] = []
    alpha: dict[str, int] = {h: a for h, a in boundary}

    def new_vertex(triple):
        vertices[f"{prefix}n{len(vertices)}"] = tuple(triple)

    # loop gadgets: vertex {stem_b, l_a, l_b}; the spine sees stem_a.
    loop_leaves = []
    for i, (ai, _) in enumerate(pairs):
        la, lb = f"{prefix}l{i}a", f"{prefix}l{i}b"
        alpha[la], alpha[lb] = ai, -ai
        loop_leaves.append((la, lb))
        edges.append((la, lb))
    leaves: list[str] = [h for h, _ in boundary]
    if n == 1 and g == 1:
        new_vertex((leaves[0], *loop_leaves[0]))
    else:
        for i, (la, lb) in enumerate(loop_leaves):
            sa, sb = f"{prefix}t{i}a", f"{prefix}t{i}b"
            alpha[sa], alpha[sb] = -2, 2
            new_vertex((sb, la, lb))
            edges.append((sa, sb))
            leaves.append(sa)
        m = len(leaves)  # n + g >= 3 by the check above
        # The spine: vertex k holds (cur, leaves[k + 1], next), where cur
        # is leaves[0] or the edge from vertex k - 1, and next the edge
        # s{k}a~s{k}b to vertex k + 1 or, at the last vertex, the last leaf.
        cur = leaves[0]
        for k, leaf in enumerate(leaves[1:-1]):
            if k == m - 3:
                new_vertex((cur, leaf, leaves[-1]))
            else:
                sa, sb = f"{prefix}s{k}a", f"{prefix}s{k}b"
                alpha[sa] = 2 - alpha[cur] - alpha[leaf]
                alpha[sb] = -alpha[sa]
                new_vertex((cur, leaf, sa))
                edges.append((sa, sb))
                cur = sb
    graph = build_graph(vertices, edges)
    # gauge-zero beta with b~_i written on each loop
    beta: dict[tuple[str, str], int] = {}
    for (la, lb), (_, bi) in zip(loop_leaves, pairs):
        beta[(la, lb)] = bi
        beta[(lb, la)] = 0
    return graph, make_decoration(graph, alpha, beta)


@dataclass(frozen=True)
class NormalForm:
    """Canonical apple tree + decoration; the script is a witness and is
    excluded from record equality."""

    graph: TrivalentGraph
    decoration: Decoration
    report: InvariantReport
    script: MoveScript = field(compare=False)


def normal_form(g: TrivalentGraph, dec: Decoration) -> NormalForm:
    """The canonical apple tree of the class of (g, dec), which classify
    reads (the moves keep it), and the IH script normalizing the bare graph.
    Two decorated graphs with identically-named boundaries are equivalent()
    iff their NormalForm records compare equal.
    """
    report = classify(g, dec)
    state, _ = normalize_to_apple_tree(g, external_order=sorted(g.boundary))
    pairs = _canonical_pairs(report.genus, report.a_tilde, report.cls)
    g_can, dec_can = build_canonical_apple(sorted(report.boundary_alpha), list(pairs))
    script = MoveScript(tuple(state.steps))
    return NormalForm(g_can, dec_can, classify(g_can, dec_can), script)
