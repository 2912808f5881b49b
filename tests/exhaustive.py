"""The exhaustive classification check: bounded move orbits against classify.

A reference check of the classification theorem, not a decision: every
decoration of a graph with alpha and lifts in a window is enumerated, the
decorations are partitioned into bounded move orbits (``move_orbit``), and
``classify`` must be constant on each orbit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from decograph.decoration import Decoration, make_decoration
from decograph.graph import TrivalentGraph, _connected_genus
from decograph.invariants import classify
from decograph.oracle import FrontierExceeded, OrbitBounds, move_orbit


def enumerate_alpha(
    g: TrivalentGraph, window: int
) -> list[dict[str, int]]:
    """All alpha assignments with every value in [-window, window].

    Free variables: one per external half-edge and one per internal edge
    (the value on its smaller half); constraints are the vertex sums."""
    variables: list[str] = list(g.boundary) + [a for a, _ in g.edges]
    if (2 * window + 1) ** len(variables) > 5_000_000:
        raise ValueError("alpha window too large to enumerate")
    out = []
    for combo in itertools.product(
        range(-window, window + 1), repeat=len(variables)
    ):
        val = dict(zip(variables, combo))
        alpha = {h: val[h] if h in val else -val[g.partner(h)] for h in g.half_edges()}
        if all(
            sum(alpha[h] for h in triple) == 2 for _, triple in g.vertices
        ) and all(abs(a) <= window for a in alpha.values()):
            out.append(alpha)
    return out


def enumerate_decorations(
    g: TrivalentGraph, alpha: dict[str, int], window: int
) -> list[Decoration]:
    """All decorations over a fixed alpha: one free lift per source
    half-edge, ranged over its residue classes (a window of integers when
    the source alpha is 0)."""
    sources = []
    ranges = []
    total = 1
    for _, triple in g.vertices:
        for s in triple:
            sources.append((s, min(t for t in triple if t != s)))
            a = abs(alpha[s])
            r = range(a) if a else range(-window, window + 1)
            ranges.append(r)
            total *= len(r)
            if total > 5_000_000:
                raise ValueError("beta window too large to enumerate")
    out = []
    for combo in itertools.product(*ranges):
        beta = {pair: v for pair, v in zip(sources, combo)}
        out.append(make_decoration(g, alpha, beta))
    # every lift ranged over is already reduced, so the decorations differ
    return sorted(out, key=lambda d: (d.alpha, d.beta))


@dataclass
class ClassificationReport:
    """Outcome of the exhaustive orbit-vs-classification comparison."""

    n_decorations: int
    n_orbits: int
    n_classes: int
    violations: list[str] = field(default_factory=list)
    orbits_per_class: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_classification(
    g: TrivalentGraph,
    bounds: OrbitBounds = OrbitBounds(),
    window: int = 2,
) -> ClassificationReport:
    """Enumerate all decorations in a window, partition them into bounded
    move orbits, and verify the classification is constant on every orbit.

    Orbits are computed with bounded search, so two decorations may show as
    distinct orbits while actually being connected outside the window; that
    direction is reported as orbit counts per class, not as a violation.
    Classification differing *within* one orbit is always a violation.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    _connected_genus(g)
    decs: list[Decoration] = []
    for alpha in enumerate_alpha(g, window):
        decs.extend(enumerate_decorations(g, alpha, window))
    index = {d: i for i, d in enumerate(decs)}
    # Bounded BFS orbits are not transitively closed, so orbits seeded at
    # different decorations may partially overlap; overlapping orbits are
    # merged (union-find) since overlap proves they lie in one true orbit.
    # An orbit with one key shares it with every orbit it overlaps, so each
    # orbit's keys are checked on their own.
    parent = list(range(len(decs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    keys: dict[Decoration, tuple] = {}  # classify(g, d).key(), once per d
    violations: list[str] = []
    for i, d in enumerate(decs):
        if d in keys:  # already in an orbit
            continue
        try:
            orbit = move_orbit(g, d, bounds)
        except FrontierExceeded as exc:
            orbit = exc.partial
        recs = set()
        for member in orbit:
            j = index.get(member)
            if j is not None:
                parent[find(j)] = find(i)
            if member not in keys:
                keys[member] = classify(g, member).key()
            recs.add(keys[member])
        if len(recs) > 1:
            violations.append(
                f"orbit of decoration {i} carries {len(recs)} distinct "
                f"classification records"
            )
    by_class: dict = {}
    for i, d in enumerate(decs):  # each d is in an orbit, so keyed
        by_class.setdefault(keys[d], set()).add(find(i))
    orbits_per_class = {
        str(k): len(v)
        for k, v in sorted(by_class.items(), key=lambda kv: str(kv[0]))
    }
    return ClassificationReport(
        n_decorations=len(decs),
        n_orbits=len({find(i) for i in range(len(decs))}),
        n_classes=len(by_class),
        violations=violations,
        orbits_per_class=orbits_per_class,
    )
