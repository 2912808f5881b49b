"""Exact integer-lattice membership via column Hermite reduction.

The central question answered here: given generator vectors g_1, ..., g_n in
Z^m and a target t in Z^m, does t lie in the lattice they span, and if so,
with which integer coefficients?  Everything uses exact Python integers, so
there are no overflow or conditioning concerns.
"""

from __future__ import annotations

import operator
from typing import Optional, Sequence


def solve_lattice(
    columns: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[list[int]]:
    """Solve sum_j x_j * columns[j] == target over the integers.

    Returns a coefficient list, or None when the target is not in the
    lattice spanned by the columns.  Among the solutions it returns a short
    one: the one found by column reduction, shortened by the kernel vectors
    the reduction leaves (0 for a zero target).
    """
    m = len(target)
    n = len(columns)
    for col in columns:
        if len(col) != m:
            raise ValueError("column/target dimension mismatch")
    # Each column carries its coefficients after its first m entries.
    cols = [[*c, *[0] * j, 1, *[0] * (n - j - 1)] for j, c in enumerate(columns)]
    x = [0] * n
    residual = list(target)
    j0 = 0  # cols[:j0] are the pivot columns, in the order of their rows
    for r in range(m):
        # Eliminate row r across the not-yet-pivotal columns by gcd steps.
        nz = [j for j in range(j0, n) if cols[j][r] != 0]
        while len(nz) > 1:
            jmin = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                q = cols[j][r] // cols[jmin][r]
                if j != jmin and q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[jmin])]
            nz = [j for j in nz if cols[j][r] != 0]
        if not nz:
            if residual[r] != 0:
                return None
            continue
        cols[j0], cols[nz[0]] = cols[nz[0]], cols[j0]
        pivot = cols[j0]
        j0 += 1
        # Later steps never touch a pivot column: substitute row r now.
        if residual[r] % pivot[r] != 0:
            return None
        q = residual[r] // pivot[r]
        if q:
            residual = [a - q * b for a, b in zip(residual, pivot)]
            x = [a + q * b for a, b in zip(x, pivot[m:])]
    # The other columns vanish on every row; their coefficients span the kernel.
    return _shortened(x, [c[m:] for c in cols[j0:]])


def _shortened(x: list[int], kernel: list[list[int]]) -> list[int]:
    """x moved by kernel vectors while that makes it shorter.

    Column reduction lets the coefficients grow far past the size of the
    data.  One pass reduces each kernel vector against the shorter ones,
    then x is reduced against them all until no step shortens it; a step
    is taken only when it shortens a vector, so the loop ends.
    """
    if not any(x):
        return x
    basis = sorted(([k, _dot(k, k)] for k in kernel), key=lambda e: e[1])
    for i, entry in enumerate(basis):
        for by in basis[:i]:
            _reduce(entry, by)
    out = [x, _dot(x, x)]
    changed = True
    while changed:
        changed = False
        for by in basis:
            changed |= _reduce(out, by)
    return out[0]


def _reduce(entry: list, by: list) -> bool:
    """Subtract from entry's vector the multiple of by's vector nearest
    their projection, if that makes it shorter; True when it does."""
    (v, vv), (k, kk) = entry, by
    vk = _dot(v, k)
    q = (2 * vk + kk) // (2 * kk)
    shorter = vv - 2 * q * vk + q * q * kk
    if not q or shorter >= vv:
        return False
    entry[0], entry[1] = [a - q * b for a, b in zip(v, k)], shorter
    return True


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))
