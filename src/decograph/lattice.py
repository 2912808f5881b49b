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
    cols = [list(c) for c in columns]
    # U records the column operations: cols[j] == sum_k U[k][j] * columns[k].
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    pivots: list[tuple[int, int]] = []  # (row, column) pairs in echelon order
    for r in range(m):
        j0 = len(pivots)
        # Eliminate row r across the not-yet-pivotal columns by gcd steps.
        while True:
            nz = [j for j in range(j0, n) if cols[j][r] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                _swap_columns(cols, U, j0, j)
                pivots.append((r, j0))
                break
            jmin = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                if j == jmin:
                    continue
                q = cols[j][r] // cols[jmin][r]
                if q:
                    _add_multiple(cols, U, j, jmin, -q)

    # Forward substitution: columns past the pivot set vanish on all
    # processed rows, and each pivot column vanishes above its pivot row.
    y = [0] * n
    residual = list(target)
    piv_by_row = dict(pivots)
    for r in range(m):
        j = piv_by_row.get(r)
        if j is None:
            if residual[r] != 0:
                return None
            continue
        head = cols[j][r]
        if residual[r] % head != 0:
            return None
        q = residual[r] // head
        y[j] = q
        if q:
            for i in range(m):
                residual[i] -= q * cols[j][i]
    if any(residual):
        return None

    # Translate back through the recorded column operations.
    x = [0] * n
    for j in range(n):
        if y[j]:
            for k in range(n):
                x[k] += y[j] * U[k][j]
    # The columns of U past the pivots span the kernel.
    kernel = [[row[j] for row in U] for j in range(len(pivots), n)]
    return _shortened(x, kernel)


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


def _swap_columns(cols, U, a, b):
    if a == b:
        return
    cols[a], cols[b] = cols[b], cols[a]
    for row in U:
        row[a], row[b] = row[b], row[a]


def _add_multiple(cols, U, dst, src, factor):
    col_d, col_s = cols[dst], cols[src]
    for i in range(len(col_d)):
        col_d[i] += factor * col_s[i]
    for row in U:
        row[dst] += factor * row[src]
