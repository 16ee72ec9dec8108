"""Dense exact linear algebra over the rationals.

Matrices are lists of row lists of Fractions.  Everything is deterministic:
pivots are always the first usable column, kernel vectors come out in
free-column order.  Sizes here are tiny (fixture complexes), so no effort
is spent on asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zeros(rows: int, cols: int) -> Matrix:
    return [[_ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    mat = zeros(n, n)
    for i in range(n):
        mat[i][i] = _ONE
    return mat


def copy(mat: Matrix) -> Matrix:
    return [row[:] for row in mat]


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = copy(mat)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(mat: Matrix) -> int:
    """Rank by Bareiss elimination on the rows scaled to integers: entries
    stay (k+1)-minors, so dividing by the last pivot is exact (Sylvester)."""
    rows = []
    for row in mat:
        den = reduce(lcm, (x.denominator for x in row), 1)
        if any(row):
            rows.append([x.numerator * (den // x.denominator) for x in row])
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top, p = rows[r], rows[r][c]
        for k in range(r + 1, len(rows)):
            q = rows[k][c]
            rows[k] = [(p * x - q * y) // prev for x, y in zip(rows[k], top)]
        prev, r = p, r + 1
    return r


def kernel_basis(mat: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the null space (column vectors), in free-column order.

    Pass cols explicitly for matrices with zero rows (the nested-list
    representation loses the column count there).
    """
    rows = len(mat)
    if cols is None:
        cols = len(mat[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [[_ONE if i == j else _ZERO for i in range(cols)] for j in range(cols)]
    red, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        vec = [_ZERO] * cols
        vec[free] = _ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][free]
        basis.append(vec)
    return basis


def solve(mat: Matrix, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of mat @ x = rhs, or None if inconsistent."""
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    aug = [mat[i][:] + [rhs[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [_ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def extend_to_basis(spanning: list[list[Fraction]], candidates: list[list[Fraction]]) -> list[int]:
    """Indices of candidates that greedily extend span(spanning) to a larger space.

    Deterministic: candidates are tried in order, each kept iff it increases
    the rank so far.
    """
    kept: list[int] = []
    current: Matrix = [vec[:] for vec in spanning]
    current_rank = rank(current) if current else 0
    for idx, cand in enumerate(candidates):
        trial = current + [cand[:]]
        r = rank(trial)
        if r > current_rank:
            kept.append(idx)
            current = trial
            current_rank = r
    return kept


def invert(mat: Matrix) -> Matrix:
    n = len(mat)
    aug = [mat[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]


def in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Coefficients expressing target in span(vectors), or None."""
    if not vectors:
        return [] if not any(target) else None
    cols = len(vectors)
    rows = len(target)
    mat = [[vectors[j][i] for j in range(cols)] for i in range(rows)]
    return solve(mat, target)
