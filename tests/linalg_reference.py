"""The dense exact linear algebra ``hse.linalg`` had before it read every
answer off ``linalg.Echelon``: a Gauss-Jordan ``rref`` of the whole matrix
per call, ``extend_to_basis`` as a full rank per candidate and ``invert``
off the ``rref`` of [mat | identity], which the cohomology splitting called
before it read each block off one echelon of its differential; and the
Bareiss ``rank`` it had before ``linalg.int_rank``, which scanned every
column and recombined every row.  Kept as the references of the
differential tests.
"""

from fractions import Fraction
from functools import reduce
from math import lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def zeros(rows, cols):
    return [[_ZERO] * cols for _ in range(rows)]


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def rref(mat):
    """Reduced row echelon form; returns (rref_matrix, pivot_columns)."""
    m = [row[:] for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
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


def rank(mat):
    """Bareiss elimination on the nonzero rows scaled to integers, over
    every column."""
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


def kernel_basis(mat, cols=None):
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


def solve(mat, rhs):
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


def in_span(vectors, target):
    if not vectors:
        return [] if not any(target) else None
    mat = [[vectors[j][i] for j in range(len(vectors))] for i in range(len(target))]
    return solve(mat, target)


def extend_to_basis(spanning, candidates):
    """Each candidate kept iff it raises the (Bareiss) rank of the matrix
    kept so far."""
    kept = []
    current = [vec[:] for vec in spanning]
    current_rank = rank(current) if current else 0
    for idx, cand in enumerate(candidates):
        trial = current + [cand[:]]
        r = rank(trial)
        if r > current_rank:
            kept.append(idx)
            current = trial
            current_rank = r
    return kept


def invert(mat):
    n = len(mat)
    aug = [row[:] + unit for row, unit in zip(mat, identity(n))]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix not invertible")
    return [row[n:] for row in red]
