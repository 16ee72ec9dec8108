"""Exact linear algebra over the rationals, on one reduced echelon form.

``Echelon`` is the package's one Gauss-Jordan eliminator: a Q-subspace
held as its reduced echelon basis of sparse vectors key -> scalar.  The
pivot of each row is its smallest key (a column index here, a monomial in
``rings``).  That basis is unique for the subspace, so two spans are equal
exactly when their rows are, and every answer read off it is canonical.
Vectors are added one at a time, so extending a basis by candidates costs
one reduction per candidate.  Coefficients are in the package's scalar
form (``scalars.canonical``): an int when integral, else a Fraction.  Every
entry a reduction computes is put back in that form, and a new row is
divided by its pivot only when the pivot is not 1; a -1 pivot negates it.
So int rows with unit pivots stay ints, and no answer is ever a float.

Dense matrices are lists of row lists of rationals.  ``kernel_basis``,
``solve`` and ``in_span`` read their answers off the rows of the echelon
of the matrix's rows, in scalar form; kernel vectors come out in
free-column order.  Rank is separate: ``int_rank`` is Bareiss elimination
on integer rows, which the rank oracle calls directly on the integer
matrices it evaluates, and ``rank`` scales each row of a rational matrix
to integers and calls it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm

from .scalars import canonical

Matrix = list[list[Fraction]]


class Echelon:
    """Reduced echelon basis of a Q-subspace, as sparse vectors key ->
    scalar: ``rows`` maps each pivot to the one row with coefficient 1
    there, which is its smallest key, and every row is 0 at every other
    pivot."""

    __slots__ = ("rows",)

    def __init__(self, vectors=()):
        self.rows: dict = {}
        for vec in vectors:
            self.add(vec)

    def remainder(self, vec: dict) -> dict:
        """vec less its projection onto the span along the pivots; zero iff
        vec lies in the span.  The rows vanish at each other's pivots, so
        each pivot of vec is cleared by its own row with vec's coefficient."""
        rows = self.rows
        out = dict(vec)
        for pivot, coef in vec.items():
            row = rows.get(pivot)
            if row is not None:
                _subtract(out, coef, row)
        return out

    def spans(self, vec: dict) -> bool:
        return not self.remainder(vec)

    def add(self, vec: dict) -> dict | None:
        """Extend the span by vec, keeping the basis reduced; returns vec's
        remainder, which together with the span before spans the span after,
        or None when vec was already in the span."""
        rest = self.remainder(vec)
        if not rest:
            return None
        pivot = min(rest)
        p = rest[pivot]
        if p == 1:
            new = dict(rest)
        elif p == -1:
            new = {key: -c for key, c in rest.items()}
        else:
            inv = 1 / Fraction(p)
            new = {key: canonical(c * inv) for key, c in rest.items()}
        for row in self.rows.values():
            coef = row.get(pivot)
            if coef is not None:
                _subtract(row, coef, new)
        self.rows[pivot] = new
        return rest


def _subtract(out: dict, coef, row: dict) -> None:
    """out -= coef * row in place, in scalar form, dropping zeros."""
    for key, value in row.items():
        v = out.get(key, 0) - coef * value
        if not v:
            del out[key]
        elif type(v) is Fraction and v.denominator == 1:
            out[key] = v.numerator
        else:
            out[key] = v


def _sparse(vec: list) -> dict:
    return {i: canonical(x) for i, x in enumerate(vec) if x}


def int_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination: after k pivot
    steps every entry below the pivot rows is a (k+1)-minor of the input,
    so dividing by the previous pivot is exact (Sylvester).  A row that is
    0 in the pivot column is only rescaled, and the loop stops once every
    row has a pivot.  The rows passed in are left unchanged."""
    rows = [row for row in rows if any(row)]
    n = len(rows)
    r, prev = 0, 1
    for c in range(len(rows[0]) if rows else 0):
        for k in range(r, n):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        top = rows[r]
        p = top[c]
        for k in range(r + 1, n):
            q = rows[k][c]
            if q:
                rows[k] = [(p * x - q * y) // prev for x, y in zip(rows[k], top)]
            else:
                rows[k] = [p * x // prev for x in rows[k]]
        prev, r = p, r + 1
        if r == n:
            break
    return r


def rank(mat: Matrix) -> int:
    """Rank over Q: each row scaled to integers by the lcm of its
    denominators, then ``int_rank``."""
    rows = []
    for row in mat:
        den = reduce(lcm, (x.denominator for x in row), 1)
        rows.append([x.numerator * (den // x.denominator) for x in row])
    return int_rank(rows)


def kernel_basis(mat: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the null space (column vectors), in free-column order.

    Pass cols explicitly for matrices with zero rows (the nested-list
    representation loses the column count there).
    """
    if cols is None:
        cols = len(mat[0]) if mat else 0
    rows = Echelon(map(_sparse, mat)).rows
    basis = []
    for free in range(cols):
        if free in rows:
            continue
        vec = [0] * cols
        vec[free] = 1
        for pivot, row in rows.items():
            vec[pivot] = -row.get(free, 0)
        basis.append(vec)
    return basis


def solve(mat: Matrix, rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of mat @ x = rhs, or None if inconsistent: the free
    variables are 0, each pivot variable reads the rhs column of its row."""
    cols = len(mat[0]) if mat else 0
    rows = Echelon(_sparse(row + [b]) for row, b in zip(mat, rhs)).rows
    if cols in rows:
        return None
    x = [0] * cols
    for pivot, row in rows.items():
        x[pivot] = row.get(cols, 0)
    return x


def in_span(vectors: list[list[Fraction]], target: list[Fraction]) -> list[Fraction] | None:
    """Coefficients expressing target in span(vectors), or None."""
    if not vectors:
        return [] if not any(target) else None
    cols = len(vectors)
    rows = len(target)
    mat = [[vectors[j][i] for j in range(cols)] for i in range(rows)]
    return solve(mat, target)
