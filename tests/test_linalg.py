"""``hse.linalg`` reads kernels, solves, inverses and basis extensions off
one reduced echelon form (``linalg.Echelon``).  The reduced echelon basis
of a subspace is unique, so every answer must equal the one the old dense
``rref`` and the rank-per-candidate loop gave (tests/linalg_reference.py):
on random matrices, with zero rows, empty candidate lists and singular
matrices among them, and on the cohomology splittings the transfers start
from.  ``int_rank`` and ``rank`` must equal the old Bareiss ``rank``.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

import linalg_reference as ref
from hse import linalg
from hse.fixtures import Cdga
from hse.io_json import parse_structure
from hse.structures import AInfAlgebra, LInfAlgebra, LInfPair
from hse.transfer import cohomology_splitting

ROOT = Path(__file__).resolve().parent.parent


def _entry(rng):
    return Fraction(rng.choice([-3, -2, -1, 0, 0, 0, 1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))


def _matrix(rng, rows, cols):
    """Random, zero, rank-deficient or repeated-row, with equal odds."""
    kind = rng.randrange(4)
    if kind == 1:
        return [[Fraction(0)] * cols for _ in range(rows)]
    if kind == 2:
        inner = rng.randint(0, max(min(rows, cols) - 1, 0))
        a = [[_entry(rng) for _ in range(inner)] for _ in range(rows)]
        b = [[_entry(rng) for _ in range(cols)] for _ in range(inner)]
        return [[sum((a[r][t] * b[t][c] for t in range(inner)), Fraction(0))
                 for c in range(cols)] for r in range(rows)]
    mat = [[_entry(rng) for _ in range(cols)] for _ in range(rows)]
    if kind == 3 and rows > 1:
        mat[-1] = [2 * x for x in mat[0]]
    return mat


def _cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        yield rng, rows, cols, _matrix(rng, rows, cols)


def test_echelon_rows_are_the_rref():
    for _, rows, cols, mat in _cases(0, 600):
        red, pivots = ref.rref(mat)
        want = {p: {c: x for c, x in enumerate(red[r]) if x} for r, p in enumerate(pivots)}
        assert linalg.Echelon({c: x for c, x in enumerate(row) if x} for row in mat).rows == want


def test_kernel_basis_matches_reference():
    for _, rows, cols, mat in _cases(1, 800):
        assert linalg.kernel_basis(mat, cols) == ref.kernel_basis(mat, cols)
        if rows:
            assert linalg.kernel_basis(mat) == ref.kernel_basis(mat)


def test_solve_and_in_span_match_reference():
    for rng, rows, cols, mat in _cases(2, 800):
        if rng.random() < 0.5:
            x = [_entry(rng) for _ in range(cols)]
            rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in mat]
        else:
            rhs = [_entry(rng) for _ in range(rows)]
        assert linalg.solve(mat, rhs) == ref.solve(mat, rhs)
        vectors = [[mat[r][c] for r in range(rows)] for c in range(cols)]
        assert linalg.in_span(vectors, rhs) == ref.in_span(vectors, rhs)


def test_invert_matches_reference():
    singular = 0
    for rng, _, _, _ in _cases(3, 600):
        n = rng.randint(0, 6)
        mat = _matrix(rng, n, n)
        try:
            want = ref.invert(mat)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="not invertible"):
                linalg.invert(mat)
        else:
            assert linalg.invert(mat) == want
    assert singular > 100


def test_extend_to_basis_matches_rank_loop():
    for rng, rows, cols, mat in _cases(4, 800):
        split = rng.randint(0, rows)
        spanning, candidates = mat[:split], mat[split:]
        if candidates and rng.random() < 0.3:
            candidates = candidates + [candidates[0], [Fraction(0)] * cols]
        assert linalg.extend_to_basis(spanning, candidates) == \
            ref.extend_to_basis(spanning, candidates)
    assert linalg.extend_to_basis([[Fraction(1), Fraction(0)]], []) == []


def _int_matrix(rng, rows, cols):
    """Integer rows: a random matrix scaled to integers row by row, or
    large entries of low rank, so the exact divisions see big pivots."""
    if rng.random() < 0.5:
        return [[x.numerator * (6 // x.denominator) for x in row]
                for row in _matrix(rng, rows, cols)]
    inner = rng.randint(0, min(rows, cols))
    a = [[rng.randint(-50, 50) for _ in range(inner)] for _ in range(rows)]
    b = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(inner)]
    return [[sum(a[r][t] * b[t][c] for t in range(inner)) for c in range(cols)]
            for r in range(rows)]


def test_rank_and_int_rank_match_the_old_rank():
    for rng, rows, cols, mat in _cases(5, 1500):
        assert linalg.rank(mat) == ref.rank(mat)
        ints = _int_matrix(rng, rows, cols)
        before = [row[:] for row in ints]
        assert linalg.int_rank(ints) == ref.rank(ints) == linalg.rank(ints)
        assert ints == before  # the input is left unchanged
    for rows, cols in ((0, 0), (0, 4), (3, 0)):
        assert linalg.int_rank([[0] * cols for _ in range(rows)]) == 0
    assert linalg.int_rank([[0, 0], [0, 3], [0, 6], [1, 0]]) == 2


# ---------------------------------------------------------------------------
# the splittings

def _heisenberg(n):
    """H_{2n+1}: Lambda(x_1..x_n, y_1..y_n, z), dz = sum x_i y_i, weights 1, 1, 2."""
    gens = ([(f"x{i}", 1, 1) for i in range(1, n + 1)]
            + [(f"y{i}", 1, 1) for i in range(1, n + 1)] + [("z", 1, 2)])
    return Cdga(gens, 2 * n + 1, {"z": [(Fraction(1), (i, n + i)) for i in range(n)]})


def _complexes(name):
    """(space, differential) for every complex a transfer of name splits."""
    if name.startswith("H_"):
        alg = _heisenberg((int(name[2:]) - 1) // 2)
        return [(alg.space, alg.differential_map())]
    path = ROOT / ("tests/golden" if name.endswith("dgla") else "fixtures") / f"{name}.json"
    obj = parse_structure(json.loads(path.read_text(encoding="utf-8")))
    if isinstance(obj, AInfAlgebra):
        return [(obj.space, obj.products.get(1))]
    if isinstance(obj, LInfAlgebra):
        return [(obj.space, obj.brackets.get(1))]
    assert isinstance(obj, LInfPair)
    return [(obj.algebra.space, obj.algebra.brackets.get(1)),
            (obj.module.space, obj.module.actions.get(1))]


def _snapshot(diagram):
    """The f, g and h tables with their insertion order, and the blocks."""
    tables = [[(key, list(row.items())) for key, row in m.table.items()]
              for m in (diagram.f, diagram.g, diagram.h)]
    return tables, diagram.blocks


SPLIT_INPUTS = ["heisenberg", "torus2", "heisenberg-pair", "heisenberg-pair-weighted",
                "heisenberg-dgla", "H_5", "H_7"]


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_splittings_match_rank_loop_reference(name, monkeypatch):
    runs = [(space, d, variant, weights) for space, d in _complexes(name)
            for variant in (0, 1) for weights in (None, False)]
    got = [_snapshot(cohomology_splitting(space, d, weights, variant=variant))
           for space, d, variant, weights in runs]
    for fn in ("kernel_basis", "extend_to_basis", "invert"):
        monkeypatch.setattr(linalg, fn, getattr(ref, fn))
    want = [_snapshot(cohomology_splitting(space, d, weights, variant=variant))
            for space, d, variant, weights in runs]
    assert got == want
