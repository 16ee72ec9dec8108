"""``hse.linalg`` reads kernels and solves off one reduced echelon form
(``linalg.Echelon``).  The reduced echelon basis of a subspace is unique,
so every answer must equal the one the old dense ``rref`` gave
(tests/linalg_reference.py), on random matrices with zero rows and
singular matrices among them, and come back in the package's scalar form.
The cohomology splittings the transfers start from must equal their
definitions on the reference's eliminations: the rank-per-candidate loop
and the inverse of [H | B | K].  ``int_rank`` and ``rank`` must equal the
old Bareiss ``rank``.
"""

import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import linalg_reference as ref
import transfer_reference as transfer_ref
from test_structures import h3_times_h3
from hse import linalg
from hse.fixtures import Cdga, exterior_cdga, random_cdga
from hse.io_json import parse_structure
from hse.scalars import canonical
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


def _scalar_form(values) -> bool:
    """Every value an int when integral, else a Fraction with denominator > 1."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator > 1)
               for x in values)


def test_answers_are_in_scalar_form():
    for rng, rows, cols, mat in _cases(6, 800):
        kernel = linalg.kernel_basis(mat, cols)
        assert kernel == ref.kernel_basis(mat, cols)
        rhs = [_entry(rng) for _ in range(rows)]
        x = linalg.solve(mat, rhs)
        assert x == ref.solve(mat, rhs)
        vectors = [[mat[r][c] for r in range(rows)] for c in range(cols)]
        coefs = linalg.in_span(vectors, rhs)
        assert coefs == ref.in_span(vectors, rhs)
        span = linalg.Echelon({c: canonical(v) for c, v in enumerate(row) if v} for row in mat)
        for answer in (*kernel, x or [], coefs or [], *map(dict.values, span.rows.values())):
            assert _scalar_form(answer), answer


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


_BUILT = {
    # dz = 3xy: the boundary 3xy gives a pivot of 3 in the block of degree 2
    "heisenberg-3xy": lambda: Cdga([("x", 1, 1), ("y", 1, 1), ("z", 1, 2)], 3,
                                   {"z": [(3, (0, 1))]}),
    "exterior4": lambda: exterior_cdga(4),
    "H_3xH_3": h3_times_h3,
    **{f"random-cdga-{s}": (lambda s=s: random_cdga(s, dims=(1, 3, 3, 1))) for s in range(6)},
}


def _complexes(name):
    """(space, differential) for every complex a transfer of name splits."""
    if name in _BUILT:
        alg = _BUILT[name]()
        return [(alg.space, alg.differential_map())]
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
                "heisenberg-dgla", "H_5", "H_7", *_BUILT]


def _blocks(space, weighted):
    """The labels of each (degree, weight) block, in (weight, label) order."""
    blocks = {}
    for e in sorted(space.elements, key=lambda e: (e.deg, e.weight or 0, e.label)):
        blocks.setdefault((e.deg, e.weight if weighted else None), []).append(e.label)
    return blocks


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_splittings_match_rank_loop_reference(name):
    # each block by its definition, on the reference's eliminations: K the
    # standard vectors (reversed under the variant) that the rank loop keeps
    # over the cocycles, H the kernel vectors it keeps over the boundaries
    # d(K below), sheared by the first boundary under the variant, and f and
    # h the H- and B-coordinates of each label in [H | B | K]; variant 0 is
    # the engine's splitting, variant 1 the reference's sheared one
    for space, d in _complexes(name):
        for variant, split in ((0, cohomology_splitting),
                               (1, partial(transfer_ref.cohomology_splitting, variant=1))):
            for weights in (None, False):
                diagram = split(space, d, weights)
                d_big, f, g, h = diagram.d_big, diagram.f, diagram.g, diagram.h
                blocks = _blocks(space, space.weighted and weights is None)
                for meta in diagram.blocks:
                    deg, weight = meta["deg"], meta["weight"]
                    labels = blocks[(deg, weight)]
                    dim = len(labels)
                    mat = [[d_big.get((lab,)).get(t, 0) for lab in labels]
                           for t in blocks.get((deg + 1, weight), [])]
                    kernel = ref.kernel_basis(mat, dim)
                    std = ref.identity(dim)
                    cols, candidates = (labels[::-1], std[::-1]) if variant else (labels, std)
                    k_labels = [cols[i] for i in ref.extend_to_basis(kernel, candidates)]
                    assert meta["pivots"] == k_labels
                    below = blocks.get((deg - 1, weight), [])
                    below_k = next((m["pivots"] for m in diagram.blocks
                                    if (m["deg"], m["weight"]) == (deg - 1, weight)), [])
                    b_vectors = [[d_big.get((lab,)).get(t, 0) for t in labels] for lab in below_k]
                    h_vectors = [kernel[i] for i in ref.extend_to_basis(b_vectors, kernel)]
                    if variant and b_vectors:
                        h_vectors = [[a + b for a, b in zip(v, b_vectors[0])] for v in h_vectors]
                    assert [[g.get((t,)).get(lab, 0) for lab in labels]
                            for t in meta["h_labels"]] == h_vectors
                    k_vectors = [[int(lab == k) for lab in labels] for k in k_labels]
                    basis = h_vectors + b_vectors + k_vectors
                    for j, lab in enumerate(labels):
                        coords = ref.in_span(basis, [int(i == j) for i in range(dim)])
                        nh = len(h_vectors)
                        assert [f.get((lab,)).get(t, 0) for t in meta["h_labels"]] == coords[:nh]
                        assert [h.get((lab,)).get(t, 0) for t in below_k] == \
                            coords[nh:nh + len(b_vectors)]
                        assert set(h.get((lab,))) <= set(below)


@pytest.mark.parametrize("name", SPLIT_INPUTS)
def test_one_pass_splitting_matches_two_pass_reference(name):
    for space, d in _complexes(name):
        for weights in (None, False):
            got = _snapshot(cohomology_splitting(space, d, weights))
            want = _snapshot(transfer_ref.cohomology_splitting(space, d, weights))
            assert got == want, weights
