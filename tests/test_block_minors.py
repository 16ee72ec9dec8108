"""Jump ideals from the minors of the two differentials.

``block_minors(A, B, r)`` lists the same tagged minors as
``minors(block_diag(A, B), r)``, which expands every (row set, column set)
pair of the glued block by Laplace, and ``tangent_cone_check`` reports what
its all-pairs loop reported.  The references below are the all-pairs loops
that ``minors`` and ``tangent_cone_check`` ran before they went through
``block_minor_terms``.
"""

import contextlib
import io
import os
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from hse import resonance, rings
from hse.cli import main
from hse.deformation import twist_module
from hse.fixtures import Cdga, cdga_pair, exterior_cdga, heisenberg_cdga, random_cdga
from hse.resonance import TangentConeReport, tangent_cone_check
from hse.rings import (
    Ideal,
    MinorEngine,
    RingError,
    RingMatrix,
    block_diag,
    block_minors,
    minors,
    parse_ring,
)
from hse.transfer import transfer_pair

ROOT = Path(__file__).resolve().parent.parent


# -- references: the all-pairs loops ---------------------------------------

def _reference_minors(matrix, r):
    ring = matrix.ring
    if r <= 0:
        return Ideal.unit(ring)
    nrows, ncols = matrix.shape()
    if r > min(nrows, ncols):
        return Ideal.zero(ring)
    engine = MinorEngine(matrix)
    gens, prov = [], []
    for rows in combinations(range(nrows), r):
        for cols in combinations(range(ncols), r):
            value = engine.minor(rows, cols)
            if value:
                gens.append(value)
                prov.append("rows[" + ",".join(matrix.rows[i] for i in rows) + "] x cols["
                            + ",".join(matrix.cols[j] for j in cols) + "]")
    return Ideal(ring, tuple(gens), tuple(prov))


def _reference_tangent_cone(pair, i, k, trunc=None):
    size = pair.module.space.dim(i) - k + 1
    if size <= 0:
        return TangentConeReport(i, k, size, 0, 0, True, [])
    if trunc is None or trunc < size:
        trunc = size
    full = resonance.universal_complex(pair, trunc=trunc)
    lin = resonance.universal_complex(pair, exact=True, binary_only=True)
    failures, checked, nonzero = [], 0, 0
    full_block = block_diag(full.matrix(i - 1), full.matrix(i))
    lin_block = block_diag(lin.matrix(i - 1), lin.matrix(i))
    eng_full, eng_lin = MinorEngine(full_block), MinorEngine(lin_block)
    nrows, ncols = full_block.shape()
    if size <= min(nrows, ncols):
        for rows in combinations(range(nrows), size):
            for cols in combinations(range(ncols), size):
                checked += 1
                m_full = eng_full.minor(rows, cols)
                m_lin = full.ring.element(dict(eng_lin.minor(rows, cols).terms))
                got = m_full.homogeneous_part(size)
                if got != m_lin:
                    failures.append(
                        f"rows {rows} cols {cols}: degree-{size} part {got} != linearized {m_lin}")
                    continue
                if m_lin:
                    nonzero += 1
                    if m_full.initial_form() != m_lin:
                        failures.append(
                            f"rows {rows} cols {cols}: initial form is not the linearized minor")
    return TangentConeReport(i, k, size, checked, nonzero, not failures, failures)


def _assert_same_ideal(got, want):
    assert got.generators == want.generators
    assert got.provenance == want.provenance
    assert got.to_json() == want.to_json()


# -- random blocks ---------------------------------------------------------

RINGS = ("Q[x1..x3]/(m^4)", "Q[e]/(e^4)", "poly(u,v,w)", "poly(u,v,w, trunc=2)")
# (upper shape, lower shape): empty blocks on either side and in either
# direction, then random shapes up to 3x3 each
EDGE_SHAPES = (((0, 0), (2, 2)), ((2, 2), (0, 0)), ((0, 3), (2, 2)), ((3, 0), (2, 2)),
               ((2, 2), (0, 3)), ((2, 2), (3, 0)), ((0, 2), (3, 0)), ((1, 3), (3, 1)))


def _random_block(ring, rng, shape, tag):
    nrows, ncols = shape
    monos = ring.monomial_basis() if ring.is_artinian else rings._monomials_up_to(ring.nvars, 2)
    # entries in the maximal ideal make products of nonzero minors vanish
    low = rng.choice((0, 1))
    mat = RingMatrix(ring, tuple(f"{tag}r{i}" for i in range(nrows)),
                     tuple(f"{tag}c{j}" for j in range(ncols)))
    zero_row = rng.randrange(nrows) if nrows and rng.random() < 0.4 else None
    zero_col = rng.randrange(ncols) if ncols and rng.random() < 0.4 else None
    for i in range(nrows):
        for j in range(ncols):
            if i == zero_row or j == zero_col or rng.random() < 0.25:
                continue
            mat.set(i, j, ring.element({m: Fraction(rng.randint(-2, 2)) for m in monos
                                        if sum(m) >= low and rng.random() < 0.3}))
    return mat


@pytest.mark.parametrize("descriptor", RINGS)
def test_block_minors_match_the_glued_block(descriptor):
    ring = parse_ring(descriptor)
    rng = random.Random(descriptor)
    shapes = list(EDGE_SHAPES) + [((rng.randint(0, 3), rng.randint(0, 3)),
                                   (rng.randint(0, 3), rng.randint(0, 3))) for _ in range(10)]
    nonzero = 0
    for up_shape, lo_shape in shapes:
        upper = _random_block(ring, rng, up_shape, "a")
        lower = _random_block(ring, rng, lo_shape, "b")
        glued = block_diag(upper, lower)
        engines = MinorEngine(upper), MinorEngine(lower)
        for r in range(0, min(glued.shape()) + 2):
            want = minors(glued, r)
            _assert_same_ideal(block_minors(*engines, r), want)
            _assert_same_ideal(want, _reference_minors(glued, r))
            nonzero += len(want.generators)
    assert nonzero > 0


def test_minors_of_a_full_matrix_match_the_reference():
    ring = parse_ring("Q[x1..x3]/(m^4)")
    rng = random.Random(11)
    for _ in range(8):
        mat = _random_block(ring, rng, (rng.randint(1, 4), rng.randint(1, 4)), "")
        for r in range(0, min(mat.shape()) + 2):
            _assert_same_ideal(minors(mat, r), _reference_minors(mat, r))


# -- the jump-ideals inputs of the benchmark --------------------------------

def _heisenberg_circle():
    return Cdga([("x", 1, None), ("y", 1, None), ("z", 1, None), ("w", 1, None)], 4,
                {"z": [(Fraction(1), (0, 1))]})


def _mc_element(pair, ring, rng):
    """omega_j = a x_j + b x_{j+1} + c x_j x_{j+1}: Maurer-Cartan, because
    the pairs come from zero-bracket dglas."""
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    coef = lambda: rng.choice([1, 2, 3, -1, -2, -3])
    omega = {}
    for j, lab in enumerate(h1):
        x, y = ring.gen(j), ring.gen((j + 1) % len(h1))
        omega[lab] = coef() * x + coef() * y + coef() * x * y
    return omega


def test_twisted_jump_ideals_match_the_glued_block():
    rng = random.Random("jump-ideals")
    algebras = (heisenberg_cdga(), exterior_cdga(3), _heisenberg_circle(),
                random_cdga(0, dims=(1, 3, 3, 1)), random_cdga(1, dims=(1, 3, 3, 1)))
    compared = 0
    for alg in algebras:
        pair = transfer_pair(cdga_pair(alg), 4).pair
        h = pair.algebra.space.dim(1)
        for order in (3, 4):
            ring = parse_ring(f"Q[x1..x{h}]/(m^{order})")
            _, complex_ = twist_module(pair, ring, _mc_element(pair, ring, rng))
            dims = pair.module.space.dims()
            for i in sorted(dims):
                for k in range(1, dims[i] + 1):
                    glued = block_diag(complex_.matrix(i - 1), complex_.matrix(i))
                    want = _reference_minors(glued, dims[i] - k + 1)
                    _assert_same_ideal(complex_.jump_ideal(i, k), want)
                    compared += 1
            # every jump ideal of the complex shared one engine per differential
            assert set(complex_.engines) == set(dims) | {min(dims) - 1}
    assert compared > 50


# -- the tangent-cone certificate -------------------------------------------

def _resonance_pairs():
    circle = Cdga([("x", 1, 1), ("y", 1, 1), ("z", 1, 2), ("w", 1, 1)], 4,
                  {"z": [(Fraction(1), (0, 1))]})
    return (transfer_pair(cdga_pair(heisenberg_cdga(True)), 5, use_weights=True).pair,
            transfer_pair(cdga_pair(exterior_cdga(3, True)), 3, use_weights=True).pair,
            transfer_pair(cdga_pair(circle), 4, use_weights=True).pair)


def _tangent_cone_grid(pair):
    dims = pair.module.space.dims()
    return [(i, k) for i in sorted(dims) for k in range(1, dims[i] + 1)
            if dims[i] - k + 1 <= 2]


def test_tangent_cone_matches_the_all_pairs_loop():
    for pair in _resonance_pairs():
        for i, k in _tangent_cone_grid(pair):
            got = tangent_cone_check(pair, i, k)
            assert got.ok
            assert got.to_json() == _reference_tangent_cone(pair, i, k).to_json()


def test_tangent_cone_failures_match_the_all_pairs_loop(monkeypatch):
    """A linear term added to the truncated complex breaks the certificate;
    both loops report the same failures in the same order."""
    build = resonance.universal_complex

    def perturbed(pair, trunc=None, **kw):
        ucx = build(pair, trunc=trunc, **kw)
        if ucx.mode == "truncated":
            for mat in ucx.matrices.values():
                for r, row in enumerate(mat.data):
                    for c in range(len(row)):
                        if (r + c) % 2 == 0:
                            mat.set(r, c, row[c] + ucx.ring.gen((r + c) % ucx.ring.nvars))
        return ucx

    monkeypatch.setattr(resonance, "universal_complex", perturbed)
    failed = 0
    for pair in _resonance_pairs()[:2]:
        for i, k in _tangent_cone_grid(pair):
            got = tangent_cone_check(pair, i, k)
            assert got.to_json() == _reference_tangent_cone(pair, i, k).to_json()
            failed += len(got.failures)
    assert failed > 0


# -- refusal ----------------------------------------------------------------

def test_oversized_minors_are_refused_before_enumeration():
    """H_7's J^2_1: d^1 is 14x6 and d^2 is 14x14 on its cohomology, and the
    jump ideal takes 14-minors of the 28x20 block."""
    ring = parse_ring("poly(x1..x6)")
    upper = RingMatrix(ring, tuple(f"r{i}" for i in range(14)), tuple(f"c{j}" for j in range(6)))
    lower = RingMatrix(ring, tuple(f"s{i}" for i in range(14)), tuple(f"d{j}" for j in range(14)))
    factorized = sum(comb(14, a) * comb(6, a) * comb(14, 14 - a) ** 2 for a in range(7))
    start = time.perf_counter()
    with pytest.raises(RingError, match=f"the 14-minors span {factorized} "):
        block_minors(MinorEngine(upper), MinorEngine(lower), 14)
    with pytest.raises(RingError, match=f"the 14-minors span {comb(28, 14) * comb(20, 14)} "):
        minors(block_diag(upper, lower), 14)
    assert time.perf_counter() - start < 1.0


def test_cli_exits_2_on_a_refused_enumeration(monkeypatch):
    # J^1_1 of the pair takes 3-minors of d^0 (+) d^1, a 3x1 and a 3x3 block:
    # 1 + 27 balanced (row set, column set) pairs
    monkeypatch.setattr(rings, "MINOR_PAIR_BUDGET", 27)
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["jump-ideal", "fixtures/heisenberg-pair.json", "--i", "1", "--k", "1",
                         "--mc", "tests/golden/mc-m.json"])
    finally:
        os.chdir(cwd)
    assert code == 2
    assert "the 3-minors span 28 (row set, column set) pairs" in err.getvalue()
