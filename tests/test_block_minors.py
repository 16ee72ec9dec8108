"""Jump ideals from the minors of the two differentials.

``block_minors(A, B, r)`` lists the same tagged minors as
``minors(block_diag(A, B), r)``, which expands every (row set, column set)
pair of the glued block by Laplace, and ``tangent_cone_check`` reports what
its all-pairs loop reported.  The references below are the all-pairs loops
that ``minors`` and ``tangent_cone_check`` ran before they went through
``block_minor_terms``, over ``FractionMinorEngine``, the Laplace expansion
in ``RElem`` arithmetic that ``MinorEngine`` ran before it compiled the
matrix to packed integer polynomials.
"""

import contextlib
import io
import os
import random
import time
from collections import Counter
from dataclasses import replace
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
    CoefRing,
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


# -- references: the Fraction Laplace expansion and the all-pairs loops -----

class FractionMinorEngine:
    """Laplace expansion along the first row with memoized submatrices, in
    ``RElem`` arithmetic."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.memo = {}

    def minor(self, rows, cols):
        if not rows:
            return self.matrix.ring.one
        key = (rows, cols)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        acc = self.matrix.ring.zero
        for pos, c in enumerate(cols):
            entry = self.matrix.data[rows[0]][c]
            if not entry:
                continue
            term = entry * self.minor(rows[1:], cols[:pos] + cols[pos + 1:])
            acc = acc + (term if pos % 2 == 0 else -term)
        self.memo[key] = acc
        return acc


def _reference_minors(matrix, r):
    ring = matrix.ring
    if r <= 0:
        return Ideal.unit(ring)
    nrows, ncols = matrix.shape()
    if r > min(nrows, ncols):
        return Ideal.zero(ring)
    engine = FractionMinorEngine(matrix)
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
    lin = resonance.universal_complex(resonance._binary_shadow(pair), exact=True)
    failures, checked, nonzero = [], 0, 0
    full_block = block_diag(full.matrix(i - 1), full.matrix(i))
    lin_block = block_diag(lin.matrix(i - 1), lin.matrix(i))
    eng_full, eng_lin = FractionMinorEngine(full_block), FractionMinorEngine(lin_block)
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


def _engines(upper, lower):
    """Both blocks compiled on one packing wide enough for the products of
    their minors, as a twisted complex compiles its differentials."""
    packing = upper.ring.packing(rings.degree_bound(upper) + rings.degree_bound(lower))
    return MinorEngine(upper, packing), MinorEngine(lower, packing)


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
        engines = _engines(upper, lower)
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


# -- the packed integer kernel against the Fraction expansion ---------------

KERNEL_RINGS = ("poly(u,v,w)", "poly(u,v,w, trunc=2)", "Q[x1..x3]/(m^3)", "Q[x1,x2]/(m^4)",
                "Q[e]/(e^5)")


def _rational_block(ring, rng, shape, monos, low=0):
    """Random entries with denominators up to 4, so that rows carry scales;
    with low = 1 every entry lies in the maximal ideal."""
    nrows, ncols = shape
    mat = RingMatrix(ring, tuple(f"r{i}" for i in range(nrows)),
                     tuple(f"c{j}" for j in range(ncols)))
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < 0.2:
                continue
            mat.set(i, j, ring.element({m: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                                        for m in monos if sum(m) >= low and rng.random() < 0.4}))
    return mat


def _assert_minor_by_minor(matrix, engine):
    """Every minor of the engine equals the Fraction expansion's, and its
    packed int polynomial is that minor times the scale of its rows."""
    ref = FractionMinorEngine(matrix)
    nrows, ncols = matrix.shape()
    nonzero = 0
    for r in range(min(nrows, ncols) + 1):
        for rows in combinations(range(nrows), r):
            for cols in combinations(range(ncols), r):
                want = ref.minor(rows, cols)
                assert engine.minor(rows, cols) == want, (rows, cols)
                scaled = want * engine.scale(rows)
                assert engine.poly(rows, cols) == {engine.packing.pack(m): int(c)
                                                   for m, c in scaled.terms.items()}
                nonzero += bool(want)
    return nonzero


@pytest.mark.parametrize("descriptor", KERNEL_RINGS)
def test_kernel_minors_match_the_fraction_expansion(descriptor):
    ring = parse_ring(descriptor)
    rng = random.Random(f"kernel {descriptor}")
    monos = ring.monomial_basis() if ring.is_artinian else rings._monomials_up_to(ring.nvars, 2)
    nonzero = 0
    for _ in range(10):
        shape = (rng.randint(1, 4), rng.randint(1, 4))
        mat = _rational_block(ring, rng, shape, monos, low=rng.choice((0, 1)))
        nonzero += _assert_minor_by_minor(mat, MinorEngine(mat))
    assert nonzero > 0


@pytest.mark.parametrize("descriptor", ("Q[x1..x3]/(m^3)", "Q[x1,x2]/(m^4)", "Q[e]/(e^5)"))
def test_block_products_that_vanish_are_dropped(descriptor):
    """Entries in the maximal ideal: nonzero minors of the two blocks whose
    product is 0 in the ring give no generator, as in the glued block."""
    ring = parse_ring(descriptor)
    rng = random.Random(f"zero divisors {descriptor}")
    vanished = 0
    for _ in range(8):
        upper = _rational_block(ring, rng, (rng.randint(1, 3), rng.randint(1, 3)),
                                ring.monomial_basis(), low=1)
        lower = _rational_block(ring, rng, (rng.randint(1, 3), rng.randint(1, 3)),
                                ring.monomial_basis(), low=1)
        glued = block_diag(upper, lower)
        for r in range(1, min(glued.shape()) + 1):
            _assert_same_ideal(block_minors(*_engines(upper, lower), r),
                               _reference_minors(glued, r))
            vanished += _vanishing_products(upper, lower, r)
    assert vanished > 0


def _vanishing_products(upper, lower, r):
    """How many r-minors of the glued block are a nonzero minor of each
    block whose product is 0 in the ring, by the Fraction expansion."""
    ref_up, ref_lo = FractionMinorEngine(upper), FractionMinorEngine(lower)
    vanished = 0
    for a in range(1, r):
        for rows_up in combinations(range(upper.shape()[0]), a):
            for cols_up in combinations(range(upper.shape()[1]), a):
                for rows_lo in combinations(range(lower.shape()[0]), r - a):
                    for cols_lo in combinations(range(lower.shape()[1]), r - a):
                        up = ref_up.minor(rows_up, cols_up)
                        lo = ref_lo.minor(rows_lo, cols_lo)
                        vanished += bool(up and lo and not up * lo)
    return vanished


def _block_of_forms(ring, rng, shape, forms, tag):
    """A block whose entries are drawn from a few forms, so its minors
    repeat within a row set and across row sets."""
    mat = RingMatrix(ring, tuple(f"{tag}r{i}" for i in range(shape[0])),
                     tuple(f"{tag}c{j}" for j in range(shape[1])))
    for i in range(shape[0]):
        for j in range(shape[1]):
            if rng.random() < 0.8:
                mat.set(i, j, rng.choice(forms))
    return mat


@pytest.mark.parametrize("descriptor", ("poly(u,v,w)", "Q[x1,x2]/(m^3)", "Q[e]/(e^3)"))
def test_equal_minors_are_one_generator(descriptor):
    """Entries from a few forms, one with coefficient 1/2, so equal minors
    come from row sets of equal and of unequal scales; in the Artinian rings
    two nonzero factors may multiply to 0.  The ideal is the glued block's
    as a tagged list, equal generators are one object, and its report
    prints every generator."""
    ring = parse_ring(descriptor)
    rng = random.Random(f"repeated minors {descriptor}")
    x, y = ring.gen(0), ring.gen(ring.nvars - 1)
    forms = [f for f in (x, y * Fraction(1, 2), x - y, x * -2, x * y, x + 1) if f]
    shared = vanished = 0
    for _ in range(12):
        upper = _block_of_forms(ring, rng, (rng.randint(1, 3), rng.randint(1, 3)), forms, "a")
        lower = _block_of_forms(ring, rng, (rng.randint(1, 3), rng.randint(1, 3)), forms, "b")
        glued = block_diag(upper, lower)
        for r in range(1, min(glued.shape()) + 1):
            ideal = block_minors(*_engines(upper, lower), r)
            _assert_same_ideal(ideal, _reference_minors(glued, r))
            one = {}
            for g in ideal.generators:
                assert one.setdefault(frozenset(g.terms.items()), g) is g
            shared += len(ideal.generators) - len(one)
            assert ideal.to_json()["generators"] == [str(g) for g in ideal.generators]
            vanished += _vanishing_products(upper, lower, r)
    assert shared > 0
    assert (vanished > 0) == ring.is_artinian


def _homogeneous_rows(ring, rng, degrees, ncols):
    """Row i holds forms of total degree degrees[i] in x, y."""
    mat = RingMatrix(ring, tuple(f"r{i}" for i in range(len(degrees))),
                     tuple(f"c{j}" for j in range(ncols)))
    for i, d in enumerate(degrees):
        for j in range(ncols):
            exps = {0, d, rng.randint(0, d)}
            mat.set(i, j, ring.element({(a, d - a): Fraction(rng.randint(1, 3), rng.randint(1, 2))
                                        for a in exps}))
    return mat


def test_kernel_at_the_packing_width_bound():
    """Rows of degree 63 and 64 over poly(x, y): the 4-minors reach degree
    255 = 2^8 - 1, the most an 8-bit exponent field holds, so a carry out
    of x's field would show as a wrong y exponent or degree."""
    ring = parse_ring("poly(x,y)")
    rng = random.Random("width")
    mat = _homogeneous_rows(ring, rng, (63, 64, 64, 64), 4)
    engine = MinorEngine(mat)
    assert engine.packing.width == 8
    assert engine.minor((0, 1, 2, 3), (0, 1, 2, 3)).degree() == 255
    _assert_minor_by_minor(mat, engine)
    # two blocks compiled apart on 7 and 8 bits, or both on 7, are refused;
    # their product minors need the one 8-bit packing
    upper = _homogeneous_rows(ring, rng, (63, 64), 2)
    lower = _homogeneous_rows(ring, rng, (64, 64), 2)
    apart = MinorEngine(upper), MinorEngine(lower)
    assert [e.packing.width for e in apart] == [7, 8]
    for refused in (apart, (apart[0], MinorEngine(lower, apart[0].packing))):
        with pytest.raises(RingError, match="one packing wide enough"):
            block_minors(*refused, 4)
    engines = _engines(upper, lower)
    assert [e.packing.width for e in engines] == [8, 8]
    glued = block_diag(upper, lower)
    want = _reference_minors(glued, 4)
    assert want.generators[0].degree() == 255
    _assert_same_ideal(block_minors(*engines, 4), want)


# -- the packed d^2 check against RElem composition -------------------------

D2_RINGS = ("poly(u,v,w)", "poly(u,v,w, trunc=2)", "Q[x1..x3]/(m^3)")


def _koszul(ring, rng):
    """(K1, K2) with K1 o K2 = 0: K1 = [f1/l1, f2/l2, f3/l3] and K2 sends
    e_ij to f_i e_j - f_j e_i with row k scaled by l_k, so the rows of K2
    carry unequal scales and each composite entry cancels only once they
    are weighted."""
    monos = rings._monomials_up_to(ring.nvars, 1)
    fs = [ring.element({m: Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for m in monos})
          for _ in range(3)]
    ls = [Fraction(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(3)]
    k1 = RingMatrix(ring, ("o",), ("e1", "e2", "e3"), [[f * (1 / l) for f, l in zip(fs, ls)]])
    k2 = RingMatrix(ring, ("e1", "e2", "e3"), ("e12", "e13", "e23"))
    for col, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        k2.set(j, col, fs[i] * ls[j])
        k2.set(i, col, -fs[j] * ls[i])
    return k1, k2


def _packed_vanishes(a, b):
    return rings.composite_vanishes(*_engines(a, b))


def _untruncated_zero(a, b):
    """Whether a o b is 0 over the polynomial ring the quotient comes from."""
    full = CoefRing("poly", a.ring.varnames)
    rows = [[full.element(x.terms) for x in row] for row in a.data]
    cols = [[full.element(y.terms) for y in col] for col in zip(*b.data)]
    return all(not sum((x * y for x, y in zip(row, col)), full.zero)
               for row in rows for col in cols)


@pytest.mark.parametrize("descriptor", D2_RINGS)
def test_packed_square_zero_matches_compose(descriptor):
    """Random compositions, Koszul pairs whose composite cancels only once
    the unequal row scales are weighted, and entries of degree >= 1 times
    degree >= 2, whose composite vanishes in poly(trunc=2) and modulo m^3
    only through the quotient."""
    ring = parse_ring(descriptor)
    rng = random.Random(f"d2 {descriptor}")
    monos = ring.monomial_basis() if ring.is_artinian else rings._monomials_up_to(ring.nvars, 2)
    outcomes = set()
    for trial in range(60):
        kind = trial % 3
        if kind == 0:
            a, b = _koszul(ring, rng)
            if rng.random() < 0.3:  # one perturbed entry breaks the cancellation
                a.set(0, 1, a[0, 1] + ring.gen(rng.randrange(ring.nvars)))
        else:
            low_a, low_b = ((0, 0), (1, 2))[kind - 1]
            n = rng.randint(0, 3)
            a = _rational_block(ring, rng, (rng.randint(0, 3), n), monos, low=low_a)
            b = _rational_block(ring, rng, (n, rng.randint(0, 3)), monos, low=low_b)
            b.rows = a.cols
        want = a.compose(b).is_zero()
        assert _packed_vanishes(a, b) == want, trial
        outcomes.add((kind, want, _untruncated_zero(a, b)))
    assert {(0, True, True), (0, False, False), (1, False, False)} <= outcomes
    if ring.is_artinian:
        assert (2, True, False) in outcomes  # a composite only the quotient kills
    else:
        assert (2, False, False) in outcomes


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
            # every jump ideal of the complex shared one engine per differential,
            # and every engine one packing
            assert set(complex_.engines) == set(dims) | {min(dims) - 1}
            assert len({id(e.packing) for e in complex_.engines.values()}) == 1
    assert compared > 50


def test_each_differential_is_compiled_once(monkeypatch):
    """The d^2 check compiles each differential of a complex and every jump
    ideal reuses that engine; the rank oracle compiles no engine (its
    d^{i-1}, d^i and span column go to one point evaluator)."""
    built = Counter()
    init = MinorEngine.__init__

    def counting(self, matrix, packing=None):
        built[id(matrix)] += 1
        init(self, matrix, packing)

    monkeypatch.setattr(MinorEngine, "__init__", counting)
    pair = transfer_pair(cdga_pair(heisenberg_cdga()), 4).pair
    ring = parse_ring(f"Q[x1..x{pair.algebra.space.dim(1)}]/(m^3)")
    _, complex_ = twist_module(pair, ring, _mc_element(pair, ring, random.Random(0)))
    dims = pair.module.space.dims()
    for i in sorted(dims):
        for k in range(1, dims[i] + 1):
            complex_.jump_ideal(i, k)
    assert all(built[id(mat)] == 1 for mat in complex_.matrices.values())
    assert sum(built.values()) == len(complex_.engines)
    built.clear()
    ucx = resonance.resonance_ideal(pair, 1, 1, exact=True, n_samples=5).complex
    assert all(built[id(mat)] == 1 for mat in ucx.matrices.values())
    assert sum(built.values()) == len(ucx.engines)


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
    both loops report the same failures in the same order.  The complex is
    kept on the pair, so each call perturbs a copy of it: the same
    perturbation every time, compiled afresh."""
    build = resonance.universal_complex

    def perturbed(pair, trunc=None, **kw):
        ucx = build(pair, trunc=trunc, **kw)
        if ucx.mode != "truncated":
            return ucx
        matrices = {}
        for j, mat in ucx.matrices.items():
            data = [list(row) for row in mat.data]
            for r, row in enumerate(data):
                for c in range(len(row)):
                    if (r + c) % 2 == 0:
                        row[c] = row[c] + ucx.ring.gen((r + c) % ucx.ring.nvars)
            matrices[j] = RingMatrix(ucx.ring, mat.rows, mat.cols, data)
        return replace(ucx, matrices=matrices)

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
