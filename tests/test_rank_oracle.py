"""The sampled rank oracle of ``resonance_ideal`` and ``dga_resonance_ideal``
against the per-point loop it replaced.

The oracle reads d_a on degrees i-1 and i once per structure and degree,
and the echelon basis of the ideal's Q-span once per call; at each
distinct sample point it evaluates them in integers.  The reference below
is the old loop: at every point the twisted matrices from the stored-key
sum ``contract_power`` (or the dga's ring matrices evaluated entry by
entry), their rank over the rationals, and every generator evaluated.
The sample records must be equal.  The dga oracle's matrices, compiled
from the product tables, must also equal the universal complex's entry
by entry.  The points are drawn as integers
(``_draws``) and ``sample_points`` is their Fraction view; both must give
the points of the old Fraction loop.

The oracle evaluates d^{i-1} and d^i on one ``_Evaluator``, one monomial
table for both, and the span column on its own; ``IntMatrix``, the
evaluator it had for each matrix alone, is the reference for
``_Evaluator.matrix`` and ``vanishes``.
"""

import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from hse import linalg, resonance
from hse.fixtures import exterior_cdga, heisenberg_cdga
from hse.multimap import contract_power
from hse.resonance import (
    ResonanceError,
    _Evaluator,
    _dga_differentials,
    _draws,
    _pair_differentials,
    _span_column,
    _split,
    dga_resonance_ideal,
    pointwise_twisted_matrices,
    resonance_ideal,
    sample_points,
    subtorus_hypothesis_check,
    twisted_cohomology_dim,
)
from hse.rings import CoefRing, Ideal, RElem, RingMatrix
from hse.structures import LInfModule, LInfPair
from test_contract_power import RANDOM, _heisenberg_circle, minimal_pair


# ---------------------------------------------------------------------------
# references: the per-point loop

def ref_pointwise_matrices(pair, point):
    """d_a in every degree, one contract_power pass per action and point."""
    space = pair.module.space
    columns = {}
    for arity, m_map in pair.module.actions.items():
        contract_power(m_map, point, arity - 1, columns)
    out = {}
    for i in space.degrees():
        rows = {e.label: r for r, e in enumerate(space.basis_of_degree(i + 1))}
        cols = [e.label for e in space.basis_of_degree(i)]
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for cj, xi_label in enumerate(cols):
            for lab, v in columns.get((xi_label,), {}).items():
                mat[rows[lab]][cj] = v
        out[i] = mat
    return out


def _record(pt, vanish, dim, k):
    return {
        "point": {lab: str(c) for lab, c in pt.items()},
        "generators_vanish": vanish,
        "dim_twisted": dim,
        "in_locus": dim >= k,
    }


def ref_oracle_samples(pair, ideal, i, k, points):
    """The old sample records of ``resonance_ideal`` (pair is the shadow the
    oracle reads: the binary truncation in binary mode)."""
    space = pair.module.space
    samples = []
    for pt in points:
        coords = list(pt.values())
        vanish = all(g.evaluate(coords) == 0 for g in ideal.generators)
        mats = ref_pointwise_matrices(pair, pt)
        r_below = linalg.rank(mats.get(i - 1, [])) if space.dim(i - 1) else 0
        r_here = linalg.rank(mats.get(i, [])) if space.dim(i) else 0
        samples.append(_record(pt, vanish, space.dim(i) - r_below - r_here, k))
    return samples


def ref_dga_samples(res, dim, points):
    """The old sample records of ``dga_resonance_ideal``."""
    samples = []
    for pt in points:
        coords = list(pt.values())
        vanish = all(g.evaluate(coords) == 0 for g in res.ideal.generators)
        ranks = [linalg.rank(res.matrices[j].evaluate(coords)) if j in res.matrices else 0
                 for j in (res.i - 1, res.i)]
        samples.append(_record(pt, vanish, dim - sum(ranks), res.k))
    return samples


class IntMatrix:
    """The rank oracle's evaluator for one matrix alone, before one
    monomial table served all of them: a sparse polynomial matrix, compiled
    for exact integer evaluation.

    Built once from terms (row, col, exponent vector, rational coefficient).
    At a point n/D, written with one common denominator D, ``at`` returns
    the integer matrix factor(D) * M(n/D) with factor(D) = L * D^top, where
    L is the lcm of the coefficients' denominators and top the largest
    total degree: each entry is sum (L*c) * prod n^e * D^(top - |e|).  The
    factor is a nonzero constant, so rank and zero pattern are those of
    M(n/D).
    """

    __slots__ = ("nrows", "ncols", "scale", "top", "monos", "cells")

    def __init__(self, nrows: int, ncols: int, terms: list[tuple]):
        self.nrows, self.ncols = nrows, ncols
        self.scale = reduce(lcm, (coef.denominator for *_, coef in terms), 1)
        self.top = max((sum(exps) for _, _, exps, _ in terms), default=0)
        monos: dict[tuple[int, ...], int] = {}
        cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for r, c, exps, coef in terms:
            m = monos.setdefault(exps, len(monos))
            cells.setdefault((r, c), []).append(
                (m, coef.numerator * (self.scale // coef.denominator)))
        # per monomial: its nonzero (variable, exponent) pairs and D's exponent
        self.monos = [([(j, e) for j, e in enumerate(exps) if e], self.top - sum(exps))
                      for exps in monos]
        self.cells = [(r, c, lin) for (r, c), lin in cells.items()]

    def factor(self, den: int) -> int:
        return self.scale * den ** self.top

    def _values(self, nums: list[int], den: int) -> list[int]:
        """Each monomial at n/D, times D^top."""
        pads = [1]
        for _ in range(self.top):
            pads.append(pads[-1] * den)
        vals = []
        for factors, pad in self.monos:
            v = pads[pad]
            for j, e in factors:
                v *= nums[j] ** e
            vals.append(v)
        return vals

    def at(self, nums: list[int], den: int) -> list[list[int]]:
        vals = self._values(nums, den)
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for r, c, lin in self.cells:
            v = 0
            for m, k in lin:
                v += k * vals[m]
            out[r][c] = v
        return out

    def zero_at(self, nums: list[int], den: int) -> bool:
        """Whether M(n/D) = 0: the cells are summed one at a time, in row
        order, up to the first that is nonzero."""
        vals = self._values(nums, den)
        for _, _, lin in self.cells:
            v = 0
            for m, k in lin:
                v += k * vals[m]
            if v:
                return False
        return True


def _reference(matrix):
    """The reference for one (rows, columns, cells) matrix."""
    nrows, ncols, cells = matrix
    return IntMatrix(nrows, ncols, [(r, c, mono, coef) for (r, c), terms in cells.items()
                                    for mono, coef in terms.items() if coef])


def _assert_evaluates_as_reference(ev, t, ref, nums, den):
    """Matrix t of ``ev`` divided by its factor scales[t] * D^top is the
    reference divided by its own factor: M(n/D) both ways."""
    vals = ev.values(nums, den)
    factor = ev.scales[t] * den ** ev.top
    got = [[Fraction(x, factor) for x in row] for row in ev.matrix(t, vals)]
    assert got == [[Fraction(x, ref.factor(den)) for x in row] for row in ref.at(nums, den)]
    assert ev.vanishes(t, nums, den) == ref.zero_at(nums, den)


def _binary(pair):
    actions = {n: m for n, m in pair.module.actions.items() if n <= 2}
    return LInfPair(pair.algebra, LInfModule(pair.algebra, pair.module.space, actions))


def _grid(space):
    dims = space.dims()
    return [(i, k) for i in sorted(dims) for k in range(1, dims[i] + 1) if dims[i] - k + 1 <= 3]


# ---------------------------------------------------------------------------
# differential tests

ORACLE_PAIRS = ["heisenberg-pair", "heisenberg-pair-weighted", "h3-arity9", "exterior4",
                "heisenberg-circle"] + RANDOM


@pytest.mark.parametrize("name", ORACLE_PAIRS)
def test_resonance_samples_match_per_point_loop(name):
    pair = minimal_pair(name)
    rep = subtorus_hypothesis_check(pair)
    n0 = rep.n0 if rep.certified else 2
    n_samples = 100 if name in ORACLE_PAIRS[:5] else 30
    modes = ((pair, {"exact": True}), (pair, {"n0": n0}), (pair, {"trunc": 3}),
             (_binary(pair), {"exact": True}))
    for i, k in _grid(pair.module.space):
        for seed, (shadow, kw) in enumerate(modes):
            res = resonance_ideal(shadow, i, k, n_samples=n_samples, seed=seed, **kw)
            points = sample_points(res.complex.variables, n_samples, seed)
            assert res.samples == ref_oracle_samples(shadow, res.ideal, i, k, points), (i, k, kw)


@pytest.mark.parametrize("name", ["exterior4", "heisenberg-circle"])
def test_dga_samples_match_per_point_loop(name):
    alg = exterior_cdga(4).ainf() if name == "exterior4" else _heisenberg_circle().ainf()
    for seed, (i, k) in enumerate(_grid(alg.space)):
        if i > 3:
            continue
        res = dga_resonance_ideal(alg, i, k, seed=seed)
        points = sample_points(list(res.h1_reps), 100, seed)
        assert res.samples == ref_dga_samples(res, alg.space.dim(i), points), (i, k)


@pytest.mark.parametrize("name", ["heisenberg", "torus2", "exterior4"])
def test_dga_oracle_matrices_match_the_universal_complex(name):
    """The dga oracle compiles d + sum_j x_j mu(rep_j, -) from the tables of
    d and mu; at each point each matrix must be its own factor scales[t] *
    D^top times the universal complex's, entry by entry.  Sampled ranks
    alone do not see a builder that doubles mu or drops d."""
    cdga = {"heisenberg": heisenberg_cdga, "torus2": lambda: exterior_cdga(2),
            "exterior4": lambda: exterior_cdga(4)}[name]
    alg = cdga().ainf()
    res = dga_resonance_ideal(alg, 1, 1, n_samples=5)
    degrees = tuple(alg.space.degrees())
    ev = _Evaluator(_dga_differentials(alg, list(res.h1_reps.values()), degrees).values())
    for pt in sample_points(list(res.h1_reps), 20, seed=1):
        nums, den = _split(pt.values())
        vals = ev.values(nums, den)
        for t, j in enumerate(degrees):
            want = res.matrices[j].evaluate(list(pt.values()))
            factor = ev.scales[t] * den ** ev.top
            assert ev.matrix(t, vals) == [[factor * x for x in row] for row in want], j


def test_oracle_catches_a_wrong_ideal(monkeypatch):
    real = resonance.block_minors

    def drop_all_but_first(upper, lower, r):
        ideal = real(upper, lower, r)
        return Ideal(ideal.ring, ideal.generators[:1], ideal.provenance[:1])

    pair = minimal_pair("exterior4")
    alg = exterior_cdga(4).ainf()
    assert resonance_ideal(pair, 1, 1, exact=True).consistent
    dga_resonance_ideal(alg, 1, 1)
    monkeypatch.setattr(resonance, "block_minors", drop_all_but_first)
    res = resonance_ideal(pair, 1, 1, exact=True)
    assert res.to_json()["sample_oracle_consistent"] is False
    with pytest.raises(ResonanceError, match="rank oracle"):
        dga_resonance_ideal(alg, 1, 1)


def test_pair_oracle_uses_no_ring_arithmetic(monkeypatch):
    pair = minimal_pair("h3-arity9")
    point = {lab: Fraction(j - 1, 2) for j, lab in enumerate(
        e.label for e in pair.algebra.space.elements if e.deg == 1)}
    want = ref_pointwise_matrices(pair, point)

    def refuse(*args):
        raise AssertionError("the pair oracle used ring arithmetic")

    for name in ("__add__", "__mul__", "evaluate"):
        monkeypatch.setattr(RElem, name, refuse)
    monkeypatch.setattr(RingMatrix, "evaluate", refuse)
    assert pointwise_twisted_matrices(pair, point) == want
    for i in pair.module.space.degrees():
        rank = sum(linalg.rank(want.get(j, [])) for j in (i - 1, i))
        assert twisted_cohomology_dim(pair, point, i) == pair.module.space.dim(i) - rank


def test_sample_points_without_degree_one_classes():
    assert sample_points([], 100, seed=3) == [{}]


def ref_sample_points(h1, count, seed=0):
    """The Fraction loop ``sample_points`` ran before ``_draws``."""
    rng = random.Random(seed)
    points = [dict.fromkeys(h1, Fraction(0))]
    if not h1:
        return points
    while len(points) < count + 1:
        pt = {lab: Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for lab in h1}
        if any(pt.values()):
            points.append(pt)
    return points


@pytest.mark.parametrize("n", range(6))
def test_integer_draws_are_the_fraction_points(n):
    """Same stream, same points: each draw is its point's numerators over
    the lcm of its denominators, with the coordinates' strings."""
    h1 = [f"v{j}" for j in range(n)]
    for seed in range(150):
        count = seed % 40
        want = ref_sample_points(h1, count, seed)
        assert sample_points(h1, count, seed) == want
        draws = list(_draws(n, count, seed))
        assert len(draws) == len(want)
        for (nums, den, coords), pt in zip(draws, want):
            assert (list(nums), den) == _split(pt.values())
            assert coords == tuple(str(c) for c in pt.values())


def test_each_distinct_point_is_evaluated_once(monkeypatch):
    """h^1 = 2 repeats points among 101 draws.  The oracle of degree i is
    kept on the pair, so across the k grid at one i the ranks at each
    distinct point are computed once, on the first call; each call still
    tests its own span column for vanishing once per distinct point, lazily
    and never through the full table of ``values``, and returns every
    sample."""
    ranked, spanned = [], []
    real_values, real_vanishes = _Evaluator.values, _Evaluator.vanishes

    def values(self, nums, den):
        # the oracle's evaluator holds d^{i-1} and d^i, a span column's one
        assert len(self.shapes) == 2, "the span column built a full table"
        ranked.append((nums, den))
        return real_values(self, nums, den)

    def vanishes(self, t, nums, den):
        assert len(self.shapes) == 1, "the oracle's matrices were tested lazily"
        spanned.append((nums, den))
        return real_vanishes(self, t, nums, den)

    monkeypatch.setattr(_Evaluator, "values", values)
    monkeypatch.setattr(_Evaluator, "vanishes", vanishes)
    pair = minimal_pair("heisenberg-pair")  # a new pair: nothing kept on it yet
    distinct = {(nums, den) for nums, den, _ in _draws(2, 100, 5)}
    assert len(distinct) < 101
    dim = pair.module.space.dim(1)
    assert dim > 1
    for k in range(1, dim + 1):
        spanned.clear()
        res = resonance_ideal(pair, 1, k, exact=True, seed=5)
        assert len(res.samples) == 101
        assert sorted(spanned) == sorted(distinct), k
    assert sorted(ranked) == sorted(distinct)


# ---------------------------------------------------------------------------
# the vanishing test: generators against the echelon rows of their span

RING = CoefRing("poly", ("x1", "x2", "x3"))
_COEF = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_COORD = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2]))
_EXPS = st.tuples(*[st.integers(0, 2)] * 3)


def _poly(terms):
    return sum((RING.element({mono: c}) for mono, c in terms if c), RING.zero)


_POLYS = st.lists(st.tuples(_EXPS, _COEF), max_size=4).map(_poly)


def _vanish_by_span(ideal, coords):
    """Whether the span column is 0 at coords, by the lazy ``vanishes``,
    which must agree with the full evaluation of every row."""
    ev = _Evaluator([_span_column(ideal)])
    nums, den = _split(coords)
    vanish = not any(row[0] for row in ev.matrix(0, ev.values(nums, den)))
    assert ev.vanishes(0, nums, den) == vanish
    return vanish


_SCALARS = st.sampled_from([Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(1, 3)])


@settings(max_examples=200, deadline=None)
@given(st.lists(_POLYS, max_size=5), st.lists(_COORD, min_size=3, max_size=3),
       st.booleans(), st.lists(_SCALARS, max_size=3), _EXPS, st.lists(_COEF, max_size=3))
def test_span_vanishing_matches_generators(gens, coords, combine, multiples, mono, coefs):
    """Dependent generators, nonzero multiples of one generator and
    single-term generators on one monomial all span no more than their
    distinct lines: the span column has one row per dimension of the span."""
    if combine and len(gens) >= 2:
        gens.append(gens[0] * 2 - gens[1])  # a dependent generator
    if gens:
        gens.extend(gens[0] * c for c in multiples)
    gens.extend(RING.element({mono: c}) for c in coefs if c)
    ideal = Ideal.from_list(RING, gens)
    nrows, _, _ = _span_column(ideal)
    assert nrows == len(linalg.Echelon(g.terms for g in ideal.generators).rows)
    for point in (coords, [Fraction(0)] * 3):
        assert _vanish_by_span(ideal, point) == all(g.evaluate(point) == 0
                                                     for g in ideal.generators)


@pytest.mark.parametrize("coords", [[Fraction(0)] * 3, [Fraction(1, 2), Fraction(-3), Fraction(0)]])
def test_span_vanishing_of_zero_and_unit_ideals(coords):
    assert _vanish_by_span(Ideal.zero(RING), coords)
    assert not _vanish_by_span(Ideal.unit(RING), coords)


# ---------------------------------------------------------------------------
# point evaluation on one shared monomial table against the per-matrix reference

_NUMS = st.lists(st.integers(-4, 4), min_size=3, max_size=3)


@st.composite
def term_lists(draw):
    """(nrows, ncols, nvars, terms): monomials drawn from a few, so cells
    repeat them, and some cells given a term and its negative, so they are
    zero."""
    nrows, ncols, nvars = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    if not nrows or not ncols:
        return nrows, ncols, nvars, []
    monos = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), min_size=1, max_size=4))
    cell = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1))
    terms = []
    for (r, c), mono, coef, cancel in draw(st.lists(
            st.tuples(cell, st.sampled_from(monos), _COEF, st.booleans()), max_size=12)):
        terms.append((r, c, mono, coef))
        if cancel:
            terms.append((r, c, mono, -coef))
    return nrows, ncols, nvars, terms


def _cells_of(nrows, ncols, terms):
    cells = {}
    for r, c, mono, coef in terms:
        cell = cells.setdefault((r, c), {})
        cell[mono] = cell.get(mono, 0) + coef
    return nrows, ncols, cells


@settings(max_examples=300, deadline=None)
@given(term_lists(), st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), max_size=3),
       _NUMS, st.integers(1, 3))
def test_engine_evaluation_matches_the_reference(case, others, nums, den):
    """The drawn matrix shares its evaluator with a few single-cell
    matrices of other degrees, so the table's top and its monomials are
    not the drawn matrix's own."""
    nrows, ncols, nvars, terms = case
    matrices = [(nrows, ncols, terms)]
    for degree, col in others:
        mono = (degree,) + (0,) * (nvars - 1) if nvars else ()
        matrices.append((1, col + 1, [(0, col, mono, Fraction(-2, 3))]))
    ev = _Evaluator([_cells_of(*m) for m in matrices])
    for point in (nums[:nvars], [0] * nvars):
        for t, m in enumerate(matrices):
            _assert_evaluates_as_reference(ev, t, IntMatrix(*m), point, den)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_empty_shapes_evaluate_to_empty_rows(shape):
    ev = _Evaluator([_cells_of(*shape, [])])
    assert ev.matrix(0, ev.values([1, -2], 2)) == [[] for _ in range(shape[0])]
    assert ev.vanishes(0, [1, -2], 2) and ev.top == 0
    _assert_evaluates_as_reference(ev, 0, IntMatrix(*shape, []), [1, -2], 2)


@pytest.mark.parametrize("name", ["heisenberg-pair", "heisenberg-pair-weighted",
                                  "heisenberg", "torus2"])
def test_oracle_matrices_of_the_golden_inputs_evaluate_as_reference(name):
    """The differentials and span columns the oracle builds for the golden
    fixtures: the two pairs through ``_pair_differentials``, the two dgas
    through ``_dga_differentials``."""
    if name.startswith("heisenberg-pair"):
        pair = minimal_pair(name)
        labels = [e.label for e in pair.algebra.space.elements if e.deg == 1]
        matrices = list(_pair_differentials(pair, labels, tuple(pair.module.space.degrees()))
                        .values())
        matrices.append(_span_column(resonance_ideal(pair, 1, 1, trunc=3, n_samples=0).ideal))
    else:
        alg = (heisenberg_cdga() if name == "heisenberg" else exterior_cdga(2)).ainf()
        res = dga_resonance_ideal(alg, 1, 1, n_samples=0)
        labels = list(res.h1_reps)
        matrices = list(_dga_differentials(alg, list(res.h1_reps.values()),
                                           tuple(alg.space.degrees())).values())
        matrices.append(_span_column(res.ideal))
    ev = _Evaluator(matrices)
    for t, matrix in enumerate(matrices):
        ref = _reference(matrix)
        for nums, den, _ in _draws(len(labels), 20, seed=len(name)):
            _assert_evaluates_as_reference(ev, t, ref, nums, den)
