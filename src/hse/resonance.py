"""Universal twisted complexes over polynomial rings and the resonance
machinery built on them: L-infinity resonance ideals of minimal pairs, the
classical resonance of a finite dga, the tangent-cone certificate relating
the two, and the weight-based hypothesis check that switches on exact mode.
Binary resonance and the tangent cone's linear complex are those of the
binary shadow: the actions above arity 2 dropped, certified as a module.

The universal element w = sum_j e_j (x) x_j pairs the degree-1 cohomology
basis with polynomial variables; the universal differential interpolates
every constant twisted differential (a stored-key sum,
``multimap.contract_power``).  The universal complex is a
``deformation.TwistedComplex`` over Q[x_1..x_n], built by the same
columns -> matrices builder and d^2 check; so is the dga-level complex
(A (x) O, d + a.).  What a structure determines is built on first use and
kept on it (``_kept``, the structure's ``memo``): a pair's universal
complex per (trunc, arity cap), certified d^2 = 0 once, with the minors
its engines memoize, and a dga's H^1 representatives and complex.
Evaluation at a rational point is kept as an independent exact rank
oracle: it never goes through the possibly truncated matrices and uses no
ring arithmetic.  Once per structure and degree i it reads d_a on degrees
i-1 and i off the actions' stored keys (for a dga, off the tables of d
and mu, and requires them to equal the kept complex's matrices) as
polynomial matrices in a's coordinates and compiles them into one
evaluator (``_Evaluator``) with one monomial table (``_Oracle``).  The
sample points are drawn once per (coordinates, count, seed) as integer
numerators n over one common denominator D (``_draws``; ``sample_points``
is their Fraction view).  Each distinct point is one pass in Python ints,
done once per structure and degree: every monomial of the table once, as
n^e * D^(top - |e|), then the two matrices, each a nonzero multiple of
its value at n/D that keeps its rank; the two ranks by ``linalg.int_rank``.
Each call takes its ideal as the echelon basis of its generators' Q-span
(generators that are multiples of each other reduced once), tests at every
distinct point whether that column vanishes, lazily and up to its first
nonzero row, and compares the answers with the kept ranks.

Every ideal here is a jump ideal of d^{i-1} (+) d^i and goes through
``rings.block_minors``: only minors that take as many rows as columns from
each differential are evaluated, as products of one minor of each, from
the engine per differential that the complex's d^2 check compiled, so
the jump ideals of one structure share sub-minors across calls.  The
tangent-cone certificate reads the same packed enumeration
(``rings.block_minor_terms``) and compares the minors as packed ints,
making ring elements only to word a failure.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb, factorial, gcd, lcm, prod

from . import linalg
from .deformation import TwistedComplex
from .grading import GradedSpace
from .multimap import MultiMap, add_rows, compose_multimaps, contract_power
from .rings import (
    CoefRing,
    Ideal,
    RElem,
    RingError,
    RingMatrix,
    block_minor_terms,
    block_minors,
)
from .structures import AInfAlgebra, LInfModule, LInfPair, module_check
from .transfer import TransferError, cohomology_splitting, vanishing_bound


class ResonanceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the universal twisted complex of a minimal pair

@dataclass
class UniversalComplex(TwistedComplex):
    """The twisted complex of the universal element over Q[x_1..x_n]:
    variables[j] is the H^1 label paired with ring.varnames[j]."""
    variables: list[str]  # H^1 labels, in variable order
    mode: str  # "exact" | "truncated"
    arity_cap: int
    error = ResonanceError


def _require_minimal(pair: LInfPair) -> None:
    if 1 in pair.algebra.brackets or 1 in pair.module.actions:
        raise ResonanceError("universal complexes need a minimal pair (zero differentials)")


def _kept(owner: LInfPair | AInfAlgebra, key, build: Callable[[], object]):
    """What owner determines under key: built (and certified) on first use,
    then kept on owner's ``memo``, so it lives and dies with owner."""
    got = owner.memo.get(key)
    if got is None:
        got = owner.memo[key] = build()
    return got


def universal_complex(
    pair: LInfPair,
    trunc: int | None = None,
    exact: bool = False,
    n0: int | None = None,
) -> UniversalComplex:
    """d_univ(eta) = sum_n (1/n!) (m_{n+1} (x) id)(w_univ^n, eta).

    Exact mode needs a reason for the sum to stop: either n0 from the
    weight argument, or the caller asserting the stored arity support is
    complete (exact=True).  Otherwise a truncation degree must be given and
    entries are computed mod degrees > trunc.

    The complex is decided by trunc and the arity cap alone, so it is built
    and checked (d^2 = 0) once per pair and (trunc, arity cap), then kept on
    the pair with the minors its engines memoize; it must not be changed.
    """
    _require_minimal(pair)
    if not exact and n0 is None and trunc is None:
        raise ResonanceError("need a truncation degree or an exactness certificate")
    arity_cap = max(pair.module.actions, default=1)
    if n0 is not None:
        # n0 counts w-factors, so arities up to n0 + 1 may contribute
        arity_cap = min(arity_cap, n0 + 1)
    if trunc is not None:
        arity_cap = min(arity_cap, trunc + 1)
    return _kept(pair, ("complex", trunc, arity_cap),
                 lambda: _build_universal_complex(pair, trunc, arity_cap))


def _build_universal_complex(pair: LInfPair, trunc: int | None,
                             arity_cap: int) -> UniversalComplex:
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    varnames = tuple(f"x{j + 1}" for j in range(len(h1)))
    ring = CoefRing("poly", varnames, trunc=trunc)
    w_univ = dict(zip(h1, ring.gens()))
    acc: dict[tuple, dict[str, object]] = {}
    for arity in range(2, arity_cap + 1):
        m_map = pair.module.actions.get(arity)
        if m_map is not None:
            contract_power(m_map, w_univ, arity - 1, acc)
    out = UniversalComplex.from_columns(acc, pair.module.space, ring, h1,
                                        "exact" if trunc is None else "truncated", arity_cap)
    out.validate_square_zero()
    return out


# ---------------------------------------------------------------------------
# rank oracle at rational points

def _split(coords) -> tuple[list[int], int]:
    """Numerators over one common denominator: coords = nums / den."""
    coords = list(coords)
    den = reduce(lcm, (x.denominator for x in coords), 1)
    return [x.numerator * (den // x.denominator) for x in coords], den


_Cells = dict[tuple[int, int], dict[tuple[int, ...], Fraction]]


class _Evaluator:
    """Polynomial matrices over the same variables, compiled together for
    exact evaluation at rational points in Python ints; no ring arithmetic
    is done.

    Each matrix is given as (nrows, ncols, cells), cells[(r, c)] =
    {exponent vector: coefficient}, and its coefficients are scaled by the
    lcm ``scales[t]`` of their denominators.  All of them share one
    monomial table: at a point n/D, written with one common denominator,
    ``values`` computes each distinct monomial once, as n^e * D^(top - |e|)
    with top the largest total degree of any of the matrices.  So
    ``matrix(t, vals)`` is scales[t] * D^top times M_t(n/D), a nonzero
    multiple with the rank and zero pattern of M_t(n/D).  ``vanishes``
    answers whether M_t(n/D) = 0 without the full table: it computes a
    monomial when a cell first needs it and stops at the first nonzero
    cell."""

    __slots__ = ("shapes", "scales", "terms", "top", "monos")

    def __init__(self, matrices):
        index: dict[tuple[int, ...], int] = {}
        self.shapes: list[tuple[int, int]] = []
        self.scales: list[int] = []
        # per matrix: (row, col, monomial index, coefficient), each cell's
        # terms adjacent
        self.terms: list[list[tuple[int, int, int, int]]] = []
        for nrows, ncols, cells in matrices:
            scale = reduce(lcm, (k.denominator for terms in cells.values()
                                 for k in terms.values()), 1)
            self.shapes.append((nrows, ncols))
            self.scales.append(scale)
            self.terms.append([(r, c, index.setdefault(m, len(index)),
                                k.numerator * (scale // k.denominator))
                               for (r, c), terms in cells.items()
                               for m, k in terms.items() if k])
        self.top = max(map(sum, index), default=0)
        # per monomial: D's exponent and its variables, each as often as
        # its exponent
        self.monos = [(self.top - sum(m), [j for j, x in enumerate(m) for _ in range(x)])
                      for m in index]

    def _pads(self, den: int) -> list[int]:
        """D^0 .. D^top."""
        pads = [1]
        for _ in range(self.top):
            pads.append(pads[-1] * den)
        return pads

    def values(self, nums: list[int], den: int) -> list[int]:
        """Each monomial of the table at n/D, times D^top."""
        pads = self._pads(den)
        vals = []
        for pad, factors in self.monos:
            v = pads[pad]
            for j in factors:
                v *= nums[j]
            vals.append(v)
        return vals

    def matrix(self, t: int, vals: list[int]) -> list[list[int]]:
        """Matrix t at the point of vals, as integer rows."""
        nrows, ncols = self.shapes[t]
        out = [[0] * ncols for _ in range(nrows)]
        for r, c, m, k in self.terms[t]:
            out[r][c] += k * vals[m]
        return out

    def vanishes(self, t: int, nums: list[int], den: int) -> bool:
        """Whether matrix t is 0 at n/D, summed cell by cell (the terms of a
        cell are adjacent) up to the first nonzero one; each monomial is
        computed, as in ``values``, the first time a cell needs it."""
        pads, monos = self._pads(den), self.monos
        vals: dict[int, int] = {}
        cell, value = None, 0
        for r, c, m, k in self.terms[t]:
            if (r, c) != cell:
                if value:
                    return False
                cell, value = (r, c), 0
            v = vals.get(m)
            if v is None:
                pad, factors = monos[m]
                v = pads[pad]
                for j in factors:
                    v *= nums[j]
                vals[m] = v
            value += k * v
        return not value


def _compile(space: GradedSpace, degrees: tuple[int, ...],
             entries) -> dict[int, tuple[int, int, _Cells]]:
    """A polynomial differential on M^j for each j in degrees, as (rows,
    columns, cells), from entries (column label, output row, exponent
    vector, scale): each adds scale * value times the monomial at (row
    label, column); columns of other degrees are skipped."""
    rows: dict[int, dict[str, int]] = {}
    cols: dict[str, tuple[int, int]] = {}
    cells: dict[int, _Cells] = {}
    for j in degrees:
        rows[j] = {e.label: r for r, e in enumerate(space.basis_of_degree(j + 1))}
        cols.update((e.label, (j, c)) for c, e in enumerate(space.basis_of_degree(j)))
        cells[j] = {}
    for label, row, exps, scale in entries:
        col = cols.get(label)
        if col is not None:
            j, c = col
            for lab, value in row.items():
                cell = cells[j].setdefault((rows[j][lab], c), {})
                cell[exps] = cell.get(exps, 0) + scale * value
    return {j: (len(rows[j]), space.dim(j), cells[j]) for j in degrees}


def _pair_differentials(pair: LInfPair, variables: list[str],
                        degrees: tuple[int, ...]) -> dict[int, tuple[int, int, _Cells]]:
    """d_a on M^j for each j in degrees, as a polynomial matrix in the
    coordinates of a = sum_v x_v v (v in variables).

    One pass over the stored keys of the actions: a key (head, xi) with
    every head label in variables adds value / prod mult! times the
    monomial of the head's multiplicities at (row, xi), as
    ``contract_power`` does with the whole head.
    """
    var = {lab: v for v, lab in enumerate(variables)}

    def entries():
        for m_map in pair.module.actions.values():
            for key, row in m_map.table.items():
                if all(lab in var for lab in key[:-1]):
                    exps = [0] * len(var)
                    for lab in key[:-1]:
                        exps[var[lab]] += 1
                    yield key[-1], row, tuple(exps), Fraction(1, prod(map(factorial, exps)))

    return _compile(pair.module.space, degrees, entries())


def _dga_differentials(alg: AInfAlgebra, reps: list[dict[str, Fraction]],
                       degrees: tuple[int, ...]) -> dict[int, tuple[int, int, _Cells]]:
    """d + sum_j x_j mu(rep_j, -) on A^j for each j in degrees, read off the
    stored keys of d and mu, never through the universal complex."""
    units = [tuple(int(v == j) for v in range(len(reps))) for j in range(len(reps))]

    def entries():
        d, mu = alg.products.get(1), alg.products.get(2)
        if d is not None:
            for (col,), row in d.table.items():
                yield col, row, (0,) * len(reps), Fraction(1)
        if mu is not None:
            for (a, col), row in mu.table.items():
                for unit, rep in zip(units, reps):
                    if a in rep:
                        yield col, row, unit, rep[a]

    return _compile(alg.space, degrees, entries())


def _primitive(terms: dict[tuple[int, ...], Fraction]) -> tuple:
    """The polynomial's primitive integer vector, sorted by monomial, with a
    positive first coefficient: two polynomials share it exactly when one
    is a nonzero rational multiple of the other."""
    if len(terms) == 1:
        (mono,) = terms
        return ((mono, 1),)
    items = sorted(terms.items())
    den = reduce(lcm, (c.denominator for _, c in items), 1)
    nums = [c.numerator * (den // c.denominator) for _, c in items]
    g = gcd(*nums)
    if nums[0] < 0:
        g = -g
    return tuple((m, x // g) for (m, _), x in zip(items, nums))


def _span_column(ideal: Ideal) -> tuple[int, int, _Cells]:
    """The reduced echelon basis of the generators' Q-span, one row each in
    a single column.  Evaluation is linear, so every generator vanishes at a
    point exactly when every row does.  Generators that are rational
    multiples of each other span one line, so only one of each is reduced,
    and a generator object that recurs (``block_minors`` shares equal
    minors) is made primitive once."""
    distinct = {id(g): g for g in ideal.generators if g}
    keys = dict.fromkeys(_primitive(g.terms) for g in distinct.values())
    span = linalg.Echelon(dict(key) for key in keys)
    return len(span.rows), 1, {(r, 0): row for r, row in enumerate(span.rows.values())}


def _twisted_dim(dim: int, ev: _Evaluator, vals: list[int]) -> int:
    """dim less the ranks of the evaluator's matrices 0 and 1 (d^{i-1} and
    d^i) at the point of vals."""
    return dim - linalg.int_rank(ev.matrix(0, vals)) - linalg.int_rank(ev.matrix(1, vals))


class _Oracle:
    """The rank oracle of one degree i of a structure: d^{i-1} and d^i (a
    ``_compile`` result) on one evaluator, and the twisted dimension at
    each point it was asked for, by (numerators, denominator); dim is dim
    M^i.  Kept on the structure, so a point is evaluated once however many
    ideals of degree i are checked there."""

    __slots__ = ("ev", "dim", "dims")

    def __init__(self, differentials: dict[int, tuple[int, int, _Cells]], dim: int):
        self.ev = _Evaluator(differentials.values())
        self.dim = dim
        self.dims: dict[tuple[tuple[int, ...], int], int] = {}

    def twisted_dim(self, nums: tuple[int, ...], den: int) -> int:
        got = self.dims.get((nums, den))
        if got is None:
            got = self.dims[nums, den] = _twisted_dim(self.dim, self.ev, self.ev.values(nums, den))
        return got


def pointwise_twisted_matrices(
    pair: LInfPair, point: dict[str, Fraction]
) -> dict[int, list[list[Fraction]]]:
    """Exact matrices of d_a for a rational degree-1 class a, in every
    degree; read off the actions' stored keys (``_pair_differentials``),
    independent of any truncation, evaluated in integers with each matrix
    divided by its own factor."""
    _require_minimal(pair)
    nums, den = _split(point.values())
    mats = _pair_differentials(pair, list(point), tuple(pair.module.space.degrees()))
    ev = _Evaluator(mats.values())
    vals, pad = ev.values(nums, den), den ** ev.top
    return {j: [[Fraction(x, ev.scales[t] * pad) for x in row] for row in ev.matrix(t, vals)]
            for t, j in enumerate(mats)}


def twisted_cohomology_dim(pair: LInfPair, point: dict[str, Fraction], i: int) -> int:
    _require_minimal(pair)
    ev = _Evaluator(_pair_differentials(pair, list(point), (i - 1, i)).values())
    return _twisted_dim(pair.module.space.dim(i), ev, ev.values(*_split(point.values())))


# str(Fraction(h, 2)) for h in -6..6: every drawn coordinate is some h/2
_HALVES = {h: str(Fraction(h, 2)) for h in range(-6, 7)}


_Draw = tuple[tuple[int, ...], int, tuple[str, ...]]


@lru_cache(maxsize=64)
def _draws(n: int, count: int, seed: int) -> tuple[_Draw, ...]:
    """Deterministic small-height rational points in n coordinates, each as
    integer numerators over one common denominator plus the coordinates as
    strings: the origin, then count nonzero points.  Each coordinate is
    Fraction(randint(-3, 3), choice([1, 1, 2])) of random.Random(seed),
    drawn as randrange(7) - 3 and (1, 1, 2)[randrange(3)], the same stream;
    a point that is all zero is drawn again.  Drawn once per (n, count,
    seed)."""
    draws = [((0,) * n, 1, ("0",) * n)]
    if not n:
        return tuple(draws)  # no degree-1 classes: the character space is a point
    below = random.Random(seed).randrange
    for _ in range(count):
        halves = (0,) * n
        while not any(halves):
            # twice each coordinate: 2 * num / den, with den drawn after num
            halves = tuple([(below(7) - 3) * (2, 2, 1)[below(3)] for _ in range(n)])
        coords = tuple([_HALVES[h] for h in halves])
        if any(h & 1 for h in halves):
            draws.append((halves, 2, coords))
        else:
            draws.append((tuple([h >> 1 for h in halves]), 1, coords))
    return tuple(draws)


def sample_points(h1: list[str], count: int, seed: int = 0) -> list[dict[str, Fraction]]:
    """Deterministic small-height rational points, origin first: the
    Fraction view of ``_draws``."""
    return [{lab: Fraction(x, den) for lab, x in zip(h1, nums)}
            for nums, den, _ in _draws(len(h1), count, seed)]


def _oracle_samples(ideal: Ideal, oracle: _Oracle, k: int,
                    labels: list[str], count: int, seed: int) -> list[dict]:
    """At each point of ``_draws`` in the coordinates labels: whether the
    ideal's generators vanish, and the twisted cohomology dimension from the
    rank oracle of the ideal's degree.  A sample is in the locus when that
    dimension is at least k.  The span column is tested for vanishing
    (``_Evaluator.vanishes``) once per distinct point, and the oracle keeps
    each point's dimension."""
    span = _Evaluator((_span_column(ideal),))
    seen: dict[tuple, tuple[int, bool]] = {}
    samples = []
    for nums, den, coords in _draws(len(labels), count, seed):
        got = seen.get((nums, den))
        if got is None:
            got = seen[nums, den] = (oracle.twisted_dim(nums, den), span.vanishes(0, nums, den))
        dim_twisted, vanish = got
        samples.append({
            "point": dict(zip(labels, coords)),
            "generators_vanish": vanish,
            "dim_twisted": dim_twisted,
            "in_locus": dim_twisted >= k,
        })
    return samples


# ---------------------------------------------------------------------------
# resonance ideals

@dataclass
class ResonanceResult:
    ideal: Ideal
    complex: UniversalComplex
    i: int
    k: int
    minor_size: int
    samples: list[dict]
    consistent: bool

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "k": self.k,
            "minor_size": self.minor_size,
            "mode": self.complex.mode,
            "ideal": self.ideal.to_json(),
            "samples": self.samples,
            "sample_oracle_consistent": self.consistent,
        }


def resonance_ideal(
    pair: LInfPair, i: int, k: int,
    trunc: int | None = None, exact: bool = False, n0: int | None = None,
    n_samples: int = 100, seed: int = 0,
) -> ResonanceResult:
    """Jump ideal of the universal twisted complex, with a sampled locus
    description cross-checked against the exact pointwise rank oracle."""
    ucx = universal_complex(pair, trunc=trunc, exact=exact, n0=n0)
    size = pair.module.space.dim(i) - k + 1
    ideal = block_minors(ucx.engine(i - 1), ucx.engine(i), size)

    oracle = _kept(pair, ("oracle", i), lambda: _Oracle(
        _pair_differentials(pair, ucx.variables, (i - 1, i)), pair.module.space.dim(i)))
    samples = _oracle_samples(ideal, oracle, k, ucx.variables, n_samples, seed)
    # a truncated ideal is only compared, not held to the oracle
    consistent = ucx.mode != "exact" or all(
        s["generators_vanish"] == s["in_locus"] for s in samples)
    return ResonanceResult(ideal, ucx, i, k, size, samples, consistent)


def _binary_shadow(pair: LInfPair) -> LInfPair:
    """The pair with actions above arity 2 dropped (classical resonance of
    the cohomology algebra); must itself satisfy the module identities.
    Built and certified on first use, then kept on the pair."""
    return _kept(pair, "binary shadow", lambda: _build_binary_shadow(pair))


def _build_binary_shadow(pair: LInfPair) -> LInfPair:
    actions = {n: m for n, m in pair.module.actions.items() if n <= 2}
    module = LInfModule(pair.algebra, pair.module.space, actions)
    if not module_check(module, 3).ok:
        raise ResonanceError("binary truncation is not a module structure here")
    return LInfPair(pair.algebra, module)


def binary_resonance_ideal(pair: LInfPair, i: int, k: int, **kw) -> ResonanceResult:
    """Classical resonance of the cohomology algebra: the resonance ideal of
    the binary shadow, where only m_2 enters, so the universal matrix is
    linear and the computation is exact."""
    _require_minimal(pair)
    return resonance_ideal(_binary_shadow(pair), i, k, exact=True, **kw)


# ---------------------------------------------------------------------------
# dga-level resonance

@dataclass
class DgaResonance:
    ideal: Ideal
    matrices: dict[int, RingMatrix]
    h1_reps: dict[str, dict[str, Fraction]]
    i: int
    k: int
    minor_size: int
    samples: list[dict]

    def to_json(self) -> dict:
        return {
            "i": self.i, "k": self.k, "minor_size": self.minor_size,
            "ideal": self.ideal.to_json(),
            "h1_representatives": {
                v: {lab: str(c) for lab, c in rep.items()}
                for v, rep in self.h1_reps.items()
            },
            "samples": self.samples,
        }


def dga_resonance_ideal(
    alg: AInfAlgebra, i: int, k: int, n_samples: int = 100, seed: int = 0,
) -> DgaResonance:
    """R^i_k of a finite connected dga: the jump ideal of (A (x) O, d + a.)
    where a runs over the 1-cocycles via the universal element.

    Requires A^0 to be spanned by a single unit-like class with zero
    differential, so degree-1 cocycles represent H^1 on the nose; the
    entries are affine-linear in the variables and everything is exact.
    Column col is d(col) + sum_j x_j mu(g v_j, col), read off d's table and
    the composite mu o (g (x) id) with g restricted to H^1; the rank oracle
    reads mu's keys on its own, and its matrices must equal the complex's
    when it is built.  The H^1 representatives, the complex and
    each degree's oracle are built once and kept on alg; the result shares
    the first two, which must not be changed.
    """
    reps, ucx = _kept(alg, "dga complex", lambda: _dga_complex(alg))
    size = alg.space.dim(i) - k + 1
    ideal = block_minors(ucx.engine(i - 1), ucx.engine(i), size)
    oracle = _kept(alg, ("oracle", i), lambda: _dga_oracle(alg, reps, ucx, i))
    samples = _oracle_samples(ideal, oracle, k, ucx.variables, n_samples, seed)
    if any(s["generators_vanish"] != s["in_locus"] for s in samples):
        raise ResonanceError("dga resonance ideal disagrees with the rank oracle")
    return DgaResonance(ideal, ucx.matrices, reps, i, k, size, samples)


def _dga_oracle(alg: AInfAlgebra, reps: dict[str, dict[str, Fraction]],
                ucx: UniversalComplex, i: int) -> _Oracle:
    """The rank oracle of degree i of a dga.  It reads d and mu on its own,
    and its d^{i-1} and d^i must equal the complex's, entry by entry as
    {monomial: coefficient}: the sampled loci alone cannot tell the complex
    from one whose mu term is rescaled."""
    differentials = _dga_differentials(alg, list(reps.values()), (i - 1, i))
    for j, (_, _, cells) in differentials.items():
        got = {rc: nonzero for rc, terms in cells.items()
               if (nonzero := {m: c for m, c in terms.items() if c})}
        want = {(r, c): v.terms for r, row in enumerate(ucx.matrix(j).data)
                for c, v in enumerate(row) if v}
        if got != want:
            raise ResonanceError(f"dga complex disagrees with the rank oracle's d^{j}")
    return _Oracle(differentials, alg.space.dim(i))


def _dga_complex(alg: AInfAlgebra) -> tuple[dict[str, dict[str, Fraction]], UniversalComplex]:
    """The H^1 representatives of a finite connected dga, by label, and its
    universal complex, checked (d^2 = 0)."""
    if set(alg.products) - {1, 2}:
        raise ResonanceError("dga-level resonance expects an honest dga (nu_1, nu_2 only)")
    space = alg.space
    if space.dim(0) != 1:
        raise ResonanceError("connectedness A^0 = Q required")
    d = alg.products.get(1)
    mu = alg.products.get(2)
    if d is not None:
        unit_label = space.basis_of_degree(0)[0].label
        if d.get((unit_label,)):
            raise ResonanceError("degree-0 class must be closed")

    diagram = cohomology_splitting(space, d)
    h1_labels = [e.label for e in diagram.small.elements if e.deg == 1]
    h1_reps = {lab: diagram.g.get((lab,)) for lab in h1_labels}
    varnames = tuple(f"x{j + 1}" for j in range(len(h1_labels)))
    ring = CoefRing("poly", varnames)

    # only the keys (v, col) with v in H^1 are read, so g is restricted to H^1
    g1 = add_rows(MultiMap(diagram.small, space, 1, 0), {(v,): row for v, row in h1_reps.items()})
    mu_g = compose_multimaps(mu, g1, 1).table if mu is not None else {}
    columns: dict[tuple, dict[str, object]] = {}
    for col in space.labels():
        entries = columns[(col,)] = {}
        if d is not None:
            for lab, c in d.table.get((col,), {}).items():
                entries[lab] = entries.get(lab, ring.zero) + ring.element(c)
        for j, v in enumerate(h1_labels):
            xj = ring.gen(j)
            for lab, c in mu_g.get((v, col), {}).items():
                entries[lab] = entries.get(lab, ring.zero) + xj * c
    ucx = UniversalComplex.from_columns(columns, space, ring, h1_labels, "exact", 2)
    ucx.validate_square_zero()
    return h1_reps, ucx


# ---------------------------------------------------------------------------
# tangent cone certificate

@dataclass
class TangentConeReport:
    i: int
    k: int
    minor_size: int
    checked: int
    nonzero_linear: int
    ok: bool
    failures: list[str]

    def to_json(self) -> dict:
        return {
            "i": self.i, "k": self.k, "minor_size": self.minor_size,
            "minors_checked": self.checked,
            "nonzero_linearized_minors": self.nonzero_linear,
            "ok": self.ok,
            "failures": self.failures,
        }


def tangent_cone_check(
    pair: LInfPair, i: int, k: int, trunc: int | None = None,
) -> TangentConeReport:
    """Certify, minor by minor, that the linearized universal matrix's
    s-minors are the degree-s parts of the full d_univ minors.

    A nonzero linearized minor is then the initial form of the matching
    generator (entries have no constant terms, so nothing of lower degree
    can appear); zero linearized minors impose no equation.  The truncation
    is auto-raised to reach degree s; a negative one is refused
    (``RingError``), as a ring refuses it.  The linearized matrix is the
    universal matrix of the binary shadow, so a pair whose m_2 breaks the
    arity-3 module identity is refused.  Only the minors that take as many
    rows as columns from each differential are evaluated, on both sides; at
    every other pair both are 0, and ``checked`` still counts every pair.
    """
    _require_minimal(pair)
    if trunc is not None and trunc < 0:
        raise RingError(f"truncation degree must be >= 0, got {trunc}")
    size = pair.module.space.dim(i) - k + 1
    if size <= 0:
        return TangentConeReport(i, k, size, 0, 0, True, [])
    if trunc is None or trunc < size:
        trunc = size  # the degree-s parts only see entries of degree <= s
    full = universal_complex(pair, trunc=trunc)
    lin = universal_complex(_binary_shadow(pair), exact=True)

    # constant terms would break the initial-form argument
    for j in (i - 1, i):
        if any(entry.constant_term() for row in full.matrix(j).data for entry in row):
            raise ResonanceError("universal matrix has constant entries on a minimal pair")

    # packed minors compared as ints: the degree-s part of poly_full /
    # scale_full against poly_lin / scale_lin, monomial by monomial (a
    # linearized s-minor is a form of degree s <= trunc: the truncated ring
    # keeps all of its terms)
    f_pack, l_pack = full.engine(i - 1).packing, lin.engine(i - 1).packing
    full_minors = {(rows, cols): (poly, scale) for rows, cols, poly, scale
                   in block_minor_terms(full.engine(i - 1), full.engine(i), size)}
    lin_minors = {(rows, cols): (poly, scale) for rows, cols, poly, scale
                  in block_minor_terms(lin.engine(i - 1), lin.engine(i), size)}
    failures: list[str] = []
    nonzero = 0
    for rows, cols in sorted(full_minors.keys() | lin_minors.keys()):
        p_full, s_full = full_minors.get((rows, cols), ({}, 1))
        p_lin, s_lin = lin_minors.get((rows, cols), ({}, 1))
        part = {m: c for m, c in p_full.items() if m >> f_pack.shift == size}
        if ({f_pack.unpack(m): c * s_lin for m, c in part.items()}
                != {l_pack.unpack(m): c * s_full for m, c in p_lin.items()}):
            m_lin = RElem(full.ring, l_pack.element(lin.ring, p_lin, s_lin).terms)
            got = f_pack.element(full.ring, part, s_full)
            failures.append(
                f"rows {rows} cols {cols}: degree-{size} part {got} != linearized {m_lin}")
            continue
        if p_lin:
            nonzero += 1
            # the degree-s part is the linearized minor, so the initial
            # form is too exactly when no term has a lower degree
            if any(m >> f_pack.shift < size for m in p_full):
                failures.append(
                    f"rows {rows} cols {cols}: initial form is not the linearized minor")
    (rows_up, cols_up), (rows_lo, cols_lo) = full.matrix(i - 1).shape(), full.matrix(i).shape()
    checked = comb(rows_up + rows_lo, size) * comb(cols_up + cols_lo, size)
    return TangentConeReport(i, k, size, checked, nonzero, not failures, failures)


# ---------------------------------------------------------------------------
# subtorus hypothesis

@dataclass
class SubtorusReport:
    certified: bool
    n0: int | None
    n0_empirical: int
    offenders: list[str]
    exact_mode_available: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "certified": self.certified,
            "n0": self.n0,
            "n0_empirical": self.n0_empirical,
            "offenders": self.offenders,
            "exact_mode_available": self.exact_mode_available,
            "detail": self.detail,
        }


def subtorus_hypothesis_check(pair: LInfPair) -> SubtorusReport:
    """Certify the finiteness hypothesis m_n(w, ..., w, eta) = 0 for n > n0
    from the weight decomposition; the subtorus conclusion itself is a
    theorem consumed elsewhere, only the hypothesis is checked here."""
    try:
        vb = vanishing_bound(pair)
    except TransferError as exc:
        return SubtorusReport(False, None, 0, [str(exc)], False, "no weight data")
    return SubtorusReport(
        vb.certified, vb.n0_theoretical, vb.n0_empirical, vb.offenders,
        vb.certified, vb.detail,
    )
