"""Universal twisted complexes over polynomial rings and the resonance
machinery built on them: L-infinity resonance ideals of minimal pairs, the
classical resonance of a finite dga, the tangent-cone certificate relating
the two, and the weight-based hypothesis check that switches on exact mode.

The universal element w = sum_j e_j (x) x_j pairs the degree-1 cohomology
basis with polynomial variables; the universal differential interpolates
every constant twisted differential, and evaluation at a rational point is
kept as an independent exact rank oracle (it never goes through the
possibly truncated matrices).  Both are stored-key sums
(``multimap.contract_power``); the oracle walks each action's keys once per
point.

Every ideal here is a jump ideal of d^{i-1} (+) d^i and goes through
``rings.block_minors``: only minors that take as many rows as columns from
each differential are evaluated, as products of one minor of each.  A
universal complex keeps one memoized ``MinorEngine`` per differential.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from . import linalg
from .grading import GradedSpace
from .multimap import MultiMap, contract_power, evaluate_on_vectors
from .rings import CoefRing, Ideal, MinorEngine, RingMatrix, block_minor_terms, block_minors
from .structures import AInfAlgebra, LInfPair, module_check
from .transfer import TransferError, cohomology_splitting, transfer_pair, vanishing_bound


class ResonanceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the universal twisted complex of a minimal pair

@dataclass(frozen=True)
class UniversalElement:
    """w_univ = sum_j e_j (x) x_j: the fixed bijection between the degree-1
    cohomology basis and the polynomial variables."""
    ring: CoefRing
    pairs: tuple[tuple[str, str], ...]  # (H^1 label, variable name)

    @staticmethod
    def for_pair(pair: LInfPair, ring: CoefRing, h1: list[str]) -> "UniversalElement":
        return UniversalElement(ring, tuple(zip(h1, ring.varnames)))


@dataclass
class UniversalComplex:
    ring: CoefRing
    space: GradedSpace
    matrices: dict[int, RingMatrix]
    variables: list[str]  # H^1 labels, in variable order
    mode: str  # "exact" | "truncated"
    arity_cap: int
    element: UniversalElement | None = None
    # one memoized MinorEngine per differential, kept while the complex
    # lives; the matrices must not change once it is built
    engines: dict[int, MinorEngine] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)

    def matrix(self, i: int) -> RingMatrix:
        got = self.matrices.get(i)
        if got is not None:
            return got
        rows = tuple(e.label for e in self.space.basis_of_degree(i + 1))
        cols = tuple(e.label for e in self.space.basis_of_degree(i))
        return RingMatrix(self.ring, rows, cols)

    def engine(self, j: int) -> MinorEngine:
        got = self.engines.get(j)
        if got is None:
            got = self.engines[j] = MinorEngine(self.matrix(j))
        return got

    def validate_square_zero(self) -> None:
        for i in sorted(self.space.degrees()):
            if not self.matrix(i + 1).compose(self.matrix(i)).is_zero():
                raise ResonanceError(
                    f"universal differential fails d^2 = 0 at degree {i}"
                    + (" (within truncation)" if self.mode == "truncated" else ""))


def _require_minimal(pair: LInfPair) -> None:
    if 1 in pair.algebra.brackets or 1 in pair.module.actions:
        raise ResonanceError("universal complexes need a minimal pair (zero differentials)")


def universal_complex(
    pair: LInfPair,
    trunc: int | None = None,
    exact: bool = False,
    n0: int | None = None,
    binary_only: bool = False,
) -> UniversalComplex:
    """d_univ(eta) = sum_n (1/n!) (m_{n+1} (x) id)(w_univ^n, eta).

    Exact mode needs a reason for the sum to stop: either n0 from the
    weight argument, or the caller asserting the stored arity support is
    complete (exact=True).  Otherwise a truncation degree must be given and
    entries are computed mod degrees > trunc.
    """
    _require_minimal(pair)
    if not exact and n0 is None and trunc is None:
        raise ResonanceError("need a truncation degree or an exactness certificate")
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    varnames = tuple(f"x{j + 1}" for j in range(len(h1)))
    ring = CoefRing("poly", varnames, trunc=trunc)

    arity_cap = max(pair.module.actions, default=1)
    if binary_only:
        arity_cap = min(arity_cap, 2)
    if n0 is not None:
        # n0 counts w-factors, so arities up to n0 + 1 may contribute
        arity_cap = min(arity_cap, n0 + 1)
    if trunc is not None:
        arity_cap = min(arity_cap, trunc + 1)

    space = pair.module.space
    w_univ = dict(zip(h1, ring.gens()))
    acc: dict[tuple, dict[str, object]] = {}
    for arity in range(2, arity_cap + 1):
        m_map = pair.module.actions.get(arity)
        if m_map is not None:
            contract_power(m_map, w_univ, arity - 1, acc)
    matrices: dict[int, RingMatrix] = {}
    for i in space.degrees():
        rows = tuple(e.label for e in space.basis_of_degree(i + 1))
        cols = tuple(e.label for e in space.basis_of_degree(i))
        mat = RingMatrix(ring, rows, cols)
        for cj, xi_label in enumerate(cols):
            for lab, val in acc.get((xi_label,), {}).items():
                if val and lab in rows:
                    mat.set(rows.index(lab), cj, val)
                elif val:
                    raise ResonanceError(f"universal entry leaves the window: {lab}")
        matrices[i] = mat
    out = UniversalComplex(
        ring, space, matrices, h1,
        "exact" if trunc is None else "truncated", arity_cap,
        UniversalElement.for_pair(pair, ring, h1),
    )
    out.validate_square_zero()
    return out


# ---------------------------------------------------------------------------
# rank oracle at rational points

def pointwise_twisted_matrices(
    pair: LInfPair, point: dict[str, Fraction]
) -> dict[int, list[list[Fraction]]]:
    """Exact matrices of d_a for a rational degree-1 class a; computed from
    the structure maps directly, one pass over each action's stored keys,
    independent of any truncation."""
    _require_minimal(pair)
    space = pair.module.space
    columns: dict[tuple, dict[str, Fraction]] = {}
    for arity, m_map in pair.module.actions.items():
        contract_power(m_map, point, arity - 1, columns)
    out: dict[int, list[list[Fraction]]] = {}
    for i in space.degrees():
        rows = {e.label: r for r, e in enumerate(space.basis_of_degree(i + 1))}
        cols = [e.label for e in space.basis_of_degree(i)]
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for cj, xi_label in enumerate(cols):
            for lab, v in columns.get((xi_label,), {}).items():
                mat[rows[lab]][cj] = v
        out[i] = mat
    return out


def twisted_cohomology_dim(pair: LInfPair, point: dict[str, Fraction], i: int) -> int:
    mats = pointwise_twisted_matrices(pair, point)
    space = pair.module.space
    r_below = linalg.rank(mats.get(i - 1, [])) if space.dim(i - 1) else 0
    r_here = linalg.rank(mats.get(i, [])) if space.dim(i) else 0
    return space.dim(i) - r_below - r_here


def sample_points(h1: list[str], count: int, seed: int = 0) -> list[dict[str, Fraction]]:
    """Deterministic small-height rational points, origin first."""
    rng = random.Random(seed)
    points = [dict.fromkeys(h1, Fraction(0))]
    while len(points) < count + 1:
        pt = {
            lab: Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
            for lab in h1
        }
        if any(pt.values()):
            points.append(pt)
    return points


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
    binary_only: bool = False, n_samples: int = 100, seed: int = 0,
) -> ResonanceResult:
    """Jump ideal of the universal twisted complex, with a sampled locus
    description cross-checked against the exact pointwise rank oracle."""
    ucx = universal_complex(pair, trunc=trunc, exact=exact, n0=n0, binary_only=binary_only)
    size = pair.module.space.dim(i) - k + 1
    ideal = block_minors(ucx.engine(i - 1), ucx.engine(i), size)

    h1 = ucx.variables
    shadow = pair if not binary_only else _binary_shadow(pair)

    samples = []
    consistent = True
    for pt in sample_points(h1, n_samples, seed):
        coords = [pt[lab] for lab in h1]
        vanish = all(g.evaluate(coords) == 0 for g in ideal.generators)
        dim = twisted_cohomology_dim(shadow, pt, i)
        in_locus = dim >= k
        if ucx.mode == "exact" and vanish != in_locus:
            consistent = False
        samples.append({
            "point": {lab: str(c) for lab, c in pt.items()},
            "generators_vanish": vanish,
            "dim_twisted": dim,
            "in_locus": in_locus,
        })
    return ResonanceResult(ideal, ucx, i, k, size, samples, consistent)


def _binary_shadow(pair: LInfPair) -> LInfPair:
    """The pair with actions above arity 2 dropped (classical resonance of
    the cohomology algebra); must itself satisfy the module identities."""
    from .structures import LInfModule

    actions = {n: m for n, m in pair.module.actions.items() if n <= 2}
    module = LInfModule(pair.algebra, pair.module.space, actions)
    rep = module_check(module, 3)
    if not rep.ok:
        raise ResonanceError("binary truncation is not a module structure here")
    return LInfPair(pair.algebra, module)


def binary_resonance_ideal(pair: LInfPair, i: int, k: int, **kw) -> ResonanceResult:
    """Classical resonance of the cohomology algebra: only m_2 enters, so
    the universal matrix is linear and the computation is exact."""
    return resonance_ideal(pair, i, k, exact=True, binary_only=True, **kw)


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
    """
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

    diagram = cohomology_splitting(space, d if d is not None else MultiMap(space, space, 1, 1))
    h1_labels = [e.label for e in diagram.small.elements if e.deg == 1]
    h1_reps = {lab: diagram.g.get((lab,)) for lab in h1_labels}
    varnames = tuple(f"x{j + 1}" for j in range(len(h1_labels)))
    ring = CoefRing("poly", varnames)

    matrices: dict[int, RingMatrix] = {}
    for m in space.degrees():
        rows = tuple(e.label for e in space.basis_of_degree(m + 1))
        cols = tuple(e.label for e in space.basis_of_degree(m))
        mat = RingMatrix(ring, rows, cols)
        for cj, col in enumerate(cols):
            entries: dict[str, object] = {}
            if d is not None:
                for lab, c in d.get((col,)).items():
                    entries[lab] = entries.get(lab, ring.zero) + ring.element(c)
            if mu is not None:
                for j, v in enumerate(h1_labels):
                    res = evaluate_on_vectors(mu, [h1_reps[v], {col: Fraction(1)}])
                    xj = ring.gen(j)
                    for lab, c in res.items():
                        entries[lab] = entries.get(lab, ring.zero) + xj * c
            for lab, val in entries.items():
                if val and lab in rows:
                    mat.set(rows.index(lab), cj, val)
                elif val:
                    raise ResonanceError(f"twisted entry leaves the window: {col} -> {lab}")
        matrices[m] = mat
    for m in space.degrees():
        above = matrices.get(m + 1)
        if above is not None and not above.compose(matrices[m]).is_zero():
            raise ResonanceError("dga universal differential fails d^2 = 0")

    def matrix(m: int) -> RingMatrix:
        got = matrices.get(m)
        if got is not None:
            return got
        rows = tuple(e.label for e in space.basis_of_degree(m + 1))
        cols = tuple(e.label for e in space.basis_of_degree(m))
        return RingMatrix(ring, rows, cols)

    size = space.dim(i) - k + 1
    ideal = block_minors(MinorEngine(matrix(i - 1)), MinorEngine(matrix(i)), size)

    samples = []
    for pt in sample_points(h1_labels, n_samples, seed):
        coords = [pt[lab] for lab in h1_labels]
        vanish = all(g.evaluate(coords) == 0 for g in ideal.generators)
        r_below = linalg.rank(matrix(i - 1).evaluate(coords))
        r_here = linalg.rank(matrix(i).evaluate(coords))
        dim = space.dim(i) - r_below - r_here
        samples.append({
            "point": {lab: str(c) for lab, c in pt.items()},
            "generators_vanish": vanish,
            "dim_twisted": dim,
            "in_locus": dim >= k,
        })
        if vanish != (dim >= k):
            raise ResonanceError("dga resonance ideal disagrees with the rank oracle")
    return DgaResonance(ideal, matrices, h1_reps, i, k, size, samples)


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
    is auto-raised to reach degree s.  Only the minors that take as many
    rows as columns from each differential are evaluated, on both sides; at
    every other pair both are 0, and ``checked`` still counts every pair.
    """
    _require_minimal(pair)
    size = pair.module.space.dim(i) - k + 1
    if size <= 0:
        return TangentConeReport(i, k, size, 0, 0, True, [])
    if trunc is None or trunc < size:
        trunc = size  # the degree-s parts only see entries of degree <= s
    full = universal_complex(pair, trunc=trunc)
    lin = universal_complex(pair, exact=True, binary_only=True)

    # constant terms would break the initial-form argument
    for j in (i - 1, i):
        if any(entry.constant_term() for row in full.matrix(j).data for entry in row):
            raise ResonanceError("universal matrix has constant entries on a minimal pair")

    full_minors = {(rows, cols): m for rows, cols, m
                   in block_minor_terms(full.engine(i - 1), full.engine(i), size)}
    lin_minors = {(rows, cols): full.ring.element(dict(m.terms)) for rows, cols, m
                  in block_minor_terms(lin.engine(i - 1), lin.engine(i), size)}
    failures: list[str] = []
    nonzero = 0
    for rows, cols in sorted(full_minors.keys() | lin_minors.keys()):
        m_full = full_minors.get((rows, cols), full.ring.zero)
        m_lin = lin_minors.get((rows, cols), full.ring.zero)
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
    (rows_up, cols_up), (rows_lo, cols_lo) = full.matrix(i - 1).shape(), full.matrix(i).shape()
    checked = comb(rows_up + rows_lo, size) * comb(cols_up + cols_lo, size)
    return TangentConeReport(i, k, size, checked, nonzero, not failures, failures)


def canonical_minimal_pair(alg: AInfAlgebra, max_arity: int) -> LInfPair:
    """The minimal pair on (H, H) of a commutative dga, via pair transfer."""
    from .fixtures import ainf_cdga_pair

    return transfer_pair(ainf_cdga_pair(alg), max_arity).pair


def tangent_cone_check_dga(
    alg: AInfAlgebra, i: int, k: int, max_arity: int | None = None,
) -> TangentConeReport:
    """Pipeline form: canonical minimal pair of the dga, then the
    minor-by-minor certificate at (i, k)."""
    if max_arity is None:
        # minors of size s only see entry degrees up to s, i.e. arities s + 1
        diagram = cohomology_splitting(
            alg.space, alg.products.get(1) or MultiMap(alg.space, alg.space, 1, 1))
        size_hint = max(diagram.small.dim(i) - k + 1, 1)
        max_arity = max(size_hint + 1, 3)
    pair = canonical_minimal_pair(alg, max_arity)
    return tangent_cone_check(pair, i, k)


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
