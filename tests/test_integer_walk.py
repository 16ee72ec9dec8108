"""The integer walk against the ``Fraction`` walk it replaced.

``multimap.morphism_terms`` lands every term of a walk at one common scale
L on integer rows, and puts an antisymmetric term in basis order by merging
its sorted runs.  ``walk_reference`` is the walk before that: each term in
the maps' own rationals, weighted by a ``Fraction``, and sorted by one
``sort_with_sign``.  Both run on the same plans here: the reference is
swapped in for the engine's walk where ``structures`` and ``transfer`` call
it.  Divided by L, every residual map must equal the reference's as a
mapping, and every p_n, hp_n, Q_n and (psi phi)_n table must equal the one
the reference builds, key for key and in insertion order, on each input as
it is and with one coefficient perturbed.
"""

import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from hse import structures, transfer
from hse.fixtures import cdga_pair, heisenberg_cdga, random_cdga
from hse.grading import BasisElement, GradedSpace
from hse.multimap import MultiMap, morphism_terms
from hse.structures import (
    LInfAlgebra,
    antisymmetrize,
    antisymmetrize_morphism,
    pair_to_algebra,
)
from hse.transfer import (
    AInfKernelCache,
    KernelCache,
    _direct_sum_diagrams,
    cohomology_splitting,
    pair_splitting,
    transfer_ainf,
    transfer_pair,
)
import walk_reference
from test_invariants import _odd_tensor_dga
from test_scalar_form import heisenberg_circle
from test_structures import _perturbed, _walk_cases, h3_times_h3


def reference_walk(walks, space, antisym, max_arity, exact=False):
    """The walks through ``walk_reference``, each added into one accumulator
    at its own scale: the integer walk's (res, L) with L = 1."""
    res = {}
    for plans, target, scale in walks:
        walk_reference.morphism_terms(plans, target, space, antisym, max_arity, exact, res=res,
                                      scale=scale)
    return res, 1


@contextmanager
def _reference_walks():
    """The reference walk in place of the engine's while the inputs are
    built, so that a broken engine fails a comparison, not the collection
    of this module."""
    engine = structures.morphism_terms, transfer.morphism_terms
    structures.morphism_terms = transfer.morphism_terms = reference_walk
    try:
        yield
    finally:
        structures.morphism_terms, transfer.morphism_terms = engine


def _divided(res: dict, scale: int) -> list:
    """The accumulator's entries, zeros kept, divided by its scale, in order."""
    return [(T, [(lab, Fraction(c, scale)) for lab, c in vec.items()]) for T, vec in res.items()]


def _table(mm: MultiMap) -> list:
    return [(key, list(row.items())) for key, row in mm.table.items()]


def _scaled(mm: MultiMap) -> bool:
    return any(type(c) is Fraction for row in mm.table.values() for c in row.values())


# ---------------------------------------------------------------------------
# inputs

def _pair_algebra_with_repeats() -> LInfAlgebra:
    """The transferred H_3 pair's L (+) M: its l_3 stores keys that repeat
    an odd label, so its walks weigh keys by m_K = 2."""
    alg = pair_to_algebra(transfer_pair(cdga_pair(heisenberg_cdga()), 5).pair)
    assert any(len(set(K)) < len(K) for K in alg.brackets[3].table)
    return alg


def _residual_cases():
    """(label, outer, inner, target, space, antisym, max arity, perturbed):
    the inputs of ``residuals_reference``'s test, then random cdgas, the
    transfers of Heisenberg x circle and the pair with repeated keys."""
    cases = list(_walk_cases())
    rng = random.Random(7)

    def add(label, outer, inner, target, space, antisym, arity):
        cases.append((label, outer, inner, target, space, antisym, arity, False))
        k = max(k for k in outer if k < arity)
        bad = {**outer, k: _perturbed(outer[k], rng)}
        cases.append((label, bad, bad if inner is outer else inner, target, space, antisym,
                      arity, True))

    for seed in range(10):
        alg = random_cdga(seed)
        ainf = alg.ainf()
        add(f"random{seed}", ainf.products, ainf.products, None, ainf.space, False, 4)
        big = pair_to_algebra(cdga_pair(alg))
        add(f"random{seed}-pair", big.brackets, big.brackets, None, big.space, True, 4)
    for c in (2, -3):
        alg = heisenberg_circle(c)
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()), alg.ainf(), 5)
        nu = res.algebra
        add(f"hc{c}-nu", nu.products, nu.products, None, nu.space, False, 5)
        for name in ("phi", "psi"):
            mor = getattr(res, name)
            add(f"hc{c}-{name}", mor.components, mor.source.products, mor.target.products,
                mor.source.space, False, 4)
        big = pair_to_algebra(transfer_pair(cdga_pair(alg), 4).pair)
        add(f"hc{c}-pair", big.brackets, big.brackets, None, big.space, True, 4)
    big = _pair_algebra_with_repeats()
    add("h3-pair-repeats", big.brackets, big.brackets, None, big.space, True, 5)
    # L-infinity morphisms, whose right-hand side reads target keys of
    # another space: the antisymmetrized phi and psi of a transfer whose
    # brackets survive above arity 1
    alg = _odd_tensor_dga()
    res = transfer_ainf(cohomology_splitting(alg.space, alg.products.get(1)), alg, 4)
    src_l, tgt_l = antisymmetrize(alg), antisymmetrize(res.algebra)
    for name, mor in (("phi", antisymmetrize_morphism(res.phi, src_l, tgt_l)),
                      ("psi", antisymmetrize_morphism(res.psi, tgt_l, src_l))):
        add(f"odd-tensor-{name}-linf", mor.components, mor.source.brackets, mor.target.brackets,
            mor.source.space, True, 4)
    return cases


with _reference_walks():
    RESIDUAL_CASES = _residual_cases()


@pytest.mark.parametrize("case", RESIDUAL_CASES,
                         ids=lambda c: f"{c[0]}-{'bad' if c[-1] else 'ok'}")
def test_residual_maps_match_the_fraction_walk(case, monkeypatch):
    label, outer, inner, target, space, antisym, arity, perturbed = case
    got = structures._residuals(outer, inner, target, space, antisym, arity)
    monkeypatch.setattr(structures, "morphism_terms", reference_walk)
    want = structures._residuals(outer, inner, target, space, antisym, arity)
    assert _divided(*got) == _divided(*want)
    if not perturbed:
        assert not _violated(want[0])


def _violated(res: dict) -> bool:
    return any(c for vec in res.values() for c in vec.values())


def test_the_cases_reach_violations_scales_and_repeated_keys():
    # a perturbed entry can leave every identity it enters intact, but not
    # on most inputs; integer rows only show when some walk runs at L > 1,
    # and the m_K weight only on a target key that repeats a label
    walked = [(case[-1], structures._residuals(*case[1:7])) for case in RESIDUAL_CASES]
    perturbed = [_violated(res) for bad, (res, _) in walked if bad]
    assert sum(perturbed) >= len(perturbed) - 3, perturbed
    assert sum(L > 1 for _, (_, L) in walked) >= 10
    assert any(len(set(K)) < len(K) for case in RESIDUAL_CASES if case[5]
               for m in case[1].values() for K in m.table)


# ---------------------------------------------------------------------------
# kernels

def _kernel_cases():
    """(label, build) with build() -> a filled kernel cache."""
    rng = random.Random(11)
    cases = []

    def ainf(label, alg, arity):
        diagram = cohomology_splitting(alg.space, alg.differential_map())
        products = alg.ainf().products
        bad = {**products, 2: _perturbed(products[2], rng)}
        for tag, maps in (("ok", products), ("bad", bad)):
            cases.append((f"{label}-ainf-{tag}",
                          lambda d=diagram, m=maps: _filled(AInfKernelCache(d, m), arity)))

    def linf(label, diagram, brackets, arity):
        k = max(brackets)
        bad = {**brackets, k: _perturbed(brackets[k], rng)}
        for tag, maps in (("ok", brackets), ("bad", bad)):
            cases.append((f"{label}-linf-{tag}",
                          lambda d=diagram, m=maps: _filled(KernelCache(d, m, True), arity)))

    h3h3 = h3_times_h3()
    ainf("h3xh3", h3h3, 5)
    pair = cdga_pair(h3h3)
    linf("h3xh3-pair", _direct_sum_diagrams(*pair_splitting(pair)),
         pair_to_algebra(pair).brackets, 5)
    for seed in range(10):
        ainf(f"random{seed}", random_cdga(seed), 4)
    for c in (2, -3):
        alg = heisenberg_circle(c)
        ainf(f"hc{c}", alg, 5)
        pair = cdga_pair(alg)
        linf(f"hc{c}-pair", _direct_sum_diagrams(*pair_splitting(pair)),
             pair_to_algebra(pair).brackets, 4)
    big = _pair_algebra_with_repeats()
    linf("h3-pair-repeats", cohomology_splitting(big.space, None), big.brackets, 5)
    return cases


def _filled(cache, arity):
    cache.ensure(arity)
    return cache


def _kernel_tables(cache) -> dict:
    tables = {"p": cache.p, "hp": cache.hp}
    if isinstance(cache, AInfKernelCache):
        tables.update(q=cache.q, psiphi=cache.psiphi)
    return {name: {n: _table(m) for n, m in maps.items()} for name, maps in tables.items()}


with _reference_walks():
    KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: c[0])
def test_kernel_tables_match_the_fraction_walk(case, monkeypatch):
    label, build = case
    got = _kernel_tables(build())
    monkeypatch.setattr(transfer, "morphism_terms", reference_walk)
    want = _kernel_tables(build())
    assert got == want


def test_kernel_cases_read_rational_maps():
    scaled = [label for label, build in KERNEL_CASES
              if any(_scaled(m) for m in build().hp.values())]
    assert len(scaled) >= 4, scaled


# ---------------------------------------------------------------------------
# plans that mix identity runs with several component slots

def test_mixed_plans_match_the_fraction_walk():
    # no checker or kernel walks such a plan on antisymmetric maps; the
    # merge landing takes each identity run of K as one more sorted run.
    # The components: a rational degree-0 linear map, which produces every
    # label, and l_2
    alg = _pair_algebra_with_repeats()
    rng = random.Random(3)
    linear = MultiMap(alg.space, alg.space, 1, 0)
    for e in alg.space.elements:
        for f in alg.space.basis_of_degree(e.deg):
            linear.add((e.label,), f.label, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    landed = []
    for maps in (alg.brackets, {**alg.brackets, 3: _perturbed(alg.brackets[3], rng)}):
        comps = {1: linear, 2: maps[2]}
        plans = {3: [(slots, (-1) ** i) for i, slots in enumerate(
            [(None, comps, comps), (comps, None, comps), (comps, comps, None),
             (comps, None, None), (None, comps, None), (comps, comps, comps)])]}
        for arity in (3, 4, 5):
            for exact in (False, True):
                got = morphism_terms([(plans, maps, Fraction(-1, 3))], alg.space, True, arity,
                                     exact)
                want = reference_walk([(plans, maps, Fraction(-1, 3))], alg.space, True, arity,
                                      exact)
                assert _divided(*got) == _divided(*want), (arity, exact)
                landed.append(_violated(want[0]))
    assert sum(landed) > len(landed) // 2, landed


def test_a_walk_of_integral_maps_runs_at_scale_one():
    space = GradedSpace([BasisElement("a", 1), BasisElement("b", 2)])
    l2 = MultiMap(space, space, 2, 0, "antisym")
    l2.add(("a", "a"), "b", 1)
    res, scale = structures._residuals({2: l2}, {2: l2}, None, space, True, 3)
    assert scale == 2  # m_K = 2 at (a, a)
    l2_plain = MultiMap(space, space, 2, 0, "antisym")
    l2_plain.add(("a", "b"), "b", 3)
    assert structures._residuals({2: l2_plain}, {2: l2_plain}, None, space, True, 3)[1] == 1


def test_the_scale_reads_the_stored_coefficients_only():
    # entries that were rational on the way in but are stored as ints, or
    # cancelled, leave no denominator behind
    space = GradedSpace([BasisElement("a", 1), BasisElement("b", 2)])
    m2 = MultiMap(space, space, 2, -1)
    for part in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)):
        m2.add(("a", "a"), "b", part)
    m2.add(("a", "b"), "a", Fraction(1, 5))
    m2.add(("a", "b"), "a", Fraction(-1, 5))
    assert m2.table == {("a", "a"): {"b": 1}}
    assert structures._residuals({2: m2}, {2: m2}, None, space, False, 3)[1] == 1
    m2.add(("b", "a"), "a", Fraction(1, 4))
    # D = 4 for the outer map and for the inner one
    assert structures._residuals({2: m2}, {2: m2}, None, space, False, 3)[1] == 16
