import json
import random
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

from hse.fixtures import (
    Cdga,
    adjoint_pair,
    cdga_pair,
    exterior_cdga,
    heisenberg_cdga,
    heisenberg_lie_dgla,
    random_cdga,
    solvable_dgla,
)
from hse.grading import BasisElement, GradedSpace
from hse.io_json import parse_structure
from hse.multimap import (
    MultiMap,
    add_tables,
    compose_multimaps,
    evaluate_on_vectors,
    identity_map,
    postcompose,
)
from hse.signs import koszul_sign
from hse.structures import (
    LInfAlgebra,
    antisymmetrize,
    jacobi_check,
    module_check,
    morphism_check,
    pair_to_algebra,
    stasheff_check,
)
from hse.transfer import (
    AInfKernelCache,
    KernelCache,
    TransferError,
    _direct_sum_diagrams,
    arity_vacuity_bound,
    cohomology_splitting,
    is_quasi_isomorphism,
    transfer_ainf,
    transfer_linf,
    transfer_pair,
    vanishing_bound,
)
from hse import linalg, multimap, transfer
import transfer_reference as ref
from test_scalar_form import heisenberg_circle
from test_structures import h3_times_h3, iter_sorted_tuples
from test_suspension import dim128_cdga, disguised_h3_times_h3_ainf, disguised_h3_times_h3_linf


def heis_diagram():
    alg = heisenberg_cdga()
    return alg, cohomology_splitting(alg.space, alg.differential_map())


def test_splitting_zero_differential_is_identity_like():
    alg = exterior_cdga(2)
    diag = cohomology_splitting(alg.space, alg.differential_map())
    assert len(diag.small) == len(alg.space)
    assert diag.h.is_zero()
    gf = [diag.f.get((e.label,)) for e in alg.space.elements]
    assert all(len(v) == 1 and list(v.values())[0] == 1 for v in gf)


def test_splitting_acyclic_two_term_complex():
    space = GradedSpace([BasisElement("a", 0), BasisElement("b", 1)])
    d = MultiMap(space, space, 1, 1)
    d.add(("a",), "b", Fraction(1))
    diag = cohomology_splitting(space, d)
    assert len(diag.small) == 0
    # gf = 0 and h realizes the contraction
    assert diag.g.is_zero() and diag.f.is_zero()
    assert diag.h.get(("b",)) == {"a": Fraction(1)}


def test_splitting_heisenberg_dims():
    _, diag = heis_diagram()
    assert diag.small.dims() == {0: 1, 1: 2, 2: 2, 3: 1}


def test_splitting_rejects_non_square_zero():
    space = GradedSpace([BasisElement("a", 0), BasisElement("b", 1), BasisElement("c", 2)])
    d = MultiMap(space, space, 1, 1)
    d.add(("a",), "b", Fraction(1))
    d.add(("b",), "c", Fraction(1))
    with pytest.raises(TransferError, match="square"):
        cohomology_splitting(space, d)


def test_splitting_rejects_weight_violation():
    space = GradedSpace([BasisElement("a", 0, 0), BasisElement("b", 1, 1)])
    d = MultiMap(space, space, 1, 1)
    d.add(("a",), "b", Fraction(1))
    with pytest.raises(TransferError, match="weight"):
        cohomology_splitting(space, d, use_weights=True)


def test_p2_is_mu2():
    # p_2 is mu_2 at g-images, keyed by small tuples, entry for entry
    alg, diag = heis_diagram()
    cache = AInfKernelCache(diag, alg.ainf().products)
    cache.ensure(2)
    assert set(cache.p[2].space_in.labels()) == set(diag.small.labels())
    assert _mapping(cache.p[2]) == _mapping(ref.tensor_compose(alg.product_map(),
                                                               [diag.g, diag.g]))
    assert not cache.p[2].is_zero()


def test_q1_is_identity_and_formal_q_vanishes():
    alg = exterior_cdga(3)  # formal: h = 0, gf = id
    diag = cohomology_splitting(alg.space, alg.differential_map())
    cache = AInfKernelCache(diag, alg.ainf().products)
    cache.ensure(5)  # PF_4 is built with Q_5
    assert cache.q[1].equals(identity_map(diag.big))
    assert cache.hp[1].equals(diag.g) and cache.fq[1].equals(diag.f)
    for n in (2, 3, 4):
        # f Q_n = Q_n = 0, and h = 0 kills every -h p_k, so (psi phi)_n = 0
        assert cache.q[n].is_zero() and cache.fq[n].is_zero()
        assert cache.hp[n].is_zero() and cache.psiphi[n].is_zero()
    # h = 0 kills every p_n with an internal h, so p_n = mu_n(g^n) = 0 for n >= 3
    assert not cache.p[2].is_zero()
    assert cache.p[3].is_zero() and cache.p[4].is_zero()


def test_kernel_degrees_audit():
    alg, diag = heis_diagram()
    cache = AInfKernelCache(diag, alg.ainf().products)
    cache.ensure(4)
    # on A every p_n has the degree 2 - n of nu_n and every Q_n 1 - n
    for n in range(2, 5):
        assert cache.p[n].shift == 2 - n
        assert not cache.p[n].audit_shift()
        assert cache.q[n].shift == 1 - n
        assert not cache.q[n].audit_shift()


def test_kernel_cache_coherence():
    # p_n is built by the one kernel class, whichever cache holds it, and a
    # cache filled arity by arity holds what one filled at once does
    alg, diag = heis_diagram()
    products = alg.ainf().products
    cache = AInfKernelCache(diag, products)
    cache.ensure(4)
    fresh = AInfKernelCache(diag, products)
    plain = KernelCache(diag, products, False)
    for n in range(2, 5):
        fresh.ensure(n)
        plain.ensure(n)
    for n in range(2, 5):
        assert cache.p[n].equals(fresh.p[n]) and cache.p[n].equals(plain.p[n])
        assert cache.hp[n].equals(plain.hp[n])
        assert cache.q[n].equals(fresh.q[n])
    assert not cache.p[3].is_zero() and not cache.q[2].is_zero()


def test_transfer_minimality_and_components():
    alg, diag = heis_diagram()
    res = transfer_ainf(diag, alg.ainf(), 4)
    assert 1 not in res.algebra.products  # Kadeishvili minimality
    assert res.psi.components[1].equals(diag.g)
    assert res.phi.components[1].equals(diag.f)


def test_transfer_massey_values_against_p3_oracle():
    alg, diag = heis_diagram()
    res = transfer_ainf(diag, alg.ainf(), 3)
    nu3 = res.algebra.products[3]
    mu2 = alg.product_map()
    h = diag.h
    space = alg.space

    def hmu2(a, b):
        out = {}
        for lab, c in mu2.get((a, b)).items():
            for lab2, c2 in h.get((lab,)).items():
                out[lab2] = out.get(lab2, Fraction(0)) + c * c2
        return out

    def p3_oracle(a, b, c):
        # p3 = mu2(h mu2 x 1) - (-1)^{|a|} mu2(1 x h mu2) + mu3; mu3 = 0 here
        out: dict[str, Fraction] = {}
        for mid, cf in hmu2(a, b).items():
            for lab, cg in mu2.get((mid, c)).items():
                out[lab] = out.get(lab, Fraction(0)) + cf * cg
        sign = -1 if space.deg(a) % 2 else 1
        for mid, cf in hmu2(b, c).items():
            for lab, cg in mu2.get((a, mid)).items():
                out[lab] = out.get(lab, Fraction(0)) - sign * cf * cg
        return {k: v for k, v in out.items() if v}

    h1 = [e.label for e in diag.small.elements if e.deg == 1]
    seen_nonzero = False
    for a in h1:
        for b in h1:
            for c in h1:
                expected: dict[str, Fraction] = {}
                for la, ca in diag.g.get((a,)).items():
                    for lb, cb in diag.g.get((b,)).items():
                        for lc, cc in diag.g.get((c,)).items():
                            for lab, cv in p3_oracle(la, lb, lc).items():
                                for out, cf in diag.f.get((lab,)).items():
                                    expected[out] = expected.get(out, Fraction(0)) + ca * cb * cc * cv * cf
                expected = {k: v for k, v in expected.items() if v}
                got = nu3.get((a, b, c))
                assert got == expected, (a, b, c, got, expected)
                if expected:
                    seen_nonzero = True
    assert seen_nonzero


def test_weighted_transfer_is_weight_compatible():
    alg = heisenberg_cdga(weights=True)
    diag = cohomology_splitting(alg.space, alg.differential_map(), use_weights=True)
    res = transfer_ainf(diag, alg.ainf(), 4)
    for family in (res.algebra.products, res.phi.components, res.psi.components,
                   res.homotopy):
        for n, mm in family.items():
            assert not mm.audit_weights(), (n, mm.audit_weights()[:3])


def test_transfer_morphisms_pass_checks():
    for seed in (0, 2, 4):
        alg = random_cdga(seed)
        diag = cohomology_splitting(alg.space, alg.differential_map())
        res = transfer_ainf(diag, alg.ainf(), 4)
        assert stasheff_check(res.algebra, 4).ok
        assert morphism_check(res.phi, 4).ok
        assert morphism_check(res.psi, 4).ok


def test_transfer_linf_dgla_identity_like():
    L = heisenberg_lie_dgla()
    diag = cohomology_splitting(L.space, None)
    res = transfer_linf(diag, L, 4)
    # h = 0: l'_2 is the bracket carried over, no higher maps
    assert sorted(res.algebra.brackets) == [2]


def test_transfer_linf_matches_ainf_route_on_cdgas():
    for seed in (0, 1, 7):
        alg = random_cdga(seed)
        diag = cohomology_splitting(alg.space, alg.differential_map())
        route_a = antisymmetrize(transfer_ainf(diag, alg.ainf(), 4).algebra)
        route_b = transfer_linf(diag, antisymmetrize(alg.ainf()), 4).algebra
        assert set(route_a.brackets) == set(route_b.brackets)
        for n in route_a.brackets:
            assert route_a.brackets[n].equals(route_b.brackets[n])


def test_transfer_pair_certificates_and_recovered_action():
    res = transfer_pair(cdga_pair(heisenberg_cdga()), 4)
    assert res.certificate.ok
    assert module_check(res.pair.module, 4).ok
    # the binary action of the minimal pair is the transferred cup product
    alg = heisenberg_cdga()
    diag = cohomology_splitting(alg.space, alg.differential_map())
    nu = transfer_ainf(diag, alg.ainf(), 2).algebra.products.get(2)
    m2 = res.pair.module.actions[2]
    for key, row in m2.entries():
        a, xi = key
        nu_key = (a.removeprefix("a."), xi.removeprefix("m."))
        expected = nu.get(nu_key) if nu else {}
        assert {k.removeprefix("m."): v for k, v in row.items()} == expected
    assert 3 in res.pair.module.actions  # the Massey action survives


@pytest.mark.parametrize("build", [lambda: _golden_pair("heisenberg-pair.json"),
                                   lambda: cdga_pair(h3_times_h3())],
                         ids=["heisenberg-pair", "h3xh3"])
def test_transferred_pair_keeps_the_transferred_direct_sum(monkeypatch, build):
    """pair_to_algebra of the output pair is the L (+) M that transfer_linf
    returned and the Jacobi pass certified: the same object, not rebuilt."""
    outputs = []
    real = transfer.transfer_linf
    monkeypatch.setattr(transfer, "transfer_linf",
                        lambda *a: outputs.append(real(*a)) or outputs[-1])
    res = transfer_pair(build(), 5)
    assert len(outputs) == 1 and res.pair.module.direct_sum is outputs[0].algebra
    assert pair_to_algebra(res.pair) is outputs[0].algebra
    assert res.certificate is outputs[0].certificate


def test_pair_transfer_on_genuine_dgla_pair():
    pair = adjoint_pair(solvable_dgla())
    res = transfer_pair(pair, 4)
    assert res.certificate.ok
    assert module_check(res.pair.module, 4).ok


def test_splitting_independence_of_rank_invariants():
    alg = heisenberg_cdga()
    invariants = []
    # the engine's splitting and the reference's sheared one (reversed
    # candidates, harmonic representatives moved by a boundary)
    for diag in (cohomology_splitting(alg.space, alg.differential_map()),
                 ref.cohomology_splitting(alg.space, alg.differential_map(), variant=1)):
        diag.validate()
        res = transfer_ainf(diag, alg.ainf(), 3)
        nu2 = res.algebra.products.get(2)
        nu3 = res.algebra.products.get(3)
        h1 = [e.label for e in diag.small.elements if e.deg == 1]
        h2 = [e.label for e in diag.small.elements if e.deg == 2]
        # rank of nu2 as a linear map on the whole tensor square
        labels = [e.label for e in diag.small.elements]
        rows = []
        for a in labels:
            for b in labels:
                vec = nu2.get((a, b)) if nu2 else {}
                rows.append([vec.get(t, Fraction(0)) for t in labels])
        rank_nu2 = linalg.rank(rows)
        # image of nu3 on H1^3 modulo image of nu2 inside H2
        img3 = []
        for a in h1:
            for b in h1:
                for c in h1:
                    vec = nu3.get((a, b, c)) if nu3 else {}
                    img3.append([vec.get(t, Fraction(0)) for t in h2])
        # Massey indeterminacy: quotient by products of degree-1 classes
        img2 = []
        for a in h1:
            for b in h1:
                vec = nu2.get((a, b)) if nu2 else {}
                if any(t in h2 for t in vec):
                    img2.append([vec.get(t, Fraction(0)) for t in h2])
        dim_mod = linalg.rank(img2 + img3) - linalg.rank(img2)
        invariants.append((rank_nu2, dim_mod))
    assert invariants[0] == invariants[1]
    assert invariants[0][1] > 0  # the Massey image is visible either way


def test_quasi_isomorphism_detection():
    alg = heisenberg_cdga()
    diag = cohomology_splitting(alg.space, alg.differential_map())
    small_diag = cohomology_splitting(diag.small, None)
    # g: H -> A is a quasi-isomorphism
    assert is_quasi_isomorphism(diag.g, small_diag, diag)
    # the zero map is not
    zero = MultiMap(diag.small, alg.space, 1, 0)
    assert not is_quasi_isomorphism(zero, small_diag, diag)


def test_arity_vacuity_bound():
    # degrees {1} only: every output degree 2 is empty from arity 2 on
    space = GradedSpace([BasisElement("a", 1), BasisElement("b", 1)])
    assert arity_vacuity_bound(space) == 2
    # unit class present: no finite bound
    alg = heisenberg_cdga()
    assert arity_vacuity_bound(alg.space) is None


def test_arity_vacuity_bound_matches_the_set_loop():
    # the bitmask of reachable sums against the reference's growing sets, on
    # seeded random degree sets with negative degrees among them
    rng = random.Random(11)
    found = set()
    for _ in range(3000):
        degs = rng.sample(range(-4, 7), rng.randint(1, 5))
        space = GradedSpace([BasisElement(f"e{d}", d) for d in degs])
        for max_probe in (16, rng.randint(1, 6)):
            got = arity_vacuity_bound(space, max_probe)
            assert got == ref.arity_vacuity_bound(space, max_probe), (degs, max_probe)
            found.add(got)
    assert arity_vacuity_bound(GradedSpace([])) == ref.arity_vacuity_bound(GradedSpace([])) == 2
    assert None in found and len(found) > 3


def test_vanishing_bound_weighted_heisenberg():
    pair = transfer_pair(cdga_pair(heisenberg_cdga(weights=True)), 4,
                         use_weights=True).pair
    vb = vanishing_bound(pair)
    assert vb.certified
    assert vb.n0_theoretical == 8
    assert vb.n0_empirical == 2


def test_compose_multimaps_identity_and_arity():
    alg = heisenberg_cdga()
    mu2 = alg.product_map()
    ident = identity_map(alg.space)
    for slot in (1, 2):
        assert compose_multimaps(mu2, ident, slot).equals(mu2)
    d = alg.differential_map()
    comp = compose_multimaps(mu2, d, 2)
    assert comp.arity == 2 and comp.shift == 1
    # mu2(1 x d) on (1, z) has no crossing sign: 1 * xy = xy
    assert comp.get(("1", "z")) == {"xy": Fraction(1)}
    # crossing an odd argument flips: z * dz = z * xy = +xyz, signed -1
    assert comp.get(("z", "z")) == {"xyz": Fraction(-1)}
    assert comp.get(("x", "z")) == {}  # x * xy = 0
    # an odd-shift inner in a slot that is not last, against the reference
    h = MultiMap(alg.space, alg.space, 1, -1)
    h.add(("xy",), "z", Fraction(1))
    h.add(("x",), "1", Fraction(1))
    for slot in (1, 2):
        inners = [None, None]
        inners[slot - 1] = h
        assert _mapping(compose_multimaps(mu2, h, slot)) == _mapping(ref.tensor_compose(mu2, inners))
    # in slot 1, h crosses no input: (xy, x) -> z * x = -xz, mu2's own sign
    assert compose_multimaps(mu2, h, 1).get(("xy", "x")) == mu2.get(("z", "x")) != {}


def test_vanishing_bound_binary_only_pair_has_empirical_one():
    # only binary actions: the hypothesis already holds past one w-factor
    pair = transfer_pair(cdga_pair(exterior_cdga(2, weights=True)), 4,
                         use_weights=True).pair
    vb = vanishing_bound(pair)
    assert vb.certified
    assert vb.n0_empirical == 1


def test_scaling_smoke_dim16_pipeline():
    # Heisenberg x circle: dim-16 nonformal cdga through the whole pipeline
    gens = [("x", 1, None), ("y", 1, None), ("z", 1, None), ("w", 1, None)]
    alg = Cdga(gens, 4, {"z": [(Fraction(1), (0, 1))]})
    assert len(alg.space) == 16
    diag = cohomology_splitting(alg.space, alg.differential_map())
    assert diag.small.dims() == {0: 1, 1: 3, 2: 4, 3: 3, 4: 1}
    res = transfer_ainf(diag, alg.ainf(), 4)
    assert stasheff_check(res.algebra, 4).ok
    assert morphism_check(res.psi, 3).ok
    pres = transfer_pair(cdga_pair(alg), 3)
    assert pres.certificate.ok and module_check(pres.pair.module, 3).ok


def _copy(mm: MultiMap) -> MultiMap:
    return add_tables(MultiMap(mm.space_in, mm.space_out, mm.arity, mm.shift, mm.symmetry), mm)


def test_validate_refuses_each_broken_identity():
    # Heisenberg: d z = xy, so f(xy) breaks f d = d f, g(h1_0) = x + z
    # breaks d g = g d, and h(xy) = 2z breaks id - gf = dh + hd at xy
    _, diag = heis_diagram()
    diag.validate()
    f, g, h = _copy(diag.f), _copy(diag.g), _copy(diag.h)
    f.add(("xy",), "h2_0", 1)
    g.add(("h1_0",), "z", 1)
    h.add(("xy",), "z", 1)
    for broken, message in (
        (replace(diag, f=f), "f is not a chain map"),
        (replace(diag, g=g), "g is not a chain map"),
        (replace(diag, h=h), "homotopy identity id - gf = dh + hd fails"),
    ):
        with pytest.raises(TransferError) as err:
            broken.validate()
        assert str(err.value) == message


def _linf_transfer_of_another_complex(wrong_labels: bool):
    """transfer_linf on a diagram for other labels (the Heisenberg dgla's, on
    the exterior(3) pair's L (+) M), or for the Heisenberg pair's L (+) M
    with its l_1 dropped."""
    if wrong_labels:
        dgla = heisenberg_lie_dgla()
        diagram = cohomology_splitting(dgla.space, dgla.brackets.get(1))
        source = pair_to_algebra(cdga_pair(exterior_cdga(3)))
    else:
        source = pair_to_algebra(cdga_pair(heisenberg_cdga()))
        assert 1 in source.brackets
        diagram = cohomology_splitting(source.space, None)
    return transfer_linf(diagram, source, 4)


def _ainf_transfer_of_another_complex(wrong_labels: bool):
    """transfer_ainf on the Heisenberg cdga with exterior(2)'s diagram, or
    with the diagram of its space under the zero differential."""
    alg = heisenberg_cdga()
    other = exterior_cdga(2).space if wrong_labels else alg.space
    return transfer_ainf(cohomology_splitting(other, None), alg.ainf(), 4)


@pytest.mark.parametrize("transfer", [_linf_transfer_of_another_complex,
                                      _ainf_transfer_of_another_complex], ids=["linf", "ainf"])
@pytest.mark.parametrize("wrong_labels, message", [
    (True, "diagram and structure live on different spaces"),
    (False, "diagram differential is not the structure's arity-1 map"),
], ids=["other-labels", "wrong-differential"])
def test_transfers_refuse_a_diagram_of_another_complex(transfer, wrong_labels, message):
    # without the check the linf cases returned structures that passed Jacobi
    # on the wrong complex (for the Heisenberg pair a 16-dimensional "minimal
    # model"; the true one has 12 classes), and the ainf zero-differential
    # case one of dimension 8 (the cohomology has 6)
    with pytest.raises(TransferError) as err:
        transfer(wrong_labels)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# the in-place A-infinity assembly against the per-profile reference

AINF_INPUTS = [
    pytest.param(lambda: exterior_cdga(3), 6, id="exterior3"),
    pytest.param(lambda: exterior_cdga(4), 6, id="exterior4"),
    pytest.param(heisenberg_cdga, 6, id="heisenberg"),
] + [
    pytest.param(lambda c=c: heisenberg_circle(c), 6, id=f"heisenberg-circle-{c}")
    for c in (2, -3)
] + [
    pytest.param(lambda s=s: random_cdga(s, dims=(1, 3, 3, 1)), 5, id=f"random-{s}")
    for s in range(10)
]


@pytest.mark.parametrize("build, max_arity", AINF_INPUTS)
def test_ainf_transfer_matches_per_profile_reference(build, max_arity):
    # the kernels against the reference's per-profile kernels on A: nu, phi,
    # psi and H agree entry for entry, as mappings (no report reads the order)
    alg = build()
    diag = cohomology_splitting(alg.space, alg.differential_map())
    res = transfer_ainf(diag, alg.ainf(), max_arity)
    algebra, phi, psi, homotopy, _ = ref.transfer_ainf(diag, alg.ainf(), max_arity)
    got = [res.algebra.products, res.phi.components, res.psi.components, res.homotopy]
    want = [algebra.products, phi.components, psi.components, homotopy]
    assert [{n: _mapping(m) for n, m in family.items()} for family in got] == \
        [{n: _mapping(m) for n, m in family.items()} for family in want]
    assert not all(p_n.is_zero() for p_n in res.cache.p.values())


def _nonzero_mappings(maps: dict) -> dict:
    return {n: _mapping(m) for n, m in maps.items() if not m.is_zero()}


@pytest.mark.parametrize("build, max_arity", AINF_INPUTS + [
    pytest.param(h3_times_h3, 6, id="h3xh3"),
    pytest.param(disguised_h3_times_h3_ainf, 5, id="disguised-h3xh3"),
    pytest.param(dim128_cdga, 4, id="dim128"),
])
def test_ainf_kernels_match_per_composition_reference(build, max_arity):
    # the kernels on A against the reference's on sA, carried back to A: p_n
    # on small tuples is the reference's big-keyed P_n at g-images, Q_n is
    # its Q_n, PF_n is (-1)^(n-1) times its (psi phi)_n below the top arity,
    # which no kernel reads, and nu, phi, psi and H agree entry for entry
    source = build()
    source = source.ainf() if isinstance(source, Cdga) else source
    diag = cohomology_splitting(source.space, source.products.get(1))
    big = diag.big
    res = transfer_ainf(diag, source, max_arity)
    products, phi, psi, homotopy, cache = ref.suspended_transfer_ainf(diag, source, max_arity)
    for n in range(2, max_arity + 1):
        at_g = ref.tensor_compose(cache.p[n], [diag.g] * n)
        back = ref.suspend(at_g, diag.small, big, 2 - n, diag.small)
        assert _mapping(res.cache.p[n]) == _mapping(back), n
        q_back = ref.suspend(cache.q[n], big, big, 1 - n, big)
        assert _mapping(res.cache.q[n]) == _mapping(q_back), n
    assert sorted(res.cache.psiphi) == list(range(1, max_arity))
    for n in range(2, max_arity):
        pf_back = ref.suspend(cache.psiphi[n], big, big, 1 - n, big, -1 if (n - 1) & 1 else 1)
        assert _mapping(res.cache.psiphi[n]) == _mapping(pf_back), n
    assert _nonzero_mappings(res.algebra.products) == _nonzero_mappings(products)
    assert _nonzero_mappings(res.phi.components) == _nonzero_mappings(phi)
    assert _nonzero_mappings(res.psi.components) == _nonzero_mappings(psi)
    assert _nonzero_mappings(res.homotopy) == _nonzero_mappings(homotopy)


def test_ainf_kernels_build_without_tensor_compose(monkeypatch):
    # every A-infinity kernel, Q_n included, is one stored-key walk: none
    # builds through tensor_compose any more
    def refuse(*args, **kwargs):
        raise AssertionError("a transfer kernel called tensor_compose")

    monkeypatch.setattr(multimap, "tensor_compose", refuse)
    assert "tensor_compose" not in vars(transfer)
    alg = heisenberg_circle(1)
    diag = cohomology_splitting(alg.space, alg.differential_map())
    res = transfer_ainf(diag, alg.ainf(), 6)
    assert not res.cache.q[2].is_zero() and 3 in res.algebra.products


def test_ainf_transfer_of_h3_times_h3_passes_at_arity_six():
    # the first input with nu_4 != 0, where the reference's theta sign fails
    # Stasheff at arity 5: the transfer's own certificates hold at arity 6
    alg = h3_times_h3()
    diag = cohomology_splitting(alg.space, alg.differential_map())
    res = transfer_ainf(diag, alg.ainf(), 6)
    assert 4 in res.algebra.products
    assert not stasheff_check(ref.transfer_ainf(diag, alg.ainf(), 5)[0], 5).ok
    for report in (stasheff_check(res.algebra, 6), morphism_check(res.phi, 6),
                   morphism_check(res.psi, 6)):
        assert report.ok, report.first().describe()


# ---------------------------------------------------------------------------
# the support-driven L-infinity kernel against the exhaustive scan

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _ordered_partitions(n: int):
    """Set partitions of 0..n-1 into >= 2 blocks: insides increasing, blocks
    ordered by their minima (each unordered partition appears once)."""
    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        head = remaining[0]
        rest = remaining[1:]
        for size_minus_one in range(0, len(rest) + 1):
            for extra in combinations(rest, size_minus_one):
                block = (head,) + extra
                left = tuple(x for x in rest if x not in extra)
                for more in rec(left):
                    yield (block,) + more

    for part in rec(tuple(range(n))):
        if len(part) >= 2:
            yield part


def _partition_sign(partition, degs) -> int:
    """The sign of one partition's term of p_n on L, read off sL: the
    suspension signs s of the inputs and of the block values (of degrees
    e_B = sum_B d_i + 1 - |B|), the Koszul sign of the block shuffle on the
    shifted degrees, and -s(d_B) for each block of two or more inputs."""
    perm = tuple(i for block in partition for i in block)
    sign = ref.suspension_sign(degs) * koszul_sign(perm, [d - 1 for d in degs])
    values = []
    for block in partition:
        bdegs = tuple(degs[i] for i in block)
        values.append(sum(bdegs) + 1 - len(block))
        if len(block) > 1:
            sign *= -ref.suspension_sign(bdegs)
    return sign * ref.suspension_sign(tuple(values))


class ExhaustiveLInfKernelCache(KernelCache):
    """Reference kernel: every degree-feasible sorted tuple of L times every
    set partition into >= 2 blocks, with no use of the table supports.  Its
    p_n is keyed by tuples of L, a one-input block being the input itself;
    ``_at_g_images`` reads it at the kernel's small tuples."""

    def _build(self, n: int) -> None:
        big = self.diagram.big
        degs_by_label = {e.label: e.deg for e in big.elements}
        p_n = MultiMap(big, big, n, 2 - n, "antisym")
        sums = {d - (2 - n) for d in big.degrees()}
        partitions = [(part, self.maps[len(part)]) for part in _ordered_partitions(n)
                      if len(part) in self.maps]
        for T in iter_sorted_tuples(big, n, sums):
            degs = tuple(degs_by_label[l] for l in T)
            acc: dict[str, Fraction] = {}
            for partition, outer in partitions:
                self._expand(acc, outer, partition, T, _partition_sign(partition, degs))
            for lab, c in acc.items():
                if c:
                    p_n.add(T, lab, c)
        self.p[n] = p_n
        self.hp[n] = postcompose(self.diagram.h, p_n)

    def _expand(self, acc, outer, partition, T, factor) -> None:
        """The hand-written tree evaluation the kernel had before it moved
        onto a shared contraction kernel.  On sL every block value has degree 0,
        so no block adds a crossing sign."""
        blocks = list(partition)

        def rec(t: int, mids: tuple[str, ...], coef):
            if t == len(blocks):
                row, s0 = outer.get_ref(mids)
                if row is None:
                    return
                for lab, c in row.items():
                    total = acc.get(lab, 0) + coef * s0 * c
                    if total:
                        acc[lab] = total
                    else:
                        acc.pop(lab, None)
                return
            block = blocks[t]
            labels = tuple(T[i] for i in block)
            if len(block) == 1:
                rec(t + 1, mids + labels, coef)
                return
            inner = self.hp.get(len(block))
            if inner is None:
                return
            row, s0 = inner.get_ref(labels)
            if row is None:
                return
            for mid, c in row.items():
                rec(t + 1, mids + (mid,), coef * s0 * c)

        rec(0, (), factor)


def _pair_kernel_inputs(pair):
    """The diagram and brackets transfer_pair feeds its L-infinity kernel."""
    res = transfer_pair(pair, 2)
    combined = pair_to_algebra(pair)
    return _direct_sum_diagrams(res.algebra_diagram, res.module_diagram), combined.brackets


def _mapping(mm: MultiMap) -> dict:
    """key -> row: the L-infinity tables fill in walk order, and no report
    reads that order (reports sort keys and labels)."""
    return {key: dict(row) for key, row in mm.table.items()}


def _at_g_images(p_n: MultiMap, diagram) -> MultiMap:
    """An L-keyed p_n read at g-images: p_n(g s_1, ..., g s_n) at every
    sorted small tuple in the degree window, by contraction."""
    small, n = diagram.small, p_n.arity
    out = MultiMap(small, diagram.big, n, p_n.shift, "antisym")
    for S in iter_sorted_tuples(small, n, {d - p_n.shift for d in diagram.big.degrees()}):
        for lab, c in evaluate_on_vectors(p_n, [diagram.g.get((s,)) for s in S]).items():
            out.add(S, lab, c)
    return out


def _assert_kernels_agree(diagram, brackets, slow, max_arity: int) -> None:
    fast = KernelCache(diagram, brackets, True)
    fast.ensure(max_arity)
    assert sorted(fast.p) == sorted(slow.p) == list(range(2, max_arity + 1))
    for n in range(2, max_arity + 1):
        assert _mapping(fast.p[n]) == _mapping(_at_g_images(slow.p[n], diagram)), n


def _golden_pair(name: str):
    return parse_structure(json.loads((FIXTURES / name).read_text(encoding="utf-8")))


def _heisenberg5_pair():
    """H_5 = Lambda(x1, y1, x2, y2, z), dz = x1 y1 + x2 y2, weights 1, 1, 2."""
    gens = [("x1", 1, 1), ("y1", 1, 1), ("x2", 1, 1), ("y2", 1, 1), ("z", 1, 2)]
    one = Fraction(1)
    return cdga_pair(Cdga(gens, 5, {"z": [(one, (0, 1)), (one, (2, 3))]}))


LINF_PAIRS = {
    "heisenberg-pair": lambda: _golden_pair("heisenberg-pair.json"),
    "heisenberg-pair-weighted": lambda: _golden_pair("heisenberg-pair-weighted.json"),
    "exterior3": lambda: cdga_pair(exterior_cdga(3)),
    "heisenberg5": _heisenberg5_pair,
    **{f"random-{s}": lambda s=s: cdga_pair(random_cdga(s, dims=(1, 3, 3, 1))) for s in range(20)},
}


@lru_cache(maxsize=None)
def _exhaustive(name: str, max_arity: int):
    """(diagram, brackets, exhaustive kernel to max_arity) of a pair's L (+) M,
    built once for the kernel test and the bracket test that share it."""
    diagram, brackets = _pair_kernel_inputs(LINF_PAIRS[name]())
    slow = ExhaustiveLInfKernelCache(diagram, brackets, True)
    slow.ensure(max_arity)
    return diagram, brackets, slow


@pytest.mark.parametrize("name, max_arity", [
    ("heisenberg-pair.json", 6),
    ("heisenberg-pair-weighted.json", 5),
])
def test_linf_kernel_matches_exhaustive_on_golden_pairs(name, max_arity):
    _assert_kernels_agree(*_exhaustive(name.removesuffix(".json"), max_arity), max_arity)


def test_linf_kernel_matches_exhaustive_on_exterior3():
    _assert_kernels_agree(*_exhaustive("exterior3", 5), 5)


@pytest.mark.parametrize("seed", range(20))
def test_linf_kernel_matches_exhaustive_on_random_pairs(seed):
    _assert_kernels_agree(*_exhaustive(f"random-{seed}", 5), 5)


def test_linf_kernel_matches_exhaustive_on_a_source_with_higher_brackets():
    # every cdga pair's L (+) M has only l_1 and l_2; the disguised H_3 x H_3
    # has l_3 and l_4 and h != 0, so p_3 has a partition into three blocks
    source = disguised_h3_times_h3_linf()
    assert {3, 4} <= set(source.brackets)
    diagram = cohomology_splitting(source.space, source.brackets[1])
    assert not diagram.h.is_zero()
    slow = ExhaustiveLInfKernelCache(diagram, source.brackets, True)
    slow.ensure(3)
    _assert_kernels_agree(diagram, source.brackets, slow, 3)
    without_l3 = KernelCache(diagram, {k: m for k, m in source.brackets.items() if k != 3}, True)
    without_l3.ensure(3)
    assert without_l3.p[3].is_zero()  # every term of p_3 there is l_3 on three blocks


# ---------------------------------------------------------------------------
# the l_n read-back of transfer_linf against the sorted-tuple scan

def ref_transferred_brackets(diagram, slow) -> dict[int, MultiMap]:
    """f p_n(g s_1, ..., g s_n) at every sorted small tuple in the degree
    window, p_n the exhaustive kernel's: the l_n loop transfer_linf ran
    before its candidates came from stored keys."""
    out = {}
    for n, p_n in sorted(slow.p.items()):
        ln = postcompose(diagram.f, _at_g_images(p_n, diagram))
        if not ln.is_zero():
            out[n] = ln
    return out


@pytest.mark.parametrize("name, max_arity", [
    pytest.param("heisenberg-pair", 6, id="heisenberg-pair"),
    pytest.param("heisenberg-pair-weighted", 5, id="heisenberg-pair-weighted"),
    pytest.param("exterior3", 5, id="exterior3"),
    pytest.param("heisenberg5", 4, id="heisenberg5"),
] + [pytest.param(f"random-{s}", 5, id=f"random-{s}") for s in range(20)])
def test_transferred_brackets_match_sorted_tuple_scan(name, max_arity):
    diagram, brackets, slow = _exhaustive(name, max_arity)
    res = transfer_linf(diagram, LInfAlgebra(diagram.big, brackets), max_arity)
    got = {n: _mapping(m) for n, m in res.algebra.brackets.items() if n >= 2}
    want = {n: _mapping(m) for n, m in ref_transferred_brackets(diagram, slow).items()}
    assert 2 in want  # the unit acts, so the comparison is never between empty tables
    assert sorted(got) == sorted(want)
    for n in want:
        assert got[n] == want[n], n


def test_weighted_heisenberg_pair_reaches_arity_nine():
    pair = _golden_pair("heisenberg-pair-weighted.json")
    started = time.perf_counter()
    res = transfer_pair(pair, 9, use_weights=True)
    elapsed = time.perf_counter() - started
    assert res.metadata["max_arity"] == 9
    assert res.certificate.ok
    assert module_check(res.pair.module, 9).ok
    assert vanishing_bound(res.pair).n0_theoretical + 1 == 9
    assert elapsed < 10  # under 0.2 s on one 2-core VM; the exhaustive scan took 8.9 s for arity 7
