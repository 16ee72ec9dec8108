import json
import time
from dataclasses import replace
from fractions import Fraction
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
    contract,
    identity_map,
    postcompose,
)
from hse.signs import antisym_sign
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
    KernelCache,
    LInfKernelCache,
    TransferError,
    _direct_sum_diagrams,
    _profile_sign,
    arity_vacuity_bound,
    cohomology_splitting,
    is_quasi_isomorphism,
    transfer_ainf,
    transfer_linf,
    transfer_pair,
    vanishing_bound,
)
from hse import linalg
import transfer_reference as ref
from test_scalar_form import heisenberg_circle
from test_structures import h3_times_h3, iter_sorted_tuples


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
    alg, diag = heis_diagram()
    cache = KernelCache(diag, alg.ainf().products)
    cache.ensure(2)
    assert cache.p[2].equals(alg.product_map())


def test_q1_is_identity_and_formal_q_vanishes():
    alg = exterior_cdga(3)  # formal: h = 0, gf = id
    diag = cohomology_splitting(alg.space, alg.differential_map())
    cache = KernelCache(diag, alg.ainf().products)
    cache.ensure(4)
    assert cache.q[1].equals(identity_map(diag.big))
    for n in (2, 3, 4):
        assert cache.q[n].is_zero()
        assert cache.p[n].equals(cache.psiphi[n]) or cache.psiphi[n].equals(
            cache.gfq[n])  # (psi phi)_m collapses to gf q_m = q_m = 0 for m >= 2
    # h = 0 kills every p_n with an internal h, so p_n = mu_n = 0 for n >= 3
    assert cache.p[3].is_zero() and cache.p[4].is_zero()


def test_kernel_degrees_audit():
    alg, diag = heis_diagram()
    cache = KernelCache(diag, alg.ainf().products)
    cache.ensure(4)
    for n in range(2, 5):
        assert cache.p[n].shift == 2 - n
        assert not cache.p[n].audit_shift()
        assert cache.q[n].shift == 1 - n
        assert not cache.q[n].audit_shift()


def test_kernel_cache_coherence():
    alg, diag = heis_diagram()
    cache = KernelCache(diag, alg.ainf().products)
    cache.ensure(4)
    fresh = KernelCache(diag, alg.ainf().products)
    fresh.ensure(4)
    for n in range(2, 5):
        assert cache.p[n].equals(fresh.p[n])
        assert cache.q[n].equals(fresh.q[n])


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


def test_pair_transfer_on_genuine_dgla_pair():
    pair = adjoint_pair(solvable_dgla())
    res = transfer_pair(pair, 4)
    assert res.certificate.ok
    assert module_check(res.pair.module, 4).ok


def test_splitting_independence_of_rank_invariants():
    alg = heisenberg_cdga()
    invariants = []
    for variant in (0, 1):
        diag = cohomology_splitting(alg.space, alg.differential_map(), variant=variant)
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
] + [
    # item 1's input: equal tables, and its arity-5 Stasheff failure stays
    # (test_structures.test_residuals_match_reference_at_arity_five_on_h3_times_h3)
    pytest.param(h3_times_h3, 5, id="h3xh3"),
]


@pytest.mark.parametrize("build, max_arity", AINF_INPUTS)
def test_ainf_transfer_matches_per_profile_reference(build, max_arity):
    alg = build()
    diag = cohomology_splitting(alg.space, alg.differential_map())
    res = transfer_ainf(diag, alg.ainf(), max_arity)
    c = res.cache
    algebra, phi, psi, homotopy, cache = ref.transfer_ainf(diag, alg.ainf(), max_arity)
    got = [c.p, c.hp, c.q, c.hq, c.gfq, c.psiphi, res.algebra.products, res.phi.components,
           res.psi.components, res.homotopy]
    want = [cache.p, cache.hp, cache.q, cache.hq, cache.gfq, cache.psiphi, algebra.products,
            phi.components, psi.components, homotopy]
    assert [{n: _ordered_table(m) for n, m in family.items()} for family in got] == \
        [{n: _ordered_table(m) for n, m in family.items()} for family in want]
    assert not all(p_n.is_zero() for p_n in c.p.values())


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


class ExhaustiveLInfKernelCache(LInfKernelCache):
    """Reference kernel: every degree-feasible sorted tuple times every set
    partition into >= 2 blocks, with no use of the table supports."""

    def _build(self, n: int) -> None:
        big = self.diagram.big
        degs_by_label = {e.label: e.deg for e in big.elements}
        p_n = MultiMap(big, big, n, 2 - n, "antisym")
        sums = {d - (2 - n) for d in big.degrees()}
        partitions = [
            (part, self.brackets[len(part)],
             _profile_sign(tuple(len(b) for b in part)),
             tuple(i for b in part for i in b))
            for part in _ordered_partitions(n)
            if len(part) in self.brackets
        ]
        for T in iter_sorted_tuples(big, n, sums):
            degs = tuple(degs_by_label[l] for l in T)
            acc: dict[str, Fraction] = {}
            for partition, outer, base, perm in partitions:
                chi = antisym_sign(perm, degs)
                self._expand(acc, outer, partition, T, degs, base * chi)
            for lab, c in acc.items():
                if c:
                    p_n.add(T, lab, c)
        self.p[n] = p_n
        self.hp[n] = postcompose(self.diagram.h, p_n)

    def _expand(self, acc, outer, partition, T, degs, factor) -> None:
        """The hand-written tree evaluation the kernel had before it moved
        onto ``multimap.contract``."""
        blocks = list(partition)

        def rec(t: int, mids: tuple[str, ...], coef, odd_prefix: int):
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
            size = len(block)
            labels = tuple(T[i] for i in block)
            block_odd = sum(degs[i] for i in block) % 2
            if size == 1:
                rec(t + 1, mids + labels, coef, odd_prefix + block_odd)
                return
            inner = self.hp.get(size)
            if inner is None:
                return
            row, s0 = inner.get_ref(labels)
            if row is None:
                return
            sign = -1 if ((1 + size) % 2 and odd_prefix % 2) else 1
            for mid, c in row.items():
                rec(t + 1, mids + (mid,), coef * sign * s0 * c, odd_prefix + block_odd)

        rec(0, (), factor, 0)


def _pair_kernel_inputs(pair):
    """The diagram and brackets transfer_pair feeds its L-infinity kernel."""
    res = transfer_pair(pair, 2)
    combined, _ = pair_to_algebra(pair)
    return _direct_sum_diagrams(res.algebra_diagram, res.module_diagram), combined.brackets


def _ordered_table(mm: MultiMap):
    return [(key, list(row.items())) for key, row in mm.table.items()]


def _assert_kernels_agree(pair, max_arity: int) -> None:
    diagram, brackets = _pair_kernel_inputs(pair)
    fast = LInfKernelCache(diagram, brackets)
    slow = ExhaustiveLInfKernelCache(diagram, brackets)
    fast.ensure(max_arity)
    slow.ensure(max_arity)
    assert sorted(fast.p) == sorted(slow.p) == list(range(2, max_arity + 1))
    for n in range(2, max_arity + 1):
        assert _ordered_table(fast.p[n]) == _ordered_table(slow.p[n]), n


def _golden_pair(name: str):
    return parse_structure(json.loads((FIXTURES / name).read_text(encoding="utf-8")))


@pytest.mark.parametrize("name, max_arity", [
    ("heisenberg-pair.json", 6),
    ("heisenberg-pair-weighted.json", 5),
])
def test_linf_kernel_matches_exhaustive_on_golden_pairs(name, max_arity):
    _assert_kernels_agree(_golden_pair(name), max_arity)


def test_linf_kernel_matches_exhaustive_on_exterior3():
    _assert_kernels_agree(cdga_pair(exterior_cdga(3)), 5)


@pytest.mark.parametrize("seed", range(20))
def test_linf_kernel_matches_exhaustive_on_random_pairs(seed):
    _assert_kernels_agree(cdga_pair(random_cdga(seed, dims=(1, 3, 3, 1))), 5)


# ---------------------------------------------------------------------------
# the stored-key l_n candidates of transfer_linf against the sorted-tuple scan

def ref_transferred_brackets(res) -> dict[int, MultiMap]:
    """The l_n loop transfer_linf ran before its candidates came from the
    stored keys of p_n: f p_n(g s_1, ..., g s_n) at every sorted small tuple
    in the degree window."""
    diagram = res.diagram
    small = diagram.small
    out = {}
    for n, p_n in sorted(res.cache.p.items()):
        ln = MultiMap(small, small, n, 2 - n, "antisym")
        sums = {d - (2 - n) for d in small.degrees()}
        for S in iter_sorted_tuples(small, n, sums):
            acc = contract(p_n, [diagram.g.get((s,)) for s in S], {})
            for big_lab, c in acc.items():
                for out_lab, c2 in diagram.f.get((big_lab,)).items():
                    ln.add(S, out_lab, c * c2)
        if not ln.is_zero():
            out[n] = ln
    return out


def _heisenberg5_pair():
    """H_5 = Lambda(x1, y1, x2, y2, z), dz = x1 y1 + x2 y2, weights 1, 1, 2."""
    gens = [("x1", 1, 1), ("y1", 1, 1), ("x2", 1, 1), ("y2", 1, 1), ("z", 1, 2)]
    one = Fraction(1)
    return cdga_pair(Cdga(gens, 5, {"z": [(one, (0, 1)), (one, (2, 3))]}))


@pytest.mark.parametrize("build, max_arity", [
    pytest.param(lambda: _golden_pair("heisenberg-pair.json"), 6, id="heisenberg-pair"),
    pytest.param(lambda: _golden_pair("heisenberg-pair-weighted.json"), 5,
                 id="heisenberg-pair-weighted"),
    pytest.param(lambda: cdga_pair(exterior_cdga(3)), 5, id="exterior3"),
    pytest.param(_heisenberg5_pair, 4, id="heisenberg5"),
] + [
    pytest.param(lambda s=s: cdga_pair(random_cdga(s, dims=(1, 3, 3, 1))), 5, id=f"random-{s}")
    for s in range(20)
])
def test_transferred_brackets_match_sorted_tuple_scan(build, max_arity):
    diagram, brackets = _pair_kernel_inputs(build())
    res = transfer_linf(diagram, LInfAlgebra(diagram.big, brackets), max_arity)
    got = {n: _ordered_table(m) for n, m in res.algebra.brackets.items() if n >= 2}
    want = {n: _ordered_table(m) for n, m in ref_transferred_brackets(res).items()}
    assert 2 in want  # the unit acts, so the comparison is never between empty tables
    assert list(got) == list(want)
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
