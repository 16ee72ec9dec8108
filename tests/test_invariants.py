"""Cross-module invariants: functoriality statements and ideal lattice
relations that tie several subsystems together."""

import random
from fractions import Fraction
from itertools import product

from hse.deformation import jump_ideal_pair, sample_mc, twist_module
from hse.fixtures import (
    adjoint_pair,
    cdga_pair,
    generate_fixture,
    FixtureDescriptor,
    heisenberg_cdga,
    random_cdga,
    solvable_dgla,
)
from hse.grading import BasisElement, GradedSpace
from hse.io_json import dumps, package_to_json
from hse.multimap import MultiMap
from hse.rings import Ideal, parse_ring, reduce_to_order
from hse.structures import (
    AInfAlgebra,
    antisymmetrize,
    antisymmetrize_morphism,
    jacobi_check,
    morphism_check,
)
from hse.transfer import (
    cohomology_splitting,
    is_quasi_isomorphism,
    transfer_ainf,
)


def _odd_tensor_dga() -> AInfAlgebra:
    """T(a, b, c)/(words of length >= 4) with a, b, c of degree 1 and
    dc = ab: not graded-commutative, so its brackets do not vanish above
    arity 1, and keys repeat odd labels."""
    words = ["".join(w) for n in range(4) for w in product("abc", repeat=n)]
    label = lambda w: w or "1"
    space = GradedSpace([BasisElement(label(w), len(w)) for w in words])
    d = MultiMap(space, space, 1, 1)
    mult = MultiMap(space, space, 2, 0)
    for w in words:
        for pos, x in enumerate(w):
            if x == "c" and len(w) < 3:
                d.add((label(w),), w[:pos] + "ab" + w[pos + 1:], -1 if pos % 2 else 1)
        for v in words:
            if len(w) + len(v) < 4:
                mult.add((label(w), label(v)), label(w + v), 1)
    return AInfAlgebra(space, {1: d, 2: mult})


def test_antisymmetrize_is_functorial_on_transfer_morphisms():
    # checking the transferred morphisms before and after the functor agrees;
    # the random cdgas are graded-commutative, so only the tensor dga has
    # brackets above arity 1 (transferred to arity 5)
    inputs = [(random_cdga(seed).ainf(), 4) for seed in (0, 2, 7)] + [(_odd_tensor_dga(), 5)]
    for alg, arity in inputs:
        diagram = cohomology_splitting(alg.space, alg.products.get(1))
        res = transfer_ainf(diagram, alg, arity)
        assert morphism_check(res.phi, 4).ok
        assert morphism_check(res.psi, 4).ok
        src_l = antisymmetrize(alg)
        tgt_l = antisymmetrize(res.algebra)
        for lalg, at in ((src_l, 4), (tgt_l, arity)):
            rep = jacobi_check(lalg, at)
            assert rep.ok, rep.first().describe()
        phi_l = antisymmetrize_morphism(res.phi, src_l, tgt_l)
        psi_l = antisymmetrize_morphism(res.psi, tgt_l, src_l)
        rep_phi = morphism_check(phi_l, 4)
        rep_psi = morphism_check(psi_l, 4)
        assert rep_phi.ok, rep_phi.first().describe()
        assert rep_psi.ok, rep_psi.first().describe()
    assert 2 in src_l.brackets and 3 in tgt_l.brackets  # the tensor dga's survive


def test_pair_weak_equivalence_flag():
    # (f (+) g)_1 is a quasi-isomorphism iff f_1 and g_1 are
    alg = heisenberg_cdga()
    diagram = cohomology_splitting(alg.space, alg.differential_map())
    small_diag = cohomology_splitting(diagram.small, None)
    assert is_quasi_isomorphism(diagram.g, small_diag, diagram)
    res = transfer_ainf(diagram, alg.ainf(), 2)
    # psi_1 = g is one; the zero map between the same complexes is not
    zero = MultiMap(diagram.small, alg.space, 1, 0)
    assert not is_quasi_isomorphism(zero, small_diag, diagram)


def test_jump_ideal_monotone_in_k():
    # larger minors lie in the ideal of smaller ones (Laplace), so the jump
    # ideals grow with k: J^i_k is inside J^i_{k+1}, matching the shrinking
    # membership chain Def^i_0 >= Def^i_1 >= ...
    pair = adjoint_pair(solvable_dgla())
    R = parse_ring("Q[e]/(e^3)")
    e = R.gen(0)
    omega = {"f": e}
    for i in (0, 1):
        ideals = {}
        dim_i = pair.module.space.dim(i)
        for k in range(0, dim_i + 2):
            ideals[k] = jump_ideal_pair(pair, R, omega, i, k)
        for k in range(0, dim_i + 1):
            smaller, larger = ideals[k], ideals[k + 1]
            for g in smaller.generators:
                assert larger.contains(g) is True, (i, k)


def test_jump_ideal_functorial_under_ring_quotients():
    # J^i_k((M (x) A, d_w) (x)_A A') = J^i_k(M (x) A, d_w) . A'
    pair = adjoint_pair(solvable_dgla())
    R3 = parse_ring("Q[e]/(e^3)")
    R2 = parse_ring("Q[e]/(e^2)")
    rng = random.Random(5)
    done = 0
    for _ in range(10):
        omega3 = sample_mc(pair.algebra, R3, rng)
        if omega3 is None:
            continue
        omega2 = {lab: reduce_to_order(v, R2) for lab, v in omega3.items()}
        omega2 = {lab: v for lab, v in omega2.items() if v}
        for i in (0, 1):
            for k in range(0, pair.module.space.dim(i) + 2):
                I3 = jump_ideal_pair(pair, R3, omega3, i, k)
                I2 = jump_ideal_pair(pair, R2, omega2, i, k)
                pushed = Ideal.from_list(
                    R2, [reduce_to_order(g, R2) for g in I3.generators])
                assert I2.mutually_contains(pushed) is True, (i, k)
        done += 1
    assert done >= 3


def test_fixture_generation_deterministic():
    a = generate_fixture(FixtureDescriptor("random", seed=7, dims=(1, 3, 3, 1)))
    b = generate_fixture(FixtureDescriptor("random", seed=7, dims=(1, 3, 3, 1)))
    assert dumps(package_to_json(a)) == dumps(package_to_json(b))
    c = generate_fixture(FixtureDescriptor("random", seed=8))
    assert dumps(package_to_json(a)) != dumps(package_to_json(c))


def test_twisted_module_matches_pair_twist_route():
    # the extracted d_w is the restriction of the twisted L (+) M differential
    pair = cdga_pair(heisenberg_cdga())
    R = parse_ring("Q[e]/(e^2)")
    e = R.gen(0)
    omega = {"a.x": e, "a.y": -e}
    from hse.deformation import twist_brackets
    from hse.structures import pair_to_algebra

    combined = pair_to_algebra(pair)
    twisted_combined = twist_brackets(combined.brackets, combined.space, R, dict(omega))
    _, complex_ = twist_module(pair, R, omega)
    j1 = twisted_combined.get(1)
    for i in complex_.space.degrees():
        mat = complex_.matrix(i)
        for cj, col in enumerate(mat.cols):
            expect = j1.get((col,)) if j1 is not None else {}
            expect = {lab: v for lab, v in expect.items() if lab in mat.rows}
            got = {mat.rows[r]: mat.data[r][cj] for r in range(len(mat.rows))
                   if mat.data[r][cj]}
            assert got == {k: v for k, v in expect.items() if v}
