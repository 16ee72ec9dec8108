"""The suspension of the transferred structures, and the inputs that first
told the transfer's signs apart from the ones they replaced.

``transfer_reference.suspension_sign`` reads a map on A as one on sA: the
same keys, each entry times (-1)^(sum_i (n-i)|x_i|).  On sA an A-infinity
structure is one differential b of degree 1 with b o b = 0 under plain
Koszul signs on the shifted degrees, so a transferred structure that
squares to zero there has the signs of the suspension form.  The
regression families are inputs with nu_4 != 0, nonzero h or sources with
three or more operations: the dim-128 cdga, H_3 x H_3 in disguise and a
seeded sweep of 2-step nilpotent cdgas.  Each is certified on both routes,
the A-infinity one (Stasheff, phi, psi) and the L-infinity one (Jacobi of
the transferred L (+) M or L).  No checker certifies the homotopy H_n.
"""

import random
from itertools import product

import pytest

from hse.fixtures import Cdga, cdga_pair, heisenberg_cdga
from hse.grading import BasisElement, GradedSpace
from hse.multimap import MultiMap, evaluate_on_vectors, tensor_compose
from hse.structures import (
    AInfAlgebra,
    LInfAlgebra,
    jacobi_check,
    morphism_check,
    pair_to_algebra,
    stasheff_check,
)
from hse.transfer import cohomology_splitting, transfer_ainf, transfer_linf, transfer_pair
from test_structures import h3_times_h3
from transfer_reference import suspension_sign


def _minimal_model(alg: Cdga, max_arity: int):
    diag = cohomology_splitting(alg.space, alg.differential_map())
    return transfer_ainf(diag, alg.ainf(), max_arity)


def _across(maps: dict, base: GradedSpace, space: GradedSpace, shift, sign=suspension_sign):
    """Every map carried onto space with degree shift(k), each entry times
    sign of its inputs' degrees in base, the space on A."""
    out = {}
    for k, m in maps.items():
        out[k] = MultiMap(space, space, k, shift(k))
        for key, row in m.table.items():
            s = sign(tuple(base.deg(l) for l in key))
            for lab, c in row.items():
                out[k].add(key, lab, s * c)
    return out


def _shifted(space: GradedSpace) -> GradedSpace:
    return GradedSpace([BasisElement(e.label, e.deg - 1, e.weight) for e in space])


def _bar_square(b: dict, space: GradedSpace, max_arity: int) -> dict:
    """Sum of b_j(1^p x b_i x 1^(j-1-p)) per arity i + j - 1 <= max_arity,
    with the Koszul sign of b_i crossing the first p shifted inputs."""
    out = {}
    for i, b_i in b.items():
        for j, b_j in b.items():
            n = i + j - 1
            if n <= max_arity:
                acc = out.setdefault(n, MultiMap(space, space, n, 2))
                for p in range(j):
                    tensor_compose(b_j, [None] * p + [b_i] + [None] * (j - 1 - p), acc)
    return out


def _opposite(degrees):
    """(-1)^(sum_i (n-i)(|x_i| - 1)): the sign on shifted degrees instead."""
    return suspension_sign(tuple(d - 1 for d in degrees))


@pytest.mark.parametrize("build", [heisenberg_cdga, h3_times_h3], ids=["heisenberg", "h3xh3"])
def test_suspended_structures_square_to_zero(build):
    alg = build()
    for structure in (alg.ainf(), _minimal_model(alg, 5).algebra):
        space = _shifted(structure.space)
        b = _across(structure.products, structure.space, space, lambda k: 1)
        assert 2 in b
        assert all(m.is_zero() for m in _bar_square(b, space, 5).values())
        # suspension_sign applied twice is the identity
        back = _across(b, structure.space, structure.space, lambda k: 2 - k)
        for k, m in structure.products.items():
            assert list(back[k].table.items()) == list(m.table.items())


def test_the_opposite_sign_breaks_the_bar_differential():
    # the two signs differ by (-1)^(n(n-1)/2), which flips b_2 o b_4 and
    # b_4 o b_2 against b_3 o b_3 at arity 5: only a structure with nu_4 != 0
    # (H_3 x H_3, not Heisenberg) tells them apart
    minimal = _minimal_model(h3_times_h3(), 5).algebra
    assert 4 in minimal.products
    space = _shifted(minimal.space)
    b = _across(minimal.products, minimal.space, space, lambda k: 1, _opposite)
    square = _bar_square(b, space, 5)
    assert all(square[n].is_zero() for n in (3, 4))
    assert not square[5].is_zero()


# ---------------------------------------------------------------------------
# regression families

def dim128_cdga() -> Cdga:
    """Lambda(x1, y1, x2, y2, z1, z2, z3), dz1 = x1y1, dz2 = x2y2, dz3 = x1y2."""
    gens = [("x1", 1, 1), ("y1", 1, 1), ("x2", 1, 1), ("y2", 1, 1),
            ("z1", 1, 2), ("z2", 1, 2), ("z3", 1, 2)]
    return Cdga(gens, 7, {"z1": [(1, (0, 1))], "z2": [(1, (2, 3))], "z3": [(1, (0, 3))]})


def two_step_cdga(seed: int) -> Cdga:
    """The Chevalley-Eilenberg cdga of a random 2-step nilpotent Lie algebra:
    Lambda(x_1..x_a, z_1..z_b) of dimension 16 or 32, each dz_j one or two
    terms c x_i x_k, weights 1 and 2.  (H_3 x H_3, of dimension 64, is
    certified at arity 6 in test_transfer and through the CLI.)"""
    rng = random.Random(seed)
    a = rng.choice((3, 4))
    b = rng.randint(1, 5 - a)
    gens = [(f"x{i}", 1, 1) for i in range(a)] + [(f"z{j}", 1, 2) for j in range(b)]
    pairs = [(i, k) for i in range(a) for k in range(i + 1, a)]
    d = {f"z{j}": [(rng.choice((1, -1, 2)), t) for t in rng.sample(pairs, rng.randint(1, 2))]
         for j in range(b)}
    return Cdga(gens, a + b, d)


def _certify_ainf(source: AInfAlgebra, max_arity: int):
    diag = cohomology_splitting(source.space, source.products.get(1))
    res = transfer_ainf(diag, source, max_arity)
    reports = [stasheff_check(res.algebra, max_arity)]
    reports += [morphism_check(mor, max_arity) for mor in (res.phi, res.psi)]
    for report in reports:
        assert report.ok, (report.name, report.first().describe())
    return res


def _certify_both_routes(alg: Cdga, max_arity: int) -> None:
    _certify_ainf(alg.ainf(), max_arity)
    # transfer_pair raises unless one Jacobi pass of L (+) M (Jacobi and module) holds
    assert transfer_pair(cdga_pair(alg), max_arity).certificate.ok


def test_dim128_cdga_passes_both_routes_at_arity_five():
    alg = dim128_cdga()
    assert len(alg.space) == 128
    _certify_both_routes(alg, 5)


@pytest.mark.parametrize("seed", range(6))
def test_two_step_nilpotent_sweep_passes_both_routes_at_arity_five(seed):
    alg = two_step_cdga(seed)
    assert len(alg.space) <= 32
    _certify_both_routes(alg, 5)


def sorted_in(space: GradedSpace):
    index = space.order_index
    return lambda T: tuple(sorted(T, key=index))


def _transported(mm: MultiMap, space: GradedSpace, N: dict) -> MultiMap:
    """L mm (L^-1)^(x n) for L = id + N, N a label map with N o N = 0, so
    L^-1 = id - N; the inputs are those whose L^-1 reaches a stored key."""
    reach = {lab: [lab] for lab in space.labels()}
    for x, y in N.items():
        reach[y].append(x)
    canon = sorted_in(space) if mm.symmetry == "antisym" else tuple
    inputs = {canon(xs) for key in mm.table for xs in product(*(reach[y] for y in key))}
    out = MultiMap(space, space, mm.arity, mm.shift, mm.symmetry)
    for xs in sorted(inputs, key=lambda T: [space.order_index(l) for l in T]):
        vectors = [{x: 1, N[x]: -1} if x in N else {x: 1} for x in xs]
        for lab, c in evaluate_on_vectors(mm, vectors).items():
            out.add(xs, lab, c)
            if lab in N:
                out.add(xs, N[lab], c)
    return out


def _disguised(space: GradedSpace, maps: dict, symmetry: str):
    """The structure (+) K, K = <u, v> with du = v, transported by L = id + N
    with N(u) = b1 and N(b2) = v (b1, b2 the first basis labels of degrees 1
    and 2): an isomorphic source whose h is nonzero and whose operations mix
    K with the rest.  Weights are dropped."""
    b1 = next(e.label for e in space if e.deg == 1)
    b2 = next(e.label for e in space if e.deg == 2)
    big = GradedSpace([BasisElement(e.label, e.deg) for e in space]
                      + [BasisElement("u", 1), BasisElement("v", 2)])
    d = MultiMap(big, big, 1, 1, symmetry)
    d.add(("u",), "v", 1)
    out = {1: d}
    for k, m in maps.items():
        if k >= 2:
            mm = MultiMap(big, big, k, 2 - k, symmetry)
            for key, row in m.table.items():
                for lab, c in row.items():
                    mm.add(key, lab, c)
            out[k] = _transported(mm, big, {"u": b1, b2: "v"})
    return big, out


def disguised_h3_times_h3_ainf() -> AInfAlgebra:
    """The minimal model of H_3 x H_3 to arity 5 in disguise: nu_1 to nu_4, h != 0."""
    minimal = _minimal_model(h3_times_h3(), 5).algebra
    return AInfAlgebra(*_disguised(minimal.space, minimal.products, "none"))


def test_disguised_h3_times_h3_passes_the_ainf_route_at_arity_five():
    source = disguised_h3_times_h3_ainf()
    assert {3, 4} <= set(source.products) and stasheff_check(source, 5).ok
    res = _certify_ainf(source, 5)
    assert not res.diagram.h.is_zero()
    assert 5 in res.phi.components and 5 in res.homotopy


def disguised_h3_times_h3_linf() -> LInfAlgebra:
    """The transferred L (+) M of H_3 x H_3 in disguise: l_1 to l_4, h != 0."""
    combined = pair_to_algebra(transfer_pair(cdga_pair(h3_times_h3()), 5).pair)
    return LInfAlgebra(*_disguised(combined.space, combined.brackets, "antisym"))


def test_disguised_h3_times_h3_passes_the_linf_route_at_arity_five():
    source = disguised_h3_times_h3_linf()
    assert {3, 4} <= set(source.brackets) and jacobi_check(source, 5).ok
    diag = cohomology_splitting(source.space, source.brackets[1])
    assert not diag.h.is_zero()
    # transfer_linf raises unless the transferred brackets pass Jacobi
    assert transfer_linf(diag, source, 5).certificate.ok
