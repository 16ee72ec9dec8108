"""``fixtures.Cdga`` and ``signs`` read the sign of a graded sort off its
inverted pairs.  Each must equal the bubble sort it replaced
(tests/sort_sign_reference.py): the product and differential tables of a
cdga key by key and in insertion order, and the Koszul sign and the
signature on every permutation of up to five entries."""

from itertools import permutations, product

import pytest

import sort_sign_reference as ref
from hse.fixtures import Cdga, exterior_cdga, heisenberg_cdga, random_cdga
from hse.signs import antisym_sign, koszul_sign, perm_sign
from hse.structures import StructureError
from test_linalg import _heisenberg


# even generators, generators of degree 3, and differentials whose terms are
# powers of an even generator or, in the last, products not in sorted order
GRADED = {
    "u2": lambda: Cdga([("u", 2, None)], 6),
    "a1u2b3": lambda: Cdga([("a", 1, None), ("u", 2, None), ("b", 3, None)], 7,
                           {"b": [(2, (1, 1))]}),
    "u2x1v5": lambda: Cdga([("u", 2, None), ("x", 1, None), ("v", 5, None)], 9,
                           {"v": [(1, (0, 0, 0))]}),
    "xyzt-w3": lambda: Cdga([(g, 1, None) for g in "xyzt"] + [("w", 3, None)], 7,
                            {"w": [(1, (0, 1, 2, 3))]}),
    "x1u2y1z1w3": lambda: Cdga([("x", 1, None), ("u", 2, None), ("y", 1, None),
                                ("z", 1, None), ("w", 3, None)], 8,
                               {"u": [(1, (3, 2, 0))], "w": [(3, (2, 1, 0))]}),
}

CDGAS = {
    **{f"exterior{n}": (lambda n=n: exterior_cdga(n)) for n in range(6)},
    "heisenberg-weighted": lambda: heisenberg_cdga(weights=True),
    "H_5": lambda: _heisenberg(2),
    "H_7": lambda: _heisenberg(3),
    **{f"random-{s}": (lambda s=s: random_cdga(s)) for s in range(40)},
    **{f"random-1331-{s}": (lambda s=s: random_cdga(s, dims=(1, 3, 3, 1))) for s in range(10)},
    **GRADED,
}


def _ordered(mm):
    return [(key, list(row.items())) for key, row in mm.table.items()]


@pytest.mark.parametrize("name", CDGAS)
def test_cdga_tables_match_the_bubble_sort(name):
    alg = CDGAS[name]()
    assert _ordered(alg.product_map()) == _ordered(ref.product_map(alg))
    assert _ordered(alg.differential_map()) == _ordered(ref.differential_map(alg))


@pytest.mark.parametrize("name", GRADED)
def test_even_and_degree_3_generators_give_a_dga(name):
    # d^2 = 0 and the Leibniz rule on every pair of monomials, by the tables
    alg = CDGAS[name]()
    d, mu = alg.differential_map(), alg.product_map()
    labels = alg.space.labels()
    deg = {e.label: e.deg for e in alg.space.elements}
    for a in labels:
        dd = {}
        for mid, c in d.get((a,)).items():
            for out, c2 in d.get((mid,)).items():
                dd[out] = dd.get(out, 0) + c * c2
        assert not any(dd.values()), a
        for b in labels:
            lhs, rhs = {}, {}
            for mid, c in mu.get((a, b)).items():
                for out, c2 in d.get((mid,)).items():
                    lhs[out] = lhs.get(out, 0) + c * c2
            for da, c in d.get((a,)).items():
                for out, c2 in mu.get((da, b)).items():
                    rhs[out] = rhs.get(out, 0) + c * c2
            for db, c in d.get((b,)).items():
                for out, c2 in mu.get((a, db)).items():
                    rhs[out] = rhs.get(out, 0) + (-1) ** deg[a] * c * c2
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


@pytest.mark.parametrize("differentials, message", [
    ({"z": [(1, (0,))]}, "dz has the term x of degree 1, not 2"),
    ({"z": [(1, (0, 1)), (1, ())]}, "dz has the term 1 of degree 0, not 2"),
    ({"q": [(1, (0, 1))]}, "unknown generator 'q'"),
])
def test_a_differential_term_of_the_wrong_degree_raises(differentials, message):
    gens = [("x", 1, None), ("y", 1, None), ("z", 1, None)]
    with pytest.raises(StructureError, match=message):
        Cdga(gens, 3, differentials)


@pytest.mark.parametrize("n", range(6))
def test_koszul_sign_matches_the_bubble_sort(n):
    for parities in product((0, 1), repeat=n):
        # the parities as given, and as negative and larger degrees
        for degrees in (parities, tuple(p + 2 * i - 3 for i, p in enumerate(parities))):
            for sigma in permutations(range(n)):
                assert koszul_sign(sigma, degrees) == ref.koszul_core(sigma, degrees)
                assert antisym_sign(sigma, degrees) == ref.koszul_core(sigma, degrees, True)
    for sigma in permutations(range(n)):
        assert perm_sign(sigma) == ref.koszul_core(sigma, (0,) * n, True)
