"""The scalar form of stored coefficients: an int when integral, else a
Fraction with denominator > 1.

Differential: the transfers run once as they are and once with
``scalars.canonical`` made the identity wherever it is imported, so the
tables keep whatever the arithmetic produced (integral Fractions included).
Both runs must give equal tables and byte-identical reports.  Invariant: on
the normal path no stored coefficient is a float, a bool or an integral
Fraction.
"""

import sys
from fractions import Fraction

import pytest

from hse import linalg, scalars
from hse.fixtures import Cdga, cdga_pair, random_cdga
from hse.io_json import dumps, multimap_to_json, package_to_json
from hse.structures import morphism_check, module_check, pair_to_algebra, stasheff_check
from hse.transfer import cohomology_splitting, transfer_ainf, transfer_pair

MAX_ARITY = 5


def heisenberg_circle(c: int) -> Cdga:
    """Lambda(x, y, z, w) with dz = c*xy: the homotopy h carries 1/c."""
    gens = [("x", 1, None), ("y", 1, None), ("z", 1, None), ("w", 1, None)]
    return Cdga(gens, 4, {"z": [(c, (0, 1))]})


def two_primitives() -> Cdga:
    """Lambda(x, y, z1, z2) with dz1 = 2xy and dz2 = 3xy (Heisenberg x circle
    in another basis): a row of d with two int entries, so the splitting's
    kernel holds -3/2, which dividing by an int entry would make a float."""
    gens = [("x", 1, None), ("y", 1, None), ("z1", 1, None), ("z2", 1, None)]
    return Cdga(gens, 4, {"z1": [(2, (0, 1))], "z2": [(3, (0, 1))]})


INPUTS = [pytest.param(lambda s=s: random_cdga(s, dims=(1, 3, 3, 1)), id=f"random-{s}")
          for s in range(6)]
INPUTS += [pytest.param(lambda c=c: heisenberg_circle(c), id=f"heisenberg-circle-{c}")
           for c in (1, -2, 3)]
INPUTS += [pytest.param(two_primitives, id="two-primitives")]


def _maps(prefix: str, comps: dict) -> dict:
    return {f"{prefix}{n}": mm for n, mm in sorted(comps.items())}


def transfer_everything(alg: Cdga) -> tuple[dict, str]:
    """Every map of the A-infinity and pair transfers to MAX_ARITY, and one
    report of their structures and certificates."""
    ainf = alg.ainf()
    diagram = cohomology_splitting(ainf.space, ainf.products.get(1))
    res = transfer_ainf(diagram, ainf, MAX_ARITY)
    pair = transfer_pair(cdga_pair(alg), MAX_ARITY)
    maps = {"f": diagram.f, "g": diagram.g, "h": diagram.h,
            **_maps("nu", res.algebra.products), **_maps("phi", res.phi.components),
            **_maps("psi", res.psi.components), **_maps("H", res.homotopy),
            **_maps("l", pair.pair.algebra.brackets), **_maps("m", pair.pair.module.actions),
            **_maps("combined", pair_to_algebra(pair.pair).brackets)}
    report = dumps({
        "checks": [stasheff_check(res.algebra, MAX_ARITY).to_json(),
                   morphism_check(res.phi, MAX_ARITY).to_json(),
                   morphism_check(res.psi, MAX_ARITY).to_json(),
                   pair.certificate.to_json(),
                   module_check(pair.pair.module, MAX_ARITY).to_json()],
        "ainf": package_to_json(res.algebra),
        "pair": package_to_json(pair.pair),
        "maps": {name: multimap_to_json(mm) for name, mm in maps.items()},
    })
    return maps, report


def _identity_canonical(monkeypatch) -> None:
    canonical = scalars.canonical
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hse" and getattr(module, "canonical", None) is canonical:
            monkeypatch.setattr(module, "canonical", lambda c: c)


def _stored(maps: dict):
    for name, mm in maps.items():
        for key, row in mm.entries():
            for lab, c in row.items():
                yield name, key, lab, c


@pytest.mark.parametrize("make", INPUTS)
def test_canonical_form_matches_the_unnormalized_tables(make, monkeypatch):
    maps, report = transfer_everything(make())
    with monkeypatch.context() as patch:
        _identity_canonical(patch)
        assert type(scalars.parse_scalar("4/2")) is Fraction  # the patch took
        raw_maps, raw_report = transfer_everything(make())
    assert raw_maps.keys() == maps.keys()
    for name, mm in maps.items():
        raw = raw_maps[name]
        assert raw.table.keys() == mm.table.keys(), name
        for key, row in mm.table.items():
            assert raw.table[key] == row, (name, key)
    assert raw_report == report
    assert '"ok": false' not in report


@pytest.mark.parametrize("make", INPUTS)
def test_stored_coefficients_are_ints_or_proper_fractions(make):
    maps, _ = transfer_everything(make())
    for name, key, lab, c in _stored(maps):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), (name, key, lab, c)


def test_sweep_stores_both_forms():
    """h of dz = c*xy carries 1/c, so c = 3 puts proper fractions into the
    tables; the structure constants of the product stay integral."""
    maps, _ = transfer_everything(heisenberg_circle(3))
    kinds = {type(c) for _, _, _, c in _stored(maps)}
    assert kinds == {int, Fraction}


def test_canonical():
    assert scalars.canonical(Fraction(6, 3)) == 2 and type(scalars.canonical(Fraction(6, 3))) is int
    half = Fraction(1, 2)
    assert scalars.canonical(half) is half
    assert scalars.canonical(-7) == -7
    assert type(scalars.parse_scalar(" -4/2 ")) is int and scalars.parse_scalar("3/6") == half


def _exact(values) -> bool:
    return all(type(x) in (int, Fraction) for x in values)


def test_linalg_on_int_input_stays_exact():
    span = linalg.Echelon([{0: 2, 1: 4}, {1: 3, 2: 1}])
    assert span.rows == {0: {0: 1, 2: Fraction(-2, 3)}, 1: {1: 1, 2: Fraction(1, 3)}}
    assert all(_exact(row.values()) for row in span.rows.values())
    assert span.spans({0: 2, 1: 7, 2: 1}) and not span.spans({2: 1})

    mat = [[2, 0, 1], [0, 3, 1]]
    basis = linalg.kernel_basis(mat)
    assert basis == [[Fraction(-1, 2), Fraction(-1, 3), 1]]
    assert _exact(basis[0])

    # pivots 1 and -1 leave int rows as ints; after a division by the pivot
    # 2, an integral entry of a reduction goes back to an int
    span = linalg.Echelon([{0: 1, 1: 2}, {0: 1, 1: 1, 2: 5}])
    assert span.rows == {0: {0: 1, 2: 10}, 1: {1: 1, 2: -5}}
    assert all(type(c) is int for row in span.rows.values() for c in row.values())
    span.add({2: 2, 3: 1})
    assert span.rows == {0: {0: 1, 3: -5}, 1: {1: 1, 3: Fraction(5, 2)},
                         2: {2: 1, 3: Fraction(1, 2)}}
    assert type(span.rows[0][3]) is int and type(span.rows[2][2]) is int

    x = linalg.solve([[1, 1], [1, -1]], [4, 2])
    assert x == [3, 1] and all(type(c) is int for c in x)
    assert linalg.solve([[2, 0], [0, 3]], [1, 1]) == [Fraction(1, 2), Fraction(1, 3)]
