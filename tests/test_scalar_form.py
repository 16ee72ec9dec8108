"""The scalar form of stored coefficients: an int when integral, else a
Fraction with denominator > 1.

Differential: the transfers run once as they are and once with
``scalars.canonical`` made the identity wherever it is imported, so the
tables keep whatever the arithmetic produced (integral Fractions included).
Both runs must give equal tables and byte-identical reports.  Invariant: on
the normal path no stored coefficient is a float, a bool or an integral
Fraction.  The same two tests cover the terms of ring elements (``rings``):
the invariant after every operation that makes one, on the golden
Maurer-Cartan elements, and the differential with ``canonical`` made the
identity inside ``rings`` for the twisting, jump-ideal and resonance reports.
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hse import linalg, rings, scalars
from hse.cli import main
from hse.deformation import twist_module
from hse.fixtures import Cdga, cdga_pair, random_cdga
from hse.io_json import dumps, mc_from_json, multimap_to_json, package_to_json, parse_structure
from hse.rings import RingMatrix, minors, parse_element, parse_ring
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


# ---------------------------------------------------------------------------
# ring elements

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
MC_CASES = [(pair, mc) for pair in ("heisenberg-pair", "heisenberg-pair-weighted")
            for mc in ("mc-e", "mc-m")]


def _scalar_form(*elems) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for e in elems for c in e.terms.values())


def _golden_twist(pair_name: str, mc_name: str):
    pair = parse_structure(json.loads((ROOT / "fixtures" / f"{pair_name}.json").read_text()))
    ring, omega = mc_from_json(json.loads((GOLDEN / f"{mc_name}.json").read_text()))
    return pair, ring, omega


def _minimal_twist():
    """The minimal Heisenberg pair (an arity-3 action, so w^2 / 2 enters)
    and omega over Q[x1,x2]/(m^4) with even coefficients, where 1/2 gives
    integral Fractions before normalization."""
    source = parse_structure(json.loads((ROOT / "fixtures" / "heisenberg-pair.json").read_text()))
    pair = transfer_pair(source, MAX_ARITY).pair
    ring = parse_ring("Q[x1,x2]/(m^4)")
    omega = {"a.h1_0": parse_element(ring, "2*x1 + 2*x1*x2"),
             "a.h1_1": parse_element(ring, "2*x2 - x1^2 + 1/3*x2^2")}
    return pair, ring, omega


TWISTS = [pytest.param(lambda p=p, m=m: _golden_twist(p, m), id=f"{p}-{m}") for p, m in MC_CASES]
TWISTS += [pytest.param(_minimal_twist, id="minimal-heisenberg-pair-m4")]


def _unit_triangular(ring, labels, upper: bool) -> RingMatrix:
    """1 on the diagonal, 1/2 and -3 alternately on one side of it."""
    mat = RingMatrix(ring, labels, labels)
    for r in range(len(labels)):
        for c in range(len(labels)):
            if r == c:
                mat.set(r, c, ring.one)
            elif (r < c) == upper:
                mat.set(r, c, ring.one * (Fraction(1, 2) if (r + c) % 2 else -3))
    return mat


def test_ring_arithmetic_keeps_the_scalar_form():
    R = parse_ring("Q[x1,x2]/(m^3)")
    x1, x2 = R.gens()
    made = [R.element({(1, 0): Fraction(4, 2), (0, 1): True, (1, 1): 0.5}),
            R.element(Fraction(6, 3)), R.element(True), R.one,
            parse_element(R, "4/2*x1 + 1/2*x2 - 2/4*x2 + 3/6*x1^2"),
            parse_element(R, "1/3*x1 + 2/3*x1")]
    half = x1 * Fraction(1, 2)
    made += [half + half, half - half, (half + x2) * (half - x2), half * 2, half * True,
             (x1 + x2) * Fraction(3, 3), -half, half ** 2]
    assert _scalar_form(*made)
    assert made[0].terms == {(1, 0): 2, (0, 1): 1, (1, 1): Fraction(1, 2)}
    assert made[4].terms == {(1, 0): 2, (2, 0): Fraction(1, 2)}
    assert made[5].terms == {(1, 0): 1} and (half + half).terms == {(1, 0): 1}

    # the packed form: an int where scale divides the coefficient, a
    # Fraction otherwise, within one element
    packing = R.packing(2)
    poly = {packing.pack((1, 0)): 4, packing.pack((0, 1)): 3}
    for scale in (1, 2, 4):
        elem = packing.element(R, poly, scale)
        assert _scalar_form(elem)
        assert elem == x1 * Fraction(4, scale) + x2 * Fraction(3, scale)


@pytest.mark.parametrize("make", TWISTS)
def test_twisting_and_minors_keep_the_scalar_form(make):
    pair, ring, omega = make()
    assert _scalar_form(*omega.values())
    tables, complex_ = twist_module(pair, ring, omega)
    assert _scalar_form(*(c for mm in tables.values() for _, row in mm.entries()
                          for c in row.values()))
    assert _scalar_form(*(e for mat in complex_.matrices.values() for row in mat.data
                          for e in row))
    dims = pair.module.space.dims()
    for i in sorted(dims):
        for k in range(1, dims[i] + 1):
            ideal = complex_.jump_ideal(i, k)  # rings.block_minors of d^{i-1}, d^i
            block = rings.block_diag(complex_.matrix(i - 1), complex_.matrix(i))
            moved = (_unit_triangular(ring, block.rows, True).compose(block)
                     .compose(_unit_triangular(ring, block.cols, False)))
            moved_ideal = minors(moved, dims[i] - k + 1)
            assert _scalar_form(*(e for row in moved.data for e in row))
            assert ideal.mutually_contains(moved_ideal) is True
            assert _scalar_form(*ideal.generators, *moved_ideal.generators)


def _identity_canonical_in_rings(monkeypatch) -> None:
    monkeypatch.setattr(rings, "canonical", lambda c: c)
    assert type(rings.parse_ring("Q").element(Fraction(4, 2)).terms[()]) is Fraction


def _twist_and_ideals(make):
    """The twisted differentials' entries and every jump ideal."""
    pair, ring, omega = make()
    _, complex_ = twist_module(pair, ring, omega)
    dims = pair.module.space.dims()
    entries = [e for mat in complex_.matrices.values() for row in mat.data for e in row]
    return entries, [complex_.jump_ideal(i, k) for i in sorted(dims)
                     for k in range(1, dims[i] + 1)]


@pytest.mark.parametrize("make", TWISTS)
def test_ring_scalar_form_matches_the_unnormalized_ideals(make, monkeypatch):
    entries, ideals = _twist_and_ideals(make)
    with monkeypatch.context() as patch:
        _identity_canonical_in_rings(patch)
        raw_entries, raw = _twist_and_ideals(make)
    assert raw_entries == entries
    assert _scalar_form(*entries)
    assert len(raw) == len(ideals)
    for new, old in zip(ideals, raw):
        assert new.generators == old.generators and new.provenance == old.provenance
        assert new.mutually_contains(old) is True


def test_unnormalized_twist_keeps_integral_fractions(monkeypatch):
    """The differential above compares two forms: on the minimal pair the
    unnormalized entries hold integral Fractions, the normal ones ints."""
    with monkeypatch.context() as patch:
        _identity_canonical_in_rings(patch)
        raw_entries, _ = _twist_and_ideals(_minimal_twist)
    assert any(type(c) is Fraction and c.denominator == 1
               for e in raw_entries for c in e.terms.values())
    entries, _ = _twist_and_ideals(_minimal_twist)
    assert any(type(c) is int for e in entries for c in e.terms.values())


def _report(argv) -> str:
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # config_hash hashes argv, so the paths stay relative
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            main(argv)
    finally:
        os.chdir(cwd)
    return buf.getvalue()


REPORT_CASES = [case for case in json.loads((GOLDEN / "manifest.json").read_text())["cases"]
                if case["argv"][0] in ("jump-ideal", "twist", "resonance")]


@pytest.mark.parametrize("case", REPORT_CASES, ids=[case["name"] for case in REPORT_CASES])
def test_ring_scalar_form_leaves_the_reports_byte_identical(case, monkeypatch):
    report = _report(case["argv"])
    with monkeypatch.context() as patch:
        _identity_canonical_in_rings(patch)
        raw = _report(case["argv"])
    assert raw == report
