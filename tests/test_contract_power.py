"""Differential tests for the symmetric-power kernel ``multimap.contract_power``.

The references below are the sorted-tuple and label-tuple scans that every
sum_i (1/i!) m(w^i, -) in ``resonance`` and ``deformation`` used before the
sums walked stored keys: each contracts the map against i copies of w and
one basis vector per tail slot.  The stored-key versions must agree with
them on rational points (the rank oracle), over polynomial rings (the
universal complex) and over Artinian rings (MC residuals, twisted tables
and twisted differentials).  The fraction-free rank and the zero-exponent
skip in ``RElem.evaluate`` are checked against their old formulas here too.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hse import deformation, linalg, multimap, resonance
from hse.deformation import (
    DeformationError,
    HomotopyWitness,
    TPoly,
    _omega_power_bound,
    _witness_terms,
    construct_gauge_witness,
    mc_residual,
    twist_brackets,
    twist_module,
)
from hse.fixtures import (
    Cdga,
    adjoint_pair,
    affine_plane_dgla,
    cdga_pair,
    exterior_cdga,
    random_cdga,
    solvable_dgla,
)
from hse.grading import BasisElement, GradedSpace
from hse.io_json import parse_structure
from hse.multimap import MultiMap, contract_power, evaluate_on_vectors
from hse.resonance import (
    binary_resonance_ideal,
    pointwise_twisted_matrices,
    sample_points,
    universal_complex,
)
from hse.rings import CoefRing, RElem, parse_ring
from hse.structures import LInfAlgebra, LInfPair
from hse.scalars import factorial_inverse
from hse.transfer import transfer_pair
from linalg_reference import rref
from test_structures import iter_sorted_tuples

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ---------------------------------------------------------------------------
# references: the label-tuple scans the stored-key sums replaced

def _ref_add(acc, res, inv, zero):
    for lab, v in res.items():
        total = acc.get(lab, zero) + v * inv
        if total:
            acc[lab] = total
        else:
            acc.pop(lab, None)


def ref_pointwise_twisted_matrices(pair, point):
    space = pair.module.space
    arity_cap = max(pair.module.actions, default=1)
    out = {}
    avec = {lab: c for lab, c in point.items() if c}
    for i in space.degrees():
        rows = [e.label for e in space.basis_of_degree(i + 1)]
        cols = [e.label for e in space.basis_of_degree(i)]
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for cj, xi_label in enumerate(cols):
            acc = {}
            for arity in range(2, arity_cap + 1):
                m_map = pair.module.actions.get(arity)
                if m_map is None:
                    continue
                n = arity - 1
                res = evaluate_on_vectors(m_map, [avec] * n + [{xi_label: Fraction(1)}])
                inv = factorial_inverse(n)
                for lab, v in res.items():
                    acc[lab] = acc.get(lab, Fraction(0)) + v * inv
            for lab, v in acc.items():
                if v:
                    mat[rows.index(lab)][cj] = v
        out[i] = mat
    return out


def ref_universal_entries(pair, ring, arity_cap):
    """{(column, row): entry} of the universal differential, column by column."""
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    w_univ = dict(zip(h1, ring.gens()))
    out = {}
    for xi in pair.module.space.elements:
        acc = {}
        for arity in range(2, arity_cap + 1):
            m_map = pair.module.actions.get(arity)
            if m_map is None:
                continue
            n = arity - 1
            _ref_add(acc, evaluate_on_vectors(m_map, [w_univ] * n + [{xi.label: 1}]),
                     factorial_inverse(n), ring.zero)
        for lab, val in acc.items():
            if val:
                out[xi.label, lab] = val
    return out


def ref_mc_residual(alg, ring, omega):
    acc = {}
    for n in range(1, _omega_power_bound(ring, alg.max_arity()) + 1):
        ln = alg.brackets.get(n)
        if ln is not None:
            _ref_add(acc, evaluate_on_vectors(ln, [omega] * n), factorial_inverse(n), ring.zero)
    return acc


def _ref_tail_sum(maps, ring, omega, T, i_max, n):
    acc = {}
    for i in range(0, i_max + 1):
        m_map = maps.get(i + n)
        if m_map is not None:
            vecs = [omega] * i + [{t: ring.one} for t in T]
            _ref_add(acc, evaluate_on_vectors(m_map, vecs), factorial_inverse(i), ring.zero)
    return acc


def ref_twist_brackets(brackets, space, ring, omega):
    max_arity = max(brackets, default=0)
    out = {}
    for n in range(1, max_arity + 1):
        table = MultiMap(space, space, n, 2 - n, "antisym")
        sums = {d - (2 - n) for d in space.degrees()}
        i_max = _omega_power_bound(ring, max_arity - n)
        for T in iter_sorted_tuples(space, n, sums):
            for lab, v in _ref_tail_sum(brackets, ring, omega, T, i_max, n).items():
                table.add(T, lab, v)
        if not table.is_zero():
            out[n] = table
    return out


def ref_twist_module_tables(pair, ring, omega):
    module = pair.module
    max_arity = max(module.actions, default=0)
    mod_degs = set(module.space.degrees())
    out = {}
    for n in range(1, max_arity + 1):
        symmetry = "antisym_algebra" if n > 1 else "none"
        table = MultiMap(module.combined, module.space, n, 2 - n, symmetry)
        i_max = _omega_power_bound(ring, max_arity - n)
        for xi in module.space.elements:
            if n == 1:
                heads = [()]
            else:
                sums = {d - (2 - n) - xi.deg for d in mod_degs}
                heads = list(iter_sorted_tuples(pair.algebra.space, n - 1, sums))
            for Ta in heads:
                T = Ta + (xi.label,)
                for lab, v in _ref_tail_sum(module.actions, ring, omega, T, i_max, n).items():
                    table.add(T, lab, v)
        if not table.is_zero():
            out[n] = table
    return out


def ref_witness_terms(alg, ring, witness):
    """Both components of sum (1/n!) l_n(z, ..., z) in L (x) m[t,dt], the
    dt-component summed slot by slot: a dt factor in slot i crosses the odd
    degree-1 elements in slots i+1..n, contributing (-1)^(n-i)."""
    tz, dz = witness.t_part, witness.dt_part
    even, odd = {}, {}
    for n in range(1, _omega_power_bound(ring, alg.max_arity()) + 1):
        ln = alg.brackets.get(n)
        if ln is None:
            continue
        _ref_add(even, evaluate_on_vectors(ln, [tz] * n), factorial_inverse(n), TPoly(ring))
        for i in range(1, n + 1):
            res = evaluate_on_vectors(ln, [tz] * (i - 1) + [dz] + [tz] * (n - i))
            sign = -1 if (n - i) % 2 else 1
            _ref_add(odd, res, factorial_inverse(n) * sign, TPoly(ring))
    return even, odd


def ref_twisted_columns(module, ring, omega):
    n_max = _omega_power_bound(ring, max(module.actions, default=0) - 1)
    return {xi.label: _ref_tail_sum(module.actions, ring, omega, (xi.label,), n_max, 1)
            for xi in module.space.elements}


# ---------------------------------------------------------------------------
# inputs

def _golden(name):
    return parse_structure(json.loads((FIXTURES / name).read_text(encoding="utf-8")))


def _heisenberg_circle():
    return Cdga([("x", 1, 1), ("y", 1, 1), ("z", 1, 2), ("w", 1, 1)], 4,
                {"z": [(Fraction(1), (0, 1))]})


def _weighted_h3(c):
    return Cdga([("x", 1, 1), ("y", 1, 1), ("z", 1, 2)], 3, {"z": [(Fraction(c), (0, 1))]})


_SOURCES = {
    "heisenberg-pair": lambda: (_golden("heisenberg-pair.json"), 5, False),
    "heisenberg-pair-weighted": lambda: (_golden("heisenberg-pair-weighted.json"), 5, True),
    "h3-arity9": lambda: (cdga_pair(_weighted_h3(1)), 9, True),
    "h3-arity9-c-2": lambda: (cdga_pair(_weighted_h3(-2)), 9, True),
    "exterior4": lambda: (cdga_pair(exterior_cdga(4, True)), 3, True),
    "heisenberg-circle": lambda: (cdga_pair(_heisenberg_circle()), 4, True),
}
_PAIRS = {}


def minimal_pair(name):
    """Minimal pairs by name, each transferred once; every call returns a new
    pair over the kept maps, so no resonance state kept on a pair passes
    from one test to another."""
    if name not in _PAIRS:
        if name.startswith("random-"):
            source, arity, weights = cdga_pair(random_cdga(int(name[7:]), (1, 3, 3, 1))), 4, False
        else:
            source, arity, weights = _SOURCES[name]()
        _PAIRS[name] = transfer_pair(source, arity, use_weights=weights).pair
    kept = _PAIRS[name]
    return LInfPair(kept.algebra, kept.module)


NAMED = list(_SOURCES)
RANDOM = [f"random-{seed}" for seed in range(20)]


def _h1(pair):
    return [e.label for e in pair.algebra.space.elements if e.deg == 1]


def _random_omega(ring, labels, rng):
    monos = ring.monomial_basis()
    omega = {}
    for lab in labels:
        val = ring.element({m: Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                            for m in monos if sum(m) >= 1 and rng.random() < 0.5})
        if val:
            omega[lab] = val
    return omega


# ---------------------------------------------------------------------------
# the rank oracle at rational points

@pytest.mark.parametrize("name", NAMED + RANDOM)
def test_oracle_matrices_match_label_scan(name):
    pair = minimal_pair(name)
    for pt in sample_points(_h1(pair), 5 if name in NAMED else 2, seed=len(name)):
        assert pointwise_twisted_matrices(pair, pt) == ref_pointwise_twisted_matrices(pair, pt)


# ---------------------------------------------------------------------------
# the universal complex over polynomial rings

@pytest.mark.parametrize("name", NAMED + RANDOM[:5])
def test_universal_complex_matches_label_scan(name):
    pair = minimal_pair(name)
    for shadow, kw in ((pair, {"exact": True}), (pair, {"trunc": 3}),
                       (resonance._binary_shadow(pair), {"exact": True})):
        ucx = universal_complex(shadow, **kw)
        got = {}
        for mat in ucx.matrices.values():
            for r, row_lab in enumerate(mat.rows):
                for j, col in enumerate(mat.cols):
                    if mat.data[r][j]:
                        got[col, row_lab] = mat.data[r][j]
        assert got == ref_universal_entries(shadow, ucx.ring, ucx.arity_cap)


# ---------------------------------------------------------------------------
# ring-valued twisting

RINGS = ("Q[x1,x2]/(m^3)", "Q[x1..x3]/(m^4)", "poly(u,v, trunc=3)")


def _twisted_tables(pair, ring, omega):
    """The twisted module tables and complex of ``twist_module``, built without
    its Maurer-Cartan and d^2 certificates, so a random omega can be twisted."""
    module = pair.module
    tables = deformation._twisted(module.actions, module.combined, module.space, ring, omega,
                                  lambda n: "antisym_algebra" if n > 1 else "none")
    columns = tables[1].table if 1 in tables else {}
    return tables, deformation.TwistedComplex.from_columns(columns, module.space, ring)


def _assert_tables_equal(new, old):
    assert set(new) == set(old)
    for n, table in new.items():
        assert table.equals(old[n])


@pytest.mark.parametrize("descriptor", RINGS)
@pytest.mark.parametrize("name", ["heisenberg-pair", "h3-arity9", "exterior4",
                                  "heisenberg-circle", "random-3", "random-11"])
def test_twisting_matches_sorted_tuple_scan(descriptor, name):
    ring = parse_ring(descriptor)
    pair = minimal_pair(name)
    rng = random.Random(f"{descriptor}:{name}")
    omega = _random_omega(ring, _h1(pair), rng)
    alg = pair.algebra
    assert mc_residual(alg, ring, omega) == ref_mc_residual(alg, ring, omega)
    _assert_tables_equal(twist_brackets(alg.brackets, alg.space, ring, omega),
                         ref_twist_brackets(alg.brackets, alg.space, ring, omega))
    tables, complex_ = _twisted_tables(pair, ring, omega)
    _assert_tables_equal(tables, ref_twist_module_tables(pair, ring, omega))
    columns = ref_twisted_columns(pair.module, ring, omega)
    for mat in complex_.matrices.values():
        for j, col in enumerate(mat.cols):
            for r, row_lab in enumerate(mat.rows):
                assert mat.data[r][j] == columns[col].get(row_lab, ring.zero)


@pytest.mark.parametrize("alg", [solvable_dgla(), affine_plane_dgla()],
                         ids=["solvable", "affine-plane"])
def test_nonabelian_twisting_matches_sorted_tuple_scan(alg):
    ring = parse_ring("Q[e]/(e^4)")
    omega = _random_omega(ring, [e.label for e in alg.space.elements if e.deg == 1],
                          random.Random(len(alg.space)))
    assert mc_residual(alg, ring, omega) == ref_mc_residual(alg, ring, omega)
    _assert_tables_equal(twist_brackets(alg.brackets, alg.space, ring, omega),
                         ref_twist_brackets(alg.brackets, alg.space, ring, omega))
    pair = adjoint_pair(alg)
    tables, _ = _twisted_tables(pair, ring, omega)
    _assert_tables_equal(tables, ref_twist_module_tables(pair, ring, omega))


def _random_witness(alg, ring, rng):
    parts = []
    for deg in (1, 0):
        labels = [e.label for e in alg.space.elements if e.deg == deg]
        coefs = [_random_omega(ring, labels, rng) for _ in range(3)]
        parts.append({lab: TPoly(ring, {k: c[lab] for k, c in enumerate(coefs) if lab in c})
                      for lab in labels})
    return HomotopyWitness(ring, *parts)


@pytest.mark.parametrize("alg", [solvable_dgla(), affine_plane_dgla(),
                                 minimal_pair("h3-arity9").algebra],
                         ids=["solvable", "affine-plane", "h3-arity9"])
def test_witness_t_component_matches_label_scan(alg):
    ring = parse_ring("Q[e]/(e^4)")
    witness = _random_witness(alg, ring, random.Random(len(alg.space)))
    assert _witness_terms(alg, ring, witness)[0] == ref_witness_terms(alg, ring, witness)[0]


def _random_linf(rng):
    """Random graded-antisymmetric brackets l1..l4 on degrees 0, 1, 2; the
    witness sums are linear in the brackets, so no Jacobi identity is needed."""
    space = GradedSpace([BasisElement(f"{name}{j}", deg)
                         for name, deg, count in (("a", 0, 2), ("b", 1, 3), ("c", 2, 2))
                         for j in range(rng.randint(1, count))])
    brackets = {}
    for n in range(1, 5):
        ln = MultiMap(space, space, n, 2 - n, "antisym")
        for _ in range(8):
            key = tuple(sorted(rng.choices(space.labels(), k=n), key=space.order_index))
            if any(a == b and space.deg(a) % 2 == 0 for a, b in zip(key, key[1:])):
                continue
            outs = [e.label for e in space.elements
                    if e.deg == sum(map(space.deg, key)) + 2 - n]
            if outs:
                ln.add(key, rng.choice(outs), Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2)))
        brackets[n] = ln
    return LInfAlgebra(space, brackets)


@pytest.mark.parametrize("seed", range(20))
def test_witness_terms_match_the_slot_by_slot_sum(seed):
    """The dt-component through ``contract_power`` (z'' moved to the last
    slot) equals the slot-by-slot sum, on random brackets l1..l4."""
    rng = random.Random(seed)
    ring = parse_ring("Q[e]/(e^5)" if seed % 2 else "Q[x1,x2]/(m^4)")
    alg = _random_linf(rng)
    witness = _random_witness(alg, ring, rng)
    even, odd = ref_witness_terms(alg, ring, witness)
    assert _witness_terms(alg, ring, witness) == (even, odd)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("alg", [solvable_dgla(), affine_plane_dgla()],
                         ids=["solvable", "affine-plane"])
def test_gauge_flow_witness_terms_match_the_slot_by_slot_sum(alg, seed):
    rng = random.Random(seed)
    ring = parse_ring("Q[e]/(e^4)")
    labels = lambda deg: [e.label for e in alg.space.elements if e.deg == deg]
    omega = _random_omega(ring, labels(1), rng)
    lam = _random_omega(ring, labels(0), rng)
    witness, _ = construct_gauge_witness(alg, ring, omega, lam)
    assert _witness_terms(alg, ring, witness) == ref_witness_terms(alg, ring, witness)


def test_twist_module_verify_compares_d_w_with_the_pair_algebra(monkeypatch):
    ring = parse_ring("Q[x1,x2]/(m^3)")
    pair = minimal_pair("heisenberg-pair")
    omega = _random_omega(ring, _h1(pair), random.Random(1))
    twist_module(pair, ring, omega)
    twist_terms = deformation._twist_terms

    def wrong_d_w(maps, ring, omega, n):
        acc = twist_terms(maps, ring, omega, n)
        if maps is pair.module.actions and n == 1:
            vec = next(v for v in acc.values() if v)
            lab = next(iter(vec))
            vec[lab] = -vec[lab]
        return acc

    monkeypatch.setattr(deformation, "_twist_terms", wrong_d_w)
    with pytest.raises(DeformationError, match="mismatch"):
        twist_module(pair, ring, omega)


def _bracket_pair_twist():
    """The adjoint pair of the dgla l_2(x, y) = z (x, y in degree 1, z in
    degree 2) over Q[x1,x2]/(m^4), with w_x * w_y in m^4: Maurer-Cartan,
    and its residual reads the product over {x, y}, whose prefix the twisted
    module reads again."""
    space = GradedSpace([BasisElement("x", 1), BasisElement("y", 1), BasisElement("z", 2)])
    l2 = MultiMap(space, space, 2, 0, "antisym")
    l2.add(("x", "y"), "z", 1)
    ring = parse_ring("Q[x1,x2]/(m^4)")
    omega = {"x": ring.element({(1, 0): 1, (1, 1): 2}),
             "y": ring.element({(3, 0): 1, (0, 3): Fraction(-1, 2)})}
    return adjoint_pair(LInfAlgebra(space, {2: l2})), ring, omega


def _heisenberg_twist():
    ring = parse_ring("Q[x1,x2]/(m^4)")
    pair = minimal_pair("heisenberg-pair")
    return pair, ring, _random_omega(ring, _h1(pair), random.Random(4))


@pytest.mark.parametrize("make", [_heisenberg_twist, _bracket_pair_twist],
                         ids=["heisenberg-pair", "bracket-pair"])
def test_one_twist_multiplies_each_sub_multiset_out_once(make, monkeypatch):
    """twist_module shares one power table between its MC residual, every
    arity of the twisted module and the L (+) M certificate: each
    sub-multiset S of supp w that a sum reads (with its prefixes, from which
    it is multiplied out) is computed once, though several sums read it."""
    pair, ring, omega = make()
    reads = []  # (map, i) of every contract_power call
    computed = []
    contract, power = deformation.contract_power, multimap._power

    def recording_contract(mm, w, i, acc, scale=1):
        reads.append((mm, i))
        return contract(mm, w, i, acc, scale)

    monkeypatch.setattr(deformation, "contract_power", recording_contract)
    monkeypatch.setattr(multimap, "_power", lambda powers, S: computed.append(S) or power(powers, S))
    tables, _ = twist_module(pair, ring, omega)

    def read_by(mm, i):
        """Every S of i labels of supp w in the head of a stored key, in key
        order, by position subsets, with its prefixes."""
        lead = 0 if i == 0 else mm.arity - (mm.symmetry == "antisym_algebra")
        out = set()
        for key in mm.table:
            for pos in combinations(range(lead), i):
                S = tuple(key[j] for j in pos)
                if all(lab in omega for lab in S):
                    out.update(S[:t] for t in range(1, i + 1))
        return out

    per_call = [read_by(mm, i) for mm, i in reads]
    distinct = set().union(*per_call)
    assert len(computed) == len(set(computed)) == len(distinct)
    assert set(computed) == distinct
    assert sum(map(len, per_call)) > len(distinct)  # a table per sum would repeat some
    monkeypatch.undo()
    _assert_tables_equal(tables, ref_twist_module_tables(pair, ring, omega))


# ---------------------------------------------------------------------------
# the kernel itself

def test_contract_power_rejects_even_directions():
    pair = minimal_pair("heisenberg-pair")
    even = next(e.label for e in pair.algebra.space.elements if e.deg % 2 == 0)
    with pytest.raises(ValueError):
        contract_power(pair.module.actions[2], {even: Fraction(1)}, 1, {})


def test_binary_resonance_runs_the_module_check_once(monkeypatch):
    """The binary shadow is certified on first use and kept on the pair.
    The pair is built here: the cached one may already hold its shadow."""
    source, arity, weights = _SOURCES["exterior4"]()
    pair = transfer_pair(source, arity, use_weights=weights).pair
    calls = []
    check = resonance.module_check
    monkeypatch.setattr(resonance, "module_check", lambda *a: calls.append(a) or check(*a))
    for k in (2, 1):
        assert binary_resonance_ideal(pair, 1, k, n_samples=3).consistent
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# fraction-free rank and evaluation

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "zero", "one-row", "deficient"]))
    if kind == "zero":
        return [[Fraction(0)] * cols for _ in range(rows)]
    if kind == "one-row":
        return [draw(st.lists(fractions, min_size=cols, max_size=cols))]
    if kind == "deficient" and rows and cols:
        inner = draw(st.integers(0, min(rows, cols) - 1))
        a = [draw(st.lists(fractions, min_size=inner, max_size=inner)) for _ in range(rows)]
        b = [draw(st.lists(fractions, min_size=cols, max_size=cols)) for _ in range(inner)]
        return [[sum((a[r][t] * b[t][c] for t in range(inner)), Fraction(0))
                 for c in range(cols)] for r in range(rows)]
    return [draw(st.lists(fractions, min_size=cols, max_size=cols)) for _ in range(rows)]


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_fraction_free_rank_matches_rref(mat):
    want = len(rref(mat)[1]) if mat and mat[0] else 0
    assert linalg.rank(mat) == want


def test_relem_evaluate_matches_full_power_formula():
    rng = random.Random(5)
    ring = CoefRing("poly", ("x1", "x2", "x3"))
    for _ in range(200):
        elem = RElem(ring, {tuple(rng.randint(0, 3) for _ in range(3)):
                            Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                            for _ in range(rng.randint(0, 6))})
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
        want = Fraction(0)
        for mono, coef in elem.terms.items():
            term = coef
            for e, x in zip(mono, point):
                term *= x ** e
            want += term
        assert elem.evaluate(point) == want
