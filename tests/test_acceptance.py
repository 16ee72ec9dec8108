"""The acceptance gate: one test per criterion, exact arithmetic throughout
(tolerance is identically zero), one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` or `python scripts/run_acceptance.py`.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache

from hse import linalg
from hse.deformation import (
    construct_gauge_witness,
    def_ik_membership,
    homotopy_witness_check,
    jump_ideal_pair,
    sample_mc,
    tangent_space,
    twist_module,
)
from hse.fixtures import (
    adjoint_pair,
    affine_plane_dgla,
    cdga_pair,
    exterior_cdga,
    heisenberg_cdga,
    random_cdga,
    solvable_dgla,
    weight_zero_offender_cdga,
)
from hse.multimap import MultiMap
from hse.resonance import (
    binary_resonance_ideal,
    dga_resonance_ideal,
    resonance_ideal,
    subtorus_hypothesis_check,
    tangent_cone_check,
)
from hse.rings import Ideal, MinorEngine, RingMatrix, minors, parse_ring
from hse.structures import (
    InfMorphism,
    antisymmetrize,
    jacobi_check,
    module_check,
    morphism_algebra_to_pair,
    morphism_pair_to_algebra,
    pair_to_algebra,
    algebra_to_module,
    stasheff_check,
)
from hse.transfer import cohomology_splitting, transfer_ainf, transfer_pair
from test_rings import leibniz_minor


def record(num: int, description: str, ok: bool, extra: str = "") -> None:
    state = "pass" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {num:02d} [{state}]: {description}{tail}")
    assert ok, f"criterion {num}: {description}{tail}"


@lru_cache(maxsize=None)
def ainf_transfer(name: str, seed: int = 0, weights: bool = False, arity: int = 5):
    alg = {
        "heisenberg": lambda: heisenberg_cdga(weights),
        "torus2": lambda: exterior_cdga(2, weights),
        "exterior3": lambda: exterior_cdga(3, weights),
        "random": lambda: random_cdga(seed),
    }[name]()
    diagram = cohomology_splitting(alg.space, alg.differential_map(),
                                   use_weights=weights or None)
    return alg, diagram, transfer_ainf(diagram, alg.ainf(), arity)


@lru_cache(maxsize=None)
def minimal_pair(name: str, seed: int = 0, weights: bool = False, arity: int = 5):
    alg = {
        "heisenberg": lambda: heisenberg_cdga(weights),
        "torus2": lambda: exterior_cdga(2, weights),
        "exterior3": lambda: exterior_cdga(3, weights),
        "random": lambda: random_cdga(seed),
    }[name]()
    return transfer_pair(cdga_pair(alg), arity, use_weights=weights or None)


FIXTURES = [("heisenberg", 0), ("torus2", 0), ("exterior3", 0),
            ("random", 0), ("random", 1), ("random", 2)]


def test_criterion_01_structure_identity_suite():
    started = time.monotonic()
    checked = 0
    for seed in range(25):
        alg = random_cdga(seed)
        assert len(alg.space) <= 10
        ainf = alg.ainf()
        ok = stasheff_check(ainf, 5).ok
        diagram = cohomology_splitting(alg.space, alg.differential_map())
        res = transfer_ainf(diagram, ainf, 5)
        ok = ok and stasheff_check(res.algebra, 5).ok
        ok = ok and jacobi_check(antisymmetrize(ainf), 5).ok
        ok = ok and jacobi_check(antisymmetrize(res.algebra), 5).ok
        pres = transfer_pair(cdga_pair(alg), 5)
        ok = ok and module_check(pres.pair.module, 5).ok
        assert ok, f"seed {seed}"
        checked += 1
    elapsed = time.monotonic() - started
    record(1, "25 random dgas + transfers pass stasheff/jacobi/module to arity 5",
           checked == 25 and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_02_minimality_and_weight_compatibility():
    ok = True
    for name, seed in FIXTURES:
        _, _, res = ainf_transfer(name, seed)
        ok = ok and (1 not in res.algebra.products)
    for name in ("heisenberg", "torus2", "exterior3"):
        _, _, res = ainf_transfer(name, weights=True)
        ok = ok and (1 not in res.algebra.products)
        for family in (res.algebra.products, res.phi.components,
                       res.psi.components, res.homotopy):
            for mm in family.values():
                ok = ok and not mm.audit_weights()
    record(2, "transfer over cohomology splittings is minimal and weight-compatible", ok)


def test_criterion_03_heisenberg_massey():
    alg, diagram, res = ainf_transfer("heisenberg")
    ok = diagram.small.dims() == {0: 1, 1: 2, 2: 2, 3: 1}
    h1 = [e.label for e in diagram.small.elements if e.deg == 1]
    nu2 = res.algebra.products.get(2)
    nu3 = res.algebra.products.get(3)
    ok = ok and all(not nu2.get((a, b)) for a in h1 for b in h1)
    ok = ok and any(nu3.get((a, b, c)) for a in h1 for b in h1 for c in h1)

    # independent p_3 oracle: mu2(h mu2 x 1) - (-1)^{|a|} mu2(1 x h mu2)
    mu2 = alg.product_map()
    h = diagram.h

    def p3(a, b, c):
        out = {}
        for mid, cf in mu2.get((a, b)).items():
            for m2, c2 in h.get((mid,)).items():
                for lab, cg in mu2.get((m2, c)).items():
                    out[lab] = out.get(lab, Fraction(0)) + cf * c2 * cg
        sign = -1 if alg.space.deg(a) % 2 else 1
        for mid, cf in mu2.get((b, c)).items():
            for m2, c2 in h.get((mid,)).items():
                for lab, cg in mu2.get((a, m2)).items():
                    out[lab] = out.get(lab, Fraction(0)) - sign * cf * c2 * cg
        return {k: v for k, v in out.items() if v}

    for a in h1:
        for b in h1:
            for c in h1:
                expected = {}
                for la, ca in diagram.g.get((a,)).items():
                    for lb, cb in diagram.g.get((b,)).items():
                        for lc, cc in diagram.g.get((c,)).items():
                            for lab, cv in p3(la, lb, lc).items():
                                for out, cf in diagram.f.get((lab,)).items():
                                    expected[out] = expected.get(out, Fraction(0)) \
                                        + ca * cb * cc * cv * cf
                expected = {k: v for k, v in expected.items() if v}
                ok = ok and (nu3.get((a, b, c)) == expected)
    record(3, "Heisenberg: dims (1,2,2,1), cup vanishes on H1, Massey nu3 matches oracle", ok)


def test_criterion_04_pair_roundtrips():
    ok = True
    rng = random.Random(404)
    pairs = [cdga_pair(random_cdga(seed)) for seed in range(23)]
    pairs.append(adjoint_pair(solvable_dgla()))
    pairs.append(adjoint_pair(affine_plane_dgla()))
    assert len(pairs) == 25
    for pair in pairs:
        back = algebra_to_module(pair_to_algebra(pair), pair.module.space)
        for n, mm in pair.module.actions.items():
            ok = ok and back.module.actions[n].equals(mm)
        for n, mm in pair.algebra.brackets.items():
            ok = ok and back.algebra.brackets[n].equals(mm)
        ok = ok and set(back.module.actions) == set(pair.module.actions)

    # component recovery for 25 random raw morphisms on the Heisenberg pair
    pair = cdga_pair(heisenberg_cdga())
    combined = pair_to_algebra(pair)
    for _ in range(25):
        f_comps, g_comps = {}, {}
        for k in (1, 2):
            fk = MultiMap(pair.algebra.space, pair.algebra.space, k, 1 - k, "antisym")
            for key in _random_keys(rng, pair.algebra.space, k):
                for e in pair.algebra.space.elements:
                    if e.deg == sum(pair.algebra.space.deg(l) for l in key) + 1 - k:
                        c = rng.randint(-2, 2)
                        if c:
                            fk.add(key, e.label, Fraction(c))
            if not fk.is_zero():
                f_comps[k] = fk
            gk = MultiMap(pair.module.combined, pair.module.space, k, 1 - k,
                          "antisym_algebra" if k > 1 else "none")
            for key in _random_module_keys(rng, pair, k):
                deg = sum(pair.module.combined.deg(l) for l in key) + 1 - k
                for e in pair.module.space.elements:
                    if e.deg == deg:
                        c = rng.randint(-2, 2)
                        if c:
                            gk.add(key, e.label, Fraction(c))
            if not gk.is_zero():
                g_comps[k] = gk
        f = InfMorphism("linf", pair.algebra, pair.algebra, f_comps)
        g = InfMorphism("module", pair.module, pair.module, g_comps)
        fg = morphism_pair_to_algebra(f, g, combined, combined)
        f2, g2 = morphism_algebra_to_pair(fg, pair, pair)
        for k in f_comps:
            ok = ok and f2.components[k].equals(f_comps[k])
        for k in g_comps:
            ok = ok and g2.components[k].equals(g_comps[k])
    record(4, "L+M round-trip reproduces actions and morphism components exactly", ok)


def _random_keys(rng, space, k):
    labels = space.labels()
    out = set()
    for _ in range(4):
        key = tuple(sorted(rng.sample(labels, k) if k <= len(labels)
                           else rng.choices(labels, k=k),
                           key=space.order_index))
        out.add(key)
    return out


def _random_module_keys(rng, pair, k):
    alg_labels = pair.algebra.space.labels()
    mod_labels = pair.module.space.labels()
    out = set()
    for _ in range(4):
        head = tuple(sorted(rng.sample(alg_labels, k - 1) if k - 1 <= len(alg_labels)
                            else rng.choices(alg_labels, k=k - 1),
                            key=pair.module.combined.order_index))
        out.add(head + (rng.choice(mod_labels),))
    return out


def test_criterion_05_jump_ideal_boundaries_and_tangent_sets():
    R = parse_ring("Q[e]/(e^2)")
    e = R.gen(0)
    ok = True
    for name, seed in FIXTURES:
        pair = minimal_pair(name, seed).pair
        degrees = sorted(set(pair.module.space.degrees()) | {-1})
        h1 = [x.label for x in pair.algebra.space.elements if x.deg == 1]
        for i in degrees:
            h_i = pair.module.space.dim(i)
            ok = ok and def_ik_membership(pair, R, {}, i, 0) is True
            ok = ok and def_ik_membership(pair, R, {}, i, h_i + 1) is False
            ts = tangent_space(pair, i, h_i)
            if ts.kind == "kernel":
                kernel_vecs = ts.basis
            elif ts.kind == "full":
                kernel_vecs = [{lab: Fraction(1)} for lab in h1]
            else:
                kernel_vecs = []
            directions = [{lab: Fraction(1)} for lab in h1]
            directions += [
                {h1[a]: Fraction(1), h1[b]: Fraction(1)}
                for a in range(len(h1)) for b in range(a + 1, len(h1))
            ]
            directions += [dict(v) for v in kernel_vecs]
            for vec in directions:
                omega = {lab: c * e for lab, c in vec.items() if c}
                member = def_ik_membership(pair, R, omega, i, h_i)
                cols = [[kv.get(lab, Fraction(0)) for lab in h1] for kv in kernel_vecs]
                target = [vec.get(lab, Fraction(0)) for lab in h1]
                in_kernel = linalg.in_span(cols, target) is not None
                ok = ok and (member == in_kernel)
    record(5, "Def^i_k boundaries and k = h_i tangent sets match ker tau_i exactly", ok)


def test_criterion_06_gauge_invariance_of_jump_ideals():
    R = parse_ring("Q[e]/(e^3)")
    e = R.gen(0)
    ok = True
    cases = []
    for c1 in (1, 2, -1, 3, -2):
        cases.append((solvable_dgla(), {"f": c1 * e}, {"e": e}))
    for c1, c2 in ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)):
        cases.append((
            affine_plane_dgla(),
            {"f1": c1 * e, "f2": c2 * e},
            {"e1": e, "e2": 2 * e},
        ))
    assert len(cases) == 10
    moved = 0
    for alg, omega, lam in cases:
        omega = {k: v for k, v in omega.items() if v}
        pair = adjoint_pair(alg)
        witness, omega2 = construct_gauge_witness(alg, R, omega, lam)
        good, why = homotopy_witness_check(alg, R, witness, omega, omega2)
        ok = ok and good
        if omega2 != omega:
            moved += 1
        for i in sorted(set(pair.module.space.degrees())):
            for k in range(0, pair.module.space.dim(i) + 2):
                I1 = jump_ideal_pair(pair, R, omega, i, k)
                I2 = jump_ideal_pair(pair, R, omega2, i, k)
                ok = ok and (I1.mutually_contains(I2) is True)
    record(6, "10 gauge pairs: witnesses verify and jump-ideal families agree",
           ok and moved >= 5, f"{moved} flows moved the point")


def test_criterion_07_resonance_fixtures():
    pair = minimal_pair("torus2").pair
    res = resonance_ideal(pair, 1, 1, exact=True, n_samples=100, seed=7)
    R = res.ideal.ring
    x1, x2 = R.gen(0), R.gen(1)
    expected = Ideal.from_list(R, [x1 * x1, x1 * x2, x2 * x2])
    ok = res.ideal.mutually_contains(expected) is True
    ok = ok and res.consistent
    ok = ok and all(
        s["in_locus"] == all(c == "0" for c in s["point"].values())
        for s in res.samples
    )

    hpair = minimal_pair("heisenberg").pair
    resH = binary_resonance_ideal(hpair, 1, 1, n_samples=100, seed=7)
    ok = ok and resH.ideal.is_zero() and all(s["in_locus"] for s in resH.samples)
    resA = dga_resonance_ideal(heisenberg_cdga().ainf(), 1, 1, n_samples=100, seed=7)
    ok = ok and not resA.ideal.is_zero()
    ok = ok and all(
        s["in_locus"] == all(c == "0" for c in s["point"].values())
        for s in resA.samples
    )
    record(7, "torus ideal (x1^2, x1x2, x2^2) with locus {0}; Heisenberg strict containment", ok)


def test_criterion_08_tangent_cone_certificates():
    ok = True
    checked = 0
    for name, seed in FIXTURES:
        pair = minimal_pair(name, seed).pair
        for i in pair.module.space.degrees():
            dim_i = pair.module.space.dim(i)
            for k in range(1, dim_i + 1):
                size = dim_i - k + 1
                if not 1 <= size <= 3:
                    continue
                rep = tangent_cone_check(pair, i, k)
                ok = ok and rep.ok
                checked += rep.checked
    record(8, "linearized minors equal degree-s parts of d_univ minors (all s <= 3)",
           ok and checked > 0, f"{checked} minors compared")


def test_criterion_09_vanishing_bound_certificates():
    ok = True
    for name in ("heisenberg", "torus2", "exterior3"):
        pair = minimal_pair(name, weights=True).pair
        rep = subtorus_hypothesis_check(pair)
        topdeg = pair.module.space.top_degree()
        ok = ok and rep.certified and rep.n0 <= 2 * topdeg + 2
        ok = ok and rep.n0_empirical <= rep.n0
    offender = transfer_pair(cdga_pair(weight_zero_offender_cdga()), 3,
                             use_weights=True).pair
    rep = subtorus_hypothesis_check(offender)
    ok = ok and not rep.certified and bool(rep.offenders)
    record(9, "weight hypothesis certified iff W0 H^1 = 0, empirical scan clean", ok)


def test_criterion_10_differential_tests():
    rng = random.Random(1010)
    # (a) d_omega^2 = 0 for 200 sampled Maurer-Cartan elements, N <= 4
    count = 0
    pools = [minimal_pair(name, seed).pair for name, seed in FIXTURES]
    pools += [adjoint_pair(solvable_dgla()), adjoint_pair(affine_plane_dgla())]
    while count < 200:
        for pair in pools:
            for N in (2, 3, 4):
                ring = parse_ring(f"Q[e]/(e^{N})")
                omega = sample_mc(pair.algebra, ring, rng)
                if omega is None:
                    continue
                twist_module(pair, ring, omega)  # checks MC, L (+) M and d^2 = 0
                count += 1
        if count == 0:
            break
    ok = count >= 200

    # (b) Laplace vs Leibniz on 50 random 4x4 matrices over Q[x,y]/(m^3)
    R = parse_ring("Q[x,y]/(m^3)")
    for _ in range(50):
        mat = RingMatrix(R, tuple(f"r{i}" for i in range(4)),
                         tuple(f"c{i}" for i in range(4)))
        for i in range(4):
            for j in range(4):
                terms = {m: Fraction(rng.randint(-2, 2))
                         for m in [(0, 0), (1, 0), (0, 1), (2, 0)]}
                mat.set(i, j, R.element(terms))
        engine = MinorEngine(mat)
        idx = (0, 1, 2, 3)
        ok = ok and engine.minor(idx, idx) == leibniz_minor(mat, idx, idx)
        sub = (0, 2, 3)
        ok = ok and engine.minor(sub, (1, 2, 3)) == leibniz_minor(mat, sub, (1, 2, 3))

    # (c) basis-change invariance: I_r(PMQ) = I_r(M) for unit-triangular P, Q
    for case in range(25):
        rows = tuple(f"r{i}" for i in range(3))
        cols = tuple(f"c{i}" for i in range(4))
        M = RingMatrix(R, rows, cols)
        for i in range(3):
            for j in range(4):
                terms = {m: Fraction(rng.randint(-1, 1))
                         for m in [(0, 0), (1, 0), (0, 1)]}
                M.set(i, j, R.element(terms))
        P = _unit_triangular(R, 3, rng)
        Q = _unit_triangular(R, 4, rng)
        PM = _matmul(P, M, rows, cols)
        PMQ = _matmul(PM, Q, rows, cols)
        r = rng.choice([1, 2])
        ok = ok and minors(PMQ, r).mutually_contains(minors(M, r)) is True
    record(10, "d_w^2 = 0 (200 samples), Laplace = Leibniz (50), basis-change invariance (25)",
           ok, f"{count} MC samples")


def _unit_triangular(R, n, rng):
    M = RingMatrix(R, tuple(str(i) for i in range(n)), tuple(str(i) for i in range(n)))
    for i in range(n):
        M.set(i, i, R.one)
        for j in range(i + 1, n):
            terms = {m: Fraction(rng.randint(-1, 1)) for m in [(0, 0), (1, 0)]}
            M.set(i, j, R.element(terms))
    return M


def _matmul(A, B, rows, cols):
    # plain product with relabeled frame
    R = A.ring
    out = RingMatrix(R, rows[:len(A.rows)], cols[:len(B.cols)])
    for i in range(len(A.rows)):
        for j in range(len(B.cols)):
            acc = R.zero
            for k in range(len(A.cols)):
                a, b = A.data[i][k], B.data[k][j]
                if a and b:
                    acc = acc + a * b
            out.data[i][j] = acc
    return out
