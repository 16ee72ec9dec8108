from fractions import Fraction

import pytest

from hse.fixtures import (
    cdga_pair,
    exterior_cdga,
    heisenberg_cdga,
    random_cdga,
    weight_zero_offender_cdga,
)
from hse.resonance import (
    ResonanceError,
    binary_resonance_ideal,
    dga_resonance_ideal,
    resonance_ideal,
    subtorus_hypothesis_check,
    tangent_cone_check,
    universal_complex,
)
from hse.cli import main
from hse.grading import BasisElement, GradedSpace, combine_spaces
from hse.io_json import dumps, package_to_json
from hse import resonance
from hse.multimap import MultiMap, add_tables, evaluate_on_vectors
from hse.rings import CoefRing, Ideal, RingMatrix, parse_ring
from hse.structures import LInfAlgebra, LInfModule, LInfPair, module_check
from hse.transfer import cohomology_splitting, transfer_pair


def torus_pair():
    return transfer_pair(cdga_pair(exterior_cdga(2)), 4).pair


def heis_pair(weights=False, arity=5):
    return transfer_pair(cdga_pair(heisenberg_cdga(weights)), arity,
                         use_weights=weights).pair


def test_torus_resonance_ideal():
    pair = torus_pair()
    res = resonance_ideal(pair, 1, 1, exact=True, n_samples=100, seed=5)
    R = res.ideal.ring
    x1, x2 = R.gen(0), R.gen(1)
    expected = Ideal.from_list(R, [x1 * x1, x1 * x2, x2 * x2])
    assert res.ideal.mutually_contains(expected) is True
    assert res.consistent
    # locus is exactly the origin
    for s in res.samples:
        origin = all(c == "0" for c in s["point"].values())
        assert s["in_locus"] == origin


def test_all_maps_zero_gives_zero_ideal():
    pair = torus_pair()
    # module degree 0 has dim 1; i=0,k=1 uses only adjacent blocks
    from hse.structures import LInfModule, LInfPair

    empty = LInfPair(pair.algebra, LInfModule(pair.algebra, pair.module.space, {}))
    res = resonance_ideal(empty, 1, 1, exact=True)
    assert res.ideal.is_zero()


def test_heisenberg_two_level_resonance():
    # H-level with mu_2 only: every class resonates (ideal zero)
    pair = heis_pair()
    resH = binary_resonance_ideal(pair, 1, 1, n_samples=50, seed=3)
    assert resH.ideal.is_zero()
    assert all(s["in_locus"] for s in resH.samples)
    # dga-level: germ at 0 is the origin alone (nonzero points all miss)
    resA = dga_resonance_ideal(heisenberg_cdga().ainf(), 1, 1, n_samples=100, seed=4)
    assert not resA.ideal.is_zero()
    for s in resA.samples:
        origin = all(c == "0" for c in s["point"].values())
        assert s["in_locus"] == origin


def test_binary_shadow_is_built_and_certified_once_per_pair(monkeypatch):
    from hse import resonance

    checks = []
    check = resonance.module_check
    monkeypatch.setattr(resonance, "module_check", lambda *a: checks.append(a) or check(*a))
    pair = heis_pair()
    first = binary_resonance_ideal(pair, 1, 1, n_samples=10)
    again = binary_resonance_ideal(pair, 1, 2, n_samples=10)
    assert len(checks) == 1
    assert max(resonance._binary_shadow(pair).module.actions) <= 2
    assert len(checks) == 1
    assert first.to_json() == binary_resonance_ideal(heis_pair(), 1, 1, n_samples=10).to_json()
    assert again.to_json() == binary_resonance_ideal(heis_pair(), 1, 2, n_samples=10).to_json()
    assert len(checks) == 3


def l2_acting_pair():
    """L = <e1, e2> in degree 1 and <f> in degree 2 with l_2(e1, e2) = f, on
    M = <u> in degree 0 and <v> in degree 2 with m_2(f, u) = v alone.  No
    action of H^1 is stored, so the universal complex is zero, but m_2
    breaks the arity-3 module identity: at (e1, e2, u) it reads
    m_2(l_2(e1, e2), u) = v."""
    alg_space = GradedSpace([BasisElement("e1", 1), BasisElement("e2", 1), BasisElement("f", 2)])
    l2 = MultiMap(alg_space, alg_space, 2, 0, "antisym")
    l2.add(("e1", "e2"), "f", Fraction(1))
    alg = LInfAlgebra(alg_space, {2: l2})
    space = GradedSpace([BasisElement("u", 0), BasisElement("v", 2)])
    m2 = MultiMap(combine_spaces(alg_space, space), space, 2, 0, "antisym_algebra")
    m2.add(("f", "u"), "v", Fraction(1))
    return LInfPair(alg, LInfModule(alg, space, {2: m2}))


def test_tangent_cone_refuses_a_binary_action_that_is_not_a_module(tmp_path, capsys):
    pair = l2_acting_pair()
    assert not module_check(pair.module, 3).ok
    ucx = universal_complex(pair, trunc=1)
    assert not any(entry for mat in ucx.matrices.values() for row in mat.data for entry in row)
    with pytest.raises(ResonanceError, match="binary truncation is not a module structure"):
        tangent_cone_check(pair, 0, 1)
    fx = tmp_path / "pair.json"
    fx.write_text(dumps(package_to_json(l2_acting_pair())))
    assert main(["tangent-cone", str(fx), "--i", "0", "--k", "1",
                 "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "binary truncation is not a module structure" in err and "Traceback" not in err


def test_torus_dga_resonance_matches_h_level():
    # formal dga: the two computations mutually contain each other
    resA = dga_resonance_ideal(exterior_cdga(2).ainf(), 1, 1, n_samples=30)
    pair = torus_pair()
    resH = resonance_ideal(pair, 1, 1, exact=True, n_samples=30)
    # rings are both poly(x1,x2); compare via a common ring
    R = resH.ideal.ring
    gens_a = [R.element(dict(g.terms)) for g in resA.ideal.generators]
    lifted = Ideal.from_list(R, gens_a)
    assert resH.ideal.mutually_contains(lifted) is True


def ref_dga_matrices(alg):
    """The matrices of (A (x) O, d + a.) built degree by degree, as
    ``dga_resonance_ideal`` did before it went through the shared
    columns -> matrices builder."""
    space = alg.space
    d = alg.products.get(1)
    mu = alg.products.get(2)
    diagram = cohomology_splitting(space, d if d is not None else MultiMap(space, space, 1, 1))
    h1_labels = [e.label for e in diagram.small.elements if e.deg == 1]
    h1_reps = {lab: diagram.g.get((lab,)) for lab in h1_labels}
    ring = CoefRing("poly", tuple(f"x{j + 1}" for j in range(len(h1_labels))))
    matrices = {}
    for m in space.degrees():
        rows = tuple(e.label for e in space.basis_of_degree(m + 1))
        cols = tuple(e.label for e in space.basis_of_degree(m))
        mat = RingMatrix(ring, rows, cols)
        for cj, col in enumerate(cols):
            entries = {}
            if d is not None:
                for lab, c in d.get((col,)).items():
                    entries[lab] = entries.get(lab, ring.zero) + ring.element(c)
            if mu is not None:
                for j, v in enumerate(h1_labels):
                    res = evaluate_on_vectors(mu, [h1_reps[v], {col: Fraction(1)}])
                    xj = ring.gen(j)
                    for lab, c in res.items():
                        entries[lab] = entries.get(lab, ring.zero) + xj * c
            for lab, val in entries.items():
                if val and lab in rows:
                    mat.set(rows.index(lab), cj, val)
                elif val:
                    raise AssertionError(f"twisted entry leaves the window: {col} -> {lab}")
        matrices[m] = mat
    return matrices


DGAS = {
    "heisenberg": heisenberg_cdga,
    "torus2": lambda: exterior_cdga(2),
    "exterior4": lambda: exterior_cdga(4),
    **{f"random{s}": (lambda s=s: random_cdga(s)) for s in range(5)},
}


@pytest.mark.parametrize("name", sorted(DGAS))
def test_dga_matrices_match_degree_by_degree_build(name):
    alg = DGAS[name]().ainf()
    got = dga_resonance_ideal(alg, 1, 1, n_samples=5).matrices
    want = ref_dga_matrices(alg)
    assert sorted(got) == sorted(want)
    for m, mat in want.items():
        assert (got[m].rows, got[m].cols) == (mat.rows, mat.cols), m
        assert [[e.terms for e in row] for row in got[m].data] == \
            [[e.terms for e in row] for row in mat.data], m


@pytest.mark.parametrize("name", ["heisenberg", "torus2", "exterior4", "random0"])
@pytest.mark.parametrize("i, k", [(1, 1), (1, 2), (2, 1)])
def test_dga_complex_with_doubled_mu_is_refused(monkeypatch, name, i, k):
    # a dga complex built with mu o (g (x) id) doubled keeps every sampled
    # locus (it rescales the variables), so only the oracle's entrywise
    # check sees it
    real = resonance.compose_multimaps

    def doubled(outer, inner, slot):
        out = real(outer, inner, slot)
        return add_tables(MultiMap(out.space_in, out.space_out, out.arity, out.shift), out, out)

    alg = DGAS[name]().ainf()
    assert dga_resonance_ideal(alg, i, k, n_samples=20).samples
    monkeypatch.setattr(resonance, "compose_multimaps", doubled)
    with pytest.raises(ResonanceError, match="disagrees with the rank oracle's d"):
        dga_resonance_ideal(DGAS[name]().ainf(), i, k, n_samples=20)


def test_universal_complex_exact_vs_truncated():
    pair = heis_pair()
    exact = universal_complex(pair, exact=True)
    trunc = universal_complex(pair, trunc=2)
    exact.validate_square_zero()
    trunc.validate_square_zero()
    for i in pair.module.space.degrees():
        me, mt = exact.matrix(i), trunc.matrix(i)
        for r in range(len(me.rows)):
            for c in range(len(me.cols)):
                full = me.data[r][c]
                cut = mt.data[r][c]
                for d in range(0, 3):
                    assert full.homogeneous_part(d).terms == cut.homogeneous_part(d).terms


def test_specialization_matches_pointwise_oracle():
    from hse.resonance import pointwise_twisted_matrices

    pair = heis_pair()
    ucx = universal_complex(pair, exact=True)
    pt = {lab: Fraction(j + 1, 2) for j, lab in enumerate(ucx.variables)}
    coords = [pt[lab] for lab in ucx.variables]
    mats = pointwise_twisted_matrices(pair, pt)
    for i in pair.module.space.degrees():
        evaluated = ucx.matrix(i).evaluate(coords)
        assert evaluated == mats.get(i, evaluated)


def test_tangent_cone_certificate_heisenberg():
    pair = heis_pair()
    for i in (1, 2):
        for k in range(1, pair.module.space.dim(i) + 1):
            size = pair.module.space.dim(i) - k + 1
            if size > 3:
                continue
            rep = tangent_cone_check(pair, i, k)
            assert rep.ok, rep.failures[:2]


def test_tangent_cone_certificate_formal_and_random():
    """A cdga is certified on its minimal pair, the route ``hse tangent-cone``
    takes for a dga package."""
    rep = tangent_cone_check(torus_pair(), 1, 1)
    assert rep.ok and rep.nonzero_linear > 0
    for seed in (0, 3):
        rep = tangent_cone_check(transfer_pair(cdga_pair(random_cdga(seed)), 5).pair, 1, 1)
        assert rep.ok, rep.failures[:2]


def test_subtorus_check_certifies_weighted_heisenberg():
    pair = heis_pair(weights=True)
    rep = subtorus_hypothesis_check(pair)
    assert rep.certified
    assert rep.n0 == 2 * 3 + 2
    assert rep.n0_empirical <= rep.n0
    # exact-mode flag feeds resonance_ideal
    res = resonance_ideal(pair, 1, 1, n0=rep.n0, n_samples=20)
    assert res.complex.mode == "exact"


def test_subtorus_check_refuses_weight_zero_class():
    pair = transfer_pair(cdga_pair(weight_zero_offender_cdga()), 3, use_weights=True).pair
    rep = subtorus_hypothesis_check(pair)
    assert not rep.certified
    assert rep.offenders


def test_subtorus_check_no_weights_reports():
    rep = subtorus_hypothesis_check(heis_pair())
    assert not rep.certified


def test_resonance_needs_mode():
    pair = heis_pair()
    with pytest.raises(ResonanceError):
        resonance_ideal(pair, 1, 1)
