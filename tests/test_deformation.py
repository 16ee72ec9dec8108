import random
from fractions import Fraction

import pytest

from hse.deformation import (
    DeformationError,
    HomotopyWitness,
    TPoly,
    TwistedComplex,
    construct_gauge_witness,
    def_ik_membership,
    homotopy_witness_check,
    jump_ideal_pair,
    mc_check,
    sample_mc,
    tangent_space,
    twist_algebra,
    twist_module,
)
from hse.fixtures import (
    cdga_pair,
    cdga_zero_bracket_dgla,
    exterior_cdga,
    heisenberg_cdga,
    random_cdga,
    solvable_dgla,
    adjoint_pair,
)
from hse.grading import BasisElement, GradedSpace, combine_spaces
from hse.multimap import MultiMap
from hse.resonance import ResonanceError, dga_resonance_ideal, universal_complex
from hse.rings import parse_ring, parse_element
from hse.structures import (
    AInfAlgebra,
    LInfAlgebra,
    LInfModule,
    LInfPair,
    jacobi_check,
    module_check,
)
from hse.transfer import transfer_pair


def eps(n):
    return parse_ring(f"Q[e]/(e^{n})")


def heis_pair_minimal(max_arity=4):
    return transfer_pair(cdga_pair(heisenberg_cdga()), max_arity).pair


def test_mc_zero_passes():
    alg = cdga_zero_bracket_dgla(heisenberg_cdga())
    ok, res = mc_check(alg, eps(3), {})
    assert ok


def test_mc_abelian_everything_passes():
    # minimal pair algebra of a cdga: all brackets vanish
    pair = heis_pair_minimal()
    R = eps(3)
    e = R.gen(0)
    omega = {lab: e for lab in pair.algebra.space.labels()
             if pair.algebra.space.deg(lab) == 1}
    ok, _ = mc_check(pair.algebra, R, omega)
    assert ok


def test_mc_nonclosed_direction_fails():
    alg = cdga_zero_bracket_dgla(heisenberg_cdga())
    R = eps(2)
    e = R.gen(0)
    ok, res = mc_check(alg, R, {"a.z": e})
    assert not ok
    assert any(v for v in res.values())  # residual is d(z) e = xy e


def test_mc_rejects_constant_terms():
    alg = cdga_zero_bracket_dgla(heisenberg_cdga())
    R = eps(2)
    with pytest.raises(DeformationError):
        mc_check(alg, R, {"a.x": R.one})


def test_twist_zero_is_identity_tensor():
    alg = solvable_dgla()
    R = eps(3)
    tw = twist_algebra(alg, R, {})
    assert set(tw.brackets) == set(alg.brackets)
    for n, m in alg.brackets.items():
        for key, row in m.entries():
            got = tw.brackets[n].get(key)
            assert set(got) == set(row)
            for lab, c in row.items():
                assert got[lab] == R.element(c)


def test_twist_passes_jacobi_over_ring():
    alg = solvable_dgla()
    R = eps(3)
    e = R.gen(0)
    omega = {"f": e}  # [f,f]=0 and d=0: Maurer-Cartan
    tw = twist_algebra(alg, R, omega)
    rep = jacobi_check(tw, 3)
    assert rep.ok, rep.first().describe()


def test_twisted_differential_heisenberg_pair():
    pair = cdga_pair(heisenberg_cdga())
    R = eps(2)
    e = R.gen(0)
    omega = {"a.x": e}
    twisted, complex_ = twist_module(pair, R, omega)
    complex_.validate_square_zero()
    # d_w on m.y = d(y) + x*y*e = xy e
    mat = complex_.matrix(1)
    col = mat.cols.index("m.y")
    row = mat.rows.index("m.xy")
    assert mat.data[row][col] == e
    # m.z has honest differential d(z) = xy plus the twist term x z e
    colz = mat.cols.index("m.z")
    assert mat.data[row][colz] == R.one
    rowxz = mat.rows.index("m.xz")
    assert mat.data[rowxz][colz] == e


def test_dw_squared_zero_random_mc():
    rng = random.Random(11)
    count = 0
    for seed in range(4):
        pair = transfer_pair(cdga_pair(random_cdga(seed)), 4).pair
        for N in (2, 3, 4):
            R = eps(N)
            for _ in range(5):
                omega = sample_mc(pair.algebra, R, rng)
                if omega is None:
                    continue
                _, complex_ = twist_module(pair, R, omega)
                complex_.validate_square_zero()
                count += 1
    assert count >= 20


def test_jump_ideal_conventions_minimal_pair():
    pair = heis_pair_minimal()
    R = eps(2)
    e = R.gen(0)
    omega = {}
    # k = 0: always a member (J has oversized minors -> zero ideal)
    for i in (0, 1, 2, 3):
        assert def_ik_membership(pair, R, omega, i, 0) is True
    # k > dim: unit ideal -> not a member
    for i in (0, 1, 2, 3):
        h_i = pair.module.space.dim(i)
        assert def_ik_membership(pair, R, omega, i, h_i + 1) is False
    # omega = 0: member iff dim H^i >= k (here H = M, minimal)
    for i in (0, 1, 2, 3):
        h_i = pair.module.space.dim(i)
        for k in range(0, h_i + 1):
            assert def_ik_membership(pair, R, omega, i, k) is True


def test_tangent_space_cases():
    pair = heis_pair_minimal()
    # h_1 = dim H^1 M = 2
    ts_full = tangent_space(pair, 1, 1)
    assert ts_full.kind == "full"
    ts_empty = tangent_space(pair, 1, 3)
    assert ts_empty.kind == "empty"
    ts_kernel = tangent_space(pair, 1, 2)
    assert ts_kernel.kind == "kernel"
    # all m_2 products with one degree-1 input vanish except against H^0/H^2
    # agreement with brute-force membership over Q[e]/e^2 tested below


def test_tangent_space_agrees_with_membership():
    pair = heis_pair_minimal()
    R = eps(2)
    e = R.gen(0)
    h1 = [lab for lab in pair.algebra.space.labels() if pair.algebra.space.deg(lab) == 1]
    for i in (1, 2):
        h_i = pair.module.space.dim(i)
        ts = tangent_space(pair, i, h_i)
        kernel_set = set()
        if ts.kind == "kernel":
            kernel_vecs = ts.basis
        elif ts.kind == "full":
            kernel_vecs = [{lab: Fraction(1)} for lab in h1]
        else:
            kernel_vecs = []
        # directions: basis vectors and sums of two basis vectors
        directions = [{lab: Fraction(1)} for lab in h1]
        directions += [{h1[0]: Fraction(1), h1[1]: Fraction(1)}]
        for vec in directions:
            omega = {lab: c * e for lab, c in vec.items()}
            member = def_ik_membership(pair, R, omega, i, h_i)
            # membership iff vec lies in the span of kernel_vecs
            from hse import linalg

            cols = [[kv.get(lab, Fraction(0)) for lab in h1] for kv in kernel_vecs]
            target = [vec.get(lab, Fraction(0)) for lab in h1]
            in_kernel = linalg.in_span(cols, target) is not None
            assert member == in_kernel, (i, vec, member, in_kernel)


def test_witness_constant_is_reflexive():
    pair = heis_pair_minimal()
    R = eps(3)
    e = R.gen(0)
    omega = {lab: e for lab in pair.algebra.space.labels()
             if pair.algebra.space.deg(lab) == 1}
    witness = HomotopyWitness(R, {lab: TPoly.const(R, v) for lab, v in omega.items()}, {})
    ok, why = homotopy_witness_check(pair.algebra, R, witness, omega, omega)
    assert ok, why


def test_abelian_witness_forces_equal_endpoints():
    pair = heis_pair_minimal()
    R = eps(2)
    e = R.gen(0)
    omega1 = {"a.h1_0": e}
    omega2 = {"a.h1_1": e}
    # any witness shape with constant-free z'' cannot bridge distinct MC
    # elements here: z' must be t-constant
    witness = HomotopyWitness(
        R,
        {"a.h1_0": TPoly(R, {0: e, 1: -e}), "a.h1_1": TPoly(R, {1: e})},
        {},
    )
    ok, why = homotopy_witness_check(pair.algebra, R, witness, omega1, omega2)
    assert not ok


def test_gauge_witness_on_solvable_dgla():
    alg = solvable_dgla()
    R = eps(3)
    e = R.gen(0)
    omega = {"f": e}
    lam = {"e": e}
    witness, omega2 = construct_gauge_witness(alg, R, omega, lam)
    ok, why = homotopy_witness_check(alg, R, witness, omega, omega2)
    assert ok, why
    assert omega2  # the flow actually moves the element


def test_gauge_pairs_have_equal_jump_ideals():
    # dgl pair: solvable dgla acting on itself; gauge-equivalent twists give
    # identical jump ideal families
    alg = solvable_dgla()
    pair = adjoint_pair(alg)
    R = eps(3)
    e = R.gen(0)
    omega = {"f": e}
    lam = {"e": e}
    _, omega2 = construct_gauge_witness(alg, R, omega, lam)
    for i in alg.space.degrees():
        for k in range(0, pair.module.space.dim(i) + 2):
            I1 = jump_ideal_pair(pair, R, omega, i, k)
            I2 = jump_ideal_pair(pair, R, omega2, i, k)
            assert I1.mutually_contains(I2) is True, (i, k)


def test_twist_by_sampled_mc_passes_jacobi():
    # twisting by any Maurer-Cartan element is again a structure
    from hse.fixtures import affine_plane_dgla

    rng = random.Random(21)
    hits = 0
    for alg in (solvable_dgla(), affine_plane_dgla()):
        for N in (2, 3):
            R = eps(N)
            omega = sample_mc(alg, R, rng)
            if omega is None:
                continue
            tw = twist_algebra(alg, R, omega)
            rep = jacobi_check(tw, 3)
            assert rep.ok, rep.first().describe()
            hits += 1
    assert hits >= 3


# ---------------------------------------------------------------------------
# the error contract of the one columns -> matrices builder

def line_pair(targets):
    """L = <e> in degree 1 with no brackets, acting on M = <a, b, c> in
    degrees 0, 1, 2 by m_2(e, src) = tgt for each (src, tgt) in targets.
    Nothing checks the module identities, so the twisted differential may
    leave the degree window or fail d^2 = 0."""
    alg = LInfAlgebra(GradedSpace([BasisElement("e", 1)]), {})
    space = GradedSpace([BasisElement("a", 0), BasisElement("b", 1), BasisElement("c", 2)])
    m2 = MultiMap(combine_spaces(alg.space, space), space, 2, 0, "antisym_algebra")
    for src, tgt in targets:
        m2.add(("e", src), tgt, Fraction(1))
    return LInfPair(alg, LInfModule(alg, space, {2: m2}))


LEAVES_WINDOW = [("a", "c")]  # degree 0 -> degree 2
NOT_SQUARE_ZERO = [("a", "b"), ("b", "c")]  # d^2 a = t^2 c, nonzero mod t^3


@pytest.mark.parametrize("targets, message", [
    (LEAVES_WINDOW, "leaves the degree window: a -> c"),
    (NOT_SQUARE_ZERO, r"fails d\^2 = 0 at degree 0"),
])
def test_builder_errors_keep_each_callers_class(targets, message):
    pair = line_pair(targets)
    R = parse_ring("Q[t]/(t^3)")
    with pytest.raises(DeformationError, match=message):
        twist_module(pair, R, {"e": R.gen(0)})
    with pytest.raises(ResonanceError, match=message):
        universal_complex(pair, exact=True)


def _line_complex(ring, entries):
    """The complex on <a, b, c> in degrees 0, 1, 2 whose differential
    sends each src to sum value * tgt over entries[src]."""
    space = GradedSpace([BasisElement("a", 0), BasisElement("b", 1), BasisElement("c", 2)])
    columns = {(src,): {tgt: parse_element(ring, v) for tgt, v in row.items()}
               for src, row in entries.items()}
    return TwistedComplex.from_columns(columns, space, ring)


@pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 5) for q in range(1, 5)])
def test_square_zero_check_sees_the_top_degree(p, q):
    """d a = x^p b and d b = x^q c: d^2 a = x^(p+q) c, the top degree of the
    packing, whose width comes from p + q (a power of two when p + q = 2, 4
    or 8 needs one more bit)."""
    entries = {"a": {"b": f"x^{p}"}, "b": {"c": f"x^{q}"}}
    with pytest.raises(DeformationError, match=r"fails d\^2 = 0 at degree 0"):
        _line_complex(parse_ring("poly(x)"), entries).validate_square_zero()
    for top in (p + q - 1, p + q):  # the quotient decides
        trunc = _line_complex(parse_ring(f"poly(x, trunc={top})"), entries)
        local = _line_complex(parse_ring(f"Q[x]/(x^{top + 1})"), entries)
        for complex_ in (trunc, local):
            if top < p + q:
                complex_.validate_square_zero()
            else:
                with pytest.raises(DeformationError, match=r"at degree 0"):
                    complex_.validate_square_zero()


def test_square_zero_check_weighs_unequal_row_scales():
    """The Koszul complex of (x/2, y/3): d^1 o d^0 cancels only when the
    rows of d^0, scaled by 2 and 3, are weighted back by 3 and 2."""
    ring = parse_ring("poly(x,y)")
    space = GradedSpace([BasisElement("a", 0), BasisElement("b1", 1), BasisElement("b2", 1),
                         BasisElement("c", 2)])
    columns = {("a",): {"b1": parse_element(ring, "1/2*x"), "b2": parse_element(ring, "1/3*y")},
               ("b1",): {"c": parse_element(ring, "5/21*y")},
               ("b2",): {"c": parse_element(ring, "-5/14*x")}}
    TwistedComplex.from_columns(columns, space, ring).validate_square_zero()
    columns[("b2",)] = {"c": parse_element(ring, "-5/21*x")}
    with pytest.raises(DeformationError, match=r"fails d\^2 = 0 at degree 0"):
        TwistedComplex.from_columns(columns, space, ring).validate_square_zero()


def test_dga_path_checks_square_zero():
    # e.e = f breaks graded commutativity: (d + x e.)^2 u = x^2 f
    space = GradedSpace([BasisElement("u", 0), BasisElement("e", 1), BasisElement("f", 2)])
    mu = MultiMap(space, space, 2, 0)
    for key, out in [(("u", "u"), "u"), (("u", "e"), "e"), (("e", "u"), "e"),
                     (("u", "f"), "f"), (("f", "u"), "f"), (("e", "e"), "f")]:
        mu.add(key, out, Fraction(1))
    with pytest.raises(ResonanceError, match=r"fails d\^2 = 0 at degree 0"):
        dga_resonance_ideal(AInfAlgebra(space, {2: mu}), 1, 1)
