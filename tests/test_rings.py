import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from hse import linalg
from hse.rings import (
    CoefRing,
    Ideal,
    MinorEngine,
    RATIONALS,
    RingError,
    RingMatrix,
    block_diag,
    minors,
    parse_element,
    parse_ring,
)


def eps_ring(n=2):
    return CoefRing("trunc_local", ("e",), order=n)


def test_truncated_arithmetic():
    R = parse_ring("Q[x]/(x^2)")
    x = R.gen(0)
    one = R.one
    assert (one + x) * (one - x) == one
    assert x * x == R.zero


def test_negative_truncation_is_refused():
    with pytest.raises(RingError, match="truncation degree must be >= 0, got -1"):
        CoefRing("poly", ("x1", "x2"), trunc=-1)
    assert CoefRing("poly", ("x1", "x2"), trunc=0).monomial_basis() == [(0, 0)]


def test_eps_square_zero():
    R = eps_ring(2)
    e = R.gen(0)
    assert not (e * e)


def test_parse_ring_descriptors():
    assert parse_ring("Q").kind == "field"
    R = parse_ring("Q[x1..x4]/(m^5)")
    assert R.varnames == ("x1", "x2", "x3", "x4") and R.order == 5
    P = parse_ring("poly(x1..x3, trunc=6)")
    assert P.kind == "poly" and P.trunc == 6
    P2 = parse_ring("poly(a,b)")
    assert P2.varnames == ("a", "b") and P2.trunc is None


def test_rings_and_ideals_hash_consistently_with_equality():
    R = parse_ring("Q[e]/(e^3)")
    same = CoefRing("trunc_local", ("e",), order=3)
    assert R == same and hash(R) == hash(same)
    assert len({R, same, parse_ring("Q[e]/(e^4)"), parse_ring("poly(e)")}) == 3
    unit = Ideal.unit(R)
    assert hash(unit) == hash(Ideal.unit(same))
    assert {unit: 1}[Ideal.unit(same)] == 1


def test_element_string_roundtrip():
    R = parse_ring("poly(x,y)")
    f = R.element({(2, 0): Fraction(1, 2), (1, 1): Fraction(-3), (0, 0): Fraction(4)})
    assert parse_element(R, str(f)) == f
    assert parse_element(R, "0") == R.zero


def test_minors_zero_and_identity():
    R = RATIONALS
    zero = RingMatrix(R, ("r1", "r2"), ("c1", "c2"))
    assert minors(zero, 1).is_zero()
    ident = RingMatrix(R, ("r1", "r2"), ("c1", "c2"))
    ident.set(0, 0, R.one)
    ident.set(1, 1, R.one)
    ideal = minors(ident, 2)
    assert len(ideal.generators) == 1 and ideal.generators[0] == R.one
    assert minors(ident, 0).generators[0] == R.one  # unit ideal
    assert minors(ident, 3).is_zero()  # oversized


def test_torus_resonance_matrix_minors():
    # blockdiag([x1; x2], [-x2, x1]) over Q[x1,x2]: 2-minors span (x1^2, x1x2, x2^2)
    R = parse_ring("poly(x1,x2)")
    x1, x2 = R.gen(0), R.gen(1)
    top = RingMatrix(R, ("e1", "e2"), ("1",))
    top.set(0, 0, x1)
    top.set(1, 0, x2)
    bottom = RingMatrix(R, ("e12",), ("e1", "e2"))
    bottom.set(0, 0, -x2)
    bottom.set(0, 1, x1)
    block = block_diag(top, bottom)
    ideal = minors(block, 2)
    expected = Ideal.from_list(R, [x1 * x1, x1 * x2, x2 * x2])
    assert ideal.mutually_contains(expected) is True


def test_ideal_membership_artinian():
    R = eps_ring(2)
    e = R.gen(0)
    I = Ideal.from_list(R, [e])
    assert I.contains(e) is True
    assert I.contains(R.one) is False
    assert Ideal.zero(R).is_zero()


def test_ideal_membership_poly_homogeneous():
    R = parse_ring("poly(x1,x2)")
    x1, x2 = R.gen(0), R.gen(1)
    I = Ideal.from_list(R, [x1 * x1, x1 * x2, x2 * x2])
    assert I.contains(x1 ** 3) is True  # x1 * x1^2
    assert I.contains(x1) is False  # homogeneous data: conclusive
    assert I.contains(x1 * x2 * x2) is True


def test_ideal_membership_inconclusive_inhomogeneous():
    R = parse_ring("poly(x)")
    x = R.gen(0)
    I = Ideal.from_list(R, [x + x * x])
    # x is in the ideal via (1 - x + x^2 - ...) only at high degree: a bounded
    # solve fails and the data is inhomogeneous, so the test must stay open
    assert I.contains(x, degree_bound=2) is None


def test_initial_form():
    R = parse_ring("poly(x,y)")
    x, y = R.gen(0), R.gen(1)
    f = x + x * x
    assert f.initial_form() == x
    g = x * y + y * y
    assert g.initial_form() == g  # already homogeneous
    with pytest.raises(RingError):
        R.zero.initial_form()


def test_laplace_vs_leibniz_random():
    rng = random.Random(7)
    R = parse_ring("Q[x,y]/(m^3)")
    for _ in range(20):
        mat = RingMatrix(R, tuple("r%d" % i for i in range(4)), tuple("c%d" % j for j in range(4)))
        for i in range(4):
            for j in range(4):
                terms = {}
                for mono in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                    c = rng.randint(-2, 2)
                    if c:
                        terms[mono] = Fraction(c)
                mat.set(i, j, R.element(terms))
        engine = MinorEngine(mat)
        rows = (0, 1, 2, 3)
        assert engine.minor(rows, rows) == leibniz_minor(mat, rows, rows)
        rows3 = (0, 2, 3)
        cols3 = (1, 2, 3)
        assert engine.minor(rows3, cols3) == leibniz_minor(mat, rows3, cols3)


def test_artinian_membership_matches_bruteforce():
    rng = random.Random(3)
    R = parse_ring("Q[a,b]/(m^3)")
    basis = R.monomial_basis()
    for _ in range(10):
        g1 = R.element({m: Fraction(rng.randint(-1, 1)) for m in basis})
        g2 = R.element({m: Fraction(rng.randint(-1, 1)) for m in basis})
        f = g1 * R.gen(0) + g2 * R.element(2)
        I = Ideal.from_list(R, [g1, g2])
        assert I.contains(f) is True


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60)
def test_poly_arith_commutes(a, b, e1, e2):
    R = parse_ring("poly(u,v)")
    f = R.element({(e1, 0): Fraction(a)}) + R.gen(1)
    g = R.element({(0, e2): Fraction(b)}) + R.gen(0)
    assert f * g == g * f
    assert f + g == g + f
    assert (f - f) == R.zero


def test_one_and_zero_are_shared_and_unchanged_by_arithmetic():
    R = parse_ring("Q[a,b]/(m^3)")
    one, zero = R.one, R.zero
    assert R.one is one and R.zero is zero
    a = R.gen(0)
    _ = (one + a) * (one - a) - zero + one * 3 + (-one) + one ** 2 + zero * a
    acc = R.zero
    for _ in range(3):
        acc = acc + R.one
    assert acc == R.element(3)
    assert one.terms == {(0, 0): Fraction(1)} and zero.terms == {}
    assert R.one is one and R.zero is zero


# -- slow originals --------------------------------------------------------

def leibniz_minor(matrix, rows, cols):
    """Permutation-sum determinant; the independent oracle for Laplace."""
    ring = matrix.ring
    acc = ring.zero
    n = len(rows)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = ring.one
        for i in range(n):
            term = term * matrix.data[rows[i]][cols[perm[i]]]
            if not term:
                break
        acc = acc + (term if inv % 2 == 0 else -term)
    return acc


# -- membership: the echelon basis against the span-matrix reference --------

def _reference_contains(ideal, f):
    """Membership by the {monomial x generator} span matrix and one
    linalg.in_span per query: the route Ideal.contains took before it
    reduced against an echelon basis of the ideal."""
    ring = ideal.ring
    if not f:
        return True
    if not ideal.generators:
        return False
    homogeneous = False
    if ring.is_artinian:
        prods = [ring.element({mono: 1}) * g
                 for g in ideal.generators for mono in ring.monomial_basis()]
    else:
        homogeneous = f.is_homogeneous() and all(g.is_homogeneous() for g in ideal.generators)
        bound = f.degree()
        prods = []
        for g in ideal.generators:
            for mult in product(range(bound + 1), repeat=ring.nvars):
                if sum(mult) > bound - g.low_degree():
                    continue
                if homogeneous and sum(mult) + g.degree() != f.degree():
                    continue
                prods.append(ring.element({mult: 1}) * g)
    support = sorted({m for p in prods for m in p.terms} | set(f.terms))
    columns = [[p.terms.get(m, Fraction(0)) for m in support] for p in prods if p]
    target = [f.terms.get(m, Fraction(0)) for m in support]
    if linalg.in_span(columns, target) is not None:
        return True
    return False if ring.is_artinian or homogeneous else None


def _reference_artinian_span(ideal):
    """The ideal as a linalg.Echelon over monomials, closed under the
    variables: the span that contains and mutually_contains reduced
    against before the integer echelon over the ring's monomial basis."""
    ring = ideal.ring
    n = ring.nvars
    full = len(ring.monomial_basis())
    span = linalg.Echelon()
    queue = [g.terms for g in ideal.generators]
    for vec in queue:
        added = span.add(vec)
        if added is None:
            continue
        if len(span.rows) == full:
            break
        for j in range(n):
            prod = {}
            for mono, coef in added.items():
                shifted = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                if ring._keeps(shifted):
                    prod[shifted] = coef
            if prod:
                queue.append(prod)
    return span


def _reference_mutually_contains(a, b):
    results = [_reference_contains(a, g) for g in b.generators]
    results += [_reference_contains(b, g) for g in a.generators]
    if any(r is False for r in results):
        return False
    return True if all(r is True for r in results) else None


def _random_element(ring, rng, density, low=0, monos=None):
    monos = monos if monos is not None else ring.monomial_basis()
    return ring.element({m: Fraction(rng.randint(-3, 3)) for m in monos
                         if sum(m) >= low and rng.random() < density})


ARTINIAN_RINGS = ("Q[a,b]/(m^3)", "Q[x1..x3]/(m^4)", "Q[e]/(e^4)", "poly(u,v,w, trunc=2)")


@pytest.mark.parametrize("descriptor", ARTINIAN_RINGS)
def test_artinian_membership_matches_span_reference(descriptor):
    R = parse_ring(descriptor)
    rng = random.Random(descriptor)
    answers = {"contains": [], "mutual": []}
    for _ in range(14):
        ngens = rng.randint(1, 4)
        # mostly in the maximal ideal, so that most ideals are proper
        gens = [_random_element(R, rng, 0.5, low=0 if rng.random() < 0.1 else 1)
                for _ in range(ngens)]
        I = Ideal.from_list(R, gens)
        member = R.zero
        for g in I.generators:
            member = member + _random_element(R, rng, 0.6) * g
        queries = [member, _random_element(R, rng, 0.4, low=1),
                   member + R.element({rng.choice(R.monomial_basis()): 1}),
                   R.one, R.zero]
        span = _reference_artinian_span(I)
        for f in queries:
            got = I.contains(f)
            assert got == _reference_contains(I, f), (descriptor, gens, f)
            assert got == span.spans(f.terms)
            answers["contains"].append(got)
        # pairs that differ by one generator: swapped for a random one,
        # dropped, or moved by a unit-triangular change of generators
        extra = _random_element(R, rng, 0.5, low=1)
        others = [gens[:-1] + [extra], gens[:-1], gens + [member],
                  [g + gens[-1] * _random_element(R, rng, 0.5) for g in gens[:-1]] + gens[-1:]]
        for other in others:
            J = Ideal.from_list(R, other)
            got = I.mutually_contains(J)
            assert got == _reference_mutually_contains(I, J), (descriptor, gens, other)
            assert got == (span.rows == _reference_artinian_span(J).rows)
            assert J.mutually_contains(I) == got
            answers["mutual"].append(got)
    for kind, seen in answers.items():
        assert True in seen and False in seen, (descriptor, kind)


def test_poly_membership_matches_span_reference():
    R = parse_ring("poly(x,y,z)")
    rng = random.Random("homogeneous")
    answers = []
    for _ in range(12):
        d = rng.randint(1, 2)
        forms = [m for m in product(range(3), repeat=3) if sum(m) == d]
        gens = [_random_element(R, rng, 0.5, monos=forms) for _ in range(rng.randint(1, 3))]
        I = Ideal.from_list(R, gens)
        if I.is_zero():
            continue
        top = [m for m in product(range(4), repeat=3) if sum(m) == d + 1]
        member = R.zero
        for g in I.generators:
            member = member + R.gen(rng.randrange(3)) * g * rng.randint(1, 2)
        queries = [member, _random_element(R, rng, 0.5, monos=top), member + R.gen(0) ** (d + 1),
                   member + R.gen(0) ** d]  # the last one is inhomogeneous
        for f in queries:
            got = I.contains(f)
            assert got == _reference_contains(I, f), (gens, f)
            answers.append(got)
        J = Ideal.from_list(R, gens[:-1] + [member])
        assert I.mutually_contains(J) == _reference_mutually_contains(I, J)
    assert {True, False, None} <= set(answers)


@pytest.mark.parametrize("descriptor", ARTINIAN_RINGS)
def test_integer_span_matches_the_echelon_reference(descriptor):
    """Rational generators and queries: the integer rows scale each vector
    by its denominators, and the answers stay those of the Fraction span."""
    R = parse_ring(descriptor)
    rng = random.Random(f"integer span {descriptor}")
    basis = R.monomial_basis()

    def rational(low=1, density=0.5):
        return R.element({m: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for m in basis
                          if sum(m) >= low and rng.random() < density})

    answers = {"contains": set(), "mutual": set()}
    for _ in range(25):
        gens = [rational(low=0 if rng.random() < 0.1 else 1) for _ in range(rng.randint(1, 4))]
        I = Ideal.from_list(R, gens)
        span = _reference_artinian_span(I)
        member = R.zero
        for g in I.generators:
            member = member + rational(low=0) * g
        for f in (member, rational(), member + R.gen(rng.randrange(R.nvars)) ** 2, R.one):
            got = I.contains(f)
            assert got == span.spans(f.terms), (descriptor, gens, f)
            answers["contains"].add(got)
        moved = [g + gens[-1] * rational(low=0) for g in gens[:-1]] + gens[-1:]
        for other in (moved, gens[:-1], gens + [rational()], gens + [member]):
            J = Ideal.from_list(R, other)
            got = I.mutually_contains(J)
            assert got == (span.rows == _reference_artinian_span(J).rows), (descriptor, gens, other)
            assert J.mutually_contains(I) == got
            answers["mutual"].add(got)
    assert answers == {"contains": {True, False}, "mutual": {True, False}}
