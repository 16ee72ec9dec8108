from fractions import Fraction

from hypothesis import given, settings, strategies as st

from hse.fixtures import heisenberg_cdga
from hse.grading import BasisElement, GradedSpace
from hse.multimap import (
    MultiMap,
    evaluate_on_vectors,
    identity_map,
    postcompose,
    tensor_compose,
)
from hse.scalars import format_scalar, parse_scalar


@given(st.integers(-10**12, 10**12), st.integers(1, 10**9))
def test_scalar_string_roundtrip(num, den):
    q = Fraction(num, den)
    assert parse_scalar(format_scalar(q)) == q


def odd_space(n=3):
    return GradedSpace([BasisElement(f"a{i}", 1) for i in range(n)])


def test_antisym_storage_reconstructs_by_sign():
    space = odd_space()
    mm = MultiMap(space, space, 2, 0, "antisym")
    mm.add(("a0", "a1"), "a2", Fraction(1))
    # odd-odd transposition: sgn * koszul = (-1)(-1) = +1
    assert mm.get(("a1", "a0")) == {"a2": Fraction(1)}
    even = GradedSpace([BasisElement("b0", 2), BasisElement("b1", 2), BasisElement("c", 4)])
    m2 = MultiMap(even, even, 2, 0, "antisym")
    m2.add(("b0", "b1"), "c", Fraction(1))
    assert m2.get(("b1", "b0")) == {"c": Fraction(-1)}
    # repeated even label: forced zero
    assert m2.get(("b0", "b0")) == {}


def test_add_accumulates_and_cancels():
    space = odd_space()
    mm = MultiMap(space, space, 2, 0, "antisym")
    mm.add(("a0", "a1"), "a2", Fraction(1))
    mm.add(("a1", "a0"), "a2", Fraction(-1))  # same orbit, sign +1: cancels
    assert mm.is_zero()


def test_module_symmetry_leaves_last_slot_alone():
    alg = GradedSpace([BasisElement("x", 1), BasisElement("y", 1)])
    mod = GradedSpace([BasisElement("m", 0), BasisElement("n", 2)])
    from hse.grading import combine_spaces

    comb = combine_spaces(alg, mod)
    mm = MultiMap(comb, mod, 3, -1, "antisym_algebra")
    mm.add(("x", "y", "m"), "n", Fraction(2))
    assert mm.get(("y", "x", "m")) == {"n": Fraction(2)}  # odd-odd swap: +1
    assert mm.get(("x", "y", "m")) == {"n": Fraction(2)}


def test_tensor_compose_crossing_signs():
    # h of degree -1 crossing an odd argument must flip the sign
    alg = heisenberg_cdga()
    mu2 = alg.product_map()
    h = MultiMap(alg.space, alg.space, 1, -1)
    h.add(("xy",), "z", Fraction(1))
    comp = tensor_compose(mu2, [None, h])
    # slot-2 factor crosses slot-1 input: sign (-1)^{deg}
    assert comp.get(("x", "xy")) == {lab: -c for lab, c in mu2.get(("x", "z")).items()}
    assert comp.get(("1", "xy")) == mu2.get(("1", "z"))


def test_compositions_add_scale_times_the_composite_into_out():
    alg = heisenberg_cdga()
    mu2 = alg.product_map()
    h = MultiMap(alg.space, alg.space, 1, -1)
    h.add(("xy",), "z", Fraction(1))
    assert tensor_compose(mu2, [None, None]).table == mu2.table
    comp = tensor_compose(mu2, [None, h])
    out = tensor_compose(mu2, [None, h], tensor_compose(mu2, [None, h]), -3)
    assert out.table == {key: {lab: -2 * c for lab, c in row.items()}
                         for key, row in comp.table.items()}
    assert tensor_compose(mu2, [None, h], out, 2).is_zero()
    assert tensor_compose(mu2, [None, MultiMap(alg.space, alg.space, 1, -1)], comp) is comp
    assert not postcompose(h, mu2).is_zero()
    assert postcompose(h, mu2, postcompose(h, mu2), -1).is_zero()


def test_evaluate_on_vectors_bilinearity():
    alg = heisenberg_cdga()
    mu2 = alg.product_map()
    vx = {"x": Fraction(2), "y": Fraction(3)}
    vz = {"z": Fraction(1, 2)}
    out = evaluate_on_vectors(mu2, [vx, vz])
    expected = {}
    for la, ca in vx.items():
        for lab, c in mu2.get((la, "z")).items():
            expected[lab] = expected.get(lab, Fraction(0)) + ca * Fraction(1, 2) * c
    assert out == {k: v for k, v in expected.items() if v}


@settings(max_examples=40)
@given(st.data())
def test_identity_tensor_compose_is_identity(data):
    alg = heisenberg_cdga()
    mu2 = alg.product_map()
    ident = identity_map(alg.space)
    slot = data.draw(st.sampled_from([0, 1]))
    inners = [None, None]
    inners[slot] = ident
    comp = tensor_compose(mu2, inners)
    keys = data.draw(st.lists(st.sampled_from(sorted(mu2.table)), max_size=5))
    for key in keys:
        assert comp.get(key) == mu2.get(key)


@settings(max_examples=60)
@given(st.data())
def test_antisym_lookup_respects_random_permutations(data):
    from hse.signs import all_permutations, antisym_sign

    space = GradedSpace(
        [BasisElement("p", 1), BasisElement("q", 1),
         BasisElement("u", 2), BasisElement("w", 4)]
    )
    mm = MultiMap(space, space, 3, -1, "antisym")
    mm.add(("p", "q", "u"), "w", Fraction(3))
    key = ("p", "q", "u")
    sigma = data.draw(st.sampled_from(all_permutations(3)))
    permuted = tuple(key[i] for i in sigma)
    degs = tuple(space.deg(l) for l in key)
    sign = antisym_sign(sigma, degs)
    expected = {"w": Fraction(3) * sign}
    assert mm.get(permuted) == expected


# ---------------------------------------------------------------------------
# MultiMap._canonical: the sorted-key path against sort_with_sign

# odd and even labels interleaved in basis order; the module label comes last
CANON_SPACE = GradedSpace([
    BasisElement("o0", 1), BasisElement("e0", 0), BasisElement("o1", 3),
    BasisElement("e1", 2), BasisElement("o2", 1), BasisElement("m", 2),
])
CANON_LABELS = [e.label for e in CANON_SPACE.elements]


def _reference_canonical(key, symmetry):
    from hse.signs import sort_with_sign

    part = key if symmetry == "antisym" else key[:-1]
    degs = tuple(CANON_SPACE.deg(l) for l in part)
    sorted_part, sign = sort_with_sign(part, degs, CANON_SPACE.order_index)
    return sorted_part + key[len(part):], sign


def _assert_canonical_matches(key, symmetry):
    mm = MultiMap(CANON_SPACE, CANON_SPACE, len(key), 0, symmetry)
    expected = _reference_canonical(key, symmetry)
    assert mm._canonical(key) == expected
    assert mm._canonical(key) == expected  # the cached answer too


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.sampled_from(["antisym", "antisym_algebra"]),
       st.lists(st.sampled_from(CANON_LABELS), min_size=1, max_size=6),
       st.booleans())
def test_canonical_matches_sort_with_sign(symmetry, labels, presort):
    """Random keys, sorted or not, with repeated odd and even labels."""
    if presort:
        labels = sorted(labels, key=CANON_SPACE.order_index)
    if symmetry == "antisym_algebra" and len(labels) < 2:
        labels = labels + ["m"]
    _assert_canonical_matches(tuple(labels), symmetry)


def test_canonical_sorted_keys_with_repeats():
    """Keys already in basis order: a repeated even label gives sign 0, a
    repeated odd label sign +1, and only distinct labels take the fast path."""
    for key in [("e0", "e0"), ("o0", "e0", "e0"), ("o0", "o0"), ("o0", "o0", "e1"),
                ("o0", "e0", "o1", "e1", "o2", "m"), ("e1",), ("e0", "e1", "e1", "m")]:
        _assert_canonical_matches(key, "antisym")
        _assert_canonical_matches(key + ("m",), "antisym_algebra")
    mm = MultiMap(CANON_SPACE, CANON_SPACE, 2, 0, "antisym")
    assert mm._canonical(("e0", "e0")) == (("e0", "e0"), 0)
    assert mm._canonical(("o0", "o0")) == (("o0", "o0"), 1)
    mod = MultiMap(CANON_SPACE, CANON_SPACE, 3, 0, "antisym_algebra")
    assert mod._canonical(("e1", "e1", "m")) == (("e1", "e1", "m"), 0)
    # the module slot is never sorted in
    assert mod._canonical(("o1", "o0", "e0")) == (("o0", "o1", "e0"), 1)
