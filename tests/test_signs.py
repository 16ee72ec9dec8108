import math

from hypothesis import given, strategies as st

from hse.signs import (
    antisym_sign,
    block_permutations,
    epsilon_exponent,
    koszul_sign,
    perm_sign,
    sort_with_sign,
    unshuffles,
    all_permutations,
)


def test_koszul_identity_is_trivial():
    assert koszul_sign((0, 1, 2, 3), [1, 2, 3, 4]) == 1


def test_koszul_transposition_odd_odd():
    assert koszul_sign((1, 0), [1, 1]) == -1


def test_koszul_transposition_odd_even():
    assert koszul_sign((1, 0), [1, 2]) == 1


def test_antisym_transposition_odd_odd():
    # sgn = -1, koszul = -1
    assert antisym_sign((1, 0), [1, 1]) == 1


def test_antisym_transposition_even_even():
    assert antisym_sign((1, 0), [2, 2]) == -1


@given(st.integers(2, 5), st.data())
def test_koszul_cocycle(n, data):
    # sign(sigma o tau) = sign(sigma on tau-permuted degrees) * sign(tau)
    perms = all_permutations(n)
    sigma = data.draw(st.sampled_from(perms))
    tau = data.draw(st.sampled_from(perms))
    degs = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    composed = tuple(tau[sigma[i]] for i in range(n))
    tau_degs = [degs[tau[i]] for i in range(n)]
    assert koszul_sign(composed, degs) == koszul_sign(sigma, tau_degs) * koszul_sign(tau, degs)


@given(st.lists(st.integers(0, 5), min_size=0, max_size=7), st.data())
def test_sort_with_sign_matches_the_antisym_sign_of_its_sort(picks, data):
    # labels "l0".."l5" with drawn degrees (negative ones too), in a drawn
    # basis order; the reference sorts stably and reads antisym_sign of the
    # permutation, 0 where an even label repeats
    degree = data.draw(st.lists(st.integers(-2, 3), min_size=6, max_size=6))
    order = data.draw(st.permutations(range(6)))
    labels = tuple(f"l{i}" for i in picks)
    degs = tuple(degree[i] for i in picks)
    index = lambda lab: order[int(lab[1:])]
    idx = sorted(range(len(labels)), key=lambda i: (index(labels[i]), i))
    tau = [0] * len(labels)
    for pos, i in enumerate(idx):
        tau[i] = pos
    want = antisym_sign(tuple(tau), tuple(degs[i] for i in idx))
    if any(picks.count(i) > 1 and degree[i] % 2 == 0 for i in picks):
        want = 0
    assert sort_with_sign(labels, degs, index) == (tuple(labels[i] for i in idx), want)


def test_unshuffle_counts():
    assert len(unshuffles(1, 2)) == 2
    assert len(unshuffles(2, 3)) == 3
    assert len(unshuffles(2, 4)) == 6


def test_unshuffles_match_bruteforce():
    brute = [
        p for p in all_permutations(4)
        if list(p[:2]) == sorted(p[:2]) and list(p[2:]) == sorted(p[2:])
    ]
    assert sorted(unshuffles(2, 4)) == sorted(brute)
    assert len(brute) == math.comb(4, 2)


def test_block_permutations_single_block():
    perms = block_permutations((3,), 3)
    assert perms == [((0, 1, 2), 0)]


def test_block_permutations_all_singletons_epsilon_zero():
    perms = block_permutations((1, 1, 1), 3)
    assert len(perms) == 6
    assert all(eps == 0 for _, eps in perms)


def test_block_permutations_profile_2_1_epsilon():
    # epsilon = (j-1)(k_1-1) = 1 for profile (2,1)
    assert epsilon_exponent((2, 1)) == 1
    perms = block_permutations((2, 1), 3)
    assert len(perms) == 3
    assert all(eps == 1 for _, eps in perms)


def test_block_permutations_min_first_counts():
    # partitions of {0..3} into blocks of sizes (2,2) with increasing minima
    perms = block_permutations((2, 2), 4, min_first=True)
    assert len(perms) == 3
    full = block_permutations((2, 2), 4)
    assert len(full) == 6


def test_arity_and_profile_errors():
    import pytest

    with pytest.raises(ValueError, match="degree list"):
        koszul_sign((1, 0), [1])
    with pytest.raises(ValueError, match="out of range"):
        unshuffles(0, 3)
    with pytest.raises(ValueError, match="out of range"):
        unshuffles(4, 3)
    with pytest.raises(ValueError, match="sum"):
        block_permutations((2, 2), 3)


def test_block_permutation_counts_are_multinomial():
    from math import factorial

    for profile in [(1, 2), (2, 2), (1, 1, 2), (3, 1)]:
        n = sum(profile)
        count = len(block_permutations(profile, n))
        expected = factorial(n)
        for k in profile:
            expected //= factorial(k)
        assert count == expected
