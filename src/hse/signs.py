"""Permutations and graded sign conventions.

A permutation is a tuple ``sigma`` of length n over 0..n-1; applying it to a
tuple T yields ``(T[sigma[0]], ..., T[sigma[n-1]])``, matching the classical
notation (a_{sigma(1)}, ..., a_{sigma(n)}).

Two signs coexist on purpose.  ``koszul_sign`` is the pure Koszul
product: each inverted pair of entries of degrees d, e contributes
(-1)^(d*e), as any sort swaps each inverted pair exactly once.
``antisym_sign`` multiplies in the ordinary signature; that is
the sign under which the commutator bracket of a graded-commutative algebra
antisymmetrizes to zero, and it is the convention used by every
antisymmetric structure map in this package.  No map is read on a
suspension: the homotopy transfer runs on A and L themselves, with the
signs of ``multimap.morphism_terms``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

Permutation = tuple[int, ...]


@lru_cache(maxsize=None)
def perm_sign(sigma: Permutation) -> int:
    """Ordinary signature: -1 per inverted pair."""
    return -1 if sum(a > b for a, b in combinations(sigma, 2)) % 2 else 1


@lru_cache(maxsize=None)
def _koszul_core(sigma: Permutation, degrees: tuple[int, ...], signed: bool = False) -> int:
    """The Koszul sign of sigma on `degrees`, times the signature if signed:
    a factor (-1)^(d_a d_b) per inverted pair a > b of sigma, with one more
    -1 per pair when signed.

    Memoized on the tuples callers already hold, so a repeated call costs one
    lookup; only the parities of the degrees enter the computation.
    """
    flips = sum(degrees[a] * degrees[b] + signed
                for a, b in combinations(sigma, 2) if a > b)
    return -1 if flips % 2 else 1


def koszul_sign(sigma: Permutation, degrees: list[int] | tuple[int, ...]) -> int:
    """Koszul sign of sigma on elements whose original degrees are `degrees`.

    Defined by a_{sigma(1)} x ... x a_{sigma(n)} = sign * (a_1 x ... x a_n):
    sorting the permuted sequence back to identity swaps each inverted pair
    of original indices u > v once, contributing (-1)^(deg_u * deg_v).
    Only parities matter.
    """
    if len(degrees) != len(sigma):
        raise ValueError("degree list length does not match permutation arity")
    return _koszul_core(tuple(sigma), tuple(degrees))


def antisym_sign(sigma: Permutation, degrees: list[int] | tuple[int, ...]) -> int:
    """Signature times Koszul sign: the antisymmetric convention."""
    if len(degrees) != len(sigma):
        raise ValueError("degree list length does not match permutation arity")
    return _koszul_core(tuple(sigma), tuple(degrees), True)


@lru_cache(maxsize=None)
def unshuffles(i: int, n: int) -> tuple[Permutation, ...]:
    """All (i, n-i)-unshuffles: sigma increasing on the first i and last n-i slots."""
    if not 1 <= i <= n:
        raise ValueError(f"unshuffle block size {i} out of range for n={n}")
    result = []
    universe = range(n)
    for first in combinations(universe, i):
        rest = tuple(k for k in universe if k not in first)
        result.append(first + rest)
    return tuple(result)


def epsilon_exponent(profile: tuple[int, ...]) -> int:
    """The morphism sign exponent (j-1)(k_1-1) + (j-2)(k_2-1) + ... + (k_{j-1}-1)."""
    j = len(profile)
    return sum((j - t - 1) * (profile[t] - 1) for t in range(j))


def block_permutations(
    profile: tuple[int, ...], n: int, min_first: bool = False
) -> list[tuple[Permutation, int]]:
    """Permutations preserving order within consecutive blocks of the given sizes.

    Returns (sigma, epsilon) pairs; epsilon depends only on the profile.  With
    ``min_first`` the blocks are additionally required to have increasing
    minima, so that each unordered block partition is enumerated exactly once
    (needed when the target map is antisymmetric in the block outputs).
    """
    if any(k < 1 for k in profile) or sum(profile) != n:
        raise ValueError(f"profile {profile} does not sum to {n}")
    eps = epsilon_exponent(profile)
    results: list[tuple[Permutation, int]] = []

    def rec(remaining: tuple[int, ...], blocks: list[tuple[int, ...]], t: int) -> None:
        if t == len(profile):
            sigma = tuple(x for block in blocks for x in block)
            results.append((sigma, eps))
            return
        size = profile[t]
        for chosen in combinations(remaining, size):
            if min_first and blocks and chosen[0] < blocks[-1][0]:
                continue
            rest = tuple(x for x in remaining if x not in chosen)
            rec(rest, blocks + [chosen], t + 1)

    rec(tuple(range(n)), [], 0)
    return results


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    return tuple(permutations(range(n)))


def sort_with_sign(labels: tuple[str, ...], degrees: tuple[int, ...], order_index) -> tuple[tuple[str, ...], int]:
    """Stable-sort labels by order_index, returning (sorted, antisym sign).

    Returns sign 0 when the tuple repeats an even-degree label: a graded
    antisymmetric map vanishes there.  Repeated odd labels are fine (their
    transposition sign is +1 under antisym_sign).  With S the sorted tuple,
    map(labels) = sign * map(S): the sort swaps each inverted pair once, and
    a swap of entries of degrees d, e gives -(-1)^(d*e).
    """
    idx = list(map(order_index, labels))
    sign = 1
    for j in range(1, len(idx)):
        b, e = idx[j], degrees[j]
        for i in range(j):
            if b < idx[i]:
                if not degrees[i] & e & 1:
                    sign = -sign
            elif b == idx[i] and not e & 1:
                sign = 0
    return tuple(sorted(labels, key=order_index)), sign
