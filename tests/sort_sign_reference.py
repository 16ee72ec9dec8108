"""The bubble sorts ``hse`` ran before every graded sort sign was read off
the inverted pairs of the sort: ``signs._koszul_core`` swapped adjacent
entries back to the identity, and ``fixtures.Cdga`` bubble-sorted the
generators of every monomial pair and applied the Leibniz rule as two such
products, head * dg and then that times tail.  Kept as the references of
the differential tests.
"""

from hse.multimap import MultiMap


def koszul_core(sigma, degrees, signed=False):
    """The Koszul sign of sigma on degrees, times the signature if signed:
    one (-1)^(d e), and one more -1 if signed, per adjacent swap of a bubble
    sort back to the identity."""
    parities = [d % 2 for d in degrees]
    seq = list(sigma)
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1, i, -1):
            if seq[j - 1] > seq[j]:
                if parities[seq[j - 1]] and parities[seq[j]]:
                    sign = -sign
                if signed:
                    sign = -sign
                seq[j - 1], seq[j] = seq[j], seq[j - 1]
    return sign


def multiply_monos(alg, a, b):
    """(sign, monomial) of a * b in the Cdga alg, or None if it dies."""
    arr = list(a) + list(b)
    sign = 1
    degof = lambda i: alg.gens[i][1]
    for i in range(len(arr)):
        for j in range(len(arr) - 1, i, -1):
            if arr[j - 1] > arr[j]:
                if degof(arr[j - 1]) % 2 and degof(arr[j]) % 2:
                    sign = -sign
                arr[j - 1], arr[j] = arr[j], arr[j - 1]
    for u, v in zip(arr, arr[1:]):
        if u == v and degof(u) % 2:
            return None  # odd square
    mono = tuple(arr)
    if mono not in set(alg.monomials):
        return None
    return sign, mono


def product_map(alg):
    mm = MultiMap(alg.space, alg.space, 2, 0)
    for a in alg.monomials:
        for b in alg.monomials:
            res = multiply_monos(alg, a, b)
            if res is not None:
                mm.add((alg.label(a), alg.label(b)), alg.label(res[1]), res[0])
    return mm


def _mono_times(alg, dmono, rest, pos):
    # dmono in place of position pos of rest: (head * dmono) * tail
    first = multiply_monos(alg, rest[:pos], dmono)
    if first is None:
        return None
    second = multiply_monos(alg, first[1], rest[pos:])
    if second is None:
        return None
    return first[0] * second[0], second[1]


def differential_map(alg):
    """The generator differentials extended by Leibniz: d crosses the odd
    generators in front of it, and dg takes the place of g."""
    mm = MultiMap(alg.space, alg.space, 1, 1)
    for mono in alg.monomials:
        acc = {}
        for pos, gi in enumerate(mono):
            sign = 1
            for k in mono[:pos]:
                if alg.gens[k][1] % 2:
                    sign = -sign
            rest = mono[:pos] + mono[pos + 1:]
            for coef, dmono in alg.differentials.get(alg.gens[gi][0], ()):
                left = _mono_times(alg, dmono, rest, pos)
                if left is not None:
                    acc[left[1]] = acc.get(left[1], 0) + coef * sign * left[0]
        for target, c in acc.items():
            if c:
                mm.add((alg.label(mono),), alg.label(target), c)
    return mm
