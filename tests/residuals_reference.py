"""The left-hand side of the identity checkers as ``hse.structures`` walked
it before both sides of every identity ran on ``multimap.morphism_terms``:
its own walk of inner_q inserted into outer_k, indexing the outer keys by
the label at each slot and landing every inner key on the slots holding
its output label.  A morphism's right-hand side was already the stored-key
walk on ``uniform_plan``, as here, in the ``Fraction`` form of
``walk_reference``.  Kept as the reference of the
differential test of ``structures._residuals``; its sign table and weights
are the operadic ones, not the walk's per-slot plan scales.
"""

from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from hse.multimap import uniform_plan
from hse.signs import sort_with_sign
from walk_reference import morphism_terms


def _repeats(T):
    """prod over the labels l of a sorted T of m_T(l)!."""
    if len(set(T)) == len(T):
        return 1
    return prod(factorial(len(list(run))) for _, run in groupby(T))


def _add_row(res, T, coef, row):
    vec = res.setdefault(T, {})
    for lab, c in row.items():
        vec[lab] = vec.get(lab, 0) + coef * c


def residuals(outer, inner, target, space, antisym, max_arity):
    """Tuple -> its residual (cancelled entries kept as zeros) up to max_arity:
    inner inserted into outer, minus target of outer's blocks when target is
    given (outer then holds a morphism's components).

    A-oo: (-1)^(p+qr) and inner_q crossing the first p inputs.  L-oo: the
    sign of (mid,) + rest -> K times (-1)^(q(n-q)), the term landing on
    I + rest sorted with its antisym sign and weighted by
    m_T / (m_I * m_rest), one slot per run of a repeated label."""
    deg = {e.label: e.deg for e in space.elements}
    order = space.order_index
    res = {}

    # label -> (arity of K, K[:p], the rest of K, (sign for even q, for odd
    # q), prod m_rest(l)!, row_K) per outer key K and slot p holding it
    slots = {}
    for m_out in outer.values():
        for K, row in m_out.table.items():
            n_out = len(K)
            odd = 0  # the degree parity of K[:p]
            for p, mid in enumerate(K):
                if not antisym:
                    signs = (-1 if p & 1 else 1, -1 if (n_out - 1 + odd) & 1 else 1)
                    slots.setdefault(mid, []).append((n_out, K[:p], K[p + 1:], signs, 1, row))
                elif not (p and mid == K[p - 1]):
                    s = -1 if (p + odd * deg[mid]) & 1 else 1
                    signs = (s, -s if (n_out - 1) & 1 else s)
                    rest = K[:p] + K[p + 1:]
                    slots.setdefault(mid, []).append((n_out, (), rest, signs, _repeats(rest), row))
                odd ^= deg[mid] & 1
    for q, m_in in inner.items():
        odd_q = q & 1
        for I, row_I in m_in.table.items():
            m_I = _repeats(I) if antisym else 1
            for mid, c in row_I.items():
                for n_out, head, rest, signs, m_rest, row in slots.get(mid, ()):
                    if n_out + q > max_arity + 1:
                        continue
                    if not antisym:
                        _add_row(res, head + I + rest, signs[odd_q] * c, row)
                        continue
                    chunks = I + rest
                    T, sign = sort_with_sign(chunks, tuple(deg[l] for l in chunks), order)
                    if sign:
                        weight = Fraction(_repeats(T), m_I * m_rest)
                        _add_row(res, T, sign * signs[odd_q] * weight * c, row)
    if target is None:
        return res
    return morphism_terms(uniform_plan(outer, target), target, space, antisym, max_arity,
                          res=res, scale=-1)
