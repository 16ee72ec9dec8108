"""The stored-key walk as ``hse.multimap.morphism_terms`` ran it before its
terms landed on integer rows: every term is multiplied out in the maps' own
rational coefficients, weighted by the ``Fraction`` m_T / (prod m_J * m_K),
and an antisymmetric term is put in basis order by one ``sort_with_sign``.
Each walk adds into its own accumulator at scale 1.  Kept as the reference
of the differential tests of the integer walk (``test_integer_walk.py``)
and of ``residuals_reference``'s right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from hse.signs import sort_with_sign


def _repeats(T):
    """prod over the labels l of a sorted T of m_T(l)!."""
    if len(set(T)) == len(T):
        return 1
    return prod(factorial(len(list(run))) for _, run in groupby(T))


def _add_row(res: dict, T: tuple[str, ...], coef, row: dict) -> None:
    vec = res.get(T)
    if vec is None:
        res[T] = {lab: coef * c for lab, c in row.items()}
    else:
        for lab, c in row.items():
            vec[lab] = vec.get(lab, 0) + coef * c


def _lander(space: GradedSpace):
    """chunks -> (chunks in basis order, their antisym sign, prod m_T(l)!)."""
    deg = {e.label: e.deg for e in space.elements}
    order = space.order_index

    def land(chunks: tuple[str, ...]) -> tuple:
        T, sign = sort_with_sign(chunks, tuple([deg[l] for l in chunks]), order)
        return T, sign, _repeats(T)

    return land


def morphism_terms(plans: dict[int, list], target: dict[int, MultiMap], space: GradedSpace,
                   antisym: bool, max_arity: int, exact: bool = False,
                   res: dict | None = None, scale=1) -> dict:
    """Tuple -> scale * the sum over plans of target_k(M_1 x ... x M_k), added
    into res (cancelled entries kept as zeros), over the tuples of at most
    max_arity inputs from space, or exactly max_arity with ``exact``.

    ``plans[k]`` lists (slots, plan scale) for target_k, where slot t holds
    the component set (arity -> map) that fills it, or None for identity.
    A component of odd shift in slot t flips the sign past the odd inputs
    before it and, in epsilon, when k-1-t is odd.  A morphism's f_r has
    shift 1 - r, as have a transfer's -h p_r and (psi phi)_r, and the
    A-infinity transfer's -h Q_r has shift -r; all of them act on A or L
    itself.  An identity slot passes K[t] with no sign, so each run of them
    joins the inputs before the next component slot (a trailing run follows
    the last one), a term lands from its last component slot, and a plan of
    identities alone lands K itself.
    """
    odd_deg = {e.label: e.deg & 1 for e in space.elements}
    res = {} if res is None else res
    # the sets filling a component slot before a plan's last one: only their
    # keys' degree parities are read
    headed = {id(s) for k_plans in plans.values() for slots, _ in k_plans
              for s in [s for s in slots if s is not None][:-1]}
    # id(component set) -> label -> (arity, odd shift, [(J, coefficient, the
    # degree parity of J, prod m_J(l)!)]) per map of the set, over its keys J
    # producing the label
    indexes: dict[int, dict[str, list]] = {}

    def index(components: dict[int, MultiMap]) -> dict[str, list]:
        makers = indexes.get(id(components))
        if makers is None:
            makers = indexes[id(components)] = {}
            tracked = id(components) in headed
            for m_f in components.values():
                found: dict[str, list] = {}
                for J, row in m_f.table.items():
                    info = (sum(map(odd_deg.__getitem__, J)) & 1 if tracked else 0,
                            _repeats(J) if antisym else 1)
                    for lab, c in row.items():
                        found.setdefault(lab, []).append((J, c, *info))
                for lab, keys in found.items():
                    makers.setdefault(lab, []).append((m_f.arity, m_f.shift & 1, keys))
        return makers

    land = _lander(space) if antisym else None
    for k, m_t in target.items():
        # per plan: its component slots but the last, and the last, each as
        # (t, the start s of the identity run K[s:t] before it, k-1-t, the
        # room for the inputs before that run and t's own, makers), and the
        # seed of its terms; the plans of identities alone add up to `whole`
        spines, whole = [], 0
        for slots, plan_scale in plans.get(k, ()):
            sizes = [1 if s is None else max((m.arity for m in s.values() if m.table), default=0)
                     for s in slots]
            if not all(sizes) or sum(sizes) < max_arity and exact:
                continue
            steps, end = [], 0
            for t, s in enumerate(slots):
                if s is not None:
                    steps.append((t, end, k - 1 - t, max_arity - (k - 1 - t) - (t - end), index(s)))
                    end = t + 1
            if steps:
                spines.append((steps[:-1], steps[-1], (((), plan_scale * scale, 0, 1),)))
            elif k <= max_arity:
                whole += plan_scale
        for K, row in m_t.table.items() if spines or whole else ():
            if whole:
                _add_row(res, K, whole * scale, row)
            m_K = _repeats(K) if antisym else 1
            for heads, (last, end, later, room, makers), partial in spines:
                opts = makers.get(K[last])
                if not opts:
                    continue
                # (inputs so far, coefficient, their degree parity, prod m_J!),
                # component slot by component slot
                for t, start, later_t, room_t, by_label in heads:
                    gap = K[start:t]
                    gap_odd = sum(map(odd_deg.__getitem__, gap)) & 1
                    grown = []
                    for T, coef, odd, m in partial:
                        for size, shift_odd, keys in by_label.get(K[t], ()):
                            if len(T) + size <= room_t:
                                flip = shift_odd and (odd ^ gap_odd ^ later_t) & 1
                                coef_J = -coef if flip else coef
                                grown += [(T + gap + J, coef_J * c, odd ^ gap_odd ^ parity, m * m_J)
                                          for J, c, parity, m_J in keys]
                    partial = grown
                gap, tail = K[end:last], K[last + 1:]
                for T, coef, odd, m in partial:
                    head = T + gap
                    hi = room - len(T)
                    lo = hi if exact else 0
                    for size, shift_odd, keys in opts:
                        if not lo <= size <= hi:
                            continue
                        coef_J = coef
                        if shift_odd and (odd + later + sum(map(odd_deg.__getitem__, gap))) & 1:
                            coef_J = -coef
                        if not antisym:
                            for J, c, _, _ in keys:
                                _add_row(res, head + J + tail, coef_J * c, row)
                            continue
                        for J, c, _, m_J in keys:
                            S, sign, m_S = land(head + J + tail)
                            if sign:
                                weight = sign * m_S // (m * m_J)
                                if m_K != 1:
                                    weight = Fraction(weight, m_K)
                                _add_row(res, S, coef_J * c if weight == 1 else coef_J * c * weight,
                                         row)
    return res
