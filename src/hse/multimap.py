"""Sparse degree-homogeneous multilinear maps given by structure constants.

A MultiMap of arity n and shift s sends degree-(d_1, ..., d_n) inputs to
degree d_1 + ... + d_n + s.  The coefficient table maps input label tuples
to sparse output vectors; zero entries are never stored.  Rational
coefficients are stored in the one form of ``scalars.canonical``: an int
when integral, else a Fraction with denominator > 1.  ``add``, the only
writer of a table, enforces it.  Any commutative-ring element type with
+, *, unary - and truthiness works too and is stored as it comes (the
deformation modules feed ring elements through the same code).

Symmetry handling:

* ``none`` - the table is the whole map (A-infinity products, chain maps).
* ``antisym`` - graded antisymmetric under the signature-times-Koszul sign;
  only tuples sorted by the input space's basis order are stored, other
  orderings are reconstructed by sign.
* ``antisym_algebra`` - module maps: antisymmetric in all slots but the
  last, which is the module slot; the stored keys have the leading slots
  sorted.

Composition.  Whole tables compose by one walk over the stored keys,
``morphism_terms``: per target key K, slot t takes a key J_t of its
component set producing K[t] (an identity slot, K[t] itself) and the signed
row_K lands on J_1 + ... + J_k.  Both sides of every identity the checkers
evaluate (an identity's left-hand side is one plan per outer slot, with the
inner maps there and identities elsewhere), both transfers' kernels and
``tensor_compose`` are that walk.  It and ``postcompose`` add scale * the
composite into an output map in place.  ``evaluate_on_vectors`` reads a map
at per-slot vectors one input tuple at a time; no engine code calls it.

Symmetric sums read each stored key once.  Odd labels commute under the
antisymmetric sign ((-1)(-1) = +1), which is why they may repeat in a
stored key K, and why all the orderings of K's labels that a sum visits
carry one sign; so K is weighted by their number, m_K = prod_l mult_K(l)!
(``_repeats``): the multiplicity rule.

* ``antisymmetrization`` (l(S) = sum_sigma chi(sigma) nu(S_sigma)) adds
  m_U * row_U at each stored key U of nu; ``add`` applies the sign (0 when
  an even label repeats).
* Twisting by a degree-1 element w needs sum_i (1/i!) m(w^i, T);
  ``contract_power`` reads it off the stored keys of m, never enumerating
  the |supp w|^i label tuples: a sub-multiset S of K in the w-slots
  contributes sign * prod_{s in S} w[s] / m_S * row_K, with
  (K, sign) = canonical(S + T).  The sign is counted from the even labels
  each s passes, so no permuted key enters a map's canonicalization cache.
  The products come from a ``PowerTable``, which multiplies each S out once,
  from its prefix, for every call that shares it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, product
from math import factorial, prod

from .grading import GradedSpace
from .scalars import canonical
from .signs import sort_with_sign

SYMMETRIES = ("none", "antisym", "antisym_algebra")


class MultiMap:
    def __init__(
        self,
        space_in: GradedSpace,
        space_out: GradedSpace,
        arity: int,
        shift: int,
        symmetry: str = "none",
    ):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        if symmetry not in SYMMETRIES:
            raise ValueError(f"unknown symmetry {symmetry!r}")
        self.space_in = space_in
        self.space_out = space_out
        self.arity = arity
        self.shift = shift
        self.symmetry = symmetry
        self.table: dict[tuple[str, ...], dict[str, object]] = {}
        self._canon_cache: dict[tuple[str, ...], tuple[tuple[str, ...], int]] = {}

    # -- construction ------------------------------------------------------

    def add(self, key: tuple[str, ...], out_label: str, coef) -> None:
        """Accumulate one term; the key is canonicalized first."""
        if not coef:
            return
        if len(key) != self.arity:
            raise ValueError(f"key arity {len(key)} != {self.arity}")
        ckey, sign = self._canonical(key)
        if sign == 0:
            return
        if sign == -1:
            coef = -coef
        row = self.table.setdefault(ckey, {})
        total = row.get(out_label, 0) + coef
        if total:
            row[out_label] = canonical(total)
        else:
            row.pop(out_label, None)
            if not row:
                del self.table[ckey]

    def _canonical(self, key: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
        """(stored key, sign) with map(key) = sign * map(stored key).

        A key whose antisymmetric part is already in strictly increasing
        basis order is its own stored key with sign +1: the sort is the
        identity and no label repeats.  Most keys arrive so (the kernel's
        candidates, package entries), and only the others are sorted.
        """
        if self.symmetry == "none":
            return key, 1
        cached = self._canon_cache.get(key)
        if cached is not None:
            return cached
        space = self.space_in
        part = key if self.symmetry == "antisym" else key[:-1]
        order = space.order_index
        prev = -1
        try:
            for lab in part:
                i = order(lab)
                if i <= prev:
                    break
                prev = i
            else:
                result = (key, 1)
                self._canon_cache[key] = result
                return result
        except KeyError:
            pass  # an unknown label: the sort below names it
        degs = tuple(space.deg(l) for l in part)
        sorted_part, sign = sort_with_sign(part, degs, order)
        result = (sorted_part + key[len(part):], sign)
        self._canon_cache[key] = result
        return result

    # -- lookup ------------------------------------------------------------

    def get(self, key: tuple[str, ...]) -> dict[str, object]:
        """The output vector at an arbitrary (not necessarily sorted) key."""
        row, sign = self.get_ref(key)
        if row is None:
            return {}
        if sign == 1:
            return dict(row)
        return {lab: -c for lab, c in row.items()}

    def get_ref(self, key: tuple[str, ...]):
        """(stored row, sign) without copying; row is None when zero.

        Hot-path variant of get(); callers must not mutate the row.
        """
        ckey, sign = self._canonical(key)
        row = self.table.get(ckey)
        if not row or sign == 0:
            return None, 0
        return row, sign

    def is_zero(self) -> bool:
        return not self.table

    def entries(self):
        """Iterate stored (canonical key, output vector) pairs."""
        return self.table.items()

    # -- algebra -----------------------------------------------------------

    def equals(self, other: "MultiMap") -> bool:
        if self.arity != other.arity:
            return False
        keys = set(self.table) | set(other.table)
        for key in keys:
            if self.get(key) != other.get(key):
                return False
        return True

    def audit_shift(self) -> list[str]:
        """Entries violating the declared degree shift (label-level report)."""
        bad = []
        for key, row in self.table.items():
            in_deg = sum(self.space_in.deg(l) for l in key)
            for lab in row:
                if self.space_out.deg(lab) != in_deg + self.shift:
                    bad.append(f"{key} -> {lab}")
        return bad

    def audit_weights(self) -> list[str]:
        """Entries landing outside the weight-sum component."""
        if not (self.space_in.weighted and self.space_out.weighted):
            return []
        bad = []
        for key, row in self.table.items():
            w_in = sum(self.space_in.weight(l) for l in key)
            for lab in row:
                if self.space_out.weight(lab) != w_in:
                    bad.append(f"{key} -> {lab}")
        return bad


def add_rows(out: MultiMap, rows: dict) -> MultiMap:
    """Add every entry of a tuple -> row dict (a table, or a walk's or a
    contraction's accumulator) into out and return out; zero entries add
    nothing."""
    for key, row in rows.items():
        for lab, c in row.items():
            out.add(key, lab, c)
    return out


def add_tables(out: MultiMap, *parts: MultiMap | None) -> MultiMap:
    """Add every stored entry of each part, in order, into out (a None part
    adds nothing) and return out."""
    for part in parts:
        if part is not None:
            add_rows(out, part.table)
    return out


def identity_map(space: GradedSpace) -> MultiMap:
    mm = MultiMap(space, space, 1, 0)
    for e in space.elements:
        mm.add((e.label,), e.label, 1)
    return mm


def postcompose(linear: MultiMap, mm: MultiMap, out: MultiMap | None = None,
                scale=1) -> MultiMap:
    """Add scale * (linear o mm) into out (a new map when None) and return
    it; linear has arity 1, so no signs arise at the output."""
    if linear.arity != 1:
        raise ValueError("postcompose needs an arity-1 map")
    if out is None:
        out = MultiMap(mm.space_in, linear.space_out, mm.arity, mm.shift + linear.shift,
                       mm.symmetry)
    for key, row in mm.table.items():
        for mid, c in row.items():
            for lab, d in linear.get((mid,)).items():
                out.add(key, lab, scale * c * d)
    return out


def _repeats(T: tuple[str, ...]) -> int:
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


def uniform_plan(components: dict[int, MultiMap], target: dict[int, MultiMap]) -> dict:
    """The plan of a morphism identity's right-hand side: for each target
    arity k, the components in all k slots, with scale 1."""
    return {k: [((components,) * k, 1)] for k in target}


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


def tensor_compose(outer: MultiMap, inners: list[MultiMap | None],
                   out: MultiMap | None = None, scale=1) -> MultiMap:
    """Add scale * outer o (M_1 x ... x M_k) into out (a new map when None)
    and return it; None means an identity slot.

    Evaluation follows the Koszul rule: the factor in slot t crosses the raw
    inputs of the earlier slots, contributing (-1)^(shift_t * deg) per
    crossed input of odd degree.  The outer map must have symmetry "none":
    the walk lands its keys unsorted, as plain tables.  An empty outer or
    inner table adds nothing.  The walk's epsilon is cancelled by the plan
    scale (-1)^(k-1-t) per odd-shift inner in slot t.
    """
    if outer.symmetry != "none":
        raise ValueError("tensor_compose requires a plain (non-symmetric) outer map")
    if len(inners) != outer.arity:
        raise ValueError("slot count mismatch")
    if any(m is not None and m.symmetry != "none" for m in inners):
        raise ValueError("inner maps must be plain tables")

    k = outer.arity
    total_arity = sum(1 if m is None else m.arity for m in inners)
    if out is None:
        space_in = next((m.space_in for m in inners if m is not None), outer.space_in)
        out = MultiMap(space_in, outer.space_out, total_arity,
                       outer.shift + sum(m.shift for m in inners if m is not None))
    epsilon = sum(k - 1 - t for t, m in enumerate(inners) if m is not None and m.shift & 1)
    slots = tuple(None if m is None else {m.arity: m} for m in inners)
    plan = {k: [(slots, -1 if epsilon & 1 else 1)]}
    return add_rows(out, morphism_terms(plan, {k: outer}, out.space_in, False, total_arity,
                                        exact=True, scale=scale))


def compose_multimaps(outer: MultiMap, inner: MultiMap, slot: int) -> MultiMap:
    """Plug `inner` into one slot of `outer` (slots count from 1).

    The Koszul sign from the inner map's degree shift crossing the earlier
    arguments is included; the result has arity
    outer.arity + inner.arity - 1.
    """
    if not 1 <= slot <= outer.arity:
        raise ValueError(f"slot {slot} out of range for arity {outer.arity}")
    inners: list[MultiMap | None] = [None] * outer.arity
    inners[slot - 1] = inner
    return tensor_compose(outer, inners)


def antisymmetrization(nu: MultiMap) -> MultiMap:
    """The A-oo to L-oo functor on one component,
    l(a_1..a_n) = sum_sigma chi(sigma) nu(a_{sigma(1)}..a_{sigma(n)}).

    By the multiplicity rule each stored key U of nu adds m_U * row_U at U:
    the m_U = prod_l mult_U(l)! permutations that reorder the sorted labels
    of U into U share one sign, which ``add`` applies (0 when an even label
    repeats).
    """
    out = MultiMap(nu.space_in, nu.space_out, nu.arity, nu.shift, "antisym")
    for U, row in nu.table.items():
        m_U = _repeats(sorted(U))
        for lab, c in row.items():
            out.add(U, lab, m_U * c)
    return out


class PowerTable(dict):
    """scale * prod_{s in S} w[s] / m_S by sub-multiset S of supp w, equal
    labels adjacent as in a stored key, for one w and scale.  S is
    multiplied out the first time it is read, from its prefix S[:-1]
    (``_power``), so calls of ``contract_power`` that share one table
    multiply each S out once."""

    __slots__ = ("w",)

    def __init__(self, w: dict[str, object], scale=1):
        super().__init__({(): scale})
        self.w = {lab: c for lab, c in w.items() if c}

    def __missing__(self, S: tuple[str, ...]):
        got = self[S] = _power(self, S)
        return got


def _power(powers: PowerTable, S: tuple[str, ...]):
    """powers[S] from powers[S[:-1]]: m_S = m_{S[:-1]} * k, where k is the
    number of copies of S[-1] that end S."""
    base = powers[S[:-1]]
    if not base:
        return base
    lab = S[-1]
    k = 1
    while k < len(S) and S[-1 - k] == lab:
        k += 1
    base = base * powers.w[lab]
    return base * Fraction(1, k) if k > 1 else base


def contract_power(mm: MultiMap, w: dict[str, object], i: int, acc: dict, scale=1) -> dict:
    """Add scale * (1/i!) mm(w, ..., w, T) into acc[T] for every tail T.

    A tail is a stored key with i labels of supp w removed from its
    antisymmetric part, in stored order (the module slot stays last); w must
    sit on odd labels with even coefficients.  Each distinct sub-multiset
    contributes by the multiplicity rule above.  Cancelled entries are dropped.
    w may be a ``PowerTable`` (whose scale then applies): calls that pass
    one table share its products.
    """
    space = mm.space_in
    powers = w if isinstance(w, PowerTable) else PowerTable(w, scale)
    w = powers.w
    if i and (mm.symmetry == "none" or any(lab in space and space.deg(lab) % 2 == 0 for lab in w)):
        raise ValueError("symmetric powers need an antisymmetric map and w on odd labels")
    lead = 0 if i == 0 else mm.arity - (mm.symmetry == "antisym_algebra")
    in_w = w.__contains__
    for key, row in mm.table.items():
        head = key[:lead]
        if i == lead:  # the whole antisymmetric part is S, in stored order
            choices = ((head, (), 1),) if all(map(in_w, head)) else ()
        else:
            choices = _sub_multisets(head, w, i, space.deg)
        for S, rest, sign in choices:
            base = powers[S]
            if not base:
                continue
            tail = rest + key[lead:]
            coef = base if sign == 1 else -base
            vec = acc.setdefault(tail, {})
            for lab, c in row.items():
                term = coef if c == 1 else coef * c
                old = vec.get(lab)
                total = term if old is None else old + term
                if total:
                    vec[lab] = total
                else:
                    vec.pop(lab, None)
    return acc


def _sub_multisets(head: tuple[str, ...], w: dict, i: int, deg) -> list[tuple[tuple, tuple, int]]:
    """(S, rest, sign) for each distinct sub-multiset S of i labels of the
    sorted head lying in supp w; rest is the head without S, in order, and
    sign is that of canonical(S + rest): each odd s passing an even label
    gives -1, passing an odd one +1."""
    runs = [(lab, len(list(group))) for lab, group in groupby(head)]
    cap = sum(cnt for lab, cnt in runs if lab in w)
    # (S, rest, labels still to choose, crossings), choosing run by run
    states = [((), (), i, 0)] if cap >= i else []
    evens = 0
    for lab, cnt in runs:
        free = lab in w
        cap -= cnt if free else 0
        states = [(S + (lab,) * c, rest + (lab,) * (cnt - c), left - c, cross + c * evens)
                  for S, rest, left, cross in states
                  for c in range(max(0, left - cap), (min(cnt, left) if free else 0) + 1)]
        evens += 0 if deg(lab) % 2 else cnt
    return [(S, rest, -1 if cross % 2 else 1) for S, rest, _, cross in states]


def evaluate_on_vectors(mm: MultiMap, vectors: list[dict[str, object]]) -> dict:
    """mm(v_1, ..., v_n) on coefficient vectors (labels -> even ring elements),
    one input tuple per choice of a label in each slot; zero entries dropped.

    The coefficients must be even/central, so no Koszul signs arise from
    them; this matches l_n^A = l_n (x) id_A for the ring-tensored structures.
    """
    if len(vectors) != mm.arity:
        raise ValueError("vector count mismatch")
    acc: dict[str, object] = {}
    for choice in product(*(v.items() for v in vectors)):
        row, sign = mm.get_ref(tuple(lab for lab, _ in choice))
        coef = prod((c for _, c in choice), start=sign)
        for lab, c in (row or {}).items():
            acc[lab] = acc.get(lab, 0) + coef * c
    return {lab: v for lab, v in acc.items() if v}
