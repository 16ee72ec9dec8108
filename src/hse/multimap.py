"""Sparse degree-homogeneous multilinear maps given by structure constants.

A MultiMap of arity n and shift s sends degree-(d_1, ..., d_n) inputs to
degree d_1 + ... + d_n + s.  The coefficient table maps input label tuples
to sparse output vectors; zero entries are never stored.  Rational
coefficients are stored in the one form of ``scalars.canonical``: an int
when integral, else a Fraction with denominator > 1.  ``store``, the only
writer of a table, enforces it; ``add`` canonicalizes a key and calls it,
and a key already in stored form (a parsed key, checked once, or a table
copied from one stored so) goes to it directly.  Any commutative-ring
element type with +, *, unary - and truthiness works too and is stored as
it comes (the deformation modules feed ring elements through the same
code).

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
``tensor_compose`` are that walk.  It runs on integer rows: every map is
read at the lcm of its denominators, and every term lands in one int
accumulator at one common scale L, so a rational appears only where a value
leaves the walk, divided by L once: a violation's residual, a kernel's or a
composite's output entry (``add_rows``).  ``tensor_compose`` adds scale *
the composite into an output map in place; ``postcompose`` builds scale *
linear o mm row by row (``image``).
``evaluate_on_vectors`` reads a map at per-slot vectors one input tuple at
a time; no engine code calls it.

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

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, groupby, product
from math import factorial, lcm, prod
from operator import mul

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
        # ``denominator()``: kept up by ``add`` while entries only arrive,
        # None (read afresh) once a stored rational or ring element changes
        self._denominator: int | None = 1
        self._canon_cache: dict[tuple[str, ...], tuple[tuple[str, ...], int]] = {}

    # -- construction ------------------------------------------------------

    def add(self, key: tuple[str, ...], out_label: str, coef) -> None:
        """Accumulate one term; the key is canonicalized first."""
        if not coef:
            return
        if len(key) != self.arity:
            raise ValueError(f"key arity {len(key)} != {self.arity}")
        ckey, sign = self._canonical(key)
        if sign:
            self.store(ckey, out_label, coef if sign == 1 else -coef)

    def store(self, key: tuple[str, ...], out_label: str, coef) -> None:
        """Accumulate one term at a key already in stored form, the key
        ``add`` would canonicalize to with its sign applied: a parsed key
        checked once, or a table copied from one whose keys are stored so.
        The one writer of the table: it keeps every coefficient in scalar
        form and ``denominator()`` up to date."""
        row = self.table.setdefault(key, {})
        old = row.get(out_label, 0)
        total = old + coef
        if type(total) is int:
            # a sum of two ints: in scalar form, and denominator() holds
            if total:
                row[out_label] = total
                return
        else:
            if type(old) is not int:
                self._denominator = None
            if total:
                row[out_label] = total = canonical(total)
                if type(total) is not int and self._denominator:
                    self._denominator = (lcm(self._denominator, total.denominator)
                                         if type(total) is Fraction else 0)
                return
        row.pop(out_label, None)
        if not row:
            del self.table[key]

    def _canonical(self, key: tuple[str, ...]) -> tuple[tuple[str, ...], int]:
        """(stored key, sign) with map(key) = sign * map(stored key).

        A key whose antisymmetric part is already in strictly increasing
        basis order is its own stored key with sign +1: the sort is the
        identity and no label repeats.  Most keys arrive so (the kernel's
        candidates, package entries), and only the others are sorted and
        cached; the scan of an ordered key costs about what a cache lookup
        does, so the cache keeps no entry for it.
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
                return key, 1
        except KeyError:
            pass  # an unknown label: the sort below names it
        degs = tuple(space.deg(l) for l in part)
        sorted_part, sign = sort_with_sign(part, degs, order)
        result = (sorted_part + key[len(part):], sign)
        self._canon_cache[key] = result
        return result

    def denominator(self) -> int:
        """The lcm of the denominators of the stored coefficients (1 when
        all are ints), or 0 when one is a ring element: the scale a walk
        reads the map at (``morphism_terms``)."""
        if self._denominator is None:
            seen = {c.denominator if type(c) is Fraction else 0
                    for row in self.table.values() for c in row.values() if type(c) is not int}
            self._denominator = 0 if 0 in seen else lcm(*seen)
        return self._denominator

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


def add_rows(out: MultiMap, rows: dict, scale: int = 1) -> MultiMap:
    """Add every entry of a tuple -> row dict (a table, or a walk's or a
    contraction's accumulator), divided by scale (a walk's L), into out and
    return out; zero entries add nothing."""
    for key, row in rows.items():
        for lab, c in row.items():
            if c:
                out.add(key, lab, c if scale == 1 else Fraction(c, scale))
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


def image(linear: MultiMap, vector: dict) -> dict:
    """linear (arity 1) at a vector, label -> coefficient, read off its
    stored rows: label -> coefficient, cancelled entries kept as zeros."""
    rows = linear.table
    out: dict = {}
    for mid, c in vector.items():
        row = rows.get((mid,))
        if row:
            for lab, d in row.items():
                out[lab] = out.get(lab, 0) + c * d
    return out


def postcompose(linear: MultiMap, mm: MultiMap, scale=1) -> MultiMap:
    """scale * (linear o mm), a new map; linear has arity 1, so no signs
    arise at the output.  Each row of mm is mapped by ``image`` and each
    composite entry stored once, at mm's own key: the composite shares mm's
    keys and symmetry."""
    if linear.arity != 1:
        raise ValueError("postcompose needs an arity-1 map")
    out = MultiMap(mm.space_in, linear.space_out, mm.arity, mm.shift + linear.shift,
                   mm.symmetry)
    for key, row in mm.table.items():
        for lab, c in image(linear, row).items():
            if c:
                out.store(key, lab, c if scale == 1 else scale * c)
    return out


def _repeats(T: tuple[str, ...]) -> int:
    """prod over the labels l of a sorted T of m_T(l)!."""
    if len(set(T)) == len(T):
        return 1
    return prod(factorial(len(list(run))) for _, run in groupby(T))


def _add_row(res: dict, T: tuple[str, ...], coef, row: dict) -> None:
    vec = res.setdefault(T, {})
    for lab, c in row.items():
        vec[lab] = vec.get(lab, 0) + coef * c


def _times(c, factor: int):
    """c * factor: an int when factor is a multiple of the denominator of
    the rational c, as the walk's scales are."""
    if type(c) is Fraction:
        quotient, rest = divmod(factor, c.denominator)
        return c * factor if rest else c.numerator * quotient
    return c * factor


def _placed(entries, Vc: tuple, Vo: tuple, before: int, odd_before: int) -> list:
    """[(entry, parity of the sign flips, whether a code repeats)] for each
    entry (..., Rc, Ro), a sorted run of codes and its odd codes, that sorts
    in among a term's other inputs, Vc sorted (Vo their odd codes): the
    first ``before`` of those precede the run (``odd_before`` of them odd)
    and the rest follow it, each part sorted.  An entry where an even code
    repeats one of Vc is left out.  A code c of Rc crosses the codes before
    the run above c and those after it below c, before + (codes of Vc below
    c) of them mod 2, and each flips the sign but for a crossing of two odd
    labels, which the same count over the odd codes takes out again.
    """
    placed, n = [], len(Vc)
    for entry in entries:
        Rc, Ro = entry[-2:]
        flips, tie = len(Rc) * before + len(Ro) * odd_before, False
        for c in Rc:
            p = bisect_left(Vc, c)
            if p < n and Vc[p] == c:
                if not c & 1:
                    break
                tie = True
            flips += p
        else:
            for c in Ro:
                flips += bisect_left(Vo, c)
            placed.append((entry, flips & 1, tie))
    return placed


def _merge(Tc: tuple, To: tuple, Rc: tuple, Ro: tuple):
    """Sort the codes Tc + Rc, each part sorted, Tc first (To and Ro their
    odd codes): (the codes in basis order, their odd codes, and what
    ``_placed`` reads off Rc), or None when an even label repeats."""
    if not Tc or Tc[-1] < Rc[0]:
        return Tc + Rc, To + Ro, 0, False  # Rc lies above Tc
    for _, flips, tie in _placed([(Rc, Ro)], Tc, To, len(Tc), len(To)):
        return tuple(sorted(Tc + Rc)), tuple(sorted(To + Ro)), flips, tie
    return None


def _odd_part(codes: tuple) -> tuple[tuple, tuple]:
    """A run of codes and its odd codes, as ``_merge`` reads them."""
    return codes, tuple(filter((1).__and__, codes))


def _walk_form(m_f: MultiMap, d: int, antisym: bool, parity: bool,
               space: GradedSpace) -> dict[str, list]:
    """A component map's rows as a walk reads them: output label -> [(J,
    D * coefficient, the degree parity of J (0 unless parity)), or if
    antisymmetric (J, D * coefficient, 0, prod m_J(l)!, J's codes, J's odd
    codes)] over its keys J producing the label, D = d."""
    found: dict[str, list] = {}
    if antisym:
        code = space.codes
    else:
        odd_deg = space.parities
    for J, row in m_f.table.items():
        if antisym:
            m_J, (Jc, Jo) = _repeats(J), _odd_part(tuple(map(code.__getitem__, J)))
        else:
            odd = sum(map(odd_deg.__getitem__, J)) & 1 if parity else 0
        for lab, c in row.items():
            if d != 1:
                c = _times(c, d)
            entry = (J, c, 0, m_J, Jc, Jo) if antisym else (J, c, odd)
            keys = found.get(lab)
            if keys is None:
                found[lab] = [entry]
            else:
                keys.append(entry)
    return found


def uniform_plan(components: dict[int, MultiMap], target: dict[int, MultiMap]) -> dict:
    """The plan of a morphism identity's right-hand side: for each target
    arity k, the components in all k slots, with scale 1."""
    return {k: [((components,) * k, 1)] for k in target}


def morphism_terms(walks: list[tuple[dict, dict[int, MultiMap], int]], space: GradedSpace,
                   antisym: bool, max_arity: int, exact: bool = False,
                   forms: dict | None = None) -> tuple[dict, int]:
    """(res, L): res maps each tuple of at most max_arity inputs from space,
    or exactly max_arity with ``exact``, to L times the sum, over the walks
    (plans, target, scale), of scale * the sum over plans of
    target_k(M_1 x ... x M_k) there (cancelled entries kept as zeros).

    ``plans[k]`` lists (slots, plan scale) for target_k, where slot t holds
    the component set (arity -> map) that fills it, or None for identity;
    plan scales are ints.  A component of odd shift in slot t flips the sign
    past the odd inputs before it and, in epsilon, when k-1-t is odd.  A
    morphism's f_r has shift 1 - r, as have a transfer's -h p_r and
    (psi phi)_r, and the A-infinity transfer's -h Q_r has shift -r; all of
    them act on A or L itself.  An identity slot passes K[t] with no sign,
    so each run of them joins the inputs before the next component slot (a
    trailing run follows the last one), a term lands from its last
    component slot, and a plan of identities alone lands K itself.

    Integer rows.  A map is read at D times its coefficients, D the lcm of
    its stored denominators (``denominator``); a component set's terms are
    weighed by E / D, E the lcm of its maps' D, and target_k's rows are read
    at D_k and, when antisymmetric, at M_k / m_K, M_k the lcm of the m_K of
    its keys.  L is the lcm of D_k * M_k * prod_t E_t * den(scale) over the
    plans, so every term is an int at the one scale L, and the caller
    divides by L only where a value leaves the walk.  A walk whose stored
    coefficients are ints has L = 1 and reads its rows as stored.
    Ring-element coefficients are not scaled: such a walk runs at L = 1,
    with the weights 1/m_K as rationals.

    An antisymmetric term lands in basis order by merging its sorted runs:
    the inputs so far with each next run (an identity run of K, a key J),
    up to the last component slot, whose key is placed among the inputs
    before it and K's run after it (on a spine plan, K less the slot).
    Runs are read as codes 2 * basis position + degree parity, and the sign
    is counted from the crossings (``_placed``).

    Walk forms.  Each component map is indexed once per walk, by output
    label (``_walk_form``), and each target map's m_K are counted once.
    ``forms``, when given, keeps both for later walks on the same space: a
    kernel cache passes one dict to the walks of one build, whose maps stay
    unchanged while it lives, so each map is indexed once per build and not
    once per arity.
    """
    odd_deg = space.parities
    if antisym:
        code, label_at = space.codes, space.coded_labels.__getitem__
    # id(component set) -> the set, and the largest arity of its nonzero
    # maps; the sets filling a component slot before a plan's last one, of
    # whose keys only the degree parities are read
    sets: dict[int, dict[int, MultiMap]] = {}
    headed = set()
    for plans, _, _ in walks:
        for k_plans in plans.values():
            for slots, _ in k_plans:
                filled = [s for s in slots if s is not None]
                sets.update((id(s), s) for s in filled)
                headed.update(map(id, filled[:-1]))
    top = {key: max((m.arity for m in s.values() if m.table), default=0)
           for key, s in sets.items()}

    # per target map: its plans that can add a term, the scale of its plans
    # of identities alone, and the walk's scale
    jobs = []
    for plans, target, scale in walks:
        for k, m_t in target.items():
            if not m_t.table:
                continue
            spines, whole = [], 0
            for slots, plan_scale in plans.get(k, ()):
                sizes = [1 if s is None else top[id(s)] for s in slots]
                if not all(sizes) or sum(sizes) < max_arity and exact:
                    continue
                if len(sizes) > slots.count(None):
                    spines.append((slots, plan_scale))
                elif k <= max_arity:
                    whole += plan_scale
            if spines or whole:
                jobs.append((m_t, spines, whole, scale))
    used = {id(s): s for _, spines, _, _ in jobs for slots, _ in spines for s in slots if s}

    # each map is read at D * coefficient, D its ``denominator``, unless one
    # map holds ring elements
    dens = {id(m): m.denominator() for m in chain((m_t for m_t, _, _, _ in jobs),
                                                  *(s.values() for s in used.values()))}
    rational = all(dens.values())

    # id(component set) -> (its E, the lcm of its maps' D) and label -> (arity,
    # odd shift, E / D, the map's rows of that label in walk form) per map of
    # the set
    forms = {} if forms is None else forms
    indexes: dict[int, tuple[int, dict[str, list]]] = {}
    for key, components in used.items():
        makers: dict[str, list] = {}
        parity = not antisym and key in headed
        e = lcm(*(dens[id(m)] for m in components.values())) if rational else 1
        for m_f in components.values():
            d = dens[id(m_f)] if rational else 1
            found = forms.get(("rows", m_f, parity, d))
            if found is None:
                found = forms["rows", m_f, parity, d] = _walk_form(m_f, d, antisym, parity,
                                                                    space)
            for lab, keys in found.items():
                makers.setdefault(lab, []).append((m_f.arity, m_f.shift & 1, e // d, keys))
        indexes[key] = (e, makers)

    # the common scale L
    bases, L = [], 1
    for m_t, spines, whole, scale in jobs:
        # the keys repeating a label, with their m_K
        repeats = forms.get(("repeats", m_t))
        if repeats is None:
            repeats = forms["repeats", m_t] = (
                {K: _repeats(K) for K in m_t.table if len(set(K)) < len(K)} if antisym else {})
        if rational:
            d_k, m_k = dens[id(m_t)], lcm(*repeats.values())
            base = d_k * m_k * scale.denominator
        else:
            d_k = m_k = base = 1
        plan_dens = [base * prod(indexes[id(s)][0] for s in slots if s) for slots, _ in spines]
        L = lcm(L, base, *plan_dens)
        bases.append((d_k * m_k, base, plan_dens, repeats))

    times = _times if rational else mul
    res: dict = {}
    res_setdefault = res.setdefault
    for (m_t, spines, whole, scale), (row_scale, base, plan_dens, repeats) in zip(jobs, bases):
        k = m_t.arity
        num = scale.numerator if rational else scale
        whole *= num * (L // base)
        # per plan: its component slots but the last, each as (t, the start
        # s of the identity run K[s:t] before it, k-1-t, the room for the
        # inputs before that run and t's own, makers), then the last one's
        # five, and the plan's factor
        plans = []
        for (slots, plan_scale), plan_den in zip(spines, plan_dens):
            steps, end = [], 0
            for t, s in enumerate(slots):
                if s is not None:
                    steps.append((t, end, k - 1 - t, max_arity - (k - 1 - t) - (t - end),
                                  indexes[id(s)][1]))
                    end = t + 1
            plans.append((steps[:-1], *steps[-1], num * plan_scale * (L // plan_den)))
        for K, stored in m_t.table.items():
            # row_K at the walk's scale, * D_k * M_k / m_K, made on first use
            if antisym:
                m_K = repeats.get(K, 1)
                factor = row_scale // m_K if rational else Fraction(1, m_K)
            else:
                m_K, factor = 1, row_scale
            row = stored if factor == 1 else None
            if whole:
                row = row or {lab: times(c, factor) for lab, c in stored.items()}
                _add_row(res, K, whole * m_K, row)
            # antisymmetric: K's codes, made on first use; K[last], an output
            # of the slot's maps, may lie outside space, and is never read
            Kc = None
            for heads, last, end, later, room, makers, seed in plans:
                opts = makers.get(K[last])
                if not opts:
                    continue
                if row is None:
                    row = {lab: times(c, factor) for lab, c in stored.items()}
                if not (heads or antisym):
                    # a spine, K[:last] + J + K[last+1:], landed inline: the
                    # Stasheff check's every plan
                    head, tail = K[:last], K[last + 1:]
                    for size, shift_odd, e, keys in opts:
                        if size == room or size < room and not exact:
                            coef = seed if e == 1 else seed * e
                            if shift_odd and (later + sum(map(odd_deg.__getitem__, head))) & 1:
                                coef = -coef
                            for J, c, _ in keys:
                                vec = res_setdefault(head + J + tail if tail else head + J, {})
                                c *= coef
                                for lab, d in row.items():
                                    vec[lab] = vec.get(lab, 0) + c * d
                    continue
                if not antisym:
                    # (inputs so far, coefficient, their degree parity), component
                    # slot by component slot
                    partial = [((), seed, 0)]
                    for t, start, later_t, room_t, by_label in heads:
                        gap = K[start:t]
                        gap_odd = sum(map(odd_deg.__getitem__, gap)) & 1 if gap else 0
                        grown = []
                        for T, coef, odd in partial:
                            for size, shift_odd, e, keys in by_label.get(K[t], ()):
                                if len(T) + size <= room_t:
                                    flip = shift_odd and (odd ^ gap_odd ^ later_t) & 1
                                    coef_J = (-coef if flip else coef) * e
                                    grown += [(T + gap + J, coef_J * c, odd ^ gap_odd ^ parity)
                                              for J, c, parity in keys]
                        partial = grown
                    gap, tail = K[end:last], K[last + 1:]
                    gap_odd = sum(map(odd_deg.__getitem__, gap)) & 1 if gap else 0
                    for T, coef, odd in partial:
                        head = T + gap
                        hi = room - len(T)
                        lo = hi if exact else 0
                        for size, shift_odd, e, keys in opts:
                            if lo <= size <= hi:
                                coef_J = coef * e
                                if shift_odd and (odd + later + gap_odd) & 1:
                                    coef_J = -coef_J
                                for J, c, _ in keys:
                                    _add_row(res, head + J + tail, coef_J * c, row)
                    continue
                if Kc is None:
                    Kc = tuple(map(code.get, K))
                # the inputs before the last slot, kept sorted as codes with
                # their odd codes: (codes, odd codes, coefficient, prod m_J,
                # whether a label repeats)
                if heads:
                    # each next run (an identity run of K, then a key J)
                    # merged in, slot by slot, and then the identity run
                    # before the last slot
                    partial = [((), (), seed, 1, False)]
                    for t, start, later_t, room_t, by_label in heads:
                        grown = []
                        for Tc, To, coef, m, tie in partial:
                            if start < t:
                                merged = _merge(Tc, To, *_odd_part(Kc[start:t]))
                                if merged is None:
                                    continue
                                Tc, To, flips, joined = merged
                                coef, tie = (-coef if flips else coef), tie or joined
                            for size, shift_odd, e, keys in by_label.get(K[t], ()):
                                if len(Tc) - (t - start) + size > room_t:
                                    continue
                                coef_J = (-coef if shift_odd and (len(To) ^ later_t) & 1
                                          else coef) * e
                                if not Tc:  # J alone: sorted, with no sign
                                    grown += [(Jc, Jo, coef_J * c, m * m_J, tie)
                                              for _, c, _, m_J, Jc, Jo in keys]
                                    continue
                                grown += [(tuple(sorted(Tc + Jc)), tuple(sorted(To + Jo)),
                                           -coef_J * c if flips else coef_J * c,
                                           m * m_J, tie or joined)
                                          for (_, c, _, m_J, Jc, Jo), flips, joined
                                          in _placed(keys, Tc, To, len(Tc), len(To))]
                        partial = grown
                    gap = end < last and _odd_part(Kc[end:last])
                else:
                    # a spine: K[:last], in basis order
                    partial, gap = [(*_odd_part(Kc[:last]), seed, 1, False)], False
                # then the run of K after the last slot, and each key J of the
                # last slot placed between the two
                tail = last + 1 < len(K) and _odd_part(Kc[last + 1:])
                for Tc, To, coef, m, tie in partial:
                    if gap:
                        merged = _merge(Tc, To, *gap)
                        if merged is None:
                            continue
                        Tc, To, flips, joined = merged
                        coef, tie = (-coef if flips else coef), tie or joined
                    before, odd_before = len(Tc), len(To)
                    Vc, Vo = Tc, To
                    if tail:
                        merged = _merge(Tc, To, *tail)
                        if merged is None:
                            continue
                        Vc, Vo, flips, joined = merged
                        coef, tie = (-coef if flips else coef), tie or joined
                    hi = room - before + (last - end)
                    lo = hi if exact else 0
                    n = len(Vc)
                    for size, shift_odd, e, keys in opts:
                        if not lo <= size <= hi:
                            continue
                        coef_J = (-coef if shift_odd and (odd_before + later) & 1 else coef) * e
                        for _, c, _, m_J, Jc, Jo in keys:
                            # the count of ``_placed``, inline: it runs once
                            # per term
                            flips, joined = len(Jc) * before + len(Jo) * odd_before, tie
                            for cj in Jc:
                                p = bisect_left(Vc, cj)
                                if p < n and Vc[p] == cj:
                                    if not cj & 1:
                                        break
                                    joined = True
                                flips += p
                            else:
                                for cj in Jo:
                                    flips += bisect_left(Vo, cj)
                                T = tuple(map(label_at, sorted(Vc + Jc)))
                                term = coef_J * c
                                if joined or m_K != 1:
                                    term *= _repeats(T) // (m * m_J)
                                _add_row(res, T, -term if flips & 1 else term, row)
    return res, L


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
    return add_rows(out, *morphism_terms([(plan, {k: outer}, scale)], out.space_in, False,
                                         total_arity, exact=True))


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
