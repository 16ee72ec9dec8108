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

Contraction.  The L-infinity transfer kernel, the right-hand sides of the
morphism identities, the universal twisted differential and every
evaluation on coefficient vectors contract a table against per-slot sparse
vectors: at each vertex of a transfer tree (Loday-Vallette, Algebraic
Operads, 10.3) the outer map eats the values of the blocks below it.
``contract`` is that one kernel: it adds scale * mm(v_1, ..., v_n) into an
accumulator, reading each stored row in place.  ``block_vectors`` builds
the slot vectors of one block partition -- a slot is a raw input or a
map's stored row at the inputs of its block -- and is the one place that
applies the Koszul crossing rule: a map of odd shift passing inputs of odd
total degree in the earlier blocks contributes -1.  ``tensor_compose``
stays table-driven: it composes whole tables by walking the outer map's
stored keys, where an input-driven contraction would scan input tuples.
Like ``contract``, the compositions ``tensor_compose`` and ``postcompose``
add scale * the composite into an output map, so a signed sum of
composites (a transfer kernel, a homotopy residual) fills one map in place.

Symmetric powers.  Twisting by a degree-1 element w needs
sum_i (1/i!) m(w^i, T); ``contract_power`` reads it off the stored keys of
m, never enumerating the |supp w|^i label tuples.  Odd labels commute
under the antisymmetric sign ((-1)(-1) = +1), which is why they may repeat
in a stored key K, and why the i!/prod_l mult_S(l)! orderings of the
w-slots that give one sub-multiset S of K carry the same sign.  So S
contributes sign * prod_{s in S} w[s] / prod_l mult_S(l)! * row_K, with
(K, sign) = canonical(S + T): the multiplicity rule, applied only there.
The sign is counted from the even labels each s passes, so no permuted
key enters a map's canonicalization cache.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, prod

from .grading import GradedSpace
from .scalars import canonical
from .signs import all_permutations, antisym_sign, sort_with_sign

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


def add_tables(out: MultiMap, *parts: MultiMap | None) -> MultiMap:
    """Add every stored entry of each part, in order, into out (a None part
    adds nothing) and return out."""
    for part in parts:
        if part is not None:
            for key, row in part.table.items():
                for lab, c in row.items():
                    out.add(key, lab, c)
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


def tensor_compose(outer: MultiMap, inners: list[MultiMap | None],
                   out: MultiMap | None = None, scale=1) -> MultiMap:
    """Add scale * outer o (M_1 x ... x M_k) into out (a new map when None)
    and return it; None means an identity slot.

    Evaluation follows the Koszul rule: the factor in slot t crosses the raw
    inputs of the earlier slots, contributing (-1)^(shift_t * deg) per
    crossed input of odd degree.  The outer map must have symmetry "none";
    antisymmetric outers are consumed by the unshuffle machinery instead.
    An empty outer or inner table adds nothing.
    """
    if outer.symmetry != "none":
        raise ValueError("tensor_compose requires a plain (non-symmetric) outer map")
    if len(inners) != outer.arity:
        raise ValueError("slot count mismatch")
    if any(m is not None and m.symmetry != "none" for m in inners):
        raise ValueError("inner maps must be plain tables")

    shifts = [0 if m is None else m.shift for m in inners]
    if out is None:
        space_in = next((m.space_in for m in inners if m is not None), outer.space_in)
        total_arity = sum(1 if m is None else m.arity for m in inners)
        out = MultiMap(space_in, outer.space_out, total_arity, outer.shift + sum(shifts))
    if not outer.table or not all(m is None or m.table for m in inners):
        return out
    if all(m is None for m in inners):  # scale * outer
        for key, row in outer.table.items():
            for lab, c in row.items():
                out.add(key, lab, scale * c)
        return out

    deg_in = out.space_in.deg
    # index inner tables by output label: (input chunk, coefficient, chunk degree parity)
    indexed: list[dict[str, list[tuple[tuple[str, ...], object, int]]] | None] = []
    for m in inners:
        if m is None:
            indexed.append(None)
            continue
        by_out: dict[str, list[tuple[tuple[str, ...], object, int]]] = {}
        for key, row in m.table.items():
            odd = sum(deg_in(l) for l in key) & 1
            for lab, c in row.items():
                by_out.setdefault(lab, []).append((key, c, odd))
        indexed.append(by_out)

    for okey, orow in outer.table.items():
        # (inputs so far, coefficient, their degree parity), grown slot by slot
        partial = [((), scale, 0)]
        for index, mid, shift in zip(indexed, okey, shifts):
            opts = [((mid,), 1, deg_in(mid) & 1)] if index is None else index.get(mid)
            if not opts:
                break
            partial = [(labels + chunk, -coef * c if shift & 1 and odd else coef * c,
                        odd ^ chunk_odd)
                       for labels, coef, odd in partial for chunk, c, chunk_odd in opts]
        else:
            for key, coef, _ in partial:
                for lab, c in orow.items():
                    out.add(key, lab, coef * c)
    return out


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
    """Sum over all permutations with the antisym sign: the A-oo to L-oo functor
    on one component, l(a_1..a_n) = sum_sigma chi(sigma) nu(a_{sigma(1)}..a_{sigma(n)})."""
    space = nu.space_in
    out = MultiMap(space, nu.space_out, nu.arity, nu.shift, "antisym")
    n = nu.arity
    for sigma in all_permutations(n):
        inverse = [0] * n
        for pos, i in enumerate(sigma):
            inverse[i] = pos
        for ukey, row in nu.table.items():
            # T with (T[sigma[0]], ..) = ukey, i.e. T[sigma[p]] = ukey[p]
            T = tuple(ukey[inverse[i]] for i in range(n))
            degs = tuple(space.deg(l) for l in T)
            sign = antisym_sign(sigma, degs)
            for lab, c in row.items():
                out.add(T, lab, sign * c)
    return out


def contract(mm: MultiMap, vectors: list[dict[str, object]], acc: dict, scale=1) -> dict:
    """Add scale * mm(v_1, ..., v_n) into acc and return acc.

    The vectors map labels to coefficients that are even/central (no Koszul
    signs arise from them).  Each stored row is read in place with
    ``get_ref`` and entries that cancel are dropped from acc.
    """
    n = len(vectors)
    get_ref = mm.get_ref

    def rec(t: int, labels: tuple[str, ...], coef) -> None:
        if t == n:
            row, sign = get_ref(labels)
            if row is None:
                return
            if sign == -1:
                coef = -coef
            for lab, c in row.items():
                total = acc.get(lab, 0) + coef * c
                if total:
                    acc[lab] = total
                else:
                    acc.pop(lab, None)
            return
        for lab, c in vectors[t].items():
            rec(t + 1, labels + (lab,), coef * c)

    rec(0, (), scale)
    return acc


def contract_power(mm: MultiMap, w: dict[str, object], i: int, acc: dict, scale=1) -> dict:
    """Add scale * (1/i!) mm(w, ..., w, T) into acc[T] for every tail T.

    A tail is a stored key with i labels of supp w removed from its
    antisymmetric part, in stored order (the module slot stays last); w must
    sit on odd labels with even coefficients.  Each distinct sub-multiset
    contributes by the multiplicity rule above.  Cancelled entries are dropped.
    """
    space = mm.space_in
    w = {lab: c for lab, c in w.items() if c}
    if i and (mm.symmetry == "none" or any(lab in space and space.deg(lab) % 2 == 0 for lab in w)):
        raise ValueError("symmetric powers need an antisymmetric map and w on odd labels")
    lead = 0 if i == 0 else mm.arity - (mm.symmetry == "antisym_algebra")
    powers: dict[tuple[str, ...], object] = {}  # S -> scale * prod w[s] / prod mult_S(l)!
    in_w = w.__contains__
    for key, row in mm.table.items():
        head = key[:lead]
        if i == lead:  # the whole antisymmetric part is S, in stored order
            choices = ((head, (), 1),) if all(map(in_w, head)) else ()
        else:
            choices = _sub_multisets(head, w, i, space.deg)
        for S, rest, sign in choices:
            base = powers.get(S)
            if base is None:
                base = powers[S] = _power(w, S, scale)
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


def _power(w: dict[str, object], S: tuple[str, ...], scale):
    mult = prod(factorial(len(list(group))) for _, group in groupby(S))
    for lab in S:
        scale = scale * w[lab]
    return scale * Fraction(1, mult) if mult > 1 else scale


def block_vectors(maps: list[MultiMap | None], T: tuple[str, ...], degs: tuple[int, ...],
                  blocks) -> tuple[list[dict[str, object]], int]:
    """Slot vectors of outer(M_1(T[B_1]), ..., M_k(T[B_k])) and their sign.

    ``maps[t]`` is None for a raw input (its block holds one index) and
    otherwise a map whose stored row at the labels of block t fills slot t.
    The sign collects the rows' canonicalization signs and the Koszul
    crossing rule: a map of odd shift crossing the inputs of the earlier
    blocks, of odd total degree, contributes -1.  The sign is 0 when some
    block value is zero.  Rows are returned in place; do not mutate them.
    """
    vectors: list[dict[str, object]] = []
    sign = 1
    odd = 0
    for m, block in zip(maps, blocks):
        if m is None:
            vectors.append({T[block[0]]: 1})
        else:
            row, s0 = m.get_ref(tuple(T[i] for i in block))
            if row is None:
                return [], 0
            sign *= -s0 if m.shift % 2 and odd else s0
            vectors.append(row)
        odd ^= sum(degs[i] for i in block) & 1
    return vectors, sign


def evaluate_on_vectors(mm: MultiMap, vectors: list[dict[str, object]]):
    """Evaluate on coefficient vectors (labels -> even ring elements).

    The coefficients must be even/central, so no Koszul signs arise from
    them; this matches l_n^A = l_n (x) id_A for the ring-tensored structures.
    """
    if len(vectors) != mm.arity:
        raise ValueError("vector count mismatch")
    return contract(mm, vectors, {})
