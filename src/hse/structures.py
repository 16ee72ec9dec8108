"""A-infinity / L-infinity algebras, modules, pairs, morphisms, and their
identity checkers.

There is one identity per kind of structure: Stasheff for A-infinity
algebras and morphisms, Jacobi for L-infinity algebras and morphisms.  Both
operads share one residual loop and one checker, which read where the inner
map sits, which block orderings a morphism sums over and with which signs
from the two-entry table ``OPERADS``.  An L-infinity module M over L is the
L-infinity algebra L (+) M in which M is an abelian ideal (Lada-Markl), so
the module identities are the Jacobi identities of L (+) M at the tuples
whose one module label is last, and a module morphism g is checked as the
L-infinity morphism id_L (+) g.  A pair is certified by one Jacobi pass of
L (+) M, which ``split_pair_report`` splits into L's Jacobi report (the
tuples with no module label) and M's module report (the rest).

Structure maps are stored sparsely with finite arity support; an absent
arity is the zero map.  Checkers evaluate the defining identities exactly
and report the full violation list (sign debugging needs more than a
boolean).  A term of an identity is nonzero only when each map it reads has
a stored row at its inputs, so a tuple with a nonzero residual is reached
from the stored keys: an outer key with one slot replaced by an inner key
producing that slot's label, or a morphism's target key with every slot
replaced by a component key producing it.  The checkers evaluate exactly
those candidates that lie in the degree window (output degree populated),
in basis order, and a residual anywhere else is identically zero; the
violation lists are those of a scan over every basis tuple in the window.

The antisymmetric convention throughout is signature times Koszul sign
(``signs.antisym_sign``).  Under the pure-Koszul reading of the sign chi the
commutator bracket of a graded-commutative algebra would not antisymmetrize
to zero, so that reading is rejected; both signs remain available in
``signs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import accumulate
from typing import Callable, NamedTuple
from .grading import GradedSpace, combine_spaces
from .multimap import (
    MultiMap, add_tables, antisymmetrization, block_vectors, contract, identity_map)
from .signs import (
    antisym_sign,
    block_permutations,
    compositions as _compositions,
    epsilon_exponent,
    unshuffles,
)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class Violation:
    arity: int
    inputs: tuple[str, ...]
    residual: dict

    def describe(self) -> str:
        parts = ", ".join(f"{lab}: {c}" for lab, c in sorted(self.residual.items()))
        return f"arity {self.arity} at {self.inputs}: {parts}"


@dataclass(frozen=True)
class CheckReport:
    name: str
    ok: bool
    max_arity: int
    violations: tuple[Violation, ...] = ()
    detail: str = ""

    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "ok": self.ok,
            "max_arity": self.max_arity,
            "violations": [
                {"arity": v.arity, "inputs": list(v.inputs),
                 "residual": {k: str(c) for k, c in sorted(v.residual.items())}}
                for v in self.violations
            ],
            "detail": self.detail,
        }


class StructureError(ValueError):
    pass


# ---------------------------------------------------------------------------
# structures

class AInfAlgebra:
    """Products nu_n of arity n and shift 2-n; no symmetry imposed."""

    def __init__(self, space: GradedSpace, products: dict[int, MultiMap]):
        self.space = space
        self.products = {n: m for n, m in products.items() if m is not None and not m.is_zero()}
        for n, m in self.products.items():
            if m.arity != n or m.shift != 2 - n:
                raise StructureError(f"product nu_{n} has arity {m.arity}, shift {m.shift}")
            if m.symmetry != "none":
                raise StructureError("A-infinity products carry no symmetry flag")

    def max_arity(self) -> int:
        return max(self.products, default=0)


class LInfAlgebra:
    """Brackets l_n of arity n and shift 2-n, graded antisymmetric."""

    def __init__(self, space: GradedSpace, brackets: dict[int, MultiMap]):
        self.space = space
        self.brackets = {n: m for n, m in brackets.items() if m is not None and not m.is_zero()}
        for n, m in self.brackets.items():
            if m.arity != n or m.shift != 2 - n:
                raise StructureError(f"bracket l_{n} has arity {m.arity}, shift {m.shift}")
            if m.symmetry != "antisym":
                raise StructureError("L-infinity brackets must be antisym maps")

    def max_arity(self) -> int:
        return max(self.brackets, default=0)


class LInfModule:
    """Actions m_n on (n-1) algebra slots and one final module slot.

    ``combined`` is the disjoint union of the algebra and module bases; maps
    are stored over it with symmetry in the algebra slots only.
    ``direct_sum`` is the algebra L (+) M, built once by ``pair_to_algebra``
    (or handed over by ``algebra_to_module``) and kept, with the key caches
    its checks fill.
    """

    def __init__(self, algebra: LInfAlgebra, space: GradedSpace, actions: dict[int, MultiMap]):
        overlap = set(algebra.space.labels()) & set(space.labels())
        if overlap:
            raise StructureError(f"algebra and module labels overlap: {sorted(overlap)}")
        self.algebra = algebra
        self.space = space
        self.combined = combine_spaces(algebra.space, space)
        self.actions = {n: m for n, m in actions.items() if m is not None and not m.is_zero()}
        for n, m in self.actions.items():
            if m.arity != n or m.shift != 2 - n:
                raise StructureError(f"action m_{n} has arity {m.arity}, shift {m.shift}")
            if n > 1 and m.symmetry != "antisym_algebra":
                raise StructureError("module actions must be antisym in algebra slots")
        self.direct_sum: LInfAlgebra | None = None

    def max_arity(self) -> int:
        return max(max(self.actions, default=0), self.algebra.max_arity())


@dataclass
class LInfPair:
    algebra: LInfAlgebra
    module: LInfModule
    # the pair with the actions above arity 2 dropped, built and certified
    # once, on the first binary resonance ideal of the pair
    binary_shadow: LInfPair | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.module.algebra is not self.algebra:
            raise StructureError("pair module must be a module over the pair algebra")


class InfMorphism:
    """Components f_k of shift 1-k between structures of matching kind."""

    def __init__(self, kind: str, source, target, components: dict[int, MultiMap]):
        if kind not in ("ainf", "linf", "module"):
            raise StructureError(f"unknown morphism kind {kind!r}")
        self.kind = kind
        self.source = source
        self.target = target
        self.components = {k: m for k, m in components.items() if m is not None and not m.is_zero()}
        for k, m in self.components.items():
            if m.arity != k or m.shift != 1 - k:
                raise StructureError(f"component f_{k} has arity {m.arity}, shift {m.shift}")

    def max_arity(self) -> int:
        return max(self.components, default=0)


# ---------------------------------------------------------------------------
# residuals
#
# Both operads' identities have one shape.  The left-hand side sums
# outer_{n+1-q}(inner_q inserted into T) over the operad's insertions; a
# morphism identity subtracts target_k(f_{i_1} x ... x f_{i_k}) over the
# operad's block orderings.  The operads differ only in data, kept side by
# side in ``OPERADS``:
#
#   A-oo: inner_q at slot p of T, with (-1)^(p+qr); blocks consecutive.
#   L-oo: inner_q at the first q slots of T o sigma per (q, n-q)-unshuffle
#         sigma, with chi(sigma) (-1)^(q(j-1)); blocks over every
#         permutation keeping order inside blocks and increasing block
#         minima, with chi(sigma).
#
# A permutation is stored as None when it is the identity, so such terms
# skip the permute and the chi lookup.  Morphism blocks carry
# -(-1)^epsilon(profile).  The left-hand sides look up one stored row per
# term; the right-hand sides are evaluated with ``block_vectors`` and
# ``contract``.

def _perm(sigma: tuple[int, ...]):
    return None if sigma == tuple(range(len(sigma))) else sigma


@lru_cache(maxsize=None)
def _ainf_insertions(n: int, q: int) -> tuple:
    return tuple((None, p, -1 if (p + q * (n - q - p)) % 2 else 1) for p in range(n - q + 1))


@lru_cache(maxsize=None)
def _linf_insertions(n: int, q: int) -> tuple:
    sign = -1 if (q * (n - q)) % 2 else 1
    return tuple((_perm(sigma), 0, sign) for sigma in unshuffles(q, n))


def _blocks(sigma: tuple[int, ...], profile: tuple[int, ...]) -> tuple:
    starts = (0, *accumulate(profile))
    return tuple(sigma[a:b] for a, b in zip(starts, starts[1:]))


@lru_cache(maxsize=None)
def _ainf_orderings(profile: tuple[int, ...], n: int) -> tuple:
    sign = 1 if epsilon_exponent(profile) % 2 else -1
    return ((None, _blocks(tuple(range(n)), profile), sign),)


@lru_cache(maxsize=None)
def _linf_orderings(profile: tuple[int, ...], n: int) -> tuple:
    return tuple((_perm(sigma), _blocks(sigma, profile), 1 if eps % 2 else -1)
                 for sigma, eps in block_permutations(profile, n, min_first=True))


class Operad(NamedTuple):
    """Where an identity of the operad reads its maps, and with which signs."""
    maps: str  # the structure attribute holding the operations
    antisym: bool  # graded antisymmetric slots: candidates sorted, no even repeats
    insertions: Callable  # (n, q) -> (sigma, p, sign): inner_q at slot p of T o sigma
    orderings: Callable  # (profile, n) -> (sigma, blocks, sign): a morphism's blocks


OPERADS = {
    "ainf": Operad("products", False, _ainf_insertions, _ainf_orderings),
    "linf": Operad("brackets", True, _linf_insertions, _linf_orderings),
}


def _accumulate(acc: dict, vec: dict, factor) -> None:
    for lab, c in vec.items():
        total = acc.get(lab, 0) + factor * c
        if total:
            acc[lab] = total
        else:
            acc.pop(lab, None)


def _lhs(op: Operad, outer: dict[int, MultiMap], inner: dict[int, MultiMap],
         T: tuple[str, ...], degs: tuple[int, ...]) -> dict:
    """Sum over the insertions of inner_q into outer_{n+1-q} at T."""
    n = len(T)
    acc: dict = {}
    for q in range(1, n + 1):
        m_in = inner.get(q)
        m_out = outer.get(n + 1 - q)
        if m_in is None or m_out is None:
            continue
        for sigma, p, sign in op.insertions(n, q):
            Ts = T if sigma is None else tuple([T[k] for k in sigma])
            row, s0 = m_in.get_ref(Ts[p:p + q])
            if row is None:
                continue
            sign *= s0
            if sigma is not None:
                sign *= antisym_sign(sigma, degs)
            if q % 2 and sum(degs[:p]) % 2:
                sign = -sign  # inner_q crossing the first p inputs
            head, tail = Ts[:p], Ts[p + q:]
            for mid, c in row.items():
                out, s1 = m_out.get_ref(head + (mid,) + tail)
                if out is not None:
                    _accumulate(acc, out, sign * s1 * c)
    return acc


def stasheff_residual(products: dict[int, MultiMap], space: GradedSpace,
                      T: tuple[str, ...]) -> dict:
    """Sum over p+q+r=n of (-1)^(p+qr) nu_{p+r+1}(1^p x nu_q x 1^r) at T."""
    return _lhs(OPERADS["ainf"], products, products, T, tuple([space.deg(l) for l in T]))


def jacobi_residual(brackets: dict[int, MultiMap], space: GradedSpace,
                    T: tuple[str, ...]) -> dict:
    """Sum over (i,j,sigma) of chi(sigma) (-1)^(i(j-1)) l_j(l_i x 1^(j-1)) at T."""
    return _lhs(OPERADS["linf"], brackets, brackets, T, tuple([space.deg(l) for l in T]))


def _morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    """f(inner inserted) terms minus target_k(f_{i_1} x ... x f_{i_k}) at T."""
    op = OPERADS[mor.kind]
    source, target = getattr(mor.source, op.maps), getattr(mor.target, op.maps)
    n = len(T)
    degs = tuple([mor.source.space.deg(l) for l in T])
    acc = _lhs(op, mor.components, source, T, degs)
    for k in range(1, n + 1):
        target_map = target.get(k)
        if target_map is None:
            continue
        for profile in _compositions(n, k):
            comps = [mor.components.get(i) for i in profile]
            if any(c is None for c in comps):
                continue
            for sigma, blocks, sign in op.orderings(profile, n):
                vectors, s = block_vectors(comps, T, degs, blocks)
                if s:
                    if sigma is not None:
                        s *= antisym_sign(sigma, degs)
                    contract(target_map, vectors, acc, s * sign)
    return acc


# ---------------------------------------------------------------------------
# candidate tuples
#
# A residual term is nonzero only when every map it reads has a stored row
# at its inputs.  A left-hand-side term outer(1 x inner x 1) at T reads a
# stored key K of the outer map whose slot p holds a label produced by a
# stored key I of the inner map, so T is K with slot p replaced by I.  A
# morphism right-hand side target(f x ... x f) at T reads a stored key K of
# the target map and, per slot t, a stored key J_t of a component whose row
# holds K[t], so T is J_1 + ... + J_k.  In the antisymmetric slots the
# candidate is sorted into basis order.  Every tuple where a residual is
# nonzero is a candidate; the checkers evaluate the residual only there.
#
# ``producers``, ``concatenate`` and ``window`` are the one stored-key
# candidate enumerator of the package: the L-infinity transfer
# (``transfer.LInfKernelCache`` for p_n, ``transfer.transfer_linf`` for l_n)
# draws its input tuples from them too.

def producers(maps: dict[int, MultiMap]) -> dict[str, list[tuple[str, ...]]]:
    """Output label -> the stored keys (of every arity) whose row holds it."""
    index: dict[str, list[tuple[str, ...]]] = {}
    for m in maps.values():
        for key, row in m.table.items():
            for lab in row:
                index.setdefault(lab, []).append(key)
    return index


def sorted_in(space: GradedSpace):
    index = space.order_index
    return lambda T: tuple(sorted(T, key=index))


def _splice(found: dict, outer: dict[int, MultiMap], inner: dict,
            max_arity: int, canon) -> None:
    """Add canon(K[:p] + I + K[p+1:]) for each stored key K of an outer map,
    slot p and key I of ``inner`` producing K[p]."""
    for m in outer.values():
        for K in m.table:
            end = len(K) - 1
            for p, mid in enumerate(K):
                for I in inner.get(mid, ()):
                    n = end + len(I)
                    if n <= max_arity:
                        found.setdefault(n, set()).add(canon(K[:p] + I + K[p + 1:]))


def concatenate(found: dict, target: dict[int, MultiMap], producers: dict,
                max_arity: int, canon, exact: bool = False) -> None:
    """Add canon(J_1 + ... + J_k) for each stored key K of a target map and
    keys J_t producing K[t]; with ``exact`` only the unions of max_arity
    labels, the others are dropped before ``canon`` sorts them."""
    for m in target.values():
        for K in m.table:
            slots = [producers.get(mid) for mid in K]
            if not all(slots):
                continue
            k = len(K)

            def rec(t: int, chunks: tuple[str, ...], room: int) -> None:
                if t == k:
                    if not (exact and room):
                        found.setdefault(max_arity - room, set()).add(canon(chunks))
                    return
                for J in slots[t]:
                    if len(J) <= room - (k - 1 - t):
                        rec(t + 1, chunks + J, room - len(J))

            rec(0, (), max_arity)


def _repeats_even(T: tuple[str, ...], deg: dict[str, int]) -> bool:
    return any(a == b and deg[a] % 2 == 0 for a, b in zip(T, T[1:]))


def window(found: dict, max_arity: int, base: int, out_space: GradedSpace,
           space: GradedSpace, antisym: bool):
    """(n, T) for the candidates a scan of space would visit, in its order.

    The window: the total input degree plus base - n is a degree of
    out_space, and with antisymmetric slots no even label repeats.  Within
    an arity the tuples come in basis order.
    """
    deg = {e.label: e.deg for e in space.elements}
    index = space.order_index
    out_degs = out_space.degrees()
    for n in range(1, max_arity + 1):
        sums = {d - (base - n) for d in out_degs}
        kept = [T for T in found.get(n, ())
                if all(l in deg for l in T) and sum(deg[l] for l in T) in sums
                and not (antisym and _repeats_even(T, deg))]
        kept.sort(key=lambda T: [index(l) for l in T])
        for T in kept:
            yield n, T


# ---------------------------------------------------------------------------
# checkers

def _report(name: str, max_arity: int, visits, residual) -> CheckReport:
    violations = []
    for n, T in visits:
        res = residual(T)
        if res:
            violations.append(Violation(n, T, res))
    return CheckReport(name, not violations, max_arity, tuple(violations))


def _check(name: str, op: Operad, outer: dict[int, MultiMap], source, target,
           max_arity: int, residual) -> CheckReport:
    """Evaluate residual at every candidate in the degree window.

    The candidates are the keys of the outer maps with one slot replaced by
    a key of the source's maps and, for a morphism identity (``target``
    given), the keys of the target's maps with every slot replaced by an
    outer key.  A structure identity has shift 3 - n, a morphism identity
    2 - n.
    """
    space = source.space
    canon = sorted_in(space) if op.antisym else tuple
    found: dict = {}
    _splice(found, outer, producers(getattr(source, op.maps)), max_arity, canon)
    if target is not None:
        concatenate(found, getattr(target, op.maps), producers(outer), max_arity, canon)
    out_space = space if target is None else target.space
    visits = window(found, max_arity, 3 if target is None else 2, out_space, space, op.antisym)
    return _report(name, max_arity, visits, residual)


def stasheff_check(alg: AInfAlgebra, max_arity: int) -> CheckReport:
    return _check("stasheff", OPERADS["ainf"], alg.products, alg, None, max_arity,
                  lambda T: stasheff_residual(alg.products, alg.space, T))


def jacobi_check(alg: LInfAlgebra, max_arity: int) -> CheckReport:
    return _check("jacobi", OPERADS["linf"], alg.brackets, alg, None, max_arity,
                  lambda T: jacobi_residual(alg.brackets, alg.space, T))


def _module_first(T: tuple[str, ...]) -> tuple[str, ...]:
    """Module tuples are reported by the module label, then the algebra labels."""
    return T[-1:] + T[:-1]


def split_pair_report(rep: CheckReport, module: LInfModule) -> tuple[CheckReport, CheckReport]:
    """The algebra and module halves of a report on L (+) M (or on id_L (+) g).

    Every module label of ``module.combined`` comes after every algebra
    label, so no candidate of L (+) M has two module labels and a module
    label is always last.  The algebra half keeps the tuples with no module
    label, in order; the module half, named "module", takes the rest,
    re-sorted by the module label first within each arity.
    """
    mod = set(module.space.labels())
    index = module.combined.order_index
    algebra = [v for v in rep.violations if v.inputs[-1] not in mod]
    acting = sorted((v for v in rep.violations if v.inputs[-1] in mod),
                    key=lambda v: (v.arity, [index(l) for l in _module_first(v.inputs)]))
    return (replace(rep, ok=not algebra, violations=tuple(algebra)),
            CheckReport("module", not acting, rep.max_arity, tuple(acting)))


def pair_check(module: LInfModule, max_arity: int) -> tuple[CheckReport, CheckReport]:
    """The Jacobi report of L and the module report of M, from one Jacobi
    pass of L (+) M."""
    return split_pair_report(jacobi_check(_direct_sum(module), max_arity), module)


def module_check(module: LInfModule, max_arity: int) -> CheckReport:
    """The Jacobi identity of L (+) M at the tuples (algebra..., module): the
    module half of ``pair_check``."""
    return pair_check(module, max_arity)[1]


def morphism_check(mor: InfMorphism, max_arity: int) -> CheckReport:
    """A module morphism g over L is checked as the L-infinity morphism
    id_L (+) g of the algebras L (+) M: the module half of that report (at
    the tuples with no module label its residual is 0)."""
    src, tgt = mor.source, mor.target
    if mor.kind == "module":
        if src.algebra is not tgt.algebra:
            raise StructureError("module morphism endpoints must share the algebra")
        ident = InfMorphism("linf", src.algebra, src.algebra, {1: identity_map(src.algebra.space)})
        lifted = morphism_pair_to_algebra(ident, mor, _direct_sum(src), _direct_sum(tgt))
        acting = split_pair_report(morphism_check(lifted, max_arity), src)[1]
        return replace(acting, name="morphism-module")
    return _check(f"morphism-{mor.kind}", OPERADS[mor.kind], mor.components, src, tgt,
                  max_arity, lambda T: _morphism_residual(mor, T))


# ---------------------------------------------------------------------------
# constructions

def antisymmetrize(alg: AInfAlgebra, check_arity: int | None = None) -> LInfAlgebra:
    """The A-oo to L-oo functor: l_n = sum over permutations of chi . nu_n."""
    if check_arity is not None:
        rep = stasheff_check(alg, check_arity)
        if not rep.ok:
            raise StructureError(f"antisymmetrize: input fails Stasheff: {rep.first().describe()}")
    brackets = {n: antisymmetrization(m) for n, m in alg.products.items()}
    out = LInfAlgebra(alg.space, brackets)
    if check_arity is not None:
        rep = jacobi_check(out, check_arity)
        if not rep.ok:
            raise StructureError(f"antisymmetrize: output fails Jacobi: {rep.first().describe()}")
    return out


def antisymmetrize_morphism(
    mor: InfMorphism, source_l: LInfAlgebra, target_l: LInfAlgebra,
) -> InfMorphism:
    """The A-oo to L-oo functor on morphisms: each component is summed over
    permutations with the antisym sign, between the antisymmetrized
    endpoints."""
    comps = {k: antisymmetrization(m) for k, m in mor.components.items()}
    comps = {k: m for k, m in comps.items() if not m.is_zero()}
    return InfMorphism("linf", source_l, target_l, comps)


@dataclass(frozen=True)
class PairEmbedding:
    """Bookkeeping for an L (+) M algebra: which labels form each block."""
    algebra_labels: tuple[str, ...]
    module_labels: tuple[str, ...]
    algebra_space: GradedSpace
    module_space: GradedSpace


def pair_to_algebra(pair: LInfPair) -> tuple[LInfAlgebra, PairEmbedding]:
    """The canonical L-infinity structure on L (+) M.

    Stored canonically: all-algebra entries are the brackets, entries with
    the module element last are the actions; every other ordering follows by
    graded antisymmetry, which reproduces exactly the displayed sign
    (-1)^(n - i + |xi_i| sum |a_k|) of the construction.  The algebra is
    built once per module and kept on it (``LInfModule.direct_sum``).
    """
    alg = pair.algebra
    mod = pair.module
    emb = PairEmbedding(
        tuple(alg.space.labels()), tuple(mod.space.labels()), alg.space, mod.space
    )
    return _direct_sum(mod), emb


def _direct_sum(mod: LInfModule) -> LInfAlgebra:
    """L (+) M of a module, built on first use and kept on the module."""
    if mod.direct_sum is None:
        combined = mod.combined
        maps: dict[int, MultiMap] = {}
        for n in set(mod.algebra.brackets) | set(mod.actions):
            maps[n] = add_tables(MultiMap(combined, combined, n, 2 - n, "antisym"),
                                 mod.algebra.brackets.get(n), mod.actions.get(n))
        mod.direct_sum = LInfAlgebra(combined, maps)
    return mod.direct_sum


def algebra_to_module(alg: LInfAlgebra, emb: PairEmbedding) -> LInfPair:
    """Recover the pair from an L (+) M algebra; errors if the splitting is
    not respected (mixed entries that cannot belong to a pair structure)."""
    alg_set = set(emb.algebra_labels)
    mod_set = set(emb.module_labels)
    brackets: dict[int, MultiMap] = {}
    actions: dict[int, MultiMap] = {}
    base_alg_space = alg.space.restricted_to(alg_set)
    base_mod_space = alg.space.restricted_to(mod_set)

    for n, j in alg.brackets.items():
        ln = MultiMap(base_alg_space, base_alg_space, n, 2 - n, "antisym")
        mn = MultiMap(combine_spaces(base_alg_space, base_mod_space), base_mod_space,
                      n, 2 - n, "antisym_algebra" if n > 1 else "none")
        for key, row in j.entries():
            n_mod = sum(1 for l in key if l in mod_set)
            if n_mod == 0:
                for lab, c in row.items():
                    if lab in mod_set:
                        raise StructureError(
                            f"splitting not respected: algebra inputs {key} hit module output {lab}")
                    ln.add(key, lab, c)
            elif n_mod == 1:
                if key[-1] not in mod_set:
                    raise StructureError(
                        f"splitting not respected: canonical key {key} has interior module slot")
                for lab, c in row.items():
                    if lab in alg_set:
                        raise StructureError(
                            f"splitting not respected: module input {key} hits algebra output {lab}")
                    mn.add(key, lab, c)
            else:
                if row:
                    raise StructureError(
                        f"splitting not respected: {key} has {n_mod} module slots with nonzero value")
        if not ln.is_zero():
            brackets[n] = ln
        if not mn.is_zero():
            actions[n] = mn
    algebra = LInfAlgebra(base_alg_space, brackets)
    module = LInfModule(algebra, base_mod_space, actions)
    if alg.space.labels() == module.combined.labels():
        module.direct_sum = alg  # alg is exactly the L (+) M of the split pair
    return LInfPair(algebra, module)


def morphism_pair_to_algebra(
    f: InfMorphism, g: InfMorphism, src_alg: LInfAlgebra, tgt_alg: LInfAlgebra,
) -> InfMorphism:
    """(f (+) g): components are f on all-algebra tuples, g with module last."""
    comps: dict[int, MultiMap] = {}
    for n in set(f.components) | set(g.components):
        comps[n] = add_tables(MultiMap(src_alg.space, tgt_alg.space, n, 1 - n, "antisym"),
                              f.components.get(n), g.components.get(n))
    return InfMorphism("linf", src_alg, tgt_alg, comps)


def morphism_algebra_to_pair(
    mor: InfMorphism, src_emb: PairEmbedding, tgt_emb: PairEmbedding,
    src_pair: LInfPair, tgt_pair: LInfPair,
) -> tuple[InfMorphism, InfMorphism]:
    """Split an L (+) M morphism back into its algebra and module components."""
    src_mod_set = set(src_emb.module_labels)
    tgt_mod_set = set(tgt_emb.module_labels)
    f_comps: dict[int, MultiMap] = {}
    g_comps: dict[int, MultiMap] = {}
    for n, comp in mor.components.items():
        fn = MultiMap(src_pair.algebra.space, tgt_pair.algebra.space, n, 1 - n, "antisym")
        gn = MultiMap(src_pair.module.combined, tgt_pair.module.space, n, 1 - n,
                      "antisym_algebra" if n > 1 else "none")
        for key, row in comp.entries():
            n_mod = sum(1 for l in key if l in src_mod_set)
            if n_mod == 0:
                for lab, c in row.items():
                    if lab not in tgt_mod_set:
                        fn.add(key, lab, c)
            elif n_mod == 1 and key[-1] in src_mod_set:
                for lab, c in row.items():
                    if lab in tgt_mod_set:
                        gn.add(key, lab, c)
        if not fn.is_zero():
            f_comps[n] = fn
        if not gn.is_zero():
            g_comps[n] = gn
    f = InfMorphism("linf", src_pair.algebra, tgt_pair.algebra, f_comps)
    g = InfMorphism("module", src_pair.module, tgt_pair.module, g_comps)
    return f, g
