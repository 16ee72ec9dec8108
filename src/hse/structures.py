"""A-infinity / L-infinity algebras, modules, pairs, morphisms, and their
identity checkers.

There is one identity per kind of structure: Stasheff for A-infinity
algebras and morphisms, Jacobi for L-infinity algebras and morphisms.  An
L-infinity module M over L is the L-infinity algebra L (+) M in which M is an
abelian ideal (Lada-Markl), so the module identities are the Jacobi
identities of L (+) M at the tuples whose one module label is last, and a
module morphism g is checked as the L-infinity morphism id_L (+) g.  A
pair is certified by one Jacobi pass of L (+) M, which
``split_pair_report`` splits into L's Jacobi report (the tuples with no
module label) and M's module report (the rest).

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
from .grading import GradedSpace, combine_spaces
from .multimap import MultiMap, antisymmetrization, block_vectors, contract, identity_map
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
# Each identity has one left-hand-side helper, shared by the structure's own
# checker (outer maps = the structure's maps) and by its morphism twin (outer
# maps = the morphism components).  The left-hand sides look up one stored
# row per term directly; the morphism right-hand sides are block partitions
# evaluated with ``block_vectors`` and ``contract``.

def _accumulate(acc: dict, vec: dict, factor) -> None:
    for lab, c in vec.items():
        total = acc.get(lab, 0) + factor * c
        if total:
            acc[lab] = total
        else:
            acc.pop(lab, None)


def _ainf_lhs(outer: dict[int, MultiMap], inner: dict[int, MultiMap],
              T: tuple[str, ...], degs: tuple[int, ...]) -> dict:
    """Sum over p+q+r=n of (-1)^(p+qr) outer_{p+r+1}(1^p x inner_q x 1^r) at T."""
    n = len(T)
    acc: dict = {}
    for q in range(1, n + 1):
        m_in = inner.get(q)
        if m_in is None:
            continue
        for p in range(0, n - q + 1):
            r = n - q - p
            m_out = outer.get(p + r + 1)
            if m_out is None:
                continue
            row, s0 = m_in.get_ref(T[p:p + q])
            if row is None:
                continue
            sign = -s0 if (p + q * r) % 2 else s0
            if q % 2 and sum(degs[:p]) % 2:
                sign = -sign  # inner_q crossing the first p inputs
            for mid, c in row.items():
                out, s1 = m_out.get_ref(T[:p] + (mid,) + T[p + q:])
                if out is not None:
                    _accumulate(acc, out, sign * s1 * c)
    return acc


def _linf_lhs(outer: dict[int, MultiMap], inner: dict[int, MultiMap],
              T: tuple[str, ...], degs: tuple[int, ...]) -> dict:
    """Sum over (i,j,sigma) of chi(sigma) (-1)^(i(j-1)) outer_j(inner_i x 1^(j-1)) at T."""
    n = len(T)
    acc: dict = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        m_in = inner.get(i)
        m_out = outer.get(j)
        if m_in is None or m_out is None:
            continue
        for sigma in unshuffles(i, n):
            Ts = tuple(T[k] for k in sigma)
            row, s0 = m_in.get_ref(Ts[:i])
            if row is None:
                continue
            sign = s0 * antisym_sign(sigma, degs)
            if (i * (j - 1)) % 2:
                sign = -sign
            for mid, c in row.items():
                out, s1 = m_out.get_ref((mid,) + Ts[i:])
                if out is not None:
                    _accumulate(acc, out, sign * s1 * c)
    return acc


def stasheff_residual(products: dict[int, MultiMap], space: GradedSpace,
                      T: tuple[str, ...]) -> dict:
    """Sum over p+q+r=n of (-1)^(p+qr) nu_{p+r+1}(1^p x nu_q x 1^r) at T."""
    return _ainf_lhs(products, products, T, tuple([space.deg(l) for l in T]))


def jacobi_residual(brackets: dict[int, MultiMap], space: GradedSpace,
                    T: tuple[str, ...]) -> dict:
    """Sum over (i,j,sigma) of chi(sigma) (-1)^(i(j-1)) l_j(l_i x 1^(j-1)) at T."""
    return _linf_lhs(brackets, brackets, T, tuple([space.deg(l) for l in T]))


def _consecutive(profile: tuple[int, ...]) -> list[range]:
    blocks, start = [], 0
    for size in profile:
        blocks.append(range(start, start + size))
        start += size
    return blocks


def _ainf_morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    """f(1^p x nu_q x 1^r) terms minus nu'_k(f_{i_1} x ... x f_{i_k}) at T."""
    src: AInfAlgebra = mor.source
    tgt: AInfAlgebra = mor.target
    n = len(T)
    degs = tuple([src.space.deg(l) for l in T])
    acc = _ainf_lhs(mor.components, src.products, T, degs)
    for k in range(1, n + 1):
        target_map = tgt.products.get(k)
        if target_map is None:
            continue
        for profile in _compositions(n, k):
            comps = [mor.components.get(i) for i in profile]
            if any(c is None for c in comps):
                continue
            vectors, sign = block_vectors(comps, T, degs, _consecutive(profile))
            if sign:
                if epsilon_exponent(profile) % 2 == 0:
                    sign = -sign
                contract(target_map, vectors, acc, sign)
    return acc


def _linf_morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    """f(l_i x 1) terms minus l'_j over block partitions with increasing minima."""
    src: LInfAlgebra = mor.source
    tgt: LInfAlgebra = mor.target
    n = len(T)
    degs = tuple([src.space.deg(l) for l in T])
    acc = _linf_lhs(mor.components, src.brackets, T, degs)
    for j in range(1, n + 1):
        target_map = tgt.brackets.get(j)
        if target_map is None:
            continue
        for profile in _compositions(n, j):
            comps = [mor.components.get(kt) for kt in profile]
            if any(c is None for c in comps):
                continue
            spans = _consecutive(profile)
            for sigma, eps in block_permutations(profile, n, min_first=True):
                blocks = [sigma[b.start:b.stop] for b in spans]
                vectors, sign = block_vectors(comps, T, degs, blocks)
                if sign:
                    sign *= antisym_sign(sigma, degs)
                    contract(target_map, vectors, acc, sign if eps % 2 else -sign)
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


def _splice(found: dict, outer: dict[int, MultiMap], inner: dict, last: dict,
            max_arity: int, canon) -> None:
    """Add canon(K[:p] + I + K[p+1:]) for each stored key K of an outer map,
    slot p and key I producing K[p], taken from ``last`` for the final slot
    and from ``inner`` for the others."""
    for m in outer.values():
        for K in m.table:
            end = len(K) - 1
            for p, mid in enumerate(K):
                for I in (last if p == end else inner).get(mid, ()):
                    n = end + len(I)
                    if n <= max_arity:
                        found.setdefault(n, set()).add(canon(K[:p] + I + K[p + 1:]))


def concatenate(found: dict, target: dict[int, MultiMap], producers: dict,
                max_arity: int, canon) -> None:
    """Add canon(J_1 + ... + J_k) for each stored key K of a target map and
    keys J_t producing K[t]."""
    for m in target.values():
        for K in m.table:
            slots = [producers.get(mid) for mid in K]
            if not all(slots):
                continue
            k = len(K)

            def rec(t: int, chunks: tuple[str, ...], room: int) -> None:
                if t == k:
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


def stasheff_check(alg: AInfAlgebra, max_arity: int) -> CheckReport:
    found: dict = {}
    products = producers(alg.products)
    _splice(found, alg.products, products, products, max_arity, tuple)
    visits = window(found, max_arity, 3, alg.space, alg.space, False)
    return _report("stasheff", max_arity, visits,
                   lambda T: stasheff_residual(alg.products, alg.space, T))


def _morphism_candidates(mor: InfMorphism, max_arity: int) -> dict:
    src, tgt = mor.source, mor.target
    if mor.kind == "ainf":
        maps, target, canon = src.products, tgt.products, tuple
    else:
        maps, target, canon = src.brackets, tgt.brackets, sorted_in(src.space)
    found: dict = {}
    inner = producers(maps)
    _splice(found, mor.components, inner, inner, max_arity, canon)
    concatenate(found, target, producers(mor.components), max_arity, canon)
    return found


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


def jacobi_check(alg: LInfAlgebra, max_arity: int) -> CheckReport:
    found: dict = {}
    brackets = producers(alg.brackets)
    _splice(found, alg.brackets, brackets, brackets, max_arity, sorted_in(alg.space))
    visits = window(found, max_arity, 3, alg.space, alg.space, True)
    return _report("jacobi", max_arity, visits,
                   lambda T: jacobi_residual(alg.brackets, alg.space, T))


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
    residual = _ainf_morphism_residual if mor.kind == "ainf" else _linf_morphism_residual
    visits = window(_morphism_candidates(mor, max_arity), max_arity, 2, tgt.space,
                    src.space, mor.kind == "linf")
    return _report(f"morphism-{mor.kind}", max_arity, visits, lambda T: residual(mor, T))


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
            j = MultiMap(combined, combined, n, 2 - n, "antisym")
            for part in (mod.algebra.brackets.get(n), mod.actions.get(n)):
                if part is not None:
                    for key, row in part.entries():
                        for lab, c in row.items():
                            j.add(key, lab, c)
            maps[n] = j
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
        mm = MultiMap(src_alg.space, tgt_alg.space, n, 1 - n, "antisym")
        for part in (f.components.get(n), g.components.get(n)):
            if part is not None:
                for key, row in part.entries():
                    for lab, c in row.items():
                        mm.add(key, lab, c)
        comps[n] = mm
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
