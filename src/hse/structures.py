"""A-infinity / L-infinity algebras, modules, pairs, morphisms, and their
identity checkers.

There is one identity per kind of structure: Stasheff for A-infinity
algebras and morphisms, Jacobi for L-infinity algebras and morphisms.  Both
operads share one term walk and one checker; they differ in where the inner
map sits, how a term's tuple is ordered and with which signs.  An
L-infinity module M over L is the
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
a stored row at its inputs, so both sides of every identity are one walk
over the stored keys (``multimap.morphism_terms``), term by term: an outer
key with an inner key producing its label at one slot, or a morphism's
target key with a component key producing each slot.  Each term adds its
signed row into the residual of the tuple it lands on, on integer rows:
both sides of an identity land in one int accumulator at one scale L, and
only a violation's residual is divided back by L, so a passing check makes
no ``Fraction``.  The nonzero residuals in the degree window (output degree
populated), in basis order, are the violation list of a scan over every
basis tuple in the window.

The antisymmetric convention throughout is signature times Koszul sign
(``signs.antisym_sign``).  Under the pure-Koszul reading of the sign chi the
commutator bracket of a graded-commutative algebra would not antisymmetrize
to zero, so that reading is rejected; both signs remain available in
``signs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .grading import GradedSpace, combine_spaces
from .multimap import (
    MultiMap,
    add_tables,
    antisymmetrization,
    identity_map,
    morphism_terms,
    uniform_plan,
)
from .scalars import canonical


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
        # what dga resonance reads off the algebra (``resonance._kept``):
        # its H^1 representatives and dga complex, and per degree the rank
        # oracle, built on first use and kept
        self.memo: dict = {}

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

    ``space`` is the one record of the L (+) M split: ``combined`` is the
    algebra basis, then it; maps are stored over that, antisymmetric in the
    algebra slots only.
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
    # what the pair determines for resonance (``resonance._kept``), built
    # and certified on first use and kept: the binary shadow, the universal
    # complex per (trunc, arity cap) with its minor memos, and per degree
    # the rank oracle with the twisted dimension of each point drawn
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            if kind == "linf" and k > 1 and m.symmetry != "antisym":
                raise StructureError("L-infinity morphism components must be antisym maps")

    def max_arity(self) -> int:
        return max(self.components, default=0)


# ---------------------------------------------------------------------------
# residuals
#
# Both operads' identities have one shape (Markl's tree sums; Loday-Vallette,
# Algebraic Operads, 10.3).  The left-hand side sums outer_{n+1-q}(inner_q
# inserted into T); a morphism identity subtracts target_k(f_{i_1} x ... x
# f_{i_k}) over block orderings.  A term is nonzero only when every map it
# reads has a stored row at its inputs, so both sides are the one walk over
# the stored keys, ``multimap.morphism_terms``, which visits each nonzero
# term once and adds it into the residual of the tuple it lands on, both
# sides into one integer accumulator at one scale:
#
#   the left-hand side walks outer_k on k spine plans, plan p holding the
#     inner maps at slot p, identities elsewhere, and scale (-1)^p: an outer
#     key K and an inner key I producing K[p] add the signed row_K at
#     K[:p] + I + K[p+1:];
#   a morphism's right-hand side walks the target on the ``uniform_plan`` at
#     scale -1: a target key K and, per slot t, a component key J_t
#     producing K[t] add the signed row_K at J_1 + ... + J_k.
#
# The walk signs a map of odd shift in slot t by the inputs it crosses and
# by (-1)^(k-1-t), its part of epsilon.  A-oo: with the plan scale that is
# (-1)^(p+qr) and inner_q crossing the first p inputs on the left, and
# -(-1)^epsilon(profile) with each f_|J| of odd shift crossing the inputs
# before it on the right.  L-oo: a term lands on its tuple T sorted into
# basis order, with its antisym sign, which gives the left-hand side's sum
# over the (q, n-q)-unshuffles sigma with chi(sigma) (-1)^(q(n-q)) and the
# right-hand side's sum over unordered block partitions.  Where T repeats an
# odd label one term stands for several index-level ones, weighted by
# m_T / (prod_t m_J_t * m_K) with m_X = prod_l m_X(l)! (an identity slot's
# key counts 1): prod_l m_T(l)! / prod_t m_J_t(l)! block partitions over
# the m_K orderings of K's slots.  On the left the m_K(x) spine plans at
# the copies of a label x of K land alike, so together they weigh
# m_T / (m_I * m_rest), rest being K less one x: prod_l C(m_T(l), m_I(l))
# unshuffles.
#
# That walk lives in ``multimap`` and takes its component sets per slot, so
# every kernel of both transfers is one call of it, on the source itself
# with this section's signs: p_n is the walk over the brackets or products
# with the components g and -h p_r, and l_n or nu_n = f p_n is read off it
# with no second walk.  (psi phi)_n is the walk over g and the -h p_k with
# the components f Q_r, and Q_n the walk over the products with (psi phi)
# before a spine slot, -h Q at it and identities after it.

def _residuals(outer: dict[int, MultiMap], inner: dict[int, MultiMap],
               target: dict[int, MultiMap] | None, space: GradedSpace,
               antisym: bool, max_arity: int) -> tuple[dict, int]:
    """(res, L): tuple -> L times its residual (cancelled entries kept as
    zeros) up to max_arity: inner inserted into outer, minus target of
    outer's blocks when target is given (outer then holds a morphism's
    components).  Both sides are walked into the one accumulator at the one
    scale L."""
    spines = {k: [((None,) * p + (inner,) + (None,) * (k - 1 - p), -1 if p & 1 else 1)
                  for p in range(k)] for k in outer}
    walks = [(spines, outer, 1)]
    if target is not None:
        walks.append((uniform_plan(outer, target), target, -1))
    return morphism_terms(walks, space, antisym, max_arity)


# ---------------------------------------------------------------------------
# checkers

def _check(name: str, antisym: bool, outer: dict[int, MultiMap], source, target,
           max_arity: int) -> CheckReport:
    """The nonzero residuals in the degree window, by arity and then basis
    order: those of a scan over every basis tuple in the window.

    The window: the total input degree plus base - n is a degree of the
    output space, base 3 for a structure identity and 2 for a morphism
    identity (``target`` given).
    """
    maps = "brackets" if antisym else "products"
    space = source.space
    res, scale = _residuals(outer, getattr(source, maps), target and getattr(target, maps),
                            space, antisym, max_arity)
    base, out_space = (3, space) if target is None else (2, target.space)
    out_degs = set(out_space.degrees())
    deg = {e.label: e.deg for e in space.elements}
    violations = []
    for T, vec in res.items():
        if not any(vec.values()):
            continue
        if all(l in deg for l in T) and sum(deg[l] for l in T) + base - len(T) in out_degs:
            violations.append(Violation(len(T), T, {
                lab: c if scale == 1 else canonical(Fraction(c, scale))
                for lab, c in vec.items() if c}))
    index = space.order_index
    violations.sort(key=lambda v: (v.arity, [index(l) for l in v.inputs]))
    return CheckReport(name, not violations, max_arity, tuple(violations))


def stasheff_check(alg: AInfAlgebra, max_arity: int) -> CheckReport:
    return _check("stasheff", False, alg.products, alg, None, max_arity)


def jacobi_check(alg: LInfAlgebra, max_arity: int) -> CheckReport:
    return _check("jacobi", True, alg.brackets, alg, None, max_arity)


def _module_first(T: tuple[str, ...]) -> tuple[str, ...]:
    """Module tuples are reported by the module label, then the algebra labels."""
    return T[-1:] + T[:-1]


def split_pair_report(rep: CheckReport, module: LInfModule) -> tuple[CheckReport, CheckReport]:
    """The algebra and module halves of a report on L (+) M (or on id_L (+) g).

    Every module label of ``module.combined`` comes after every algebra
    label, so no violation of L (+) M has two module labels and a module
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
    return _check(f"morphism-{mor.kind}", mor.kind == "linf", mor.components, src, tgt,
                  max_arity)


# ---------------------------------------------------------------------------
# constructions

def antisymmetrize(alg: AInfAlgebra) -> LInfAlgebra:
    """The A-oo to L-oo functor: l_n = sum over permutations of chi . nu_n."""
    return LInfAlgebra(alg.space, {n: antisymmetrization(m) for n, m in alg.products.items()})


def antisymmetrize_morphism(
    mor: InfMorphism, source_l: LInfAlgebra, target_l: LInfAlgebra,
) -> InfMorphism:
    """The A-oo to L-oo functor on morphisms: each component is summed over
    permutations with the antisym sign, between the antisymmetrized
    endpoints."""
    comps = {k: antisymmetrization(m) for k, m in mor.components.items()}
    return InfMorphism("linf", source_l, target_l, comps)


def pair_to_algebra(pair: LInfPair) -> LInfAlgebra:
    """The canonical L-infinity structure on L (+) M.

    Stored canonically: all-algebra entries are the brackets, entries with
    the module element last are the actions; every other ordering follows by
    graded antisymmetry, which reproduces exactly the displayed sign
    (-1)^(n - i + |xi_i| sum |a_k|) of the construction.  The algebra is
    built once per module and kept on it (``LInfModule.direct_sum``).
    """
    return _direct_sum(pair.module)


def _direct_sum(mod: LInfModule) -> LInfAlgebra:
    """L (+) M of a module, built on first use and kept on the module.

    ``combined`` lists the algebra labels, in order, before the module
    labels, so a bracket's sorted key and an action's key (sorted algebra
    slots, the module label last) are stored keys of L (+) M as they are:
    the tables are copied through ``MultiMap.store``."""
    if mod.direct_sum is None:
        combined = mod.combined
        maps: dict[int, MultiMap] = {}
        for n in set(mod.algebra.brackets) | set(mod.actions):
            l_n = maps[n] = MultiMap(combined, combined, n, 2 - n, "antisym")
            for part in (mod.algebra.brackets.get(n), mod.actions.get(n)):
                for key, row in part.table.items() if part is not None else ():
                    for lab, c in row.items():
                        l_n.store(key, lab, c)
        mod.direct_sum = LInfAlgebra(combined, maps)
    return mod.direct_sum


def algebra_to_module(alg: LInfAlgebra, module_space: GradedSpace) -> LInfPair:
    """Recover the pair from an L (+) M algebra whose module labels are those
    of ``module_space`` (the algebra labels are the rest of ``alg.space``);
    errors if the splitting is not respected (mixed entries that cannot
    belong to a pair structure).  Both halves keep the order of
    ``alg.space``, so each stored key of alg is a stored key of its half
    and is copied through ``MultiMap.store``."""
    mod_set = set(module_space.labels())
    if missing := mod_set.difference(alg.space.labels()):
        raise StructureError(f"module labels missing from L (+) M: {sorted(missing)}")
    brackets: dict[int, MultiMap] = {}
    actions: dict[int, MultiMap] = {}
    base_alg_space = GradedSpace([e for e in alg.space.elements if e.label not in mod_set])
    base_mod_space = alg.space.restricted_to(mod_set)
    mod_in = combine_spaces(base_alg_space, base_mod_space)

    for n, j in alg.brackets.items():
        ln = MultiMap(base_alg_space, base_alg_space, n, 2 - n, "antisym")
        mn = MultiMap(mod_in, base_mod_space, n, 2 - n, "antisym_algebra" if n > 1 else "none")
        for key, row in j.entries():
            n_mod = sum(1 for l in key if l in mod_set)
            if n_mod == 0:
                for lab, c in row.items():
                    if lab in mod_set:
                        raise StructureError(
                            f"splitting not respected: algebra inputs {key} hit module output {lab}")
                    ln.store(key, lab, c)
            elif n_mod == 1:
                if key[-1] not in mod_set:
                    raise StructureError(
                        f"splitting not respected: canonical key {key} has interior module slot")
                for lab, c in row.items():
                    if lab not in mod_set:
                        raise StructureError(
                            f"splitting not respected: module input {key} hits algebra output {lab}")
                    mn.store(key, lab, c)
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
    mor: InfMorphism, src_pair: LInfPair, tgt_pair: LInfPair,
) -> tuple[InfMorphism, InfMorphism]:
    """Split an L (+) M morphism back into its algebra and module components."""
    src_mod_set = set(src_pair.module.space.labels())
    tgt_mod_set = set(tgt_pair.module.space.labels())
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
