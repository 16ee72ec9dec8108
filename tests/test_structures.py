import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from hse.fixtures import (
    Cdga,
    adjoint_pair,
    affine_plane_dgla,
    cdga_pair,
    exterior_cdga,
    heisenberg_cdga,
    heisenberg_lie_dgla,
    random_cdga,
    solvable_dgla,
)
from hse import structures
from hse.grading import BasisElement, GradedSpace
from hse.io_json import parse_structure
from hse.multimap import MultiMap, add_tables
from hse.signs import antisym_sign, unshuffles
from hse.structures import (
    AInfAlgebra,
    InfMorphism,
    LInfAlgebra,
    LInfModule,
    StructureError,
    algebra_to_module,
    antisymmetrize,
    antisymmetrize_morphism,
    jacobi_check,
    module_check,
    morphism_check,
    morphism_algebra_to_pair,
    morphism_pair_to_algebra,
    pair_to_algebra,
    stasheff_check,
)
from hse.transfer import cohomology_splitting, transfer_ainf, transfer_pair
import residuals_reference
from transfer_reference import compositions


def test_heisenberg_dims():
    alg = heisenberg_cdga()
    assert alg.space.dims() == {0: 1, 1: 3, 2: 3, 3: 1}


def test_heisenberg_passes_stasheff():
    rep = stasheff_check(heisenberg_cdga().ainf(), 4)
    assert rep.ok, rep.first().describe()


def test_exterior_passes_stasheff():
    rep = stasheff_check(exterior_cdga(3).ainf(), 4)
    assert rep.ok


def test_zero_structure_passes():
    space = GradedSpace([BasisElement("a", 1)])
    rep = stasheff_check(AInfAlgebra(space, {}), 4)
    assert rep.ok


def test_perturbed_product_fails_stasheff():
    alg = heisenberg_cdga()
    prod = alg.product_map()
    prod.add(("x", "y"), "xz", Fraction(1))  # breaks associativity
    bad = AInfAlgebra(alg.space, {1: alg.differential_map(), 2: prod})
    rep = stasheff_check(bad, 3)
    assert not rep.ok
    assert any(v.arity == 3 for v in rep.violations) or any(
        v.arity == 2 for v in rep.violations
    )


def test_random_cdgas_pass_stasheff():
    for seed in range(6):
        alg = random_cdga(seed)
        rep = stasheff_check(alg.ainf(), 4)
        assert rep.ok, f"seed {seed}: {rep.first().describe()}"


def test_antisymmetrize_kills_commutative_products():
    # the commutator bracket of a graded-commutative algebra must vanish;
    # this is the check that pins the antisym sign convention
    lalg = antisymmetrize(exterior_cdga(2).ainf())
    assert 2 not in lalg.brackets


def test_antisymmetrize_commutator_rule_noncommutative():
    # free associative algebra on two odd generators, truncated above deg 2
    words = ["1", "a", "b", "aa", "ab", "ba", "bb"]
    space = GradedSpace([BasisElement(w, 0 if w == "1" else len(w)) for w in words])
    prod = MultiMap(space, space, 2, 0)
    for u in words:
        for v in words:
            uv = (u + v).replace("1", "") or "1"
            if uv in words:
                prod.add((u, v), uv, Fraction(1))
    alg = AInfAlgebra(space, {2: prod})
    assert stasheff_check(alg, 3).ok
    lalg = antisymmetrize(alg)
    # l2(a,a) = aa - (-1)^{1*1} aa = 2 aa
    assert lalg.brackets[2].get(("a", "a")) == {"aa": Fraction(2)}
    # l2(a,b) = ab - (-1)^{1*1} ba = ab + ba, each ordering once
    assert lalg.brackets[2].get(("a", "b")) == {"ab": 1, "ba": 1}
    # l2(1,a) = 1a - a1 = 0
    assert lalg.brackets[2].get(("1", "a")) == {}
    assert jacobi_check(lalg, 3).ok


def test_antisymmetrize_heisenberg_passes_jacobi():
    lalg = antisymmetrize(heisenberg_cdga().ainf())
    rep = jacobi_check(lalg, 4)
    assert rep.ok, rep.first().describe()


def test_heisenberg_lie_dgla_jacobi():
    rep = jacobi_check(heisenberg_lie_dgla(), 3)
    assert rep.ok


def test_solvable_dgla_jacobi():
    rep = jacobi_check(solvable_dgla(), 4)
    assert rep.ok, rep.first().describe()


def test_cdga_pair_module_check():
    pair = cdga_pair(heisenberg_cdga())
    rep = module_check(pair.module, 4)
    assert rep.ok, rep.first().describe()


def test_adjoint_pair_module_check():
    pair = adjoint_pair(solvable_dgla())
    rep = module_check(pair.module, 4)
    assert rep.ok, rep.first().describe()
    pair2 = adjoint_pair(heisenberg_lie_dgla())
    rep2 = module_check(pair2.module, 4)
    assert rep2.ok, rep2.first().describe()


def test_pair_to_algebra_jacobi_and_roundtrip():
    pair = cdga_pair(heisenberg_cdga())
    combined = pair_to_algebra(pair)
    rep = jacobi_check(combined, 3)
    assert rep.ok, rep.first().describe()
    back = algebra_to_module(combined, pair.module.space)
    for n, mm in pair.module.actions.items():
        assert back.module.actions[n].equals(mm)
    for n, mm in pair.algebra.brackets.items():
        assert back.algebra.brackets[n].equals(mm)
    assert back.module.direct_sum is combined
    with pytest.raises(StructureError, match=r"module labels missing from L \(\+\) M: \['nope'\]"):
        algebra_to_module(combined, GradedSpace([BasisElement("nope", 0)]))


def test_identity_morphism_passes_all_kinds():
    alg = heisenberg_cdga().ainf()
    from hse.multimap import identity_map

    ident = InfMorphism("ainf", alg, alg, {1: identity_map(alg.space)})
    assert morphism_check(ident, 4).ok

    lalg = antisymmetrize(alg)
    id_l = MultiMap(lalg.space, lalg.space, 1, 0, "antisym")
    for e in lalg.space.elements:
        id_l.add((e.label,), e.label, Fraction(1))
    mor = InfMorphism("linf", lalg, lalg, {1: id_l})
    assert morphism_check(mor, 4).ok


def test_dgla_morphism_passes_linf_check():
    # an honest dgla map: rescaling the Heisenberg Lie algebra
    lalg = heisenberg_lie_dgla()
    f1 = MultiMap(lalg.space, lalg.space, 1, 0, "antisym")
    f1.add(("E",), "E", Fraction(2))
    f1.add(("F",), "F", Fraction(1))
    f1.add(("Z",), "Z", Fraction(2))
    mor = InfMorphism("linf", lalg, lalg, {1: f1})
    rep = morphism_check(mor, 3)
    assert rep.ok, rep.first().describe()


def test_linf_morphism_rejects_plain_components():
    # the L-infinity walk reads a component's keys in basis order, as only
    # an antisym map stores them; a plain table may hold any ordering
    lalg = heisenberg_lie_dgla()
    f1 = MultiMap(lalg.space, lalg.space, 1, 0)
    f1.add(("E",), "E", 1)
    f2 = MultiMap(lalg.space, lalg.space, 2, -1)
    f2.add(("F", "E"), "Z", 1)
    with pytest.raises(StructureError, match="must be antisym maps"):
        InfMorphism("linf", lalg, lalg, {1: f1, 2: f2})
    assert InfMorphism("linf", lalg, lalg, {1: f1}).components[1] is f1


def test_non_chain_map_fails_at_arity_one():
    alg = heisenberg_cdga().ainf()
    f1 = MultiMap(alg.space, alg.space, 1, 0)
    for e in alg.space.elements:
        f1.add((e.label,), e.label, Fraction(1))
    f1.add(("x",), "x", Fraction(1))  # doubles x: not a chain map for d(z)=xy
    mor = InfMorphism("ainf", alg, alg, {1: f1})
    rep = morphism_check(mor, 2)
    assert not rep.ok


def test_module_identity_morphism_and_scaling():
    pair = cdga_pair(heisenberg_cdga())
    g1 = MultiMap(pair.module.combined, pair.module.space, 1, 0)
    for e in pair.module.space.elements:
        g1.add((e.label,), e.label, Fraction(3))
    mor = InfMorphism("module", pair.module, pair.module, {1: g1})
    rep = morphism_check(mor, 3)
    assert rep.ok, rep.first().describe()


def test_pair_morphism_roundtrip_and_check():
    pair = cdga_pair(heisenberg_cdga())
    combined = pair_to_algebra(pair)
    # identity pair morphism
    f1 = MultiMap(pair.algebra.space, pair.algebra.space, 1, 0, "antisym")
    for e in pair.algebra.space.elements:
        f1.add((e.label,), e.label, Fraction(1))
    g1 = MultiMap(pair.module.combined, pair.module.space, 1, 0)
    for e in pair.module.space.elements:
        g1.add((e.label,), e.label, Fraction(1))
    f = InfMorphism("linf", pair.algebra, pair.algebra, {1: f1})
    g = InfMorphism("module", pair.module, pair.module, {1: g1})
    fg = morphism_pair_to_algebra(f, g, combined, combined)
    rep = morphism_check(fg, 3)
    assert rep.ok, rep.first().describe()
    f2, g2 = morphism_algebra_to_pair(fg, pair, pair)
    assert f2.components[1].equals(f1)
    assert g2.components[1].equals(g1)


# ---------------------------------------------------------------------------
# hand-written per-tuple residuals
#
# The functions below evaluate each identity at one tuple T, insertion by
# insertion and block by block, with no stored-key walk: the six residuals
# as they were written before the checkers shared one left-hand side and
# then walked stored keys term by term.  The exhaustive scans further down
# evaluate them at every tuple of the degree window, and every checker's
# report must equal its scan on the same input.  The inputs carry one
# perturbed coefficient, and each test asserts that the scan finds
# violations, so equal reports are not equal empty lists.

def ref_accumulate(acc: dict, vec: dict, factor) -> None:
    for lab, c in vec.items():
        total = acc.get(lab, 0) + factor * c
        if total:
            acc[lab] = total
        else:
            acc.pop(lab, None)


def ref_stasheff_residual(products: dict[int, MultiMap], space: GradedSpace,
                          T: tuple[str, ...]) -> dict:
    """Sum over p+q+r=n of (-1)^(p+qr) nu_{p+r+1}(1^p x nu_q x 1^r) at T."""
    n = len(T)
    degs = [space.deg(l) for l in T]
    acc: dict = {}
    for q in range(1, n + 1):
        inner = products.get(q)
        if inner is None:
            continue
        for p in range(0, n - q + 1):
            r = n - q - p
            outer = products.get(p + r + 1)
            if outer is None:
                continue
            sign = -1 if (p + q * r) % 2 else 1
            if q % 2 and sum(degs[:p]) % 2:
                sign = -sign  # nu_q crossing the first p inputs
            row, s0 = inner.get_ref(T[p:p + q])
            if row is None:
                continue
            for mid, c in row.items():
                out_vec = outer.get(T[:p] + (mid,) + T[p + q:])
                if out_vec:
                    ref_accumulate(acc, out_vec, sign * s0 * c)
    return acc


def ref_jacobi_residual(brackets: dict[int, MultiMap], space: GradedSpace,
                        T: tuple[str, ...]) -> dict:
    """Sum over (i,j,sigma) of chi(sigma) (-1)^(i(j-1)) l_j(l_i x 1^(j-1)) at T."""
    n = len(T)
    degs = tuple(space.deg(l) for l in T)
    acc: dict = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        inner = brackets.get(i)
        outer = brackets.get(j)
        if inner is None or outer is None:
            continue
        for sigma in unshuffles(i, n):
            chi = antisym_sign(sigma, degs)
            sign = chi if (i * (j - 1)) % 2 == 0 else -chi
            Ts = tuple(T[k] for k in sigma)
            row, s0 = inner.get_ref(Ts[:i])
            if row is None:
                continue
            for mid, c in row.items():
                out_vec = outer.get((mid,) + Ts[i:])
                if out_vec:
                    ref_accumulate(acc, out_vec, sign * s0 * c)
    return acc


def ref_module_residual(module: LInfModule, T: tuple[str, ...]) -> dict:
    """Module identity residual at T = (algebra..., module-last).

    Convention split: when sigma(i) = n the inner map takes the module
    element and the term is rotated with the kappa sign; when sigma(n) = n
    the inner map is the algebra bracket l_i.
    """
    n = len(T)
    space = module.combined
    degs = tuple(space.deg(l) for l in T)
    acc: dict = {}
    last = n - 1
    for i in range(1, n + 1):
        j = n + 1 - i
        for sigma in unshuffles(i, n):
            chi = antisym_sign(sigma, degs)
            base = chi if (i * (j - 1)) % 2 == 0 else -chi
            Ts = tuple(T[k] for k in sigma)
            if sigma[i - 1] == last:
                inner = module.actions.get(i)
                outer = module.actions.get(j)
                if inner is None or outer is None:
                    continue
                head = sum(degs[k] for k in sigma[:i])
                tail = sum(degs[k] for k in sigma[i:])
                kappa = -1 if (j - 1) % 2 else 1
                if (i + head) % 2 and tail % 2:
                    kappa = -kappa
                row, s0 = inner.get_ref(Ts[:i])
                if row is None:
                    continue
                for mid, c in row.items():
                    out_vec = outer.get(Ts[i:] + (mid,))
                    if out_vec:
                        ref_accumulate(acc, out_vec, base * kappa * s0 * c)
            else:
                inner = module.algebra.brackets.get(i)
                outer = module.actions.get(j)
                if inner is None or outer is None:
                    continue
                row, s0 = inner.get_ref(Ts[:i])
                if row is None:
                    continue
                for mid, c in row.items():
                    out_vec = outer.get((mid,) + Ts[i:])
                    if out_vec:
                        ref_accumulate(acc, out_vec, base * s0 * c)
    return acc


def ref_ainf_morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    src: AInfAlgebra = mor.source
    tgt: AInfAlgebra = mor.target
    space = src.space
    n = len(T)
    degs = [space.deg(l) for l in T]
    acc: dict = {}
    # left side: f_{p+r+1} (1^p x nu_q x 1^r)
    for q in range(1, n + 1):
        inner = src.products.get(q)
        if inner is None:
            continue
        for p in range(0, n - q + 1):
            r = n - q - p
            comp = mor.components.get(p + r + 1)
            if comp is None:
                continue
            sign = -1 if (p + q * r) % 2 else 1
            if q % 2 and sum(degs[:p]) % 2:
                sign = -sign
            row, s0 = inner.get_ref(T[p:p + q])
            if row is None:
                continue
            for mid, c in row.items():
                out_vec = comp.get(T[:p] + (mid,) + T[p + q:])
                if out_vec:
                    ref_accumulate(acc, out_vec, sign * s0 * c)
    # right side, subtracted: nu'_k (f_{i_1} x ... x f_{i_k})
    for k in range(1, n + 1):
        target_map = tgt.products.get(k)
        if target_map is None:
            continue
        for comp_profile in compositions(n, k):
            comps = [mor.components.get(i) for i in comp_profile]
            if any(c is None for c in comps):
                continue
            eps = 0
            for t, it in enumerate(comp_profile):
                eps += (k - t - 1) * (it - 1)
            sign = -1 if eps % 2 else 1
            # Koszul: factor t (degree 1-i_t) crosses earlier raw inputs
            ref_rhs_blocks(acc, target_map, comps, comp_profile, T, degs, -sign)
    return acc


def ref_rhs_blocks(acc, target_map, comps, profile, T, degs, factor):
    """Accumulate factor * nu'(f_{i_1}(block_1), ...) over consecutive blocks."""
    k = len(profile)
    offsets = [0]
    for size in profile:
        offsets.append(offsets[-1] + size)

    def rec(t: int, mids: tuple[str, ...], coef):
        if t == k:
            vec = target_map.get(mids)
            if vec:
                ref_accumulate(acc, vec, coef)
            return
        block = T[offsets[t]:offsets[t + 1]]
        row, s0 = comps[t].get_ref(block)
        if row is None:
            return
        sign = 1
        if (1 + profile[t]) % 2 and sum(degs[:offsets[t]]) % 2:
            sign = -1
        for mid, c in row.items():
            rec(t + 1, mids + (mid,), coef * sign * s0 * c)

    rec(0, (), factor)


def ref_linf_morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    src: LInfAlgebra = mor.source
    tgt: LInfAlgebra = mor.target
    space = src.space
    n = len(T)
    degs = tuple(space.deg(l) for l in T)
    acc: dict = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        inner = src.brackets.get(i)
        comp = mor.components.get(j)
        if inner is None or comp is None:
            continue
        for sigma in unshuffles(i, n):
            chi = antisym_sign(sigma, degs)
            sign = chi if (i * (j - 1)) % 2 == 0 else -chi
            Ts = tuple(T[k] for k in sigma)
            row, s0 = inner.get_ref(Ts[:i])
            if row is None:
                continue
            for mid, c in row.items():
                out_vec = comp.get((mid,) + Ts[i:])
                if out_vec:
                    ref_accumulate(acc, out_vec, sign * s0 * c)
    # right side: blocks with increasing minima, sign epsilon and Koszul crossings
    for j in range(1, n + 1):
        target_map = tgt.brackets.get(j)
        if target_map is None:
            continue
        for profile in compositions(n, j):
            comps = [mor.components.get(kt) for kt in profile]
            if any(c is None for c in comps):
                continue
            eps = 0
            for t, kt in enumerate(profile):
                eps += (j - t - 1) * (kt - 1)
            base = -1 if eps % 2 else 1
            ref_linf_rhs_partitions(acc, target_map, comps, profile, T, degs, -base)
    return acc


def ref_linf_rhs_partitions(acc, target_map, comps, profile, T, degs, factor):
    """Blocks of the given sizes with increasing minima and increasing insides."""
    n = len(T)
    j = len(profile)

    def rec(t: int, remaining: tuple[int, ...], mids: tuple[str, ...],
            perm: tuple[int, ...], coef):
        if t == j:
            chi = antisym_sign(perm, degs)
            vec = target_map.get(mids)
            if vec:
                ref_accumulate(acc, vec, coef * chi)
            return
        size = profile[t]
        # block must contain the smallest remaining index to normalize order
        head = remaining[0]
        for rest_block in combinations(remaining[1:], size - 1):
            block = (head,) + rest_block
            labels = tuple(T[p] for p in block)
            row, s0 = comps[t].get_ref(labels)
            if row is None:
                continue
            sign = 1
            if (1 + size) % 2 and sum(degs[p] for p in perm) % 2:
                sign = -1
            new_remaining = tuple(x for x in remaining if x not in block)
            for mid, c in row.items():
                rec(t + 1, new_remaining, mids + (mid,), perm + block,
                    coef * sign * s0 * c)

    rec(0, tuple(range(n)), (), (), factor)


def ref_module_morphism_residual(mor: InfMorphism, T: tuple[str, ...]) -> dict:
    """Module-morphism identity over a fixed algebra (identity on L).

    Left side follows the module convention split; on the right the module
    element's block feeds the last slot of the target action and all other
    blocks are forced to size one through the identity of L.
    """
    src: LInfModule = mor.source
    tgt: LInfModule = mor.target
    space = src.combined
    n = len(T)
    degs = tuple(space.deg(l) for l in T)
    last = n - 1
    acc: dict = {}
    for i in range(1, n + 1):
        j = n + 1 - i
        comp = mor.components.get(j)
        if comp is None:
            continue
        for sigma in unshuffles(i, n):
            chi = antisym_sign(sigma, degs)
            base = chi if (i * (j - 1)) % 2 == 0 else -chi
            Ts = tuple(T[k] for k in sigma)
            if sigma[i - 1] == last:
                inner = src.actions.get(i)
                if inner is None:
                    continue
                head = sum(degs[k] for k in sigma[:i])
                tail = sum(degs[k] for k in sigma[i:])
                kappa = -1 if (j - 1) % 2 else 1
                if (i + head) % 2 and tail % 2:
                    kappa = -kappa
                row, s0 = inner.get_ref(Ts[:i])
                if row is None:
                    continue
                for mid, c in row.items():
                    out_vec = comp.get(Ts[i:] + (mid,))
                    if out_vec:
                        ref_accumulate(acc, out_vec, base * kappa * s0 * c)
            else:
                inner = src.algebra.brackets.get(i)
                if inner is None:
                    continue
                row, s0 = inner.get_ref(Ts[:i])
                if row is None:
                    continue
                for mid, c in row.items():
                    out_vec = comp.get((mid,) + Ts[i:])
                    if out_vec:
                        ref_accumulate(acc, out_vec, base * s0 * c)
    # right side: m'_j(xi_{tau(1)}, ..., f_k(module block))
    for k in range(1, n + 1):
        comp = mor.components.get(k)
        if comp is None:
            continue
        j = n - k + 1
        outer = tgt.actions.get(j)
        if outer is None:
            continue
        for others in combinations(range(n - 1), k - 1):
            block = others + (last,)
            singles = tuple(p for p in range(n - 1) if p not in others)
            perm = singles + block
            chi = antisym_sign(perm, degs)
            sign = 1
            if (1 + k) % 2 and sum(degs[p] for p in singles) % 2:
                sign = -1
            row, s0 = comp.get_ref(tuple(T[p] for p in block))
            if row is None:
                continue
            labels_single = tuple(T[p] for p in singles)
            for mid, c in row.items():
                out_vec = outer.get(labels_single + (mid,))
                if out_vec:
                    ref_accumulate(acc, out_vec, -chi * sign * s0 * c)
    return acc


def _perturbed(mm: MultiMap, rng: random.Random) -> MultiMap:
    """A copy of mm with one stored coefficient raised by one."""
    out = add_tables(MultiMap(mm.space_in, mm.space_out, mm.arity, mm.shift, mm.symmetry), mm)
    key = rng.choice(sorted(out.table))
    out.add(key, rng.choice(sorted(out.table[key])), Fraction(1))
    return out


def _random_component(rng, space_in, space_out, k, symmetry, keys):
    """Random small-integer entries of shift 1 - k at the given keys."""
    comp = MultiMap(space_in, space_out, k, 1 - k, symmetry)
    for key in keys:
        deg = sum(space_in.deg(l) for l in key) + 1 - k
        for e in space_out.elements:
            if e.deg == deg:
                comp.add(key, e.label, Fraction(rng.randint(-2, 2)))
    return comp


def _sorted_keys(rng, space, k):
    keys = set()
    for _ in range(6):
        keys.add(tuple(sorted(rng.choices(space.labels(), k=k), key=space.order_index)))
    return sorted(keys)


def _identity_like(space_in, space_out, symmetry, rng):
    ident = MultiMap(space_in, space_out, 1, 0, symmetry)
    for e in space_out.elements:
        ident.add((e.label,), e.label, Fraction(1))
    return _perturbed(ident, rng)


def _same_report(got, want) -> int:
    """Assert byte-equal reports and return the number of violations."""
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    return len(want.violations)


SEEDS = range(4)


def test_stasheff_residual_matches_reference():
    found = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        alg = random_cdga(seed).ainf()
        products = {**alg.products, 2: _perturbed(alg.products[2], rng)}
        bad = AInfAlgebra(alg.space, products)
        found += _same_report(stasheff_check(bad, 4), ref_stasheff_check(bad, 4))
    assert found


def test_jacobi_residual_matches_reference():
    found = 0
    algebras = [pair_to_algebra(cdga_pair(random_cdga(seed))) for seed in SEEDS]
    algebras += [heisenberg_lie_dgla(), solvable_dgla()]
    for seed, alg in enumerate(algebras):
        rng = random.Random(seed)
        brackets = {**alg.brackets, 2: _perturbed(alg.brackets[2], rng)}
        bad = LInfAlgebra(alg.space, brackets)
        found += _same_report(jacobi_check(bad, 4), ref_jacobi_check(bad, 4))
    assert found


def test_module_residual_matches_reference():
    # module_check walks the Jacobi identity of L (+) M; its report must be
    # the scan of the module residual written out by hand
    found = 0
    pairs = [cdga_pair(random_cdga(seed)) for seed in SEEDS]
    pairs += [adjoint_pair(solvable_dgla()), adjoint_pair(heisenberg_lie_dgla())]
    for seed, pair in enumerate(pairs):
        rng = random.Random(seed)
        mod = pair.module
        actions = {**mod.actions, 2: _perturbed(mod.actions[2], rng)}
        bad = LInfModule(pair.algebra, mod.space, actions)
        found += _same_report(module_check(bad, 4), ref_module_check(bad, 4))
    assert found


def test_ainf_morphism_residual_matches_reference():
    # transferred phi and psi, each with one perturbed component
    found = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        alg = random_cdga(seed)
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()),
                            alg.ainf(), 3)
        for mor in (res.phi, res.psi):
            k = max(mor.components)
            comps = {**mor.components, k: _perturbed(mor.components[k], rng)}
            bad = InfMorphism("ainf", mor.source, mor.target, comps)
            found += _same_report(morphism_check(bad, 3), ref_morphism_check(bad, 3))
    assert found


def test_linf_morphism_residual_matches_reference():
    # antisymmetrized transferred phi/psi (their brackets vanish above
    # arity one), and perturbed identities plus a random f_2 on the L (+) M
    # algebras of cdga pairs, whose brackets reach the block partitions
    found = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        alg = random_cdga(seed)
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()),
                            alg.ainf(), 3)
        src_l, tgt_l = antisymmetrize(alg.ainf()), antisymmetrize(res.algebra)
        phi = antisymmetrize_morphism(res.phi, src_l, tgt_l)
        comps = {**phi.components, 1: _perturbed(phi.components[1], rng)}
        bad = InfMorphism("linf", src_l, tgt_l, comps)
        found += _same_report(morphism_check(bad, 3), ref_morphism_check(bad, 3))

        combined = pair_to_algebra(cdga_pair(alg))
        space = combined.space
        comps = {
            1: _identity_like(space, space, "antisym", rng),
            2: _random_component(rng, space, space, 2, "antisym", _sorted_keys(rng, space, 2)),
        }
        bad = InfMorphism("linf", combined, combined, comps)
        found += _same_report(morphism_check(bad, 3), ref_morphism_check(bad, 3))
    assert found


def test_module_morphism_residual_matches_reference():
    # perturbed identities plus a random g_2 over a fixed algebra; the check
    # walks the L-infinity morphism identity of id_L (+) g, and its report
    # must be the scan of the module-morphism residual written out by hand
    found = 0
    pairs = [cdga_pair(random_cdga(seed)) for seed in SEEDS]
    pairs += [adjoint_pair(solvable_dgla())]
    for seed, pair in enumerate(pairs):
        rng = random.Random(seed)
        mod = pair.module
        keys = [head + (xi,)
                for xi in mod.space.labels()
                for head in _sorted_keys(rng, pair.algebra.space, 1)[:2]]
        comps = {
            1: _identity_like(mod.combined, mod.space, "none", rng),
            2: _random_component(rng, mod.combined, mod.space, 2, "antisym_algebra", keys),
        }
        bad = InfMorphism("module", mod, mod, comps)
        found += _same_report(morphism_check(bad, 3), ref_morphism_check(bad, 3))
    assert found


def h3_times_h3() -> Cdga:
    """H_3 x H_3 = Lambda(x1, y1, z1, x2, y2, z2), dz1 = x1y1, dz2 = x2y2,
    weights 1, 1, 2: its minimal model has a nonzero 4-ary product."""
    gens = [(f"{g}{i}", 1, w) for i in (1, 2) for g, w in (("x", 1), ("y", 1), ("z", 2))]
    return Cdga(gens, 6, {"z1": [(1, (0, 1))], "z2": [(1, (3, 4))]})


def test_residuals_match_reference_at_arity_five_on_h3_times_h3():
    # H_3 x H_3 is the first input with nu_4 != 0, and its transfer passes
    # every certificate; one perturbed coefficient of nu_4, phi_3 and psi_3
    # supplies violations at arities 5 and 4.  Every map here preserves
    # weights, so a residual vanishes off the (degree, weight) window, and
    # the scans visit that window only: the degree window alone holds 0.9M
    # Stasheff tuples at arity 5 and 1.3M phi tuples at arity 4.
    alg = h3_times_h3()
    res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()), alg.ainf(), 5)
    rng = random.Random(0)
    products = {**res.algebra.products, 4: _perturbed(res.algebra.products[4], rng)}
    bad = AInfAlgebra(res.algebra.space, products)
    got = stasheff_check(bad, 5)
    assert _same_report(got, ref_stasheff_check(bad, 5, weights=True))
    assert any(v.arity == 5 for v in got.violations)
    for mor in (res.phi, res.psi):
        comps = {**mor.components, 3: _perturbed(mor.components[3], rng)}
        bad_mor = InfMorphism("ainf", mor.source, mor.target, comps)
        got = morphism_check(bad_mor, 4)
        assert _same_report(got, ref_morphism_check(bad_mor, 4, weights=True))
        assert any(v.arity == 4 for v in got.violations)


# ---------------------------------------------------------------------------
# both sides on the one walk against the checkers' own left-hand walk
#
# ``structures._residuals`` runs an identity's left-hand side as spine plans
# of ``multimap.morphism_terms``; ``residuals_reference`` is the walk of
# inner_q into outer_k with the operadic sign table it replaced.  Their
# nonzero residuals must be equal mappings, on valid inputs and with one
# coefficient perturbed, where they must also be nonempty.

def _nonzero(res: dict, scale: int = 1) -> dict:
    """The nonzero entries of an accumulator at scale L, divided by L."""
    out = {}
    for T, vec in res.items():
        vec = {lab: Fraction(c, scale) for lab, c in vec.items() if c}
        if vec:
            out[T] = vec
    return out


def _walk_cases():
    """(label, outer, inner, target, space, antisym, max arity, perturbed)."""
    rng = random.Random(1)
    cases = []

    def add(label, outer, inner, target, space, antisym, arity):
        # perturb the highest map below the arity, so that a map of arity at
        # least two meets it in a term of the check
        cases.append((label, outer, inner, target, space, antisym, arity, False))
        k = max(k for k in outer if k < arity)
        bad = {**outer, k: _perturbed(outer[k], rng)}
        cases.append((label, bad, bad if inner is outer else inner, target, space, antisym,
                      arity, True))

    cdgas = {"heisenberg": heisenberg_cdga(), "exterior4": exterior_cdga(4)}
    cdgas.update({f"random{s}": random_cdga(s, dims=(1, 3, 3, 1)) for s in range(4)})
    algebras = {label: alg.ainf() for label, alg in cdgas.items()}
    algebras["torus2"] = _golden_package("torus2.json")
    for label, alg in algebras.items():
        add(label, alg.products, alg.products, None, alg.space, False, 6)
    h3h3 = h3_times_h3()
    nu = transfer_ainf(cohomology_splitting(h3h3.space, h3h3.differential_map()),
                       h3h3.ainf(), 5).algebra
    add("h3xh3-a5", nu.products, nu.products, None, nu.space, False, 5)
    combined = {
        "heisenberg-pair": pair_to_algebra(_golden_package("heisenberg-pair.json")),
        "h3xh3-pair-a5": pair_to_algebra(transfer_pair(cdga_pair(h3h3), 5).pair),
    }
    for label, alg in combined.items():
        arity = 5 if label.endswith("a5") else 6
        add(label, alg.brackets, alg.brackets, None, alg.space, True, arity)
    for label in ("heisenberg", "exterior4", "random0"):
        alg = cdgas[label]
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()),
                            alg.ainf(), 4)
        for name, mor in (("phi", res.phi), ("psi", res.psi)):
            add(f"{label}-{name}", mor.components, mor.source.products, mor.target.products,
                mor.source.space, False, 4)
    return cases


def test_residuals_on_the_one_walk_match_the_inner_into_outer_walk():
    repeated = {False: 0, True: 0}
    for label, outer, inner, target, space, antisym, arity, perturbed in _walk_cases():
        got = _nonzero(*structures._residuals(outer, inner, target, space, antisym, arity))
        want = _nonzero(residuals_reference.residuals(outer, inner, target, space, antisym,
                                                      arity))
        assert got == want, (label, perturbed)
        assert bool(got) == perturbed, (label, perturbed)
        repeated[antisym] += sum(len(set(T)) < len(T) for T in got)
    # both operads meet a tuple repeating a label, where the walk's weights act
    assert all(repeated.values()), repeated


# ---------------------------------------------------------------------------
# term-driven checkers against exhaustive scans
#
# The checkers add up each nonzero term of an identity once, at the tuple it
# lands on.  The reference is a scan that evaluates a hand-written residual
# above at every degree-feasible tuple (every tuple for A-infinity, sorted
# tuples for L-infinity, sorted algebra tuples with the module label last
# for modules).  Both must give equal reports, every violation in order.

def iter_tuples(space: GradedSpace, arity: int, sums: set[int],
                window: set[tuple[int, int]] | None = None):
    """All label tuples with total degree in sums, degree-pruned; with a
    window of (degree, weight) pairs, only the tuples whose total degree
    and weight form one of them, weight-pruned too."""
    elements = space.elements
    if not elements or not sums:
        return
    degs = sorted({e.deg for e in elements})
    dmin, dmax = degs[0], degs[-1]
    smin, smax = min(sums), max(sums)
    labels = [(e.label, e.deg, e.weight if window else 0) for e in elements]
    weights = [w for _, _, w in labels]
    wmin, wmax = min(weights), max(weights)
    wsums = {w for _, w in window} if window else {0}
    lo, hi = min(wsums), max(wsums)

    def rec(slot: int, prefix: tuple[str, ...], total: int, weight: int):
        remaining = arity - slot
        if remaining == 0:
            if total in sums and (not window or (total, weight) in window):
                yield prefix
            return
        if total + remaining * dmin > smax or total + remaining * dmax < smin:
            return
        if weight + remaining * wmin > hi or weight + remaining * wmax < lo:
            return
        for lab, d, w in labels:
            yield from rec(slot + 1, prefix + (lab,), total + d, weight + w)

    yield from rec(0, (), 0, 0)


def iter_sorted_tuples(space: GradedSpace, arity: int, sums: set[int]):
    """Nondecreasing tuples (by basis order) with total degree in sums,
    skipping repeated even labels: the scan order of every identity that is
    graded antisymmetric in all slots, whose values elsewhere follow formally
    by the sign rules."""
    elements = space.elements
    n = len(elements)
    if not elements or not sums:
        return
    degs = [e.deg for e in elements]
    dmin, dmax = min(degs), max(degs)
    smin, smax = min(sums), max(sums)

    def rec(slot: int, start: int, prefix: tuple[str, ...], total: int, last: int):
        remaining = arity - slot
        if remaining == 0:
            if total in sums:
                yield prefix
            return
        if total + remaining * dmin > smax or total + remaining * dmax < smin:
            return
        for i in range(start, n):
            e = elements[i]
            if i == last and e.deg % 2 == 0:
                continue  # repeated even label: identity vanishes formally
            yield from rec(slot + 1, i, prefix + (e.label,), total + e.deg, i)

    yield from rec(0, 0, (), 0, -1)


def _scan(name, max_arity, tuples, residual):
    violations = []
    for n in range(1, max_arity + 1):
        for T in tuples(n):
            res = residual(T)
            if res:
                violations.append(structures.Violation(n, T, res))
    return structures.CheckReport(name, not violations, max_arity, tuple(violations))


def _module_tuples(module: LInfModule, n: int, sums: set[int]):
    for xi in module.space.elements:
        if n == 1:
            yield (xi.label,)
            continue
        sub = {s - xi.deg for s in sums}
        for Ta in iter_sorted_tuples(module.algebra.space, n - 1, sub):
            yield Ta + (xi.label,)


def _window_sums(space: GradedSpace, shift: int) -> set[int]:
    return {d - shift for d in space.degrees()}


def _weight_window(space: GradedSpace, shift: int) -> set[tuple[int, int]]:
    """(total input degree, total input weight) of the tuples whose value
    may land on a basis element of space under a degree shift."""
    return {(e.deg - shift, e.weight) for e in space.elements}


def ref_stasheff_check(alg: AInfAlgebra, max_arity: int, weights: bool = False):
    """The scan of the Stasheff residual over the degree window, or over
    the (degree, weight) window for weight-preserving products."""
    space = alg.space
    return _scan("stasheff", max_arity,
                 lambda n: iter_tuples(space, n, _window_sums(space, 3 - n),
                                       _weight_window(space, 3 - n) if weights else None),
                 lambda T: ref_stasheff_residual(alg.products, space, T))


def ref_jacobi_check(alg: LInfAlgebra, max_arity: int):
    return _scan("jacobi", max_arity,
                 lambda n: iter_sorted_tuples(
                     alg.space, n, _window_sums(alg.space, 3 - n)),
                 lambda T: ref_jacobi_residual(alg.brackets, alg.space, T))


def ref_module_check(module: LInfModule, max_arity: int):
    return _scan("module", max_arity,
                 lambda n: _module_tuples(module, n, _window_sums(module.space, 3 - n)),
                 lambda T: ref_module_residual(module, T))


def ref_morphism_check(mor: InfMorphism, max_arity: int, weights: bool = False):
    """The scan of the morphism residual; ``weights`` as for Stasheff, for
    A-infinity morphisms."""
    src, out = mor.source.space, mor.target.space
    if mor.kind == "ainf":
        tuples = lambda n: iter_tuples(src, n, _window_sums(out, 2 - n),
                                       _weight_window(out, 2 - n) if weights else None)
        residual = ref_ainf_morphism_residual
    elif mor.kind == "linf":
        tuples = lambda n: iter_sorted_tuples(src, n, _window_sums(out, 2 - n))
        residual = ref_linf_morphism_residual
    else:
        tuples = lambda n: _module_tuples(mor.source, n, _window_sums(out, 2 - n))
        residual = ref_module_morphism_residual
    return _scan(f"morphism-{mor.kind}", max_arity, tuples, lambda T: residual(mor, T))


def _perturbed_algebra(alg, rng):
    maps = alg.products if isinstance(alg, AInfAlgebra) else alg.brackets
    k = max(maps)
    return type(alg)(alg.space, {**maps, k: _perturbed(maps[k], rng)})


def _perturbed_module(mod: LInfModule, rng) -> LInfModule:
    k = max(mod.actions)
    return LInfModule(mod.algebra, mod.space, {**mod.actions, k: _perturbed(mod.actions[k], rng)})


def _perturbed_morphism(mor: InfMorphism, rng) -> InfMorphism:
    k = rng.choice(sorted(mor.components))
    comps = {**mor.components, k: _perturbed(mor.components[k], rng)}
    return InfMorphism(mor.kind, mor.source, mor.target, comps)


def _golden_package(name: str):
    path = Path(__file__).resolve().parent.parent / "fixtures" / name
    return parse_structure(json.loads(path.read_text(encoding="utf-8")))


def _differential_cases():
    """(label, kind, structure, max arity, fast checker, reference checker),
    each input once as built and once with one perturbed coefficient."""
    cdgas = [(f"random{s}", random_cdga(s)) for s in range(3)]
    cdgas.append(("exterior3", exterior_cdga(3)))
    pairs = [(label, cdga_pair(alg)) for label, alg in cdgas]
    pairs += [(name, _golden_package(f"{name}.json"))
              for name in ("heisenberg-pair", "heisenberg-pair-weighted")]
    pairs.append(("heisenberg-pair-a3", transfer_pair(pairs[-2][1], 3).pair))
    cases = []
    rng = random.Random(5)

    def add(label, kind, obj, arity, fast, ref, perturb):
        cases.append((label, kind, obj, arity, fast, ref))
        cases.append((label + "-perturbed", kind, perturb(obj, rng), arity, fast, ref))

    for label, alg in cdgas + [("heisenberg", heisenberg_cdga())]:
        ainf = alg.ainf()
        add(label, "stasheff", ainf, 4, stasheff_check, ref_stasheff_check, _perturbed_algebra)
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()), ainf, 3)
        add(label + "-transferred", "stasheff", res.algebra, 4, stasheff_check,
            ref_stasheff_check, _perturbed_algebra)
        for name, mor in (("phi", res.phi), ("psi", res.psi)):
            add(f"{label}-{name}", "ainf", mor, 3, morphism_check, ref_morphism_check,
                _perturbed_morphism)
        src_l, tgt_l = antisymmetrize(ainf), antisymmetrize(res.algebra)
        for name, mor, ends in (("phi", res.phi, (src_l, tgt_l)), ("psi", res.psi, (tgt_l, src_l))):
            add(f"{label}-{name}", "linf", antisymmetrize_morphism(mor, *ends), 3,
                morphism_check, ref_morphism_check, _perturbed_morphism)
    for label, pair in pairs:
        combined = pair_to_algebra(pair)
        for name, alg in (("algebra", pair.algebra), ("combined", combined)):
            if alg.brackets:
                add(f"{label}-{name}", "jacobi", alg, 4, jacobi_check, ref_jacobi_check,
                    _perturbed_algebra)
        add(label, "module", pair.module, 4, module_check, ref_module_check, _perturbed_module)
        space, mod = combined.space, pair.module
        ident = MultiMap(space, space, 1, 0, "antisym")
        for e in space.elements:
            ident.add((e.label,), e.label, Fraction(1))
        add(label + "-identity", "linf", InfMorphism("linf", combined, combined, {1: ident}),
            3, morphism_check, ref_morphism_check, _perturbed_morphism)
        ident = MultiMap(mod.combined, mod.space, 1, 0)
        for e in mod.space.elements:
            ident.add((e.label,), e.label, Fraction(1))
        add(label + "-identity", "module-morphism", InfMorphism("module", mod, mod, {1: ident}),
            3, morphism_check, ref_morphism_check, _perturbed_morphism)
        f = {1: _identity_like(space, space, "antisym", rng),
             2: _random_component(rng, space, space, 2, "antisym", _sorted_keys(rng, space, 2))}
        add(label + "-combined", "linf", InfMorphism("linf", combined, combined, f), 3,
            morphism_check, ref_morphism_check, _perturbed_morphism)
        keys = [head + (xi,) for xi in mod.space.labels()
                for head in _sorted_keys(rng, pair.algebra.space, 1)[:2]]
        g = {1: _identity_like(mod.combined, mod.space, "none", rng),
             2: _random_component(rng, mod.combined, mod.space, 2, "antisym_algebra", keys)}
        add(label, "module-morphism", InfMorphism("module", mod, mod, g), 3,
            morphism_check, ref_morphism_check, _perturbed_morphism)
    return cases


def test_support_driven_checkers_match_exhaustive_scan():
    violated, repeated = {}, {}
    for label, kind, obj, arity, fast, ref in _differential_cases():
        got, want = fast(obj, arity).to_json(), ref(obj, arity).to_json()
        assert got == want, (kind, label)
        violated[kind] = violated.get(kind, 0) + len(want["violations"])
        repeated[kind] = repeated.get(kind, 0) + sum(
            len(set(v["inputs"])) < len(v["inputs"]) for v in want["violations"])
    # every kind fails somewhere, so equal reports are not equal empty lists
    assert sorted(violated) == sorted(
        ["stasheff", "jacobi", "module", "ainf", "linf", "module-morphism"])
    assert all(violated.values()), violated
    # and somewhere at a tuple repeating a label, where one term of the
    # checkers' walk stands for several index-level terms (their weights)
    assert all(repeated.values()), repeated


def test_module_checks_through_direct_sum_match_the_module_identities():
    """module_check and the module morphism check run through L (+) M; their
    reports are byte-equal to the exhaustive scans of the module identities
    written out by hand, on randomly perturbed cdga, adjoint and transferred
    pairs and random module morphisms between perturbed modules."""
    rng = random.Random(15)
    pairs = [cdga_pair(random_cdga(seed)) for seed in range(3, 6)]
    pairs += [adjoint_pair(alg) for alg in
              (solvable_dgla(), heisenberg_lie_dgla(), affine_plane_dgla())]
    pairs += [transfer_pair(cdga_pair(heisenberg_cdga()), 4).pair,
              transfer_pair(_golden_package("heisenberg-pair-weighted.json"), 4).pair,
              transfer_pair(cdga_pair(random_cdga(6)), 3).pair]
    violated = {"module": 0, "module-morphism": 0}
    for pair in pairs:
        for _ in range(2):
            mod = _perturbed_module(pair.module, rng)
            got, want = module_check(mod, 4), ref_module_check(mod, 4)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            violated["module"] += len(want.violations)
            keys = [head + (xi,) for xi in mod.space.labels()
                    for head in _sorted_keys(rng, pair.algebra.space, 1)[:2]]
            g = {1: _identity_like(mod.combined, mod.space, "none", rng),
                 2: _random_component(rng, mod.combined, mod.space, 2, "antisym_algebra", keys)}
            mor = InfMorphism("module", mod, mod, g)
            got, want = morphism_check(mor, 3), ref_morphism_check(mor, 3)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            violated["module-morphism"] += len(want.violations)
    assert all(violated.values()), violated
