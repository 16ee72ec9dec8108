"""Homotopy transfer: deterministic cohomology splittings, the memoized
p-/q-kernel recursion for A-infinity structures, the partition (tree)
recursion for L-infinity structures, pair transfer through the L (+) M
algebra, and the weight-based vanishing bound.

The A-infinity kernels follow the explicit recursion

    p_n = sum over compositions (r_1..r_k) of n, k >= 2, of
          (-1)^theta  mu_k((h p_{r_1}) x ... x (h p_{r_k})),   h p_1 := id

with theta = sum_{i<j} r_i (r_j + 1), and the q-kernels the companion
recursion with scratch maps (psi phi)_m.  The L-infinity recursion sums the
same composition shapes over block partitions with increasing minima; its
global sign convention is frozen below and certified by the Jacobi checker
on every output (an output failing Jacobi aborts, it is never returned).

Each table is one map filled by accumulation: every profile adds its
signed term into p_n, q_n or (psi phi)_n through
``tensor_compose(outer, inners, out, scale)``, the transferred products and
morphism components are scaled as they are composed, and the diagram check
accumulates each identity into one residual map.  The splitting walks its
(degree, weight) blocks once: a block takes its boundaries from the
co-exact part of the block one degree below, which that order puts first.

The L-infinity p_n is a sum over trees (Kadeishvili; Loday-Vallette,
Algebraic Operads, 10.3) whose root is a bracket l_k and whose other
vertices are earlier h p_s.  A term is nonzero only when every vertex value
is, so both L-infinity enumerations draw their input tuples from stored
keys through the checkers' enumerator (``structures.producers``,
``concatenate`` and ``window``): ``LInfKernelCache`` concatenates, over the
stored keys of l_k, per slot the label itself or an h p_s key producing it
(one tree level deep, since h p_s already sums the deeper levels), and
``transfer_linf`` concatenates, over the stored keys of p_n, per slot a
small label whose g-row holds it.  On the Heisenberg pair at arity 6 no
tuple survives, where a scan tried each of 7,435 sorted tuples against 31
partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from .grading import BasisElement, GradedSpace, combine_spaces
from .multimap import (
    MultiMap,
    add_tables,
    block_vectors,
    contract,
    identity_map,
    postcompose,
    tensor_compose,
)
from .signs import antisym_sign, compositions, theta_exponent
from .structures import (
    AInfAlgebra,
    CheckReport,
    InfMorphism,
    LInfAlgebra,
    LInfPair,
    PairEmbedding,
    algebra_to_module,
    concatenate,
    jacobi_check,
    pair_to_algebra,
    producers,
    sorted_in,
    window,
)


class TransferError(ValueError):
    pass


# ---------------------------------------------------------------------------
# transfer diagrams

@dataclass
class TransferDiagram:
    big: GradedSpace
    small: GradedSpace
    d_big: MultiMap
    d_small: MultiMap
    f: MultiMap
    g: MultiMap
    h: MultiMap
    blocks: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        """f and g are chain maps and id - gf = dh + hd: each identity is one
        residual, accumulated in one map, that must vanish."""
        if not postcompose(self.f, self.d_big, postcompose(self.d_small, self.f), -1).is_zero():
            raise TransferError("f is not a chain map")
        if not postcompose(self.d_big, self.g, postcompose(self.g, self.d_small), -1).is_zero():
            raise TransferError("g is not a chain map")
        residual = identity_map(self.big)
        for outer, inner in ((self.g, self.f), (self.d_big, self.h), (self.h, self.d_big)):
            postcompose(outer, inner, residual, -1)
        if not residual.is_zero():
            raise TransferError("homotopy identity id - gf = dh + hd fails")


def _block_key(e: BasisElement, weighted: bool):
    return (e.deg, e.weight if weighted else None)


def cohomology_splitting(
    space: GradedSpace,
    differential: MultiMap | None,
    use_weights: bool | None = None,
    label_prefix: str = "",
    variant: int = 0,
) -> TransferDiagram:
    """Split a finite complex as harmonic (+) exact (+) co-exact parts.

    Deterministic: within each (degree, weight) block the basis is taken in
    (weight, label) order, the harmonic complement of the boundaries inside
    the cocycles is chosen by greedy pivoting over the echelonized kernel,
    and the co-exact part by greedy pivoting over the standard basis.  The
    small side is the cohomology with zero differential; when weights are
    present all three maps preserve them.

    A nonzero ``variant`` shears the harmonic representatives by boundaries
    and reverses the co-exact pivoting order: a genuinely different valid
    splitting, used to test splitting-independence of invariants.

    Any arity-1 map on space (an A-infinity nu_1, an L-infinity l_1, a
    module's m_1) or None for zero is copied once into a plain differential.
    """
    differential = add_tables(MultiMap(space, space, 1, 1), differential)
    weighted = space.weighted if use_weights is None else (use_weights and space.weighted)
    if use_weights and not space.weighted:
        raise TransferError("weights required but the space carries none")

    bad_shift = differential.audit_shift()
    if bad_shift:
        raise TransferError(f"differential violates its degree shift: {bad_shift[:3]}")
    dd = postcompose(differential, differential)
    if not dd.is_zero():
        raise TransferError("differential does not square to zero")
    if weighted:
        bad = differential.audit_weights()
        if bad:
            raise TransferError(f"differential is not weight-preserving: {bad[:3]}")

    # group basis into blocks in (degree, weight, label) order
    blocks: dict[tuple, list[BasisElement]] = {}
    for e in sorted(space.elements, key=lambda e: (e.deg, e.weight or 0, e.label)):
        blocks.setdefault(_block_key(e, weighted), []).append(e)

    h_elements: list[BasisElement] = []
    # f's target and g's source are the cohomology, known once every block is split
    f_map = MultiMap(space, None, 1, 0)
    g_map = MultiMap(None, space, 1, 0)
    h_map = MultiMap(space, space, 1, -1)
    block_meta: list[dict] = []
    # (labels, co-exact vectors) per block: block (deg - 1, w) comes before (deg, w)
    coexact: dict[tuple, tuple[list[str], list[list[Fraction]]]] = {}

    for key in sorted(blocks, key=lambda k: (k[0], k[1] if k[1] is not None else 0)):
        deg, weight = key
        labels = [e.label for e in blocks[key]]
        dim = len(labels)
        tlabels = [e.label for e in blocks.get((deg + 1, weight), [])]
        mat = linalg.zeros(len(tlabels), dim)
        for j, lab in enumerate(labels):
            for out, c in differential.get((lab,)).items():
                if out in tlabels:
                    mat[tlabels.index(out)][j] = c
                elif tlabels:
                    raise TransferError(f"differential leaves the block at {lab} -> {out}")
        kernel = linalg.kernel_basis(mat, dim)

        # boundaries: images of the co-exact part one degree below
        below_labels, b_preimages = coexact.get((deg - 1, weight), ([], []))
        b_vectors: list[list[Fraction]] = []
        for kappa in b_preimages:
            image = [Fraction(0)] * dim
            for src, c in zip(below_labels, kappa):
                if c:
                    for out, coef in differential.get((src,)).items():
                        image[labels.index(out)] += c * coef
            b_vectors.append(image)

        kept = linalg.extend_to_basis(b_vectors, kernel)
        h_vectors = [kernel[i] for i in kept]
        if variant and b_vectors:
            h_vectors = [
                [a + b for a, b in zip(v, b_vectors[0])] for v in h_vectors
            ]
        std = linalg.identity(dim)
        candidates = std[::-1] if variant else std
        kept_std = linalg.extend_to_basis([v[:] for v in kernel], candidates)
        k_vectors = [candidates[i] for i in kept_std]
        coexact[key] = (labels, k_vectors)

        # record cohomology basis elements
        wtag = f"w{weight}" if weighted and weight is not None else ""
        h_labels = [f"{label_prefix}h{deg}{wtag}_{i}" for i in range(len(h_vectors))]
        for lab in h_labels:
            h_elements.append(BasisElement(lab, deg, weight if weighted else None))

        # change of basis [H | B | K] and its inverse
        basis_cols = h_vectors + b_vectors + k_vectors
        P = [[basis_cols[c][r] for c in range(dim)] for r in range(dim)]
        P_inv = linalg.invert(P)

        nh = len(h_vectors)
        for j, lab in enumerate(labels):
            for t in range(nh):
                if P_inv[t][j]:
                    f_map.add((lab,), h_labels[t], P_inv[t][j])
            for t, kappa in enumerate(b_preimages):
                c = P_inv[nh + t][j]
                if not c:
                    continue
                for below_lab, coef in zip(below_labels, kappa):
                    if coef:
                        h_map.add((lab,), below_lab, c * coef)
        for h_lab, hv in zip(h_labels, h_vectors):
            for lab, c in zip(labels, hv):
                g_map.add((h_lab,), lab, c)

        block_meta.append({
            "deg": deg, "weight": weight, "dim": dim, "h_labels": h_labels,
            "pivots": [labels[dim - 1 - i if variant else i] for i in kept_std],
        })

    small = GradedSpace(h_elements)
    f_map.space_out = g_map.space_in = small
    d_small = MultiMap(small, small, 1, 1)
    diagram = TransferDiagram(space, small, differential, d_small, f_map, g_map, h_map, block_meta)
    diagram.validate()
    return diagram


# ---------------------------------------------------------------------------
# arity bound

def arity_vacuity_bound(space: GradedSpace, max_probe: int = 16) -> int | None:
    """Smallest arity n for which no input tuple can produce output in the
    degree window under a shift of 2-n, or None when no such n exists
    (degree-0 classes usually prevent one)."""
    degs = sorted({e.deg for e in space.elements})
    if not degs:
        return 2
    reachable = {0}
    for n in range(1, max_probe + 1):
        reachable = {r + d for r in reachable for d in degs}
        if n >= 2 and not ({s + 2 - n for s in reachable} & set(degs)):
            return n
    return None


# ---------------------------------------------------------------------------
# A-infinity transfer

# (-1)^theta of a composition profile: the A-infinity kernels' sign, and the
# global sign of the L-infinity partition recursion on its block profile,
# frozen after calibration against the Jacobi certificate.
def _profile_sign(profile: tuple[int, ...]) -> int:
    return -1 if theta_exponent(profile) % 2 else 1


class KernelCache:
    """Arity-keyed memo tables for p, h.p, q, h.q, gf.q and (psi phi); each
    p_n, q_n and (psi phi)_n is one map, each composition profile adding its
    signed term into it."""

    def __init__(self, diagram: TransferDiagram, mu: dict[int, MultiMap]):
        self.diagram = diagram
        self.mu = mu
        big = diagram.big
        ident = identity_map(big)
        self.p: dict[int, MultiMap] = {}
        self.hp: dict[int, MultiMap] = {1: ident}
        self.q: dict[int, MultiMap] = {1: ident}
        self.hq: dict[int, MultiMap] = {1: diagram.h}
        gf = postcompose(diagram.g, diagram.f)
        self.gfq: dict[int, MultiMap] = {1: gf}
        self.psiphi: dict[int, MultiMap] = {1: gf}

    def ensure(self, n: int) -> None:
        for m in range(2, n + 1):
            if m not in self.p:
                self._build(m)

    def _build(self, n: int) -> None:
        diagram, mu = self.diagram, self.mu
        big = diagram.big
        p_n = MultiMap(big, big, n, 2 - n)
        for k in range(2, n + 1):
            outer = mu.get(k)
            if outer is None:
                continue
            for profile in compositions(n, k):
                inners = [None if r == 1 else self.hp[r] for r in profile]
                tensor_compose(outer, inners, p_n, _profile_sign(profile))
        self.p[n] = p_n
        self.hp[n] = postcompose(diagram.h, p_n)

        q_n = MultiMap(big, big, n, 1 - n)
        for k in range(2, n + 1):
            outer = mu.get(k)
            if outer is None:
                continue
            for i in range(1, k + 1):
                for profile in compositions(n - (k - i), i):
                    inners = [self.psiphi[r] for r in profile[:-1]]
                    inners += [self.hq[profile[-1]]] + [None] * (k - i)
                    sign = _profile_sign(profile) * (-1) ** (n + profile[-1])
                    tensor_compose(outer, inners, q_n, sign)
        self.q[n] = q_n
        self.hq[n] = postcompose(diagram.h, q_n)
        self.gfq[n] = postcompose(self.gfq[1], q_n)

        pp_n = add_tables(MultiMap(big, big, n, 1 - n), self.gfq[n])
        for k in range(2, n + 1):
            hp_k = self.hp[k]
            if hp_k.is_zero():
                continue
            for profile in compositions(n, k):
                tensor_compose(hp_k, [self.gfq[r] for r in profile], pp_n, _profile_sign(profile))
        self.psiphi[n] = pp_n


@dataclass
class AInfTransfer:
    algebra: AInfAlgebra
    phi: InfMorphism
    psi: InfMorphism
    homotopy: dict[int, MultiMap]
    diagram: TransferDiagram
    cache: KernelCache
    metadata: dict


def transfer_ainf(
    diagram: TransferDiagram, source: AInfAlgebra, max_arity: int
) -> AInfTransfer:
    """Push an A-infinity structure across a transfer diagram.

    Produces the small-side products nu_n = f p_n g^n along with the two
    morphisms phi_n = f q_n (big to small, first component f) and
    psi_n = h p_n g^n (small to big, first component g) and the homotopy
    components H_n = h q_n.
    """
    if diagram.big is not source.space:
        if set(diagram.big.labels()) != set(source.space.labels()):
            raise TransferError("diagram and structure live on different spaces")
    cache = KernelCache(diagram, source.products)
    cache.ensure(max_arity)

    products: dict[int, MultiMap] = {1: diagram.d_small}
    psi_comps: dict[int, MultiMap] = {1: diagram.g}
    phi_comps: dict[int, MultiMap] = {1: diagram.f}
    homotopy: dict[int, MultiMap] = {1: diagram.h}
    # The morphism components of the source recursion satisfy the identity in
    # its homotopy-side convention; rescaling by (-1)^(n-1) translates them
    # into the convention enforced by morphism_check (validated empirically
    # at all computed arities, see the transfer tests).  AInfAlgebra and
    # InfMorphism drop the components that vanish.
    for n in range(2, max_arity + 1):
        comp_sign = -1 if (n - 1) % 2 else 1
        png = tensor_compose(cache.p[n], [diagram.g] * n)  # g has degree 0: no signs
        products[n] = postcompose(diagram.f, png)
        psi_comps[n] = postcompose(diagram.h, png, scale=comp_sign)
        phi_comps[n] = postcompose(diagram.f, cache.q[n], scale=comp_sign)
        if not cache.hq[n].is_zero():
            homotopy[n] = cache.hq[n]

    small_alg = AInfAlgebra(diagram.small, products)
    phi = InfMorphism("ainf", source, small_alg, phi_comps)
    psi = InfMorphism("ainf", small_alg, source, psi_comps)
    meta = {
        "max_arity": max_arity,
        "arity_bound": arity_vacuity_bound(diagram.small),
        "blocks": diagram.blocks,
        "weighted": diagram.small.weighted,
    }
    return AInfTransfer(small_alg, phi, psi, homotopy, diagram, cache, meta)


# ---------------------------------------------------------------------------
# L-infinity transfer

class LInfKernelCache:
    """Arity-keyed p-kernels of the L-infinity tree recursion, built from
    table supports.

    p_n(T) sums, over set partitions of T into k >= 2 blocks (k a bracket
    arity), the outer bracket l_k on the block values, where a block of one
    input is the input itself and a larger block B is h p_|B| (T[B]).  A
    nonzero term therefore has a stored key M of some l_k whose slots are
    the block values, and each block of size >= 2 is a stored key of
    h p_|B| whose row holds its slot of M.  So the multiset unions over
    stored keys M of one block per slot (the label itself, or an h p_s key
    producing it) cover every input tuple where p_n can be nonzero; only
    those candidates are evaluated, through the checkers' ``concatenate``
    and ``window``, so the tables fill in the same order as a scan over
    every sorted tuple in the degree window would.
    Per candidate the partitions grow block by block and a block without a
    stored h p row at its inputs is dropped before any sign is computed.
    """

    def __init__(self, diagram: TransferDiagram, brackets: dict[int, MultiMap]):
        self.diagram = diagram
        self.brackets = brackets
        self.p: dict[int, MultiMap] = {}
        self.hp: dict[int, MultiMap] = {1: identity_map(diagram.big)}
        # label -> the one-input block (label,) and the stored h p_s keys whose row holds it
        self._producers = {lab: [(lab,)] for lab in diagram.big.labels()}
        self._max_blocks = max((k for k in brackets if k >= 2), default=1)

    def ensure(self, n: int) -> None:
        for m in range(2, n + 1):
            if m not in self.p:
                self._build(m)

    def _build(self, n: int) -> None:
        big = self.diagram.big
        p_n = MultiMap(big, big, n, 2 - n, "antisym")
        for T in self._candidates(n):
            degs = tuple(big.deg(l) for l in T)
            for lab, c in self._evaluate(T, degs).items():
                if c:
                    p_n.add(T, lab, c)
        self.p[n] = p_n
        hp_n = postcompose(self.diagram.h, p_n)
        self.hp[n] = hp_n
        for key, row in hp_n.table.items():
            for mid in row:
                self._producers[mid].append(key)

    def _candidates(self, n: int) -> list[tuple[str, ...]]:
        """Sorted n-tuples that some tree with nonzero vertex values reaches,
        in basis order within the degree window."""
        big = self.diagram.big
        outer = {k: m for k, m in self.brackets.items() if 2 <= k <= n}
        found: dict = {}
        concatenate(found, outer, self._producers, n, sorted_in(big), exact=True)
        return [T for _, T in window(found, n, 2, big, big, True)]

    def _evaluate(self, T: tuple[str, ...], degs: tuple[int, ...]) -> dict[str, Fraction]:
        """p_n(T) as the sum over set partitions of T into >= 2 blocks.

        Each block takes the smallest remaining input plus a subset of the
        rest (by size, then lexicographically), so the partitions come in a
        fixed order and ``acc`` fills in a fixed order too."""
        acc: dict[str, Fraction] = {}
        blocks: list[tuple[int, ...]] = []

        def grow(remaining: tuple[int, ...]) -> None:
            if not remaining:
                outer = self.brackets.get(len(blocks)) if len(blocks) >= 2 else None
                if outer is not None:
                    profile = tuple(len(b) for b in blocks)
                    maps = [None if len(b) == 1 else self.hp[len(b)] for b in blocks]
                    vectors, sign = block_vectors(maps, T, degs, blocks)
                    if sign:
                        perm = tuple(i for b in blocks for i in b)
                        sign *= _profile_sign(profile) * antisym_sign(perm, degs)
                        contract(outer, vectors, acc, sign)
                return
            if len(blocks) == self._max_blocks:
                return
            head, rest = remaining[0], remaining[1:]
            for size_minus_one in range(len(rest) + 1):
                # h p_n is not built yet, so no block takes all n inputs
                inner = self.hp.get(size_minus_one + 1)
                if inner is None:
                    continue
                for extra in combinations(rest, size_minus_one):
                    if extra and tuple(T[i] for i in (head,) + extra) not in inner.table:
                        continue
                    blocks.append((head,) + extra)
                    grow(tuple(x for x in rest if x not in extra))
                    blocks.pop()

        grow(tuple(range(len(T))))
        return acc


@dataclass
class LInfTransfer:
    algebra: LInfAlgebra
    diagram: TransferDiagram
    cache: LInfKernelCache
    certificate: CheckReport
    metadata: dict


def transfer_linf(
    diagram: TransferDiagram, source: LInfAlgebra, max_arity: int,
) -> LInfTransfer:
    """Transfer an L-infinity structure; the Jacobi pass on the output is the
    correctness certificate and failure aborts with the first violation.

    l_n(S) = f p_n(g s_1, ..., g s_n) is nonzero only when some stored key
    of p_n has, in each slot, a label in the g-row of some s_t, so the
    candidates are those keys with every slot replaced by such an s_t."""
    cache = LInfKernelCache(diagram, source.brackets)
    cache.ensure(max_arity)
    small = diagram.small
    g_producers, canon = producers({1: diagram.g}), sorted_in(small)
    brackets: dict[int, MultiMap] = {}
    if not diagram.d_small.is_zero():
        brackets[1] = add_tables(MultiMap(small, small, 1, 1, "antisym"), diagram.d_small)
    for n in range(2, max_arity + 1):
        p_n = cache.p[n]
        if p_n.is_zero():
            continue
        ln = MultiMap(small, small, n, 2 - n, "antisym")
        found: dict = {}
        concatenate(found, {n: p_n}, g_producers, n, canon)
        for _, S in window(found, n, 2, small, small, True):
            acc = contract(p_n, [diagram.g.get((s,)) for s in S], {})
            for big_lab, c in acc.items():
                for out_lab, c2 in diagram.f.get((big_lab,)).items():
                    ln.add(S, out_lab, c * c2)
        if not ln.is_zero():
            brackets[n] = ln
    result = LInfAlgebra(small, brackets)
    certificate = jacobi_check(result, max_arity)
    if not certificate.ok:
        raise TransferError(
            "transferred L-infinity structure fails Jacobi (sign convention bug): "
            + certificate.first().describe()
        )
    meta = {"max_arity": max_arity, "arity_bound": arity_vacuity_bound(small)}
    return LInfTransfer(result, diagram, cache, certificate, meta)


# ---------------------------------------------------------------------------
# pair transfer

@dataclass
class PairTransfer:
    pair: LInfPair
    embedding: PairEmbedding
    algebra_diagram: TransferDiagram
    module_diagram: TransferDiagram
    combined: LInfAlgebra
    certificate: CheckReport
    metadata: dict


def _direct_sum_diagrams(a: TransferDiagram, b: TransferDiagram) -> TransferDiagram:
    big = combine_spaces(a.big, b.big)
    small = combine_spaces(a.small, b.small)

    def merge(x: MultiMap, y: MultiMap, s_in, s_out, shift) -> MultiMap:
        return add_tables(MultiMap(s_in, s_out, 1, shift), x, y)

    return TransferDiagram(
        big, small,
        merge(a.d_big, b.d_big, big, big, 1),
        merge(a.d_small, b.d_small, small, small, 1),
        merge(a.f, b.f, big, small, 0),
        merge(a.g, b.g, small, big, 0),
        merge(a.h, b.h, big, big, -1),
        a.blocks + b.blocks,
    )


def transfer_pair(pair: LInfPair, max_arity: int, use_weights: bool | None = None) -> PairTransfer:
    """Minimal L-infinity pair on cohomology via the L (+) M route.

    The splitting is performed blockwise (the pair differential is block
    diagonal), the combined algebra is transferred with the partition
    recursion, and the module structure maps are read back off the
    transferred algebra.  The one Jacobi pass of the transferred L (+) M
    certifies the output; ``structures.split_pair_report`` splits it into
    the Jacobi report of L and the module report of M.
    """
    combined, _ = pair_to_algebra(pair)
    diag_a = cohomology_splitting(pair.algebra.space, pair.algebra.brackets.get(1),
                                  use_weights, label_prefix="a.")
    diag_m = cohomology_splitting(pair.module.space, pair.module.actions.get(1),
                                  use_weights, label_prefix="m.")
    diagram = _direct_sum_diagrams(diag_a, diag_m)
    diagram.validate()

    transferred = transfer_linf(diagram, combined, max_arity)
    emb_small = PairEmbedding(
        tuple(diag_a.small.labels()), tuple(diag_m.small.labels()),
        diag_a.small, diag_m.small,
    )
    small_pair = algebra_to_module(transferred.algebra, emb_small)
    meta = dict(transferred.metadata)
    meta["algebra_blocks"] = diag_a.blocks
    meta["module_blocks"] = diag_m.blocks
    return PairTransfer(
        small_pair, emb_small, diag_a, diag_m, transferred.algebra,
        transferred.certificate, meta,
    )


# ---------------------------------------------------------------------------
# induced maps on cohomology / weak-equivalence detection

def induced_cohomology_map(
    f1: MultiMap, src_diagram: TransferDiagram, tgt_diagram: TransferDiagram,
) -> MultiMap:
    """H(f1) as a map between the two small sides."""
    return postcompose(tgt_diagram.f, postcompose(f1, src_diagram.g))


def is_quasi_isomorphism(
    f1: MultiMap, src_diagram: TransferDiagram, tgt_diagram: TransferDiagram,
) -> bool:
    """Exact check: the induced maps on cohomology are bijective."""
    induced = induced_cohomology_map(f1, src_diagram, tgt_diagram)
    for deg in sorted(set(src_diagram.small.degrees()) | set(tgt_diagram.small.degrees())):
        rows = [e.label for e in tgt_diagram.small.basis_of_degree(deg)]
        cols = [e.label for e in src_diagram.small.basis_of_degree(deg)]
        if len(rows) != len(cols):
            return False
        mat = [[Fraction(0)] * len(cols) for _ in rows]
        for j, lab in enumerate(cols):
            for out, c in induced.get((lab,)).items():
                mat[rows.index(out)][j] = c
        if rows and linalg.rank(mat) != len(rows):
            return False
    return True


# ---------------------------------------------------------------------------
# weight-based vanishing bound

@dataclass
class VanishingBound:
    certified: bool
    n0_theoretical: int | None
    n0_empirical: int
    offenders: list[str]
    detail: str


def vanishing_bound(pair: LInfPair) -> VanishingBound:
    """Certify m(w, ..., w, eta) = 0 once more than n0 copies of w appear.

    The bound counts w-factors: an action with n copies of a degree-1 class
    w carries weight at least n while its target window caps the weight, so
    n0 = 2 * topdeg + 2 suffices.  Certification needs no weight-zero (or
    negative) degree-1 classes on the algebra side, nonnegative module
    weights, and module weights in degree m bounded by 2m - 1 for m >= 1.
    The empirical bound scans the stored tables for entries whose algebra
    slots are all of degree one.
    """
    alg_space = pair.algebra.space
    mod_space = pair.module.space
    if not (alg_space.weighted and mod_space.weighted):
        raise TransferError("vanishing bound needs weight data")
    offenders = [
        e.label for e in alg_space.elements if e.deg == 1 and (e.weight or 0) <= 0
    ]
    outside = []
    for e in mod_space.elements:
        if e.weight < 0:
            outside.append(f"{e.label}: negative weight")
        if e.deg >= 1 and e.weight >= 2 * e.deg:
            outside.append(f"{e.label}: weight {e.weight} >= {2 * e.deg}")

    empirical = 0
    for n, mm in sorted(pair.module.actions.items()):
        if n < 2:
            continue
        for key in mm.table:
            if all(alg_space.deg(l) == 1 for l in key[:-1]) and mm.table[key]:
                empirical = max(empirical, n - 1)

    if offenders or outside:
        return VanishingBound(
            False, None, empirical, offenders + outside,
            "weight-zero degree-1 classes present" if offenders else "weight window violated",
        )
    topdeg = mod_space.top_degree()
    n0 = 2 * topdeg + 2
    return VanishingBound(
        True, n0, empirical, [],
        f"W0 H^1 = 0 and module weights within [0, 2m-1]; bound 2*{topdeg}+2 "
        "(counting w-factors)",
    )
