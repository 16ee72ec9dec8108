"""Homotopy transfer: deterministic cohomology splittings, one memoized
tree-sum kernel for A-infinity and L-infinity structures with the
A-infinity q-kernels on top of it, pair transfer through the L (+) M
algebra, a check that a diagram splits its source's complex, and the
weight-based vanishing bound.

Every leaf of a transfer tree is a g-image and its root is f
(Loday-Vallette, Algebraic Operads, 10.3), so the p-kernels of both
transfers are keyed by small tuples: p_n(S) is the tree sum at gS, with
hp_1 = g and hp_r = -h p_r as the components below the root.  That sum is
the right-hand side of a morphism identity, so ``KernelCache`` builds each
p_n as one ``multimap.morphism_terms`` walk over the stored keys of the
structure maps, on A for products and on L for brackets, with the signs
the checkers use (Markl's tree formulas) and no sign rule of its own.  The
walk runs on integer rows at one scale, and each kernel's output entry is
divided back once, as it enters its table:

    p_n = sum over the cuts of n inputs into k >= 2 blocks of
          m_k(hp_{r_1} x ... x hp_{r_k}),

consecutive blocks for an A-infinity mu_k, unordered ones for an
L-infinity l_k.  The transferred structure is m'_n = f p_n, and hp is the
quasi-isomorphism psi from it back to the source.  ``AInfKernelCache``
adds, on A, the other half of the A-infinity transfer:

    Q_n = sum over k, t and compositions (r_0..r_t) of n - (k - 1 - t) of
          (-1)^t mu_k(PF_{r_0} x ... x PF_{r_{t-1}} x (-h) Q_{r_t} x id^(k-1-t)),
          Q_1 = id,

with PF_n = (-1)^(n-1) (psi phi)_n and (psi phi)_n = sum over k of
hp_k(f Q_{r_1} x ... x f Q_{r_k}), the walk over hp with the components
f Q_r.  Q_n is one walk over the mu_k too, with a plan per spine slot t:
PF in the slots before t, -h Q at t and identities after it, and the
(-1)^t as its plan scale, on top of the walk's own signs.  Each output
is one table read off a kernel: nu_n = f p_n, psi_n = hp_n, phi_n = f Q_n
and H_n = -h Q_n.  Jacobi certifies every L-infinity output, and a failing
one is never returned.

The splitting walks its (degree, weight) blocks once: a block takes its
boundaries from the co-exact part of the block one degree below.  Each
block is read off the reduced echelon R of its differential's rows: the
co-exact part K is the unit vectors at R's pivots, and f and h at a free
column are coordinates in [H | B] (harmonic part, boundaries) of the cocycle
R gives there; no matrix is inverted.  A diagram's identities (f d = 0,
d g = 0, id - gf = dh + hd) and the splitting's d^2 = 0 are checked row by
row from the stored arity-1 tables, up to the first nonzero row, with no
composite map built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from . import linalg
from .grading import BasisElement, GradedSpace, combine_spaces
from .multimap import (
    MultiMap,
    add_rows,
    add_tables,
    identity_map,
    image,
    morphism_terms,
    postcompose,
    uniform_plan,
)
from .structures import (
    AInfAlgebra,
    CheckReport,
    InfMorphism,
    LInfAlgebra,
    LInfPair,
    algebra_to_module,
    jacobi_check,
    pair_to_algebra,
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
    f: MultiMap
    g: MultiMap
    h: MultiMap
    blocks: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        """f d = 0 and d g = 0 (chain maps to and from H, whose differential
        is zero) and id - gf = dh + hd: each a residual that must vanish,
        computed row by row from the stored tables up to its first nonzero
        row."""
        if not _vanishes(self.f, self.d_big):
            raise TransferError("f is not a chain map")
        if not _vanishes(self.d_big, self.g):
            raise TransferError("g is not a chain map")
        big, f, g, h, d = self.big, self.f.table, self.g.table, self.h.table, self.d_big.table
        for key in dict.fromkeys(chain(((e.label,) for e in big.elements), f, h, d)):
            residual = {key[0]: 1} if key[0] in big else {}
            for outer, inner in ((g, f), (d, h), (h, d)):
                row = inner.get(key)
                if row:
                    for mid, c in row.items():
                        for lab, e in outer.get((mid,), {}).items():
                            residual[lab] = residual.get(lab, 0) - c * e
            if any(residual.values()):
                raise TransferError("homotopy identity id - gf = dh + hd fails")


def _vanishes(outer: MultiMap, inner: MultiMap) -> bool:
    """outer o inner = 0 (outer of arity 1), row by row from the stored
    tables up to the first nonzero row."""
    return not any(any(image(outer, row).values()) for row in inner.table.values())


def _block_key(e: BasisElement, weighted: bool):
    return (e.deg, e.weight if weighted else None)


def cohomology_splitting(
    space: GradedSpace,
    differential: MultiMap | None,
    use_weights: bool | None = None,
    label_prefix: str = "",
) -> TransferDiagram:
    """Split a finite complex as harmonic (+) exact (+) co-exact parts.

    Deterministic: within each (degree, weight) block the basis is taken in
    (weight, label) order, and the block is read off the reduced echelon R
    of its differential's rows, columns in candidate order.  The co-exact
    part K is the unit vectors at R's pivots, the standard vectors a greedy
    pass keeps over the cocycles.  The harmonic part H is the kernel basis
    vectors a greedy pass keeps over the boundaries B.  A cocycle is fixed
    by its free coordinates, so one elimination of H and B there gives the
    H- and B-coordinates of u_i = e_i - sum_p R_p[i] e_p, which are f and h
    at each free column i; both vanish at a pivot.  The small side is the
    cohomology with zero differential; with weights all three maps keep them.

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
    if not _vanishes(differential, differential):
        raise TransferError("differential does not square to zero")
    if weighted:
        bad = differential.audit_weights()
        if bad:
            raise TransferError(f"differential is not weight-preserving: {bad[:3]}")

    # group basis into blocks in (degree, weight, label) order
    blocks: dict[tuple, list[BasisElement]] = {}
    for e in sorted(space.elements, key=lambda e: (e.deg, e.weight or 0, e.label)):
        blocks.setdefault(_block_key(e, weighted), []).append(e)

    d_table = differential.table
    h_elements: list[BasisElement] = []
    # f's target and g's source are the cohomology, known once every block is split
    f_map = MultiMap(space, None, 1, 0)
    g_map = MultiMap(None, space, 1, 0)
    h_map = MultiMap(space, space, 1, -1)
    block_meta: list[dict] = []
    # the co-exact labels per block: block (deg - 1, w) comes before (deg, w)
    coexact: dict[tuple, list[str]] = {}

    for key in sorted(blocks, key=lambda k: (k[0], k[1] if k[1] is not None else 0)):
        deg, weight = key
        labels = [e.label for e in blocks[key]]
        dim = len(labels)
        # vectors are keyed by position in the label order
        pos = {lab: i for i, lab in enumerate(labels)}
        targets = {e.label: t for t, e in enumerate(blocks.get((deg + 1, weight), []))}
        d_rows: list[dict] = [{} for _ in targets]
        for i, lab in enumerate(labels):
            for out, c in d_table.get((lab,), {}).items():
                d_rows[targets[out]][i] = c
        reduced = linalg.Echelon(d_rows).rows
        # u_i = e_i - sum_p R_p[i] e_p for each free position i spans the cocycles
        kernel = {i: {i: 1} for i in range(dim) if i not in reduced}
        for p, row in reduced.items():
            for i, c in row.items():
                if i != p:
                    kernel[i][p] = -c

        # boundaries: images of the co-exact part one degree below
        below = coexact.get((deg - 1, weight), [])
        b_vectors = [{pos[out]: c for out, c in d_table.get((lab,), {}).items()}
                     for lab in below]
        span = linalg.Echelon(b_vectors)
        h_vectors = [v for v in kernel.values() if span.add(v) is not None]
        coexact[key] = [labels[p] for p in sorted(reduced)]

        # record cohomology basis elements
        wtag = f"w{weight}" if weighted and weight is not None else ""
        h_labels = [f"{label_prefix}h{deg}{wtag}_{i}" for i in range(len(h_vectors))]
        for lab in h_labels:
            h_elements.append(BasisElement(lab, deg, weight if weighted else None))

        # a cocycle is fixed by its free coordinates, so [H | B] on them, with a
        # marker dim + t per column, reduces to rows e_i | (H, B)-coordinates of u_i
        coords = linalg.Echelon(
            {**{i: c for i, c in v.items() if i not in reduced}, dim + t: 1}
            for t, v in enumerate(h_vectors + b_vectors)).rows
        nh = len(h_vectors)
        for i, lab in enumerate(labels):
            row = coords.get(i)
            if row is None:  # a co-exact position: f and h vanish there
                continue
            for t, h_lab in enumerate(h_labels):
                f_map.add((lab,), h_lab, row.get(dim + t, 0))
            for t, below_lab in enumerate(below, dim + nh):
                h_map.add((lab,), below_lab, row.get(t, 0))
        for h_lab, hv in zip(h_labels, h_vectors):
            for i in sorted(hv):
                g_map.add((h_lab,), labels[i], hv[i])

        block_meta.append({
            "deg": deg, "weight": weight, "dim": dim, "h_labels": h_labels,
            "pivots": coexact[key],
        })

    small = GradedSpace(h_elements)
    f_map.space_out = g_map.space_in = small
    diagram = TransferDiagram(space, small, differential, f_map, g_map, h_map, block_meta)
    diagram.validate()
    return diagram


def _require_source(diagram: TransferDiagram, space: GradedSpace,
                    differential: MultiMap | None) -> None:
    """A transfer's diagram must split its source's own complex: the labels of
    space and, as d_big, the source's arity-1 map (zero when absent)."""
    if set(diagram.big.labels()) != set(space.labels()):
        raise TransferError("diagram and structure live on different spaces")
    if not (diagram.d_big.is_zero() if differential is None else diagram.d_big.equals(differential)):
        raise TransferError("diagram differential is not the structure's arity-1 map")


# ---------------------------------------------------------------------------
# arity bound

def arity_vacuity_bound(space: GradedSpace, max_probe: int = 16) -> int | None:
    """Smallest arity n for which no input tuple can produce output in the
    degree window under a shift of 2-n, or None when no such n exists
    (degree-0 classes usually prevent one).

    The sums of n degrees are the bits of one int: bit b stands for the sum
    b + n * lo, lo the least degree, and one more input shifts it by d - lo
    for each degree d.  An output degree s + 2 - n is a degree d when bit
    b of the sums meets bit b + k of the degrees, k = (n - 1)(lo - 1) + 1."""
    degs = {e.deg for e in space.elements}
    if not degs:
        return 2
    lo = min(degs)
    steps = [d - lo for d in degs]
    window = sum(1 << step for step in steps)
    sums = 1
    for n in range(1, max_probe + 1):
        grown = 0
        for step in steps:
            grown |= sums << step
        sums = grown
        k = (n - 1) * (lo - 1) + 1
        if n >= 2 and not ((sums << k) & window if k >= 0 else sums & (window << -k)):
            return n
    return None


# ---------------------------------------------------------------------------
# transfer kernels

class KernelCache:
    """Arity-keyed p-kernels of a transfer, keyed by tuples of the small
    side with values on the big one, and their -h p_n (``hp``, with
    hp_1 = g), for the structure maps of arity >= 2 of an A-infinity
    algebra (``antisym`` False) or an L-infinity one (True).

    p_n(S) sums, over the cuts of S into k >= 2 blocks, m_k on the block
    values, where a one-input block {s} is g s and a larger block B is
    -h p_|B| (S[B]): one ``multimap.morphism_terms`` walk of the
    ``uniform_plan`` of hp, with the checkers' signs and weights.
    """

    def __init__(self, diagram: TransferDiagram, maps: dict[int, MultiMap], antisym: bool):
        self.diagram = diagram
        self.maps = {k: m for k, m in maps.items() if k >= 2}
        self.antisym = antisym
        self.p: dict[int, MultiMap] = {}
        self.hp: dict[int, MultiMap] = {1: diagram.g}
        # the walk forms of the kernel maps while ``ensure`` builds: each map
        # is indexed for the walk once, not again at every later arity
        self.forms: dict | None = None

    def ensure(self, n: int) -> None:
        self.forms = {}
        try:
            for m in range(2, n + 1):
                if m not in self.p:
                    self._build(m)
        finally:
            self.forms = None

    def _outers(self, n: int) -> dict[int, MultiMap]:
        return {k: m for k, m in self.maps.items() if k <= n}

    def _build(self, n: int) -> None:
        small, big = self.diagram.small, self.diagram.big
        outers = self._outers(n)
        p_n = add_rows(MultiMap(small, big, n, 2 - n, "antisym" if self.antisym else "none"),
                       *morphism_terms([(uniform_plan(self.hp, outers), outers, 1)], small,
                                       self.antisym, n, exact=True, forms=self.forms))
        self.p[n] = p_n
        self.hp[n] = postcompose(self.diagram.h, p_n, scale=-1)


class AInfKernelCache(KernelCache):
    """The A-infinity kernels on A: p_n and hp_n, and Q_n (``q``), -h Q_n
    (``hq``, with hq_1 = -h), f Q_n (``fq``) and PF_n = (-1)^(n-1)
    (psi phi)_n (``psiphi``), each one walk (the module docstring); PF_n
    takes its sign through the walk's scale, and ``ensure(n)`` builds it up
    to arity n - 1, the last one Q_n reads."""

    def __init__(self, diagram: TransferDiagram, products: dict[int, MultiMap]):
        super().__init__(diagram, products, False)
        big = diagram.big
        self.q: dict[int, MultiMap] = {1: identity_map(big)}
        self.hq: dict[int, MultiMap] = {1: postcompose(diagram.h, self.q[1], scale=-1)}
        self.fq: dict[int, MultiMap] = {1: diagram.f}
        self.psiphi: dict[int, MultiMap] = {1: postcompose(diagram.g, diagram.f)}

    def _build(self, n: int) -> None:
        super()._build(n)
        big, f, h = self.diagram.big, self.diagram.f, self.diagram.h
        m = n - 1  # Q_n reads PF_r for r < n only: PF_n waits for Q_{n+1}
        if m > 1:
            self.psiphi[m] = add_rows(MultiMap(big, big, m, 1 - m), *morphism_terms(
                [(uniform_plan(self.fq, self.hp), self.hp, -1 if (m - 1) & 1 else 1)], big, False,
                m, exact=True, forms=self.forms))
        outers = self._outers(n)
        # spine t of mu_k: (psi phi) before it, -h Q at it, id after it
        spines = {k: [((self.psiphi,) * t + (self.hq,) + (None,) * (k - 1 - t),
                       -1 if t & 1 else 1) for t in range(k)] for k in outers}
        q_n = add_rows(MultiMap(big, big, n, 1 - n),
                       *morphism_terms([(spines, outers, 1)], big, False, n, exact=True,
                                       forms=self.forms))
        self.q[n] = q_n
        self.hq[n] = postcompose(h, q_n, scale=-1)
        self.fq[n] = postcompose(f, q_n)


# ---------------------------------------------------------------------------
# A-infinity transfer

@dataclass
class AInfTransfer:
    algebra: AInfAlgebra
    phi: InfMorphism
    psi: InfMorphism
    homotopy: dict[int, MultiMap]
    diagram: TransferDiagram
    cache: AInfKernelCache
    metadata: dict


def transfer_ainf(
    diagram: TransferDiagram, source: AInfAlgebra, max_arity: int
) -> AInfTransfer:
    """Push an A-infinity structure across a transfer diagram.

    Produces, each one table of ``AInfKernelCache``, the small-side products
    nu_n = f p_n, the morphisms phi_n = f Q_n (big to small, first
    component f) and psi_n = -h p_n (small to big, first component g), and
    the homotopy components H_n = -h Q_n.
    """
    _require_source(diagram, source.space, source.products.get(1))
    cache = AInfKernelCache(diagram, source.products)
    cache.ensure(max_arity)

    products: dict[int, MultiMap] = {}
    homotopy: dict[int, MultiMap] = {1: diagram.h}
    for n in range(2, max_arity + 1):
        products[n] = postcompose(diagram.f, cache.p[n])
        if not cache.hq[n].is_zero():
            homotopy[n] = cache.hq[n]

    small_alg = AInfAlgebra(diagram.small, products)
    phi = InfMorphism("ainf", source, small_alg, dict(cache.fq))
    psi = InfMorphism("ainf", small_alg, source, dict(cache.hp))
    meta = {
        "max_arity": max_arity,
        "arity_bound": arity_vacuity_bound(diagram.small),
        "blocks": diagram.blocks,
        "weighted": diagram.small.weighted,
    }
    return AInfTransfer(small_alg, phi, psi, homotopy, diagram, cache, meta)


# ---------------------------------------------------------------------------
# L-infinity transfer

@dataclass
class LInfTransfer:
    algebra: LInfAlgebra
    diagram: TransferDiagram
    cache: KernelCache
    certificate: CheckReport
    metadata: dict


def transfer_linf(
    diagram: TransferDiagram, source: LInfAlgebra, max_arity: int,
) -> LInfTransfer:
    """Transfer an L-infinity structure; the Jacobi pass on the output is the
    correctness certificate and failure aborts with the first violation.

    l_n = f p_n, with p_n keyed by small tuples (``KernelCache``)."""
    _require_source(diagram, source.space, source.brackets.get(1))
    cache = KernelCache(diagram, source.brackets, True)
    cache.ensure(max_arity)
    small = diagram.small
    brackets: dict[int, MultiMap] = {}
    for n in range(2, max_arity + 1):
        ln = postcompose(diagram.f, cache.p[n])
        if not ln.is_zero():
            brackets[n] = ln
    result = LInfAlgebra(small, brackets)
    certificate = jacobi_check(result, max_arity)
    if not certificate.ok:
        given = jacobi_check(source, max_arity)  # only on failure: blame the input or the engine
        raise TransferError(
            "input fails Jacobi: " + given.first().describe() if not given.ok else
            "transferred L-infinity structure fails Jacobi (engine defect): "
            + certificate.first().describe())
    meta = {"max_arity": max_arity, "arity_bound": arity_vacuity_bound(small)}
    return LInfTransfer(result, diagram, cache, certificate, meta)


# ---------------------------------------------------------------------------
# pair transfer

@dataclass
class PairTransfer:
    pair: LInfPair
    algebra_diagram: TransferDiagram
    module_diagram: TransferDiagram
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
        merge(a.f, b.f, big, small, 0),
        merge(a.g, b.g, small, big, 0),
        merge(a.h, b.h, big, big, -1),
        a.blocks + b.blocks,
    )


def transfer_pair(pair: LInfPair, max_arity: int, use_weights: bool | None = None) -> PairTransfer:
    """Minimal L-infinity pair on cohomology via the L (+) M route.

    The splitting is performed blockwise (the pair differential is block
    diagonal, ``pair_splitting``), the combined algebra is transferred
    through ``transfer_linf``, and the module structure maps are read back
    off the transferred algebra.  The one Jacobi pass of the transferred
    L (+) M certifies the output; ``structures.split_pair_report`` splits
    it into the Jacobi report of L and the module report of M.  That
    L (+) M stays on the output pair's module: ``pair_to_algebra`` returns
    it, not a copy.
    """
    return transfer_pair_along(pair, pair_splitting(pair, use_weights), max_arity)


def pair_splitting(pair: LInfPair,
                   use_weights: bool | None = None) -> tuple[TransferDiagram, TransferDiagram]:
    """The splittings of the pair's algebra (labels a.*) and module (m.*)
    that ``transfer_pair`` transfers along; their small sides are the
    cohomology spaces of the transferred pair."""
    return (cohomology_splitting(pair.algebra.space, pair.algebra.brackets.get(1),
                                 use_weights, label_prefix="a."),
            cohomology_splitting(pair.module.space, pair.module.actions.get(1),
                                 use_weights, label_prefix="m."))


def transfer_pair_along(pair: LInfPair, splitting: tuple[TransferDiagram, TransferDiagram],
                        max_arity: int) -> PairTransfer:
    """``transfer_pair`` along splitting, the pair's ``pair_splitting``."""
    diag_a, diag_m = splitting
    diagram = _direct_sum_diagrams(diag_a, diag_m)
    diagram.validate()

    transferred = transfer_linf(diagram, pair_to_algebra(pair), max_arity)
    meta = dict(transferred.metadata)
    meta["algebra_blocks"] = diag_a.blocks
    meta["module_blocks"] = diag_m.blocks
    return PairTransfer(algebra_to_module(transferred.algebra, diag_m.small), diag_a, diag_m,
                        transferred.certificate, meta)


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
