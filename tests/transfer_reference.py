"""The homotopy transfer ``hse.transfer`` had before each of its tables was
filled in place: A-infinity kernels built one map per composition profile
and summed by copying (``MultiMap.plus`` of ``MultiMap.scaled``), products
and morphism components scaled by copying, and a cohomology splitting that
walked its blocks twice.  The compositions are the ones it called, which
returned a fresh map.  Kept as the references of the differential tests.
"""

from fractions import Fraction

from hse import linalg
from hse.grading import BasisElement, GradedSpace
from hse.multimap import MultiMap, add_tables, identity_map
from hse.scalars import canonical
from hse.signs import compositions, theta_exponent
from hse.structures import AInfAlgebra, InfMorphism
from hse.transfer import TransferDiagram, TransferError


def _scaled(mm, factor):
    out = MultiMap(mm.space_in, mm.space_out, mm.arity, mm.shift, mm.symmetry)
    if factor:
        for key, row in mm.table.items():
            out.table[key] = {lab: canonical(factor * c) for lab, c in row.items()}
    return out


def _plus(a, b):
    return add_tables(MultiMap(a.space_in, a.space_out, a.arity, a.shift, a.symmetry), a, b)


def postcompose(linear: MultiMap, mm: MultiMap) -> MultiMap:
    """linear o mm for arity-1 linear; no signs arise at the output."""
    if linear.arity != 1:
        raise ValueError("postcompose needs an arity-1 map")
    out = MultiMap(mm.space_in, linear.space_out, mm.arity, mm.shift + linear.shift, mm.symmetry)
    for key, row in mm.table.items():
        for mid, c in row.items():
            for lab, d in linear.get((mid,)).items():
                out.add(key, lab, c * d)
    return out


def tensor_compose(outer: MultiMap, inners: list[MultiMap | None]) -> MultiMap:
    """outer o (M_1 x ... x M_k) with None meaning an identity slot.

    Evaluation follows the Koszul rule: the factor in slot t crosses the raw
    inputs of the earlier slots, contributing (-1)^(shift_t * deg) per
    crossed input of odd degree.  The outer map must have symmetry "none";
    antisymmetric outers are consumed by the unshuffle machinery instead.
    """
    if outer.symmetry != "none":
        raise ValueError("tensor_compose requires a plain (non-symmetric) outer map")
    if len(inners) != outer.arity:
        raise ValueError("slot count mismatch")

    space_in = None
    for m in inners:
        if m is not None:
            space_in = m.space_in
            break
    if space_in is None:
        raise ValueError("all-identity tensor_compose is pointless; use the outer map")
    for m in inners:
        if m is not None and m.symmetry != "none":
            raise ValueError("inner maps must be plain tables")

    arities = [1 if m is None else m.arity for m in inners]
    shifts = [0 if m is None else m.shift for m in inners]
    total_arity = sum(arities)
    total_shift = outer.shift + sum(shifts)

    # index inner tables by output label
    indexed: list[dict[str, list[tuple[tuple[str, ...], object]]] | None] = []
    for m in inners:
        if m is None:
            indexed.append(None)
            continue
        by_out: dict[str, list[tuple[tuple[str, ...], object]]] = {}
        for key, row in m.table.items():
            for lab, c in row.items():
                by_out.setdefault(lab, []).append((key, c))
        indexed.append(by_out)

    result = MultiMap(space_in, outer.space_out, total_arity, total_shift)
    deg_in = space_in.deg

    for okey, orow in outer.table.items():
        # choices[t]: list of (input chunk, coefficient) producing okey[t]
        choices = []
        ok = True
        for t, mid_label in enumerate(okey):
            if indexed[t] is None:
                choices.append([((mid_label,), 1)])
            else:
                opts = indexed[t].get(mid_label)
                if not opts:
                    ok = False
                    break
                choices.append(opts)
        if not ok:
            continue

        def expand(t: int, chunks: tuple[tuple[str, ...], ...], coef, odd_prefix: int):
            if t == len(choices):
                key = tuple(lab for chunk in chunks for lab in chunk)
                for lab, c in orow.items():
                    result.add(key, lab, coef * c)
                return
            for chunk, c in choices[t]:
                sign = -1 if (shifts[t] % 2 and odd_prefix % 2) else 1
                chunk_odd = sum(deg_in(l) for l in chunk) % 2
                expand(t + 1, chunks + (chunk,), coef * c * sign, odd_prefix + chunk_odd)

        expand(0, (), 1, 0)
    return result


def _block_key(e, weighted):
    return (e.deg, e.weight if weighted else None)


def cohomology_splitting(space, differential, use_weights=None, label_prefix="", variant=0):
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

    blocks = {}
    for e in sorted(space.elements, key=lambda e: (e.deg, e.weight or 0, e.label)):
        blocks.setdefault(_block_key(e, weighted), []).append(e)

    h_elements = []
    f_map = MultiMap(space, None, 1, 0)
    g_entries = []
    h_map = MultiMap(space, space, 1, -1)
    block_meta = []

    per_block = {}
    for key in sorted(blocks, key=lambda k: (k[0], k[1] if k[1] is not None else 0)):
        deg, weight = key
        elems = blocks[key]
        labels = [e.label for e in elems]
        target = blocks.get((deg + 1, weight), [])
        tlabels = [e.label for e in target]
        mat = linalg.zeros(len(tlabels), len(labels))
        for j, lab in enumerate(labels):
            for out, c in differential.get((lab,)).items():
                if out in tlabels:
                    mat[tlabels.index(out)][j] = c
                elif target:
                    raise TransferError(f"differential leaves the block at {lab} -> {out}")
        kernel = linalg.kernel_basis(mat, len(labels)) if labels else []
        per_block[key] = {
            "elems": elems, "labels": labels, "matrix": mat, "kernel": kernel,
        }

    for key in sorted(per_block, key=lambda k: (k[0], k[1] if k[1] is not None else 0)):
        deg, weight = key
        data = per_block[key]
        labels = data["labels"]
        kernel = data["kernel"]
        dim = len(labels)

        below = per_block.get((deg - 1, weight))
        b_vectors = []
        b_preimages = []
        if below is not None:
            for kappa in below["k_vectors"]:
                image = [Fraction(0)] * dim
                for j, c in enumerate(kappa):
                    if not c:
                        continue
                    src = below["labels"][j]
                    for out, coef in differential.get((src,)).items():
                        image[labels.index(out)] += c * coef
                b_vectors.append(image)
                b_preimages.append(kappa)

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
        data["k_vectors"] = k_vectors

        wtag = f"w{weight}" if weighted and weight is not None else ""
        h_labels = [f"{label_prefix}h{deg}{wtag}_{i}" for i in range(len(h_vectors))]
        for lab in h_labels:
            h_elements.append(BasisElement(lab, deg, weight if weighted else None))

        if dim == 0:
            block_meta.append({"deg": deg, "weight": weight, "dim": 0, "h_labels": []})
            continue

        basis_cols = h_vectors + b_vectors + k_vectors
        P = [[basis_cols[c][r] for c in range(dim)] for r in range(dim)]
        P_inv = linalg.invert(P)

        nh, nb = len(h_vectors), len(b_vectors)
        for j, lab in enumerate(labels):
            for t in range(nh):
                if P_inv[t][j]:
                    f_map.add((lab,), h_labels[t], P_inv[t][j])
            for t in range(nb):
                c = P_inv[nh + t][j]
                if not c:
                    continue
                below_labels = per_block[(deg - 1, weight)]["labels"]
                for jj, coef in enumerate(b_preimages[t]):
                    if coef:
                        h_map.add((lab,), below_labels[jj], c * coef)
        for t, hv in enumerate(h_vectors):
            entries = {labels[j]: hv[j] for j in range(dim) if hv[j]}
            g_entries.append((h_labels[t], entries))

        block_meta.append({
            "deg": deg, "weight": weight, "dim": dim, "h_labels": h_labels,
            "pivots": [labels[dim - 1 - i if variant else i] for i in kept_std],
        })

    small = GradedSpace(h_elements)
    f_map.space_out = small
    g_map = MultiMap(small, space, 1, 0)
    for h_lab, entries in g_entries:
        for lab, c in entries.items():
            g_map.add((h_lab,), lab, c)
    d_small = MultiMap(small, small, 1, 1)
    diagram = TransferDiagram(space, small, differential, d_small, f_map, g_map, h_map, block_meta)
    diagram.validate()
    return diagram


class KernelCache:
    """Arity-keyed memo tables for p, h.p, q, h.q, gf.q and (psi phi)."""

    def __init__(self, diagram, mu):
        self.diagram = diagram
        self.mu = mu
        big = diagram.big
        ident = identity_map(big)
        self.p = {}
        self.hp = {1: ident}
        self.q = {1: ident}
        self.hq = {1: diagram.h}
        gf = postcompose(diagram.g, diagram.f)
        self.gfq = {1: gf}
        self.psiphi = {1: gf}
        self._gf = gf

    def ensure(self, n):
        for m in range(2, n + 1):
            if m not in self.p:
                self._build(m)

    def _build(self, n):
        diagram, mu = self.diagram, self.mu
        big = diagram.big
        p_n = MultiMap(big, big, n, 2 - n)
        for k in range(2, n + 1):
            outer = mu.get(k)
            if outer is None:
                continue
            for profile in compositions(n, k):
                if all(r == 1 for r in profile):
                    term = outer
                else:
                    inners = [None if r == 1 else self.hp[r] for r in profile]
                    if any(m is not None and m.is_zero() for m in inners):
                        continue
                    term = tensor_compose(outer, inners)
                sign = -1 if theta_exponent(profile) % 2 else 1
                p_n = _plus(p_n, _scaled(term, sign))
        self.p[n] = p_n
        self.hp[n] = postcompose(diagram.h, p_n)

        q_n = MultiMap(big, big, n, 1 - n)
        for k in range(2, n + 1):
            outer = mu.get(k)
            if outer is None:
                continue
            for i in range(1, k + 1):
                rest = n - (k - i)
                if rest < i:
                    continue
                for profile in compositions(rest, i):
                    inners = []
                    ok = True
                    for t in range(i - 1):
                        m = self.psiphi[profile[t]]
                        if m.is_zero():
                            ok = False
                            break
                        inners.append(m)
                    if not ok:
                        continue
                    hq_m = self.hq[profile[i - 1]]
                    if hq_m.is_zero():
                        continue
                    inners.append(hq_m)
                    inners.extend([None] * (k - i))
                    term = tensor_compose(outer, inners)
                    exp = n + profile[i - 1] + theta_exponent(profile)
                    sign = -1 if exp % 2 else 1
                    q_n = _plus(q_n, _scaled(term, sign))
        self.q[n] = q_n
        self.hq[n] = postcompose(diagram.h, q_n)
        self.gfq[n] = postcompose(self._gf, q_n)

        pp_n = self.gfq[n]
        for k in range(2, n + 1):
            hp_k = self.hp.get(k)
            if hp_k is None or hp_k.is_zero():
                continue
            for profile in compositions(n, k):
                inners2 = [self.gfq[r] for r in profile]
                if any(m.is_zero() for m in inners2):
                    continue
                term = tensor_compose(hp_k, inners2)
                sign = -1 if theta_exponent(profile) % 2 else 1
                pp_n = _plus(pp_n, _scaled(term, sign))
        self.psiphi[n] = pp_n


def transfer_ainf(diagram, source, max_arity):
    """(small algebra, phi, psi, homotopy, cache), assembled by copying."""
    cache = KernelCache(diagram, source.products)
    cache.ensure(max_arity)

    products = {}
    psi_comps = {1: diagram.g}
    phi_comps = {1: diagram.f}
    homotopy = {1: diagram.h}
    if not diagram.d_small.is_zero():
        products[1] = diagram.d_small
    for n in range(2, max_arity + 1):
        comp_sign = -1 if (n - 1) % 2 else 1
        p_n = cache.p[n]
        if not p_n.is_zero():
            png = tensor_compose(p_n, [diagram.g] * n)
            nu = postcompose(diagram.f, png)
            if not nu.is_zero():
                products[n] = nu
            psi_n = _scaled(postcompose(diagram.h, png), comp_sign)
            if not psi_n.is_zero():
                psi_comps[n] = psi_n
        q_n = cache.q[n]
        if not q_n.is_zero():
            phi_n = _scaled(postcompose(diagram.f, q_n), comp_sign)
            if not phi_n.is_zero():
                phi_comps[n] = phi_n
            H_n = cache.hq[n]
            if not H_n.is_zero():
                homotopy[n] = H_n

    small_alg = AInfAlgebra(diagram.small, products)
    phi = InfMorphism("ainf", source, small_alg, phi_comps)
    psi = InfMorphism("ainf", small_alg, source, psi_comps)
    return small_alg, phi, psi, homotopy, cache
