"""Maurer-Cartan elements over Artinian rings, twisting, twisted complexes
and their cohomology jump ideals, homotopy witnesses in A[t,dt], and the
Zariski tangent-space computation for the jump functors.

All sums of the shape sum_n (1/n!) map_n(omega, ..., omega, -) are finite:
the entries of omega lie in the maximal ideal, so nilpotency bounds the
range, and the structure maps have finite arity support anyway.  The bound
is computed up front, never guessed.  Every such sum, the Maurer-Cartan
residual, the twisted maps and both components of a homotopy witness, is
driven by the stored keys of the structure maps
(``multimap.contract_power``): a tail T receives a term only from a stored
key holding T and i labels of supp w, so no input tuple is enumerated.
The sums of one twist share one ``multimap.PowerTable``, so each product
of entries of omega is multiplied out once per twist.  A twisted complex
compiles each differential once (``rings.MinorEngine``), for its d^2 = 0
certificate and its jump ideals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .grading import GradedSpace
from .multimap import MultiMap, PowerTable, add_rows, contract_power
from .rings import (
    CoefRing,
    Ideal,
    MinorEngine,
    RElem,
    RingMatrix,
    block_minors,
    composite_vanishes,
    degree_bound,
)
from .structures import LInfAlgebra, LInfPair, pair_to_algebra


class DeformationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Maurer-Cartan elements

def check_mc_shape(alg: LInfAlgebra, ring: CoefRing, omega: dict[str, RElem]) -> None:
    """Raise DeformationError unless every entry of omega lies in L^1 (x) m."""
    for lab, val in omega.items():
        if lab not in alg.space:
            raise DeformationError(f"unknown label {lab!r} in MC element")
        if alg.space.deg(lab) != 1:
            raise DeformationError(f"MC entries must sit in degree 1, got {lab!r}")
        if val.constant_term():
            raise DeformationError(f"MC entry at {lab!r} has a constant term")


def _omega_power_bound(ring: CoefRing, cap: int) -> int:
    """Largest number of maximal-ideal factors that can survive, capped by
    what the arity support leaves room for."""
    if cap < 0:
        return -1
    if ring.is_artinian:
        return min(cap, ring.nilpotency_order() - 1)
    return cap


def mc_residual(alg: LInfAlgebra, ring: CoefRing, omega: dict[str, RElem],
                powers: PowerTable | None = None) -> dict[str, RElem]:
    """sum_n (1/n!) l_n(w^n); powers is the power table of omega that the
    rest of a twist reads too (a new one when None)."""
    check_mc_shape(alg, ring, omega)
    if powers is None:
        powers = PowerTable(omega, ring.one)
    return _twist_terms(alg.brackets, ring, powers, 0).get((), {})


def _twist_terms(maps: dict[int, MultiMap], ring: CoefRing, omega: PowerTable,
                 n: int) -> dict[tuple, dict[str, RElem]]:
    """sum_i (1/i!) maps[i + n](w^i, T) for every tail T of n slots; omega
    is w's power table (scale ring.one), shared by the sums of one twist."""
    acc: dict[tuple, dict[str, RElem]] = {}
    for i in range(0, _omega_power_bound(ring, max(maps, default=0) - n) + 1):
        m_map = maps.get(i + n)
        if m_map is not None:
            contract_power(m_map, omega, i, acc)
    return acc


def mc_check(alg: LInfAlgebra, ring: CoefRing, omega: dict[str, RElem]) -> tuple[bool, dict]:
    res = mc_residual(alg, ring, omega)
    return (not res), res


# ---------------------------------------------------------------------------
# twisting

def twist_brackets(
    brackets: dict[int, MultiMap], space: GradedSpace, ring: CoefRing,
    omega: dict[str, RElem],
) -> dict[int, MultiMap]:
    """l^w_n = sum_i (1/i!) l_{i+n}(w^i, -): same basis, ring coefficients."""
    return _twisted(brackets, space, space, ring, PowerTable(omega, ring.one),
                    lambda n: "antisym")


def _twisted(maps: dict[int, MultiMap], space_in: GradedSpace, space_out: GradedSpace,
             ring: CoefRing, omega: PowerTable, symmetry_of) -> dict[int, MultiMap]:
    """The nonzero twisted tables sum_i (1/i!) maps[i + n](w^i, -) by arity
    n, each of shift 2 - n and symmetry symmetry_of(n); every arity reads
    the one power table omega."""
    out: dict[int, MultiMap] = {}
    for n in range(1, max(maps, default=0) + 1):
        acc = _twist_terms(maps, ring, omega, n)
        table = add_rows(MultiMap(space_in, space_out, n, 2 - n, symmetry_of(n)), acc)
        if not table.is_zero():
            out[n] = table
    return out


def twist_algebra(alg: LInfAlgebra, ring: CoefRing, omega: dict[str, RElem]) -> LInfAlgebra:
    """The twisted L-infinity structure on L (x) A for an MC element."""
    ok, res = mc_check(alg, ring, omega)
    if not ok:
        raise DeformationError(f"not a Maurer-Cartan element; residual {_fmt_vec(res)}")
    brackets = twist_brackets(alg.brackets, alg.space, ring, omega)
    return LInfAlgebra(alg.space, brackets)


def _fmt_vec(vec: dict) -> str:
    return "{" + ", ".join(f"{k}: {v}" for k, v in sorted(vec.items())) + "}"


# ---------------------------------------------------------------------------
# twisted complexes and jump ideals

@dataclass
class TwistedComplex:
    """A complex (M (x) A, d) over a coefficient ring, one matrix per degree
    of M; ``error`` is the exception class its builder and d^2 check raise."""
    ring: CoefRing
    space: GradedSpace
    matrices: dict[int, RingMatrix]
    # one memoized MinorEngine per differential d^j, all on one packing wide
    # enough for the product of minors of any two: the d^2 check and every
    # jump ideal read it; the matrices must not change once one is built
    engines: dict[int, MinorEngine] = field(default_factory=dict, init=False, repr=False,
                                            compare=False)
    error = DeformationError

    @classmethod
    def from_columns(cls, columns: dict[tuple, dict[str, RElem]], space: GradedSpace,
                     ring: CoefRing, *extra) -> TwistedComplex:
        """The complex whose differential sends xi to columns[(xi,)]; extra
        fills the fields a subclass adds."""
        matrices: dict[int, RingMatrix] = {}
        for i in space.degrees():
            rows = tuple(e.label for e in space.basis_of_degree(i + 1))
            cols = tuple(e.label for e in space.basis_of_degree(i))
            mat = RingMatrix(ring, rows, cols)
            for j, col in enumerate(cols):
                for lab, v in columns.get((col,), {}).items():
                    if lab in rows:
                        mat.set(rows.index(lab), j, v)
                    elif v:
                        raise cls.error(
                            f"twisted differential leaves the degree window: {col} -> {lab}")
            matrices[i] = mat
        return cls(ring, space, matrices, *extra)

    def matrix(self, i: int) -> RingMatrix:
        got = self.matrices.get(i)
        if got is not None:
            return got
        rows = tuple(e.label for e in self.space.basis_of_degree(i + 1))
        cols = tuple(e.label for e in self.space.basis_of_degree(i))
        return RingMatrix(self.ring, rows, cols)

    def validate_square_zero(self) -> None:
        """Raise ``error`` at the lowest degree i with d^{i+1} o d^i != 0.

        Each composite is tested exactly in ints on the engines the minors
        use (``rings.composite_vanishes``); a degree with no d^{i+1} is
        skipped."""
        for i in sorted(self.matrices):
            if i + 1 in self.matrices and not composite_vanishes(self.engine(i + 1),
                                                                 self.engine(i)):
                raise self.error(f"twisted differential fails d^2 = 0 at degree {i}")

    def engine(self, j: int) -> MinorEngine:
        got = self.engines.get(j)
        if got is None:
            if self.engines:
                packing = next(iter(self.engines.values())).packing
            else:
                packing = self.ring.packing(sum(map(degree_bound, self.matrices.values())))
            got = self.engines[j] = MinorEngine(self.matrix(j), packing)
        return got

    def jump_ideal(self, i: int, k: int) -> Ideal:
        """J^i_k = I_{dim M^i - k + 1} of d^{i-1} (+) d^i, from the minors of
        the two differentials."""
        return block_minors(self.engine(i - 1), self.engine(i), self.space.dim(i) - k + 1)


def twist_module(pair: LInfPair, ring: CoefRing,
                 omega: dict[str, RElem]) -> tuple[dict[int, MultiMap], TwistedComplex]:
    """Twisted module structure maps and the twisted complex (M (x) A, d_w).

    Verifies that w is Maurer-Cartan in L, which makes (w, 0) Maurer-Cartan
    in the pair algebra L (+) M: no stored key of L (+) M with a module slot
    lies in supp w, so the two residuals are the same sum.  Also verifies
    that d_w is the restriction to M of the twisted differential of L (+) M
    (read off that algebra's own tables, where the module slot is one more
    label to leave out), and that d_w squares to zero.  These certificates
    always run: a twist that fails one is never returned.  The three sums
    read one power table of omega.
    """
    powers = PowerTable(omega, ring.one)
    res = mc_residual(pair.algebra, ring, omega, powers)
    if res:
        raise DeformationError(f"not Maurer-Cartan; residual {_fmt_vec(res)}")
    module = pair.module
    twisted = _twisted(module.actions, module.combined, module.space, ring, powers,
                       lambda n: "antisym_algebra" if n > 1 else "none")
    columns = twisted[1].table if 1 in twisted else {}
    complex_ = TwistedComplex.from_columns(columns, module.space, ring)
    whole = _twist_terms(pair_to_algebra(pair).brackets, ring, powers, 1)
    for xi in module.space.labels():
        if whole.get((xi,), {}) != columns.get((xi,), {}):
            raise DeformationError("twisted differential mismatch with L (+) M")
    complex_.validate_square_zero()
    return twisted, complex_


def jump_ideal_pair(pair: LInfPair, ring: CoefRing, omega: dict[str, RElem],
                    i: int, k: int) -> Ideal:
    return twist_module(pair, ring, omega)[1].jump_ideal(i, k)


def def_ik_membership(pair: LInfPair, ring: CoefRing, omega: dict[str, RElem],
                      i: int, k: int) -> bool:
    """omega lies in Def^i_k iff the jump ideal of the twisted complex is 0."""
    return jump_ideal_pair(pair, ring, omega, i, k).is_zero()


# ---------------------------------------------------------------------------
# polynomials in t with ring coefficients (for A[t,dt] witnesses)

class TPoly:
    """Even coefficient polynomials in t over a CoefRing."""

    __slots__ = ("ring", "c")

    def __init__(self, ring: CoefRing, c: dict[int, RElem] | None = None):
        self.ring = ring
        self.c = {k: v for k, v in (c or {}).items() if v}

    @staticmethod
    def const(ring: CoefRing, value: RElem) -> "TPoly":
        return TPoly(ring, {0: value})

    def __bool__(self):
        return bool(self.c)

    def __eq__(self, other):
        return isinstance(other, TPoly) and self.c == other.c

    def __neg__(self):
        return TPoly(self.ring, {k: -v for k, v in self.c.items()})

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        out = dict(self.c)
        for k, v in other.c.items():
            s = out.get(k, self.ring.zero) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return TPoly(self.ring, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TPoly(self.ring, {k: v * other for k, v in self.c.items()})
        out: dict[int, RElem] = {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                s = out.get(k1 + k2, self.ring.zero) + v1 * v2
                if s:
                    out[k1 + k2] = s
                else:
                    out.pop(k1 + k2, None)
        return TPoly(self.ring, out)

    __rmul__ = __mul__

    def derivative(self) -> "TPoly":
        return TPoly(self.ring, {k - 1: v * k for k, v in self.c.items() if k >= 1})

    def evaluate(self, t: Fraction) -> RElem:
        total = self.ring.zero
        for k, v in self.c.items():
            total = total + v * (Fraction(t) ** k)
        return total

    def coefficient(self, k: int) -> RElem:
        return self.c.get(k, self.ring.zero)


@dataclass
class HomotopyWitness:
    """z(t, dt) = z'(t) + z''(t) dt with z' in L^1 (x) m[t], z'' in L^0 (x) m[t]."""
    ring: CoefRing
    t_part: dict[str, TPoly]
    dt_part: dict[str, TPoly]

    def endpoints(self) -> tuple[dict[str, RElem], dict[str, RElem]]:
        at0 = {lab: p.evaluate(Fraction(0)) for lab, p in self.t_part.items()}
        at1 = {lab: p.evaluate(Fraction(1)) for lab, p in self.t_part.items()}
        return (
            {lab: v for lab, v in at0.items() if v},
            {lab: v for lab, v in at1.items() if v},
        )


def _witness_terms(alg: LInfAlgebra, ring: CoefRing, witness: HomotopyWitness):
    """The two components of sum (1/n!) l_n(z, ..., z) in L (x) m[t,dt].

    Terms with two dt slots die; a dt factor in slot i crosses the odd
    degree-1 elements in slots i+1..n, contributing (-1)^(n-i), and moving
    the even z'' from slot i to the last slot gives (-1)^(n-i) again.  So
    the dt-component is sum_n (1/(n-1)!) l_n(z'^(n-1), z''): the stored-key
    sum with one-label tails T, contracted with z''.
    """
    bound = _omega_power_bound(ring, alg.max_arity())
    tz = PowerTable(witness.t_part, TPoly.const(ring, ring.one))
    even_acc: dict[tuple, dict[str, TPoly]] = {}
    tails: dict[tuple, dict[str, TPoly]] = {}
    for n in range(1, bound + 1):
        ln = alg.brackets.get(n)
        if ln is not None:
            contract_power(ln, tz, n, even_acc)
            contract_power(ln, tz, n - 1, tails)
    odd_acc: dict[str, TPoly] = {}
    for (lab,), vec in tails.items():
        z = witness.dt_part.get(lab)
        if z is not None:
            for out, v in vec.items():
                total = odd_acc.get(out, TPoly(ring)) + v * z
                if total:
                    odd_acc[out] = total
                else:
                    odd_acc.pop(out, None)
    return even_acc.get((), {}), odd_acc


def homotopy_witness_check(
    alg: LInfAlgebra, ring: CoefRing,
    witness: HomotopyWitness,
    omega1: dict[str, RElem], omega2: dict[str, RElem],
) -> tuple[bool, str]:
    """Verify the Maurer-Cartan equation in A[t,dt] and both endpoints."""
    for lab in witness.t_part:
        if alg.space.deg(lab) != 1:
            return False, f"t-part label {lab!r} not in degree 1"
    for lab in witness.dt_part:
        if alg.space.deg(lab) != 0:
            return False, f"dt-part label {lab!r} not in degree 0"
    for part in (witness.t_part, witness.dt_part):
        for lab, poly in part.items():
            for v in poly.c.values():
                if v.constant_term():
                    return False, f"witness coefficient at {lab!r} leaves the maximal ideal"

    even_acc, odd_acc = _witness_terms(alg, ring, witness)
    if any(even_acc.values()):
        return False, "t-component of the Maurer-Cartan equation fails"
    want = {lab: p.derivative() for lab, p in witness.t_part.items() if p.derivative()}
    keys = set(want) | set(odd_acc)
    for lab in keys:
        if odd_acc.get(lab, TPoly(ring)) != want.get(lab, TPoly(ring)):
            return False, "dt-component does not match dz'/dt"
    at0, at1 = witness.endpoints()
    o1 = {lab: v for lab, v in omega1.items() if v}
    o2 = {lab: v for lab, v in omega2.items() if v}
    if at0 != o1:
        return False, "witness does not start at omega_1"
    if at1 != o2:
        return False, "witness does not end at omega_2"
    return True, "ok"


def construct_gauge_witness(
    alg: LInfAlgebra, ring: CoefRing, omega: dict[str, RElem],
    lam: dict[str, RElem], max_t_degree: int = 40,
) -> tuple[HomotopyWitness, dict[str, RElem]]:
    """Flow a Maurer-Cartan element along a degree-0 gauge direction.

    z'' := lambda (constant in t) and z' solves dz'/dt = (dt-component of the
    Maurer-Cartan sum) by Picard iteration from z'(0) = omega; nilpotency
    terminates the iteration.  The full witness equation is re-verified
    before returning, so a convention bug cannot produce a bogus witness.
    """
    for lab, v in lam.items():
        if alg.space.deg(lab) != 0:
            raise DeformationError("gauge direction must sit in degree 0")
        if v.constant_term():
            raise DeformationError("gauge direction must lie in the maximal ideal")
    if not mc_check(alg, ring, omega)[0]:
        raise DeformationError("gauge flow needs a Maurer-Cartan start point")

    t_part: dict[str, TPoly] = {
        lab: TPoly.const(ring, v) for lab, v in omega.items() if v
    }
    dt_part: dict[str, TPoly] = {lab: TPoly.const(ring, v) for lab, v in lam.items() if v}

    # Picard step k sets the t^(k+1) coefficients from the t^k coefficient of
    # the dt-component, which only involves coefficients up to t^k.
    for k in range(0, max_t_degree):
        witness = HomotopyWitness(ring, t_part, dt_part)
        _, odd_acc = _witness_terms(alg, ring, witness)
        for lab, poly in odd_acc.items():
            target = poly.coefficient(k) * Fraction(1, k + 1)
            entry = t_part.get(lab, TPoly(ring))
            if entry.coefficient(k + 1) == target:
                continue
            newc = dict(entry.c)
            if target:
                newc[k + 1] = target
            else:
                newc.pop(k + 1, None)
            t_part[lab] = TPoly(ring, newc)
        if all(max(p.c, default=0) <= k for p in t_part.values()) and all(
            max(p.c, default=0) <= k - 1 for p in odd_acc.values()
        ):
            break

    witness = HomotopyWitness(ring, {k: v for k, v in t_part.items() if v},
                              {k: v for k, v in dt_part.items() if v})
    _, omega2 = witness.endpoints()
    good, why = homotopy_witness_check(alg, ring, witness, omega, omega2)
    if not good:
        raise DeformationError(f"gauge flow failed to produce a witness: {why}")
    ok2, _ = mc_check(alg, ring, omega2)
    if not ok2:
        raise DeformationError("gauge flow endpoint is not Maurer-Cartan")
    return witness, omega2


# ---------------------------------------------------------------------------
# tangent spaces of the jump functors

@dataclass
class TangentSpace:
    kind: str  # "full" | "empty" | "kernel"
    h_i: int
    basis: list[dict[str, Fraction]]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "h_i": self.h_i,
            "basis": [
                {lab: str(c) for lab, c in vec.items()} for vec in self.basis
            ],
        }


def tangent_space(pair: LInfPair, i: int, k: int) -> TangentSpace:
    """Zariski tangent space of Def^i_k at the origin for a minimal pair.

    k < h_i: the full H^1; k > h_i: empty; k = h_i: the kernel of the map
    H^1 -> Hom(M^{i-1}, M^i) (+) Hom(M^i, M^{i+1}) built from the binary
    action.
    """
    if 1 in pair.algebra.brackets or 1 in pair.module.actions:
        raise DeformationError("tangent space formula needs a minimal pair")
    h_i = pair.module.space.dim(i)
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    if k > h_i:
        return TangentSpace("empty", h_i, [])
    if k < h_i:
        return TangentSpace("full", h_i, [{lab: Fraction(1)} for lab in h1])
    m2 = pair.module.actions.get(2)
    rows: list[list[Fraction]] = []
    for j in (i - 1, i):
        for src in pair.module.space.basis_of_degree(j):
            for tgt in pair.module.space.basis_of_degree(j + 1):
                row = []
                for lab in h1:
                    coef = Fraction(0)
                    if m2 is not None:
                        coef = m2.get((lab, src.label)).get(tgt.label, Fraction(0))
                    row.append(coef)
                rows.append(row)
    if not rows:
        return TangentSpace("full", h_i, [{lab: Fraction(1)} for lab in h1])
    kernel = linalg.kernel_basis(rows, len(h1))
    basis = [
        {h1[t]: vec[t] for t in range(len(h1)) if vec[t]} for vec in kernel
    ]
    return TangentSpace("kernel", h_i, basis)


# ---------------------------------------------------------------------------
# seeded Maurer-Cartan sampling (single-variable truncated rings)

def sample_mc(
    alg: LInfAlgebra, ring: CoefRing, rng: random.Random, attempts: int = 40,
) -> dict[str, RElem] | None:
    """A random Maurer-Cartan element over Q[e]/(e^N), solved order by order.

    Returns None when the obstruction system is inconsistent for all
    sampled leading terms.
    """
    if ring.kind != "trunc_local" or ring.nvars != 1:
        raise DeformationError("the sampler supports single-variable truncated rings")
    order = ring.order
    h1 = [e.label for e in alg.space.elements if e.deg == 1]
    deg2 = [e.label for e in alg.space.elements if e.deg == 2]
    l1 = alg.brackets.get(1)
    d_cols = []
    for lab in h1:
        vec = l1.get((lab,)) if l1 is not None else {}
        d_cols.append([Fraction(vec.get(t, 0)) for t in deg2])
    d_rows = [[d_cols[j][t] for j in range(len(h1))] for t in range(len(deg2))]
    closed = linalg.kernel_basis(d_rows, len(h1))
    if not closed:
        return None

    for _ in range(attempts):
        # leading term: random combination of closed degree-1 directions
        coefs = [Fraction(0)] * len(h1)
        for vec in closed:
            c = Fraction(rng.randint(-2, 2))
            if c:
                coefs = [a + c * b for a, b in zip(coefs, vec)]
        layers: list[list[Fraction]] = [coefs]
        good = True
        for s in range(2, order):
            omega = _layers_to_vector(ring, h1, layers + [[Fraction(0)] * len(h1)])
            res = mc_residual(alg, ring, omega)
            rhs = [Fraction(0)] * len(deg2)
            for t, lab in enumerate(deg2):
                val = res.get(lab)
                if val is not None:
                    rhs[t] = val.terms.get((s,), Fraction(0))
            if not any(rhs):
                layers.append([Fraction(0)] * len(h1))
                continue
            sol = linalg.in_span(d_cols, [-c for c in rhs])
            if sol is None:
                good = False
                break
            layers.append(list(sol))
        if not good:
            continue
        omega = _layers_to_vector(ring, h1, layers)
        ok, _ = mc_check(alg, ring, omega)
        if ok and any(bool(v) for v in omega.values()):
            return omega
    return None


def _layers_to_vector(ring: CoefRing, labels: list[str], layers) -> dict[str, RElem]:
    out: dict[str, RElem] = {}
    for j, lab in enumerate(labels):
        terms = {}
        for s, layer in enumerate(layers, start=1):
            if layer[j]:
                terms[(s,)] = layer[j]
        val = ring.element(terms)
        if val:
            out[lab] = val
    return out
