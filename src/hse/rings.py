"""Exact commutative coefficient rings and determinantal machinery.

Three ring kinds share one distributed representation (monomial exponent
tuple -> Fraction, graded-lex ordering for display):

* ``field``        - the rationals (zero variables),
* ``trunc_local``  - Q[x_1..x_r]/(x)^N, Artinian local, m^N = 0,
* ``poly``         - Q[x_1..x_r], optionally degree-truncated at ``trunc``
                     (monomials of higher total degree are dropped eagerly).

Ideal membership is decided by finite linear algebra wherever that is
honest: always in Artinian quotients, degree-by-degree for homogeneous data
in exact polynomial rings, and bounded-degree-solve-else-unknown otherwise.
Every case reduces the target against a sparse reduced echelon basis
(``_Echelon``) of a spanning set of products of the generators; in an
Artinian ring that set is the closure of the generators under
multiplication by the variables, so the basis spans the whole ideal.  The
basis is built per call and never stored on the ``Ideal``.  No Groebner
machinery is used or pretended.

Determinantal ideals come from ``MinorEngine``, a Laplace expansion along
the first row that memoizes every sub-minor.  ``block_minors`` gives I_r
of a block-diagonal matrix A (+) B, the shape of a jump ideal's
d^{i-1} (+) d^i, from one engine per block: a minor is nonzero only when
it takes as many rows as columns from A, and it is then det_A * det_B
(I_r(A (+) B) = sum_{a+b=r} I_a(A) I_b(B), Bruns-Vetter).  The generators
and their order are those of ``minors`` on the glued block.  Every
enumeration counts its (row set, column set) pairs first and raises
``RingError`` past ``MINOR_PAIR_BUDGET``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from heapq import merge
from itertools import combinations
from math import comb

from .scalars import format_scalar, parse_scalar

Monomial = tuple[int, ...]

_ZERO = Fraction(0)


class RingError(ValueError):
    pass


class CoefRing:
    def __init__(self, kind: str, varnames: tuple[str, ...] = (),
                 order: int | None = None, trunc: int | None = None):
        if kind not in ("field", "trunc_local", "poly"):
            raise RingError(f"unknown ring kind {kind!r}")
        if kind == "field" and varnames:
            raise RingError("the field has no variables")
        if kind == "trunc_local" and (order is None or order < 1):
            raise RingError("truncated local ring needs a nilpotency order >= 1")
        if len(set(varnames)) != len(varnames):
            raise RingError("duplicate variable names")
        self.kind = kind
        self.varnames = tuple(varnames)
        self.order = order
        self.trunc = trunc
        # shared by every caller: safe because no code mutates RElem.terms
        self._zero = RElem(self, {})
        self._one = RElem(self, {(0,) * len(varnames): Fraction(1)})

    # -- basics --------------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.varnames)

    @property
    def is_artinian(self) -> bool:
        return self.kind == "field" or self.kind == "trunc_local" or (
            self.kind == "poly" and self.trunc is not None
        )

    def nilpotency_order(self) -> int:
        """Smallest N with (products of N maximal-ideal elements) = 0."""
        if self.kind == "field":
            return 1
        if self.kind == "trunc_local":
            return self.order
        if self.trunc is not None:
            return self.trunc + 1
        raise RingError("untruncated polynomial ring has no nilpotency bound")

    def _keeps(self, mono: Monomial) -> bool:
        total = sum(mono)
        if self.kind == "trunc_local" and total >= self.order:
            return False
        if self.kind == "poly" and self.trunc is not None and total > self.trunc:
            return False
        return True

    def element(self, terms=None) -> "RElem":
        if terms is None:
            terms = {}
        if isinstance(terms, (int, Fraction)):
            value = Fraction(terms)
            terms = {(0,) * self.nvars: value} if value else {}
        clean: dict[Monomial, Fraction] = {}
        for mono, coef in terms.items():
            mono = tuple(mono)
            if len(mono) != self.nvars:
                raise RingError("monomial exponent length mismatch")
            coef = Fraction(coef)
            if coef and self._keeps(mono):
                clean[mono] = clean.get(mono, Fraction(0)) + coef
        return RElem(self, {m: c for m, c in clean.items() if c})

    @property
    def zero(self) -> "RElem":
        return self._zero

    @property
    def one(self) -> "RElem":
        return self._one

    def gen(self, i: int) -> "RElem":
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return self.element({mono: 1})

    def gens(self) -> list["RElem"]:
        return [self.gen(i) for i in range(self.nvars)]

    def monomial_basis(self) -> list[Monomial]:
        """All surviving monomials; only for Artinian rings."""
        if not self.is_artinian:
            raise RingError("monomial basis requires an Artinian ring")
        bound = self.order - 1 if self.kind == "trunc_local" else (self.trunc or 0)
        return sorted(_monomials_up_to(self.nvars, bound), key=lambda m: (sum(m), m))

    def describe(self) -> str:
        if self.kind == "field":
            return "Q"
        vs = ",".join(self.varnames)
        if self.kind == "trunc_local":
            if self.nvars == 1:
                v = self.varnames[0]
                return f"Q[{v}]/({v}^{self.order})"
            return f"Q[{vs}]/(m^{self.order})"
        if self.trunc is not None:
            return f"poly({vs}, trunc={self.trunc})"
        return f"poly({vs})"

    def __eq__(self, other):
        return isinstance(other, CoefRing) and (
            self.kind, self.varnames, self.order, self.trunc
        ) == (other.kind, other.varnames, other.order, other.trunc)

    def __repr__(self):
        return f"CoefRing({self.describe()})"


def _expand_vars(text: str) -> list[str]:
    text = text.strip()
    m = re.fullmatch(r"([A-Za-z]+)(\d+)\.\.(?:[A-Za-z]+)?(\d+)", text)
    if m:
        stem, lo, hi = m.group(1), int(m.group(2)), int(m.group(3))
        return [f"{stem}{i}" for i in range(lo, hi + 1)]
    return [v.strip() for v in text.split(",") if v.strip()]


def parse_ring(descriptor: str) -> CoefRing:
    """Ring descriptors: "Q", "Q[e]/(e^3)", "Q[x1..x4]/(m^5)",
    "poly(x1..x4, trunc=6)", "poly(x,y)"."""
    text = descriptor.strip()
    if text == "Q":
        return RATIONALS
    m = re.fullmatch(r"Q\[(.+?)\]/\((\w+)\^(\d+)\)", text)
    if m:
        names = _expand_vars(m.group(1))
        head, order = m.group(2), int(m.group(3))
        if head != "m" and (len(names) != 1 or head != names[0]):
            raise RingError(f"quotient head {head!r} is neither m nor the single variable")
        return CoefRing("trunc_local", tuple(names), order=order)
    m = re.fullmatch(r"poly\((.+)\)", text)
    if m:
        inner = m.group(1)
        trunc = None
        tm = re.search(r",\s*trunc\s*=\s*(\d+)\s*$", inner)
        if tm:
            trunc = int(tm.group(1))
            inner = inner[: tm.start()]
        names = _expand_vars(inner)
        return CoefRing("poly", tuple(names), trunc=trunc)
    raise RingError(f"cannot parse ring descriptor {descriptor!r}")


class RElem:
    """Canonical-form element; terms is monomial -> nonzero Fraction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoefRing, terms: dict[Monomial, Fraction]):
        self.ring = ring
        self.terms = terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, RElem):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == self.ring.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring.describe(), tuple(sorted(self.terms.items()))))

    def __neg__(self) -> "RElem":
        return RElem(self.ring, {m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "RElem":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, Fraction(0)) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return RElem(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other) -> "RElem":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "RElem":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "RElem":
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if not f:
                return self.ring.zero
            return RElem(self.ring, {m: c * f for m, c in self.terms.items()})
        other = self._coerce(other)
        keeps = self.ring._keeps
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                if not keeps(mono):
                    continue
                v = out.get(mono, Fraction(0)) + c1 * c2
                if v:
                    out[mono] = v
                else:
                    del out[mono]
        return RElem(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RElem":
        if n < 0:
            raise RingError("negative powers are not ring elements")
        acc = self.ring.one
        for _ in range(n):
            acc = acc * self
        return acc

    def _coerce(self, other) -> "RElem":
        if isinstance(other, RElem):
            if other.ring != self.ring:
                raise RingError("mixed-ring arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.element(other)
        raise RingError(f"cannot coerce {other!r}")

    # -- structure -------------------------------------------------------

    def degree(self) -> int:
        if not self.terms:
            raise RingError("zero polynomial has no degree")
        return max(sum(m) for m in self.terms)

    def low_degree(self) -> int:
        if not self.terms:
            raise RingError("zero polynomial has no degree")
        return min(sum(m) for m in self.terms)

    def homogeneous_part(self, d: int) -> "RElem":
        return RElem(self.ring, {m: c for m, c in self.terms.items() if sum(m) == d})

    def initial_form(self) -> "RElem":
        """Lowest-degree homogeneous part; errors on zero."""
        return self.homogeneous_part(self.low_degree())

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def evaluate(self, point: list[Fraction]) -> Fraction:
        if len(point) != self.ring.nvars:
            raise RingError("evaluation point has wrong length")
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                if e:
                    v *= x if e == 1 else x ** e
            total += v
        return total

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))
        parts = []
        for mono, coef in ordered:
            factors = []
            for name, e in zip(self.ring.varnames, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(format_scalar(coef))
                continue
            body = "*".join(factors)
            if coef == 1:
                parts.append(body)
            elif coef == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_scalar(coef)}*{body}")
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    __repr__ = __str__


RATIONALS = CoefRing("field")

_TERM_RE = re.compile(r"[+-]?[^+-]+")


def parse_element(ring: CoefRing, text: str) -> RElem:
    """Inverse of str(): sums of coef*var^e factors, e.g. "1/2*x1^2*x2 - 3"."""
    text = text.strip()
    if not text or text == "0":
        return ring.zero
    total = ring.zero
    pos = 0
    out_terms: dict[Monomial, Fraction] = {}
    for chunk in _TERM_RE.findall(text.replace(" ", "")):
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        coef = sign
        expo = [0] * ring.nvars
        for factor in chunk.split("*"):
            if not factor:
                raise RingError(f"empty factor in {text!r}")
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coef *= parse_scalar(factor)
                continue
            m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(\d+))?", factor)
            if not m or m.group(1) not in ring.varnames:
                raise RingError(f"unknown factor {factor!r} for ring {ring.describe()}")
            idx = ring.varnames.index(m.group(1))
            expo[idx] += int(m.group(2) or 1)
        mono = tuple(expo)
        out_terms[mono] = out_terms.get(mono, Fraction(0)) + coef
    return ring.element(out_terms)


def reduce_to_order(elem: RElem, target: CoefRing) -> RElem:
    """Image of an element under the quotient map to a lower truncation of
    the same variables (e.g. Q[e]/(e^3) -> Q[e]/(e^2))."""
    if elem.ring.varnames != target.varnames:
        raise RingError("quotient map needs matching variables")
    return target.element(dict(elem.terms))


# ---------------------------------------------------------------------------
# ideals

@dataclass(frozen=True)
class Ideal:
    ring: CoefRing
    generators: tuple[RElem, ...]
    provenance: tuple[str, ...] = ()

    @staticmethod
    def from_list(ring: CoefRing, gens, provenance=()) -> "Ideal":
        kept, prov = [], []
        prov_in = list(provenance) if provenance else [""] * len(gens)
        for g, p in zip(gens, prov_in):
            if g:
                kept.append(g)
                prov.append(p)
        return Ideal(ring, tuple(kept), tuple(prov))

    @staticmethod
    def unit(ring: CoefRing) -> "Ideal":
        return Ideal(ring, (ring.one,), ("unit",))

    @staticmethod
    def zero(ring: CoefRing) -> "Ideal":
        return Ideal(ring, (), ())

    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, f: RElem, degree_bound: int | None = None) -> bool | None:
        """Exact membership where decidable; None means inconclusive.

        Artinian rings: always decided by reducing f against the reduced
        echelon basis of the ideal as a subspace of the ring.  Exact
        polynomial rings: a bounded solve; a failed solve is conclusive only
        when f and all generators are homogeneous (degree bookkeeping bounds
        the multipliers), otherwise None.
        """
        if not f:
            return True
        if not self.generators:
            return False
        if self.ring.is_artinian:
            return self._artinian_span().spans(f.terms)
        return self._contains_poly(f, degree_bound)

    def _artinian_span(self) -> "_Echelon":
        """The ideal as a Q-subspace of the Artinian ring.

        It is the smallest subspace that holds the generators and is closed
        under multiplication by each variable.  So every vector that enters
        the basis is multiplied by each variable (exponents shifted, the
        monomials the ring drops left out) and queued in turn; a product
        already in the span adds nothing.  This takes one reduction per
        basis vector and variable, not one per monomial and generator.
        """
        full = len(self.ring.monomial_basis())
        n = self.ring.nvars
        variables = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        span = _Echelon()
        queue = [g.terms for g in self.generators]
        for vec in queue:
            added = span.add(vec)
            if added is None:
                continue
            if len(span.rows) == full:
                break
            for x in variables:
                prod = _shifted(self.ring, added, x)
                if prod:
                    queue.append(prod)
        return span

    def _contains_poly(self, f: RElem, degree_bound: int | None) -> bool | None:
        homogeneous = f.is_homogeneous() and all(g.is_homogeneous() for g in self.generators)
        if degree_bound is None:
            degree_bound = f.degree()
        span = _Echelon()
        for g in self.generators:
            max_mult = degree_bound - g.low_degree()
            if max_mult < 0:
                continue
            for mult in _monomials_up_to(self.ring.nvars, max_mult):
                if homogeneous and sum(mult) + g.degree() != f.degree():
                    continue
                span.add(_shifted(self.ring, g.terms, mult))
        if span.spans(f.terms):
            return True
        return False if homogeneous else None

    def mutually_contains(self, other: "Ideal", degree_bound: int | None = None) -> bool | None:
        """Whether the two ideals are equal: True, False, or None when a
        polynomial membership is inconclusive.  Over an Artinian ring each
        side's echelon basis is built once and the other side's generators
        are reduced against it; nothing outlives the call."""
        if self.ring.is_artinian:
            for ideal, gens in ((self, other.generators), (other, self.generators)):
                if not gens:
                    continue
                span = ideal._artinian_span()
                if not all(span.spans(g.terms) for g in gens):
                    return False
            return True
        results = [self.contains(g, degree_bound) for g in other.generators]
        results += [other.contains(g, degree_bound) for g in self.generators]
        if any(r is False for r in results):
            return False
        if all(r is True for r in results):
            return True
        return None

    def to_json(self) -> dict:
        return {
            "ring": self.ring.describe(),
            "generators": [str(g) for g in self.generators],
            "provenance": list(self.provenance),
        }


def _shifted(ring: CoefRing, terms: dict[Monomial, Fraction],
             mult: Monomial) -> dict[Monomial, Fraction]:
    """terms times the monomial mult, less the monomials the ring drops."""
    keeps = ring._keeps
    out = {}
    for mono, coef in terms.items():
        prod = tuple(a + b for a, b in zip(mono, mult))
        if keeps(prod):
            out[prod] = coef
    return out


class _Echelon:
    """Reduced echelon basis of a Q-subspace of a ring, as sparse vectors
    monomial -> Fraction: ``rows`` maps each pivot monomial to the one row
    with coefficient 1 there, and every row is 0 at every other pivot."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict[Monomial, dict[Monomial, Fraction]] = {}

    def remainder(self, vec: dict[Monomial, Fraction]) -> dict[Monomial, Fraction]:
        """vec less its projection onto the span along the pivots; zero iff
        vec lies in the span.  The rows vanish at each other's pivots, so
        each pivot of vec is cleared by its own row with vec's coefficient."""
        rows = self.rows
        out = dict(vec)
        for pivot, coef in vec.items():
            row = rows.get(pivot)
            if row is None:
                continue
            for mono, value in row.items():
                v = out.get(mono, _ZERO) - coef * value
                if v:
                    out[mono] = v
                else:
                    del out[mono]
        return out

    def spans(self, vec: dict[Monomial, Fraction]) -> bool:
        return not self.remainder(vec)

    def add(self, vec: dict[Monomial, Fraction]) -> dict[Monomial, Fraction] | None:
        """Extend the span by vec, keeping the basis reduced; returns vec's
        remainder, which together with the span before spans the span after,
        or None when vec was already in the span."""
        rest = self.remainder(vec)
        if not rest:
            return None
        pivot = min(rest)
        inv = 1 / rest[pivot]
        new = {mono: c * inv for mono, c in rest.items()}
        for row in self.rows.values():
            coef = row.get(pivot)
            if coef is None:
                continue
            for mono, value in new.items():
                v = row.get(mono, _ZERO) - coef * value
                if v:
                    row[mono] = v
                else:
                    del row[mono]
        self.rows[pivot] = new
        return rest


def _monomials_up_to(nvars: int, bound: int) -> list[Monomial]:
    """Every exponent vector in nvars variables of total degree <= bound."""
    out: list[Monomial] = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(prefix)
            return
        for e in range(budget + 1):
            rec(prefix + (e,), remaining - 1, budget - e)

    rec((), nvars, max(bound, 0))
    return out


# ---------------------------------------------------------------------------
# matrices and minors

class RingMatrix:
    """Dense matrix with basis-labeled rows (outputs) and columns (inputs)."""

    def __init__(self, ring: CoefRing, rows: tuple[str, ...], cols: tuple[str, ...],
                 data: list[list[RElem]] | None = None):
        self.ring = ring
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        if data is None:
            data = [[ring.zero for _ in self.cols] for _ in self.rows]
        self.data = data

    def __getitem__(self, rc):
        return self.data[rc[0]][rc[1]]

    def set(self, r: int, c: int, value: RElem) -> None:
        self.data[r][c] = value

    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.cols)

    def compose(self, other: "RingMatrix") -> "RingMatrix":
        """self o other (matrix product; other's outputs feed self's inputs)."""
        if self.cols != other.rows:
            raise RingError("composition shape mismatch")
        out = RingMatrix(self.ring, self.rows, other.cols)
        for i in range(len(self.rows)):
            for j in range(len(other.cols)):
                acc = self.ring.zero
                for k in range(len(self.cols)):
                    a = self.data[i][k]
                    b = other.data[k][j]
                    if a and b:
                        acc = acc + a * b
                out.data[i][j] = acc
        return out

    def is_zero(self) -> bool:
        return all(not e for row in self.data for e in row)

    def evaluate(self, point: list[Fraction]) -> list[list[Fraction]]:
        return [[e.evaluate(point) for e in row] for row in self.data]

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "entries": [[str(e) for e in row] for row in self.data],
        }


def block_diag(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    if a.ring != b.ring:
        raise RingError("block_diag over different rings")
    rows = a.rows + b.rows
    cols = a.cols + b.cols
    out = RingMatrix(a.ring, rows, cols)
    for i in range(len(a.rows)):
        for j in range(len(a.cols)):
            out.data[i][j] = a.data[i][j]
    for i in range(len(b.rows)):
        for j in range(len(b.cols)):
            out.data[len(a.rows) + i][len(a.cols) + j] = b.data[i][j]
    return out


class MinorEngine:
    """Laplace expansion along the first row with memoized submatrices."""

    def __init__(self, matrix: RingMatrix):
        self.matrix = matrix
        self.memo: dict[tuple[tuple[int, ...], tuple[int, ...]], RElem] = {}

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> RElem:
        if len(rows) != len(cols):
            raise RingError("minor needs equally many rows and columns")
        if not rows:
            return self.matrix.ring.one
        key = (rows, cols)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        r0 = rows[0]
        rest = rows[1:]
        acc = self.matrix.ring.zero
        for pos, c in enumerate(cols):
            entry = self.matrix.data[r0][c]
            if not entry:
                continue
            sub = self.minor(rest, cols[:pos] + cols[pos + 1:])
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        self.memo[key] = acc
        return acc


# (row set, column set) pairs one enumeration of r-minors may visit; past
# it the enumeration is refused up front instead of filling memory.  The
# largest in the tests, golden reports and benchmark visits 4,480 pairs;
# H_7's J^2_1 would visit about 9 * 10^10.
MINOR_PAIR_BUDGET = 10 ** 6


def block_minor_terms(upper: MinorEngine, lower: MinorEngine,
                      r: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], RElem]]:
    """(rows, cols, minor) for every nonzero r-minor of upper (+) lower, in
    (row subset, column subset) order, with indices into the glued block.

    A minor of a block-diagonal matrix that takes a rows from the upper
    block and r - a from the lower one is zero unless it takes a columns
    from the upper block too, and then it is det_upper * det_lower; so only
    those pairs are visited, and the lower factor only after a nonzero upper
    one.  Raises RingError, before any minor is evaluated, when the pairs to
    visit exceed MINOR_PAIR_BUDGET.
    """
    n_up, m_up = upper.matrix.shape()
    n_lo, m_lo = lower.matrix.shape()
    pairs = {a: comb(n_up, a) * comb(m_up, a) * comb(n_lo, r - a) * comb(m_lo, r - a)
             for a in range(r + 1)}
    count = sum(pairs.values())
    if count > MINOR_PAIR_BUDGET:
        raise RingError(f"the {r}-minors span {count} (row set, column set) pairs, "
                        f"more than the budget of {MINOR_PAIR_BUDGET}")
    splits = [a for a, n in pairs.items() if n]
    up_cols = {a: list(combinations(range(m_up), a)) for a in splits}
    lo_cols = {a: [(cols, tuple(m_up + j for j in cols))
                   for cols in combinations(range(m_lo), r - a)] for a in splits}
    for rows, a, rows_up, rows_lo in merge(*(_row_sets(n_up, n_lo, a, r) for a in splits)):
        for cols_up in up_cols[a]:
            det_up = upper.minor(rows_up, cols_up)
            if not det_up:
                continue
            for cols_lo, shifted in lo_cols[a]:
                det_lo = lower.minor(rows_lo, cols_lo)
                if not det_lo:
                    continue
                value = det_lo if a == 0 else det_up if a == r else det_up * det_lo
                if value:  # zero divisors: two nonzero factors may multiply to 0
                    yield rows, cols_up + shifted, value


def _row_sets(n_up: int, n_lo: int, a: int, r: int) -> Iterator[tuple]:
    """The r-row sets of the glued block with a rows in the upper block, in
    lexicographic order, as (rows, a, upper rows, lower rows)."""
    for rows_up in combinations(range(n_up), a):
        for rows_lo in combinations(range(n_lo), r - a):
            yield rows_up + tuple(n_up + j for j in rows_lo), a, rows_up, rows_lo


def block_minors(upper: MinorEngine, lower: MinorEngine, r: int) -> Ideal:
    """I_r of upper (+) lower from the minors of the two blocks, equal as a
    tagged list to ``minors(block_diag(upper.matrix, lower.matrix), r)``."""
    ring = upper.matrix.ring
    if r <= 0:
        return Ideal.unit(ring)
    row_labels = upper.matrix.rows + lower.matrix.rows
    col_labels = upper.matrix.cols + lower.matrix.cols
    gens, prov = [], []
    for rows, cols, value in block_minor_terms(upper, lower, r):
        gens.append(value)
        prov.append("rows[" + ",".join(row_labels[i] for i in rows) + "] x cols["
                    + ",".join(col_labels[j] for j in cols) + "]")
    return Ideal(ring, tuple(gens), tuple(prov))


def minors(matrix: RingMatrix, r: int) -> Ideal:
    """The determinantal ideal I_r; unit for r <= 0, zero when r exceeds the
    shape, nonzero minors tagged with their row/column label sets, in
    (row subset, column subset) order.  Every pair is expanded by Laplace:
    the matrix is the upper block over an empty lower one.
    """
    empty = RingMatrix(matrix.ring, (), ())
    return block_minors(MinorEngine(matrix), MinorEngine(empty), r)
