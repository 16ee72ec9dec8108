"""Exact commutative coefficient rings and determinantal machinery.

Three ring kinds share one distributed representation (monomial exponent
tuple -> Fraction, graded-lex ordering for display):

* ``field``        - the rationals (zero variables),
* ``trunc_local``  - Q[x_1..x_r]/(x)^N, Artinian local, m^N = 0,
* ``poly``         - Q[x_1..x_r], optionally degree-truncated at ``trunc``
                     (monomials of higher total degree are dropped eagerly).

The hot paths leave that representation for integers.  Matrices run on
packed polynomials (packed monomial int -> int coefficient): each exponent
has a fixed-width bit field and the total degree sits above them, so a
product of monomials is an int add and the quotient (m^N, trunc) is one
comparison (``_Packing``, Monagan-Pearce).  Artinian ideals are dense
integer rows over the ring's monomial basis, which each ``CoefRing`` indexes
once together with its shift-by-variable maps.

Ideal membership is decided by finite linear algebra wherever that is
honest: always in Artinian quotients, degree-by-degree for homogeneous data
in exact polynomial rings, and bounded-degree-solve-else-unknown otherwise.
In an Artinian ring the ideal is the closure of the generators under
multiplication by the variables, held as an integer row echelon form
(``_IntSpan``: primitive rows, fraction-free reduction), and the target is
reduced against it; two ideals are equal exactly when their echelon forms
have the same pivots and one lies in the other.  Exact polynomial rings
reduce the target against the reduced echelon basis (``linalg.Echelon``)
of the bounded products of the generators.  No span is stored on the
``Ideal``.  No Groebner machinery is used or pretended.

``MinorEngine`` is the one place a polynomial matrix becomes packed ints:
each row scaled by the lcm of its denominators, field widths fixed from a
bound on the degree of any minor (``degree_bound``).  Its minors are a
Laplace expansion along the first row that memoizes every sub-minor, in
packed ints with the row scales divided out at the output; the d^2 = 0
check multiplies two engines (``composite_vanishes``), weighting each row
of the inner one so that the scales cancel; the rank oracle evaluates one
at a point n/D in ints, row r times scales[r] * D^top (``at``).
``block_minors`` gives I_r of a block-diagonal matrix A (+) B, the shape
of a jump ideal's d^{i-1} (+) d^i, from one engine per block on one shared
packing: a minor is nonzero only when it takes as many rows as columns
from A, and it is then det_A * det_B (I_r(A (+) B) = sum_{a+b=r} I_a(A)
I_b(B), Bruns-Vetter).  The generators and their order are those of
``minors`` on the glued block.  Every enumeration counts its (row set,
column set) pairs first and raises ``RingError`` past
``MINOR_PAIR_BUDGET``.
"""

from __future__ import annotations

import re
from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import merge
from itertools import combinations
from math import comb, gcd, lcm, prod

from .linalg import Echelon
from .scalars import format_scalar, parse_scalar

Monomial = tuple[int, ...]


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
        if trunc is not None and trunc < 0:
            raise RingError(f"truncation degree must be >= 0, got {trunc}")
        if len(set(varnames)) != len(varnames):
            raise RingError("duplicate variable names")
        self.kind = kind
        self.varnames = tuple(varnames)
        self.order = order
        self.trunc = trunc
        # shared by every caller: safe because no code mutates RElem.terms
        self._zero = RElem(self, {})
        self._one = RElem(self, {(0,) * len(varnames): Fraction(1)})
        self._packings: dict[int, _Packing] = {}
        self._basis_index: tuple | None = None

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

    def _index(self) -> tuple[dict[Monomial, int], list[list[int]]]:
        """The index of each monomial in ``monomial_basis()``, and per
        variable x the index of x * m for each basis monomial m, or -1 when
        the ring drops it; built once per ring, Artinian rings only."""
        if self._basis_index is None:
            basis = self.monomial_basis()
            index = {m: i for i, m in enumerate(basis)}
            shifts = [[index.get(m[:j] + (m[j] + 1,) + m[j + 1:], -1) for m in basis]
                      for j in range(self.nvars)]
            self._basis_index = index, shifts
        return self._basis_index

    def packing(self, bound: int) -> "_Packing":
        """The packing wide enough for monomials of total degree <= bound,
        shared by every caller of the same width.  In an Artinian ring no
        product of two surviving monomials passes twice the top degree."""
        if self.is_artinian:
            bound = min(bound, 2 * (self.nilpotency_order() - 1))
        width = max(bound, 1).bit_length()
        got = self._packings.get(width)
        if got is None:
            got = self._packings[width] = _Packing(self, width)
        return got

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

    def __hash__(self):
        return hash((self.kind, self.varnames, self.order, self.trunc))

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
            span = self._artinian_span()
            return not any(span.remainder(_int_vector(self.ring, f.terms)))
        return self._contains_poly(f, degree_bound)

    def _artinian_span(self) -> "_IntSpan":
        """The ideal as a Q-subspace of the Artinian ring, in integer rows
        over the ring's monomial basis.

        It is the smallest subspace that holds the generators and is closed
        under multiplication by each variable.  So every vector that enters
        the basis is multiplied by each variable (its entries moved along
        the ring's index map, the monomials the ring drops left out) and
        queued in turn; a product already in the span adds nothing.  This
        takes one reduction per basis vector and variable, not one per
        monomial and generator.
        """
        index, shifts = self.ring._index()
        full = len(index)
        span = _IntSpan()
        queue = [_int_vector(self.ring, g.terms) for g in self.generators]
        for vec in queue:
            added = span.add(vec)
            if added is None:
                continue
            if len(span.rows) == full:
                break
            for shift in shifts:
                prod = [0] * full
                for i, c in enumerate(added):
                    if c and shift[i] >= 0:
                        prod[shift[i]] = c
                if any(prod):
                    queue.append(prod)
        return span

    def _contains_poly(self, f: RElem, degree_bound: int | None) -> bool | None:
        homogeneous = f.is_homogeneous() and all(g.is_homogeneous() for g in self.generators)
        if degree_bound is None:
            degree_bound = f.degree()
        span = Echelon()
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
        polynomial membership is inconclusive.  Over an Artinian ring two
        subspaces are equal when their echelon forms have the same pivots
        (so the same dimension) and one lies in the other."""
        if self.ring.is_artinian:
            mine, theirs = self._artinian_span(), other._artinian_span()
            return mine.pivots == theirs.pivots and not any(
                any(mine.remainder(row)) for row in theirs.rows.values())
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


class _IntSpan:
    """A Q-subspace of Q^n held as dense integer rows in echelon form:
    ``rows`` maps each pivot to the one row whose first nonzero entry is
    there, primitive and positive at the pivot; ``pivots`` is ascending.
    Integer rows keep every reduction exact without a Fraction."""

    __slots__ = ("rows", "pivots")

    def __init__(self):
        self.rows: dict[int, list[int]] = {}
        self.pivots: list[int] = []

    def remainder(self, vec: list[int]) -> list[int]:
        """A nonzero multiple of vec less a combination of the rows, 0 at
        every pivot; all 0 iff vec lies in the span.  A row is 0 before its
        pivot, so clearing the pivots in ascending order keeps the ones
        already cleared."""
        rows = self.rows
        for p in self.pivots:
            a = vec[p]
            if a:
                row = rows[p]
                g = gcd(a, row[p])
                a, b = a // g, row[p] // g
                vec = [b * x - a * y for x, y in zip(vec, row)]
        return vec

    def add(self, vec: list[int]) -> list[int] | None:
        """Extend the span by vec; returns the new row, which together with
        the span before spans the span after, or None when vec was already
        in the span."""
        rest = self.remainder(vec)
        pivot = next((i for i, x in enumerate(rest) if x), None)
        if pivot is None:
            return None
        g = gcd(*rest)
        if rest[pivot] < 0:
            g = -g
        rest = [x // g for x in rest]
        insort(self.pivots, pivot)
        self.rows[pivot] = rest
        return rest


def _int_vector(ring: CoefRing, terms: dict[Monomial, Fraction]) -> list[int]:
    """terms over the ring's monomial basis, scaled by the lcm of their
    denominators: a nonzero multiple of the same vector."""
    index = ring._index()[0]
    den = reduce(lcm, (c.denominator for c in terms.values()), 1)
    vec = [0] * len(index)
    for mono, coef in terms.items():
        vec[index[mono]] = coef.numerator * (den // coef.denominator)
    return vec


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


class _Packing:
    """Exponent vectors packed into one int: exponent j in bits [j*width,
    (j+1)*width), the total degree above them.  While no exponent reaches
    2^width the product of two monomials is the sum of their ints, and the
    product survives the ring's quotient (m^N, trunc) iff it is below
    ``limit``."""

    __slots__ = ("nvars", "width", "limit", "_unpacked")

    def __init__(self, ring: CoefRing, width: int):
        self.nvars, self.width = ring.nvars, width
        shift = width * ring.nvars
        if ring.kind == "trunc_local":
            self.limit = ring.order << shift
        elif ring.kind == "poly" and ring.trunc is not None:
            self.limit = (ring.trunc + 1) << shift
        else:
            self.limit = 1 << (shift + width)
        self._unpacked: dict[int, Monomial] = {}

    def pack(self, mono: Monomial) -> int:
        out = sum(mono)
        for e in reversed(mono):
            out = (out << self.width) | e
        return out

    def unpack(self, packed: int) -> Monomial:
        got = self._unpacked.get(packed)
        if got is None:
            mask, w = (1 << self.width) - 1, self.width
            got = self._unpacked[packed] = tuple((packed >> (j * w)) & mask
                                                 for j in range(self.nvars))
        return got

    def element(self, ring: CoefRing, poly: dict[int, int], scale: int) -> RElem:
        """The ring element poly / scale."""
        unpack = self.unpack
        if scale == 1 or gcd(scale, *poly.values()) == scale:
            # int Fractions skip the normalizing gcd
            return RElem(ring, {unpack(m): Fraction(c // scale) for m, c in poly.items()})
        return RElem(ring, {unpack(m): Fraction(c, scale) for m, c in poly.items()})


def _mul_into(acc: dict[int, int], f: dict[int, int], g: dict[int, int],
              factor: int, limit: int) -> None:
    """acc += factor * f * g, less the monomials at or past limit; leaves
    zero coefficients in acc."""
    get = acc.get
    for m1, c1 in f.items():
        c1 *= factor
        for m2, c2 in g.items():
            m = m1 + m2
            if m < limit:
                acc[m] = get(m, 0) + c1 * c2


def _nonzero(acc: dict[int, int]) -> dict[int, int]:
    return {m: v for m, v in acc.items() if v}


def composite_vanishes(a: MinorEngine, b: MinorEngine) -> bool:
    """Whether a.matrix o b.matrix = 0 in the ring, on the engines' packed
    entries; both must share a packing wide enough for
    degree_bound(a.matrix) + degree_bound(b.matrix).

    Row r of a is scaled by s_r and row k of b by t_k; with T the lcm of
    the t_k, sum_k a[r][k] * b[k][c] * (T / t_k) over the packed entries is
    s_r * T times the (r, c) entry of the composite, less the monomials the
    ring drops.  s_r * T is a nonzero integer, so each sum is 0 exactly
    when that entry is."""
    total = reduce(lcm, b.scales, 1)
    weights = [total // t for t in b.scales]
    limit = a.packing.limit
    columns = list(zip(*b.entries))
    for row in a.entries:
        for column in columns:
            acc: dict[int, int] = {}
            for f, g, w in zip(row, column, weights):
                if f and g:
                    _mul_into(acc, f, g, w, limit)
            if any(acc.values()):
                return False
    return True


def degree_bound(matrix: RingMatrix) -> int:
    """The sum over rows of the largest total degree in the row: no minor,
    and no product in its Laplace expansion, has a larger degree."""
    return sum(max((sum(m) for e in row for m in e.terms), default=0) for row in matrix.data)


_ONE_POLY = {0: 1}


class MinorEngine:
    """A polynomial matrix compiled once to packed integer polynomials: its
    minors (Laplace expansion, memoized) and its values at rational points.

    Row i is scaled by the lcm ``scales[i]`` of its coefficients'
    denominators, so ``poly(rows, cols)`` is the minor times the product of
    the scales of its rows, exact in ints; ``minor`` divides it back out.
    The packing is the ring's for ``degree_bound(matrix)`` unless one is
    given: two engines whose minors are multiplied must share one.
    """

    def __init__(self, matrix: RingMatrix, packing: _Packing | None = None):
        self.matrix = matrix
        self.bound = degree_bound(matrix)
        self.packing = packing or matrix.ring.packing(self.bound)
        pack = self.packing.pack
        self.scales: list[int] = []
        self.entries: list[list[dict[int, int]]] = []
        for row in matrix.data:
            scale = reduce(lcm, (c.denominator for e in row for c in e.terms.values()), 1)
            self.scales.append(scale)
            self.entries.append([{pack(m): c.numerator * (scale // c.denominator)
                                  for m, c in e.terms.items()} for e in row])
        self.memo: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        shift = self.packing.width * self.packing.nvars
        # the largest total degree of an entry, read off the packed degree field
        self.top = max((m >> shift for row in self.entries for e in row for m in e), default=0)
        self._cells: list[tuple[int, int, list[tuple[int, int]]]] | None = None

    def scale(self, rows: tuple[int, ...]) -> int:
        return prod(self.scales[i] for i in rows)

    def _values(self, nums: list[int], den: int) -> list[int]:
        """Each distinct monomial at n/D, times D^top.  Builds on first use
        the cells in row order, (row, col, [(monomial index, coefficient)]),
        and per monomial its (variable, exponent) pairs and D's exponent."""
        if self._cells is None:
            index: dict[int, int] = {}
            self._cells = [(r, c, [(index.setdefault(m, len(index)), k) for m, k in e.items()])
                           for r, row in enumerate(self.entries) for c, e in enumerate(row) if e]
            shift = self.packing.width * self.packing.nvars
            self._monos = [([(j, x) for j, x in enumerate(self.packing.unpack(m)) if x],
                            self.top - (m >> shift)) for m in index]
        pads = [1]
        for _ in range(self.top):
            pads.append(pads[-1] * den)
        vals = []
        for factors, pad in self._monos:
            v = pads[pad]
            for j, x in factors:
                v *= nums[j] ** x
            vals.append(v)
        return vals

    def at(self, nums: list[int], den: int) -> list[list[int]]:
        """The matrix at the point n/D in integers: row r is scales[r] *
        D^top times row r of M(n/D), so rank and zero pattern are those of
        M(n/D)."""
        vals = self._values(nums, den)
        out = [[0] * len(self.matrix.cols) for _ in self.entries]
        for r, c, lin in self._cells:
            v = 0
            for m, k in lin:
                v += k * vals[m]
            out[r][c] = v
        return out

    def zero_at(self, nums: list[int], den: int) -> bool:
        """Whether M(n/D) = 0, summing the cells up to the first nonzero one."""
        vals = self._values(nums, den)
        for _, _, lin in self._cells:
            v = 0
            for m, k in lin:
                v += k * vals[m]
            if v:
                return False
        return True

    def poly(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> dict[int, int]:
        """The minor times ``scale(rows)``, packed; {} when it is zero."""
        if not rows:
            return _ONE_POLY
        key = (rows, cols)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        entries = self.entries[rows[0]]
        rest = rows[1:]
        limit = self.packing.limit
        acc: dict[int, int] = {}
        for pos, c in enumerate(cols):
            entry = entries[c]
            if not entry:
                continue
            sub = self.poly(rest, cols[:pos] + cols[pos + 1:])
            if sub:
                _mul_into(acc, entry, sub, -1 if pos % 2 else 1, limit)
        acc = self.memo[key] = _nonzero(acc)
        return acc

    def minor(self, rows: tuple[int, ...], cols: tuple[int, ...]) -> RElem:
        if len(rows) != len(cols):
            raise RingError("minor needs equally many rows and columns")
        return self.packing.element(self.matrix.ring, self.poly(rows, cols), self.scale(rows))


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
    visit exceed MINOR_PAIR_BUDGET, and when the two engines do not share
    one packing wide enough for degree_bound(upper) + degree_bound(lower).
    """
    n_up, m_up = upper.matrix.shape()
    n_lo, m_lo = lower.matrix.shape()
    pairs = {a: comb(n_up, a) * comb(m_up, a) * comb(n_lo, r - a) * comb(m_lo, r - a)
             for a in range(r + 1)}
    count = sum(pairs.values())
    if count > MINOR_PAIR_BUDGET:
        raise RingError(f"the {r}-minors span {count} (row set, column set) pairs, "
                        f"more than the budget of {MINOR_PAIR_BUDGET}")
    ring = upper.matrix.ring
    if lower.matrix.ring != ring:
        raise RingError("block minors over different rings")
    packing = upper.packing
    need = ring.packing(upper.bound + lower.bound)
    if lower.packing is not packing or packing.width < need.width:
        raise RingError("block minors need both engines on one packing wide enough")
    splits = [a for a, n in pairs.items() if n]
    up_cols = {a: list(combinations(range(m_up), a)) for a in splits}
    lo_cols = {a: [(cols, tuple(m_up + j for j in cols))
                   for cols in combinations(range(m_lo), r - a)] for a in splits}
    limit = packing.limit
    for rows, a, rows_up, rows_lo in merge(*(_row_sets(n_up, n_lo, a, r) for a in splits)):
        scale = upper.scale(rows_up) * lower.scale(rows_lo)
        for cols_up in up_cols[a]:
            det_up = upper.poly(rows_up, cols_up)
            if not det_up:
                continue
            for cols_lo, shifted in lo_cols[a]:
                det_lo = lower.poly(rows_lo, cols_lo)
                if not det_lo:
                    continue
                if 0 < a < r:
                    value = {}
                    _mul_into(value, det_up, det_lo, 1, limit)
                    value = _nonzero(value)
                else:  # a 0x0 factor is not multiplied
                    value = det_up if a else det_lo
                if value:  # zero divisors: two nonzero factors may multiply to 0
                    yield rows, cols_up + shifted, packing.element(ring, value, scale)


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
    engine = MinorEngine(matrix)
    return block_minors(engine, MinorEngine(RingMatrix(matrix.ring, (), ()), engine.packing), r)
