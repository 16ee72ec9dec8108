"""Desk-scale fixtures: exterior algebras, the Heisenberg cdga, seeded
random cdgas, and small dgla pairs.

Random cdgas are built quotient-free from a two-layer generator pattern:
closed degree-1 generators, plus generators whose differential is a random
combination of products of closed ones.  d^2 = 0 and associativity then
hold by construction, no completion step needed.

A product of monomials is their sorted concatenation, its sign read off the
inverted pairs of odd generators as in ``signs``; d is the Leibniz rule
through that product, which needs |dg| = |g| + 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .grading import BasisElement, GradedSpace, combine_spaces, prefix_space
from .multimap import MultiMap
from .structures import (
    AInfAlgebra,
    LInfAlgebra,
    LInfModule,
    LInfPair,
    StructureError,
    module_check,
)


# the largest basis a descriptor may ask for: the product table is quadratic
# in it, and exterior(8), with 256 elements, takes about a second to build
MAX_FIXTURE_DIM = 256


@dataclass(frozen=True)
class FixtureDescriptor:
    name: str
    seed: int | None = None
    dims: tuple[int, ...] = ()
    weights: bool = False


class Cdga:
    """A finite graded-commutative dga presented by monomials in generators.

    Monomials are sorted generator index tuples (odd generators never
    repeat); the label of a monomial is the concatenation of the generator
    names, "1" for the unit.
    """

    def __init__(self, gens: list[tuple[str, int, int | None]], max_degree: int,
                 differentials: dict[str, list[tuple[int | Fraction, tuple[int, ...]]]] | None = None):
        # gens: (name, degree, weight or None)
        self.gens = gens
        self.max_degree = max_degree
        self.monomials = self._enumerate_monomials()
        weighted = any(w is not None for _, _, w in gens)
        elements = []
        for mono in self.monomials:
            deg = sum(gens[i][1] for i in mono)
            weight = sum(gens[i][2] for i in mono) if weighted else None
            elements.append(BasisElement(self.label(mono), deg, weight))
        self.space = GradedSpace(elements)
        self.differentials = differentials or {}
        self._monoset = set(self.monomials)
        # the Leibniz sign of differential_map needs |dg| = |g| + 1
        degree = {name: deg for name, deg, _ in gens}
        for name, terms in self.differentials.items():
            if name not in degree:
                raise StructureError(f"differential of an unknown generator {name!r}")
            for _, dmono in terms:
                if (got := sum(gens[i][1] for i in dmono)) != degree[name] + 1:
                    raise StructureError(f"d{name} has the term {self.label(dmono)} of degree "
                                         f"{got}, not {degree[name] + 1}")

    def _enumerate_monomials(self) -> list[tuple[int, ...]]:
        # odd generators square to zero; even ones repeat within the window
        monos = [()]
        for i, (_, deg, _) in enumerate(self.gens):
            max_power = 1 if deg % 2 else self.max_degree // max(deg, 1)
            new = []
            for m in monos:
                total = sum(self.gens[k][1] for k in m)
                for power in range(0, max_power + 1):
                    if total + power * deg <= self.max_degree:
                        new.append(m + (i,) * power)
            monos = new
        return sorted(monos, key=lambda m: (sum(self.gens[k][1] for k in m), m))

    def label(self, mono: tuple[int, ...]) -> str:
        return "".join(self.gens[i][0] for i in mono) or "1"

    def multiply_monos(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
        """Graded-commutative product of two monomials: the sorted a + b, with
        -1 per inverted pair of odd generators in a + b, or None when an odd
        generator repeats or the degree passes the window."""
        mono = tuple(sorted(a + b))
        if mono not in self._monoset:
            return None
        odd = [i for i in a + b if self.gens[i][1] % 2]
        flips = sum(i > j for i, j in combinations(odd, 2))
        return (-1 if flips % 2 else 1), mono

    def product_map(self) -> MultiMap:
        mm = MultiMap(self.space, self.space, 2, 0)
        # the monomials are in degree order: a row stops where it leaves the window
        deg = [e.deg for e in self.space.elements]
        for a, deg_a in zip(self.monomials, deg):
            for b, deg_b in zip(self.monomials, deg):
                if deg_a + deg_b > self.max_degree:
                    break
                if (res := self.multiply_monos(a, b)) is not None:
                    mm.add((self.label(a), self.label(b)), self.label(res[1]), res[0])
        return mm

    def differential_map(self) -> MultiMap:
        """Extend the generator differentials by the graded Leibniz rule:
        d(head g tail) = (-1)^(|head| |g|) dg (head tail), as d crosses head
        and dg, of degree |g| + 1, moves back past it."""
        mm = MultiMap(self.space, self.space, 1, 1)
        for mono in self.monomials:
            image: dict[tuple[int, ...], int | Fraction] = {}
            head_deg = 0
            for pos, gi in enumerate(mono):
                name, deg, _ = self.gens[gi]
                sign = -1 if head_deg * deg % 2 else 1
                for coef, dmono in self.differentials.get(name, ()):
                    if (res := self.multiply_monos(dmono, mono[:pos] + mono[pos + 1:])) is not None:
                        image[res[1]] = image.get(res[1], 0) + coef * sign * res[0]
                head_deg += deg
            for target, c in image.items():
                if c:
                    mm.add((self.label(mono),), self.label(target), c)
        return mm

    def ainf(self) -> AInfAlgebra:
        products = {2: self.product_map()}
        d = self.differential_map()
        if not d.is_zero():
            products[1] = d
        return AInfAlgebra(self.space, products)


def exterior_cdga(n: int, weights: bool = False) -> Cdga:
    """The exterior algebra on n degree-1 generators, zero differential."""
    names = ["x", "y", "z", "u", "v", "w"][:n] if n <= 6 else [f"e{i}" for i in range(1, n + 1)]
    gens = [(name, 1, 1 if weights else None) for name in names]
    return Cdga(gens, n)


def heisenberg_cdga(weights: bool = False) -> Cdga:
    """Lambda(x, y, z) with dz = xy; cohomology dims (1, 2, 2, 1)."""
    gens = [
        ("x", 1, 1 if weights else None),
        ("y", 1, 1 if weights else None),
        ("z", 1, 2 if weights else None),
    ]
    return Cdga(gens, 3, {"z": [(1, (0, 1))]})


def weight_zero_offender_cdga() -> Cdga:
    """Exterior on two generators, one of weight zero in degree 1."""
    gens = [("x", 1, 0), ("y", 1, 1)]
    return Cdga(gens, 2)


def random_cdga(seed: int, dims: tuple[int, ...] | None = None) -> Cdga:
    """Seeded two-layer cdga; dims, when given, must match the generated
    monomial dimensions C(k, d) of k degree-1 generators, and their sum may
    not pass MAX_FIXTURE_DIM (both checked before anything is built).

    With three or more generators the split is biased so that at least one
    generator carries a nonzero differential (nonformal, Massey-bearing
    fixtures); two-generator requests are necessarily formal.
    """
    rng = random.Random(seed)
    k = dims[1] if dims and len(dims) > 1 else rng.choice([3, 3, 2])
    max_degree = (len(dims) - 1) if dims else 3
    if dims is not None:
        actual = tuple(comb(max(k, 0), d) for d in range(len(dims)))
        if actual != tuple(dims):
            raise StructureError(f"unsatisfiable dims: requested {dims}, generated {actual}")
        if sum(dims) > MAX_FIXTURE_DIM:
            raise StructureError(f"dims {dims} give {sum(dims)} basis elements, "
                                 f"over the cap of {MAX_FIXTURE_DIM}")
    names = [f"g{i}" for i in range(1, k + 1)]
    gens = [(name, 1, None) for name in names]
    differentials: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    if k >= 3 and max_degree >= 2:
        n_closed = rng.randint(2, k - 1)
        pair_pool = list(combinations(range(n_closed), 2))
        for gi in range(n_closed, k):
            terms = []
            while not terms:
                terms = [
                    (c, pair)
                    for pair in pair_pool
                    for c in [rng.choice([-2, -1, 0, 1, 1, 2])]
                    if c
                ]
            differentials[names[gi]] = terms
    return Cdga(gens, max_degree, differentials)


# ---------------------------------------------------------------------------
# pairs and dglas

def _relabeled(out: MultiMap, mm: MultiMap, key_prefixes: tuple[str, ...],
               prefix: str) -> MultiMap:
    """out with every entry of mm added under prefixed labels: slot t of a
    key gains key_prefixes[t], an output label gains prefix."""
    for key, row in mm.entries():
        key = tuple(p + lab for p, lab in zip(key_prefixes, key))
        for lab, c in row.items():
            out.add(key, prefix + lab, c)
    return out


def _zero_bracket_dgla(space: GradedSpace, d: MultiMap | None) -> LInfAlgebra:
    """A commutative dga on space with differential d (None for zero) as a
    dgla on "a."-labels: the commutator bracket vanishes, so only d survives
    (the structure drops a zero map)."""
    a_space = prefix_space(space, "a.")
    brackets: dict[int, MultiMap] = {}
    if d is not None:
        brackets[1] = _relabeled(MultiMap(a_space, a_space, 1, 1, "antisym"), d, ("a.",), "a.")
    return LInfAlgebra(a_space, brackets)


def cdga_zero_bracket_dgla(alg: Cdga) -> LInfAlgebra:
    """A cdga viewed as a dgla: the commutator bracket vanishes, so only the
    differential survives."""
    return _zero_bracket_dgla(alg.space, alg.differential_map())


def cdga_pair(alg: Cdga) -> LInfPair:
    """The dgl pair (A, A): zero bracket, module action by multiplication."""
    return ainf_cdga_pair(alg.ainf())


def ainf_cdga_pair(alg: AInfAlgebra) -> LInfPair:
    """The dgl pair (A, A) of a commutative dga given as structure constants.

    The zero-bracket reading is only valid for graded-commutative products;
    the module identity check at arity 3 enforces that.
    """
    if set(alg.products) - {1, 2}:
        raise StructureError("pair construction expects a dga (nu_1, nu_2 only)")
    d = alg.products.get(1)
    algebra = _zero_bracket_dgla(alg.space, d)
    m_space = prefix_space(alg.space, "m.")
    combined = combine_spaces(algebra.space, m_space)
    actions: dict[int, MultiMap] = {}
    if d is not None:
        actions[1] = _relabeled(MultiMap(combined, m_space, 1, 1, "none"), d, ("m.",), "m.")
    prod = alg.products.get(2)
    if prod is not None:
        actions[2] = _relabeled(MultiMap(combined, m_space, 2, 0, "antisym_algebra"), prod,
                                ("a.", "m."), "m.")
    module = LInfModule(algebra, m_space, actions)
    rep = module_check(module, 3)
    if not rep.ok:
        raise StructureError(
            "zero-bracket pair needs a graded-commutative product: "
            + rep.first().describe())
    return LInfPair(algebra, module)


def heisenberg_lie_dgla() -> LInfAlgebra:
    """The 3-dimensional Heisenberg Lie algebra in degree 0, zero differential."""
    space = GradedSpace([
        BasisElement("E", 0), BasisElement("F", 0), BasisElement("Z", 0),
    ])
    l2 = MultiMap(space, space, 2, 0, "antisym")
    l2.add(("E", "F"), "Z", 1)
    return LInfAlgebra(space, {2: l2})


def solvable_dgla() -> LInfAlgebra:
    """Two-dimensional dgla with [e, f] = f, e in degree 0 and f in degree 1."""
    space = GradedSpace([BasisElement("e", 0), BasisElement("f", 1)])
    l2 = MultiMap(space, space, 2, 0, "antisym")
    l2.add(("e", "f"), "f", 1)
    return LInfAlgebra(space, {2: l2})


def affine_plane_dgla() -> LInfAlgebra:
    """Abelian degree-0 part acting on a 2-dim degree-1 part: [e1, f_i] = f_i
    and [e2, f1] = f2; a 4-dim dgla with a rich gauge action."""
    space = GradedSpace([
        BasisElement("e1", 0), BasisElement("e2", 0),
        BasisElement("f1", 1), BasisElement("f2", 1),
    ])
    l2 = MultiMap(space, space, 2, 0, "antisym")
    l2.add(("e1", "f1"), "f1", 1)
    l2.add(("e1", "f2"), "f2", 1)
    l2.add(("e2", "f1"), "f2", 1)
    return LInfAlgebra(space, {2: l2})


def adjoint_pair(alg: LInfAlgebra) -> LInfPair:
    """A dgla acting on a copy of itself, labels prefixed "ad.", by the bracket."""
    if alg.max_arity() > 2:
        raise StructureError("adjoint pair fixture expects a dgla")
    prefix = "ad."
    mod_space = prefix_space(alg.space, prefix)
    combined = combine_spaces(alg.space, mod_space)
    actions: dict[int, MultiMap] = {}
    l1 = alg.brackets.get(1)
    if l1 is not None:
        actions[1] = _relabeled(MultiMap(combined, mod_space, 1, 1, "none"), l1, (prefix,), prefix)
    l2 = alg.brackets.get(2)
    if l2 is not None:
        m2 = MultiMap(combined, mod_space, 2, 0, "antisym_algebra")
        for a in alg.space.elements:
            for b in alg.space.elements:
                vec = l2.get((a.label, b.label))
                for lab, c in vec.items():
                    m2.add((a.label, prefix + b.label), prefix + lab, c)
        actions[2] = m2
    module = LInfModule(alg, mod_space, actions)
    return LInfPair(alg, module)


# ---------------------------------------------------------------------------
# descriptor dispatch

def generate_fixture(desc: FixtureDescriptor):
    """Resolve a descriptor to a structure package-like object; a flag the
    named fixture does not read is refused, not dropped."""
    name = desc.name
    if name in ("random", "random-pair"):
        if desc.weights:
            raise ValueError(f"{name} carries no weights")
        alg = random_cdga(desc.seed or 0, desc.dims or None)
        return alg.ainf() if name == "random" else cdga_pair(alg)
    if desc.dims:
        raise ValueError(f"dims apply to random and random-pair only, not {name!r}")
    if desc.seed is not None:
        raise ValueError(f"a seed applies to random and random-pair only, not {name!r}")
    if name == "exterior" or (name.startswith("exterior(") and name.endswith(")")):
        n = 2 if name == "exterior" else int(name[len("exterior("):-1])
        if n < 0:
            raise ValueError(f"exterior(N) needs N >= 0, got {name!r}")
        if 2 ** min(n, 64) > MAX_FIXTURE_DIM:
            raise ValueError(f"{name} has 2^{n} basis elements, "
                             f"over the cap of {MAX_FIXTURE_DIM}")
        return exterior_cdga(n, desc.weights).ainf()
    if name == "torus2":
        return exterior_cdga(2, desc.weights).ainf()
    if name == "heisenberg":
        return heisenberg_cdga(desc.weights).ainf()
    if name == "heisenberg-pair":
        return cdga_pair(heisenberg_cdga(desc.weights))
    raise ValueError(f"unknown fixture {name!r}")
