"""The four benchmark workloads: seeded inputs, the job list of one round,
and the canonical payload each job is checked by.

A workload is built by ``build(name, seed, workdir)``.  Building is the
benchmark's set-up: it generates the inputs, writes the CLI input packages
under ``workdir``, transfers the minimal pairs the ideal workloads start
from, and prepares the ideals the membership jobs compare.  Every job then
does one engine operation and returns ``(exit_code, status, payload)``;
``payload`` is plain JSON and is what the correctness digest covers.

Input sizes are fixed and the seed only changes coefficients: the
coefficient ``c`` in ``dz = c*xy``, the random cdgas
``random_cdga(s, dims=(1, 3, 3, 1))`` of transfer-deep, the signed
permutations that move the jump-ideals draws, and the rank-oracle sample
points.  Where a coefficient changed the amount of work between seeds, the
seed changes only signs (see ``_sign`` and ``_jump_ideals``).  The seed
first selects one of ``VARIANTS`` input variants, so that every job's
answer has a digest recorded at the seed commit (``digests.json``).

Why each workload exists, and which layers it stresses, is in
``BENCHMARK.json`` and ``LAYER_MAP`` in ``tracing.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from hse import cli
from hse.deformation import (
    construct_gauge_witness,
    homotopy_witness_check,
    jump_ideal_pair,
    twist_module,
)
from hse.fixtures import (
    Cdga,
    adjoint_pair,
    affine_plane_dgla,
    cdga_pair,
    exterior_cdga,
    random_cdga,
    solvable_dgla,
)
from hse.io_json import dumps, package_to_json
from hse.resonance import (
    binary_resonance_ideal,
    dga_resonance_ideal,
    resonance_ideal,
    subtorus_hypothesis_check,
    tangent_cone_check,
)
from hse.rings import RingMatrix, block_diag, minors, parse_ring
from hse.structures import morphism_check
from hse.transfer import cohomology_splitting, transfer_ainf, transfer_pair

VARIANTS = 8
WORKLOADS = ("transfer-deep", "transfer-wide", "jump-ideals", "resonance")
GOLDEN = Path(__file__).resolve().parent.parent / "fixtures"


@dataclass
class Job:
    kind: str
    name: str
    run: Callable[[], tuple[int, str, object]]


@dataclass
class Workload:
    name: str
    variant: int
    jobs: list[Job]
    sizes: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _coef(rng: random.Random) -> int:
    return rng.choice([1, 2, 3, -1, -2, -3])


def _sign(rng: random.Random) -> int:
    """A seeded sign for the coefficient c of dz = c*xy where the rank oracle
    runs: z -> -z is an isomorphism, so the work stays the same, while
    |c| > 1 puts powers of c into every transferred coefficient."""
    return rng.choice([1, -1])


def heisenberg(c: int, weights: bool = False) -> Cdga:
    """Lambda(x, y, z) with dz = c*xy; c != 0 keeps the cohomology of
    ``heisenberg_cdga``."""
    w = (lambda v: v) if weights else (lambda v: None)
    return Cdga([("x", 1, w(1)), ("y", 1, w(1)), ("z", 1, w(2))], 3,
                {"z": [(Fraction(c), (0, 1))]})


def heisenberg_circle(c: int, weights: bool = False) -> Cdga:
    """Heisenberg x circle: Lambda(x, y, z, w) with dz = c*xy, dimension 16."""
    w = (lambda v: v) if weights else (lambda v: None)
    return Cdga([("x", 1, w(1)), ("y", 1, w(1)), ("z", 1, w(2)), ("w", 1, w(1))], 4,
                {"z": [(Fraction(c), (0, 1))]})


def _random_pair_cdga(variant: int, slot: int) -> Cdga:
    return random_cdga(1000 * variant + slot, dims=(1, 3, 3, 1))


# ---------------------------------------------------------------------------
# CLI jobs

def _write(path: Path, obj) -> str:
    path.write_text(dumps(package_to_json(obj)), encoding="utf-8")
    return str(path)


def _cli_job(kind: str, name: str, argv: list[str], report: Path) -> Job:
    def run():
        code = cli.main(argv + ["--out", str(report)])
        if code != 0:
            return code, "exit", None
        rep = json.loads(report.read_text(encoding="utf-8"))
        return code, rep["status"], rep["payload"]

    return Job(kind, name, run)


def _transfer_deep(variant: int, workdir: Path) -> Workload:
    packages = {
        "heisenberg-pair": str(GOLDEN / "heisenberg-pair.json"),
        "heisenberg-pair-weighted": str(GOLDEN / "heisenberg-pair-weighted.json"),
        "exterior3-pair": _write(workdir / "exterior3-pair.json", cdga_pair(exterior_cdga(3))),
    }
    for slot in range(2):
        packages[f"random{slot}-pair"] = _write(
            workdir / f"random{slot}-pair.json", cdga_pair(_random_pair_cdga(variant, slot)))
    # One arity-6 job per round: it took 2.2-2.7 s per job, and on a random
    # pair its cost varied from 1.6 to 2.7 s between seeds.  So five of the
    # six jobs are arity 5 (0.5-0.7 s each), and job_p50_s falls in the
    # middle of their cluster rather than on its edge.
    jobs = []
    for arity in (5, 6):
        for label, path in packages.items():
            if arity < 6 or label == "heisenberg-pair":
                jobs.append(_cli_job(
                    "transfer", f"transfer:{label}:a{arity}",
                    ["transfer", path, "--max-arity", str(arity)],
                    workdir / f"report-{label}-a{arity}.json"))
    texts = {label: Path(path).read_text(encoding="utf-8") for label, path in packages.items()}
    sizes = {label: len(json.loads(text)["algebra"]["space"]["basis"])
             for label, text in texts.items()}
    return Workload("transfer-deep", variant, jobs, sizes, texts)


def _transfer_wide(variant: int, workdir: Path) -> Workload:
    rng = random.Random(f"transfer-wide:{variant}")
    c = _coef(rng)
    # A-inf transfer to arity 6 took 1.3 s on Heisenberg x circle and 3.3 s
    # on exterior(4); the latter goes to arity 5 (0.4 s) to keep rounds short.
    algebras = {
        "exterior4": (exterior_cdga(4), 5),
        "heisenberg-circle": (heisenberg_circle(c), 6),
    }
    jobs = []
    for label, (alg, arity) in algebras.items():
        ainf = _write(workdir / f"{label}.json", alg.ainf())
        pair = _write(workdir / f"{label}-pair.json", cdga_pair(alg))
        jobs.append(_cli_job("ainf-transfer", f"transfer:{label}:a{arity}",
                             ["transfer", ainf, "--max-arity", str(arity)],
                             workdir / f"report-{label}-transfer.json"))
        jobs.append(_cli_job("check", f"check:{label}:a5",
                             ["check", ainf, "--max-arity", "5"],
                             workdir / f"report-{label}-check.json"))
        jobs.append(_cli_job("pair-transfer", f"transfer:{label}-pair:a4",
                             ["transfer", pair, "--max-arity", "4"],
                             workdir / f"report-{label}-pair.json"))
        # phi and psi are checked in a job each (0.15-1.2 s), on a transfer
        # made here in set-up: six of the ten jobs then take 0.15-0.6 s, so
        # job_p50_s lies inside that cluster, not in the gap before the
        # 0.9-1.4 s jobs.
        res = transfer_ainf(cohomology_splitting(alg.space, alg.differential_map()),
                            alg.ainf(), 4)
        for which in ("phi", "psi"):
            jobs.append(Job("morphism", f"morphism:{label}:{which}:a4",
                            _morphism_run(getattr(res, which))))
    sizes = {label: len(alg.space) for label, (alg, _) in algebras.items()}
    return Workload("transfer-wide", variant, jobs, sizes, {"c": c})


def _morphism_run(morphism):
    def run():
        report = morphism_check(morphism, 4)
        return (0 if report.ok else 1), ("pass" if report.ok else "fail"), report.to_json()

    return run


# ---------------------------------------------------------------------------
# jump ideals over Artinian rings

def _mc_element(pair, ring, rng: random.Random) -> dict:
    """omega_j = a x_j + b x_{j+1} + c x_j x_{j+1} on the H^1 basis, with
    nonzero a, b, c drawn from rng.  The algebras are transferred from zero-bracket
    dglas, so their brackets vanish and every such omega is Maurer-Cartan."""
    h1 = [e.label for e in pair.algebra.space.elements if e.deg == 1]
    omega = {}
    for j, lab in enumerate(h1):
        x, y = ring.gen(j), ring.gen((j + 1) % len(h1))
        omega[lab] = _coef(rng) * x + _coef(rng) * y + _coef(rng) * x * y
    return omega


def _unit_triangular(ring, labels, rng: random.Random, upper: bool) -> RingMatrix:
    mat = RingMatrix(ring, labels, labels)
    for r in range(len(labels)):
        for c in range(len(labels)):
            if r == c:
                mat.set(r, c, ring.one)
            elif (r < c) == upper:
                mat.set(r, c, ring.one * _coef(rng))
    return mat


def _jump_grid(pair) -> list[tuple[int, int]]:
    dims = pair.module.space.dims()
    return [(i, k) for i in sorted(dims) for k in range(1, dims[i] + 1)]


def _twist_run(pair, ring, omega):
    def run():
        _, complex_ = twist_module(pair, ring, omega)
        return 0, "ok", [{"i": i, "k": k, **complex_.jump_ideal(i, k).to_json()}
                         for i, k in _jump_grid(pair)]

    return run


def _contains_run(cases):
    def run():
        answers = [ideal.mutually_contains(moved) for ideal, moved in cases]
        ok = all(a is True for a in answers)
        return (0 if ok else 1), ("pass" if ok else "fail"), answers

    return run


def _gauge_run(alg, ring, omega, lam):
    def run():
        pair = adjoint_pair(alg)
        witness, omega2 = construct_gauge_witness(alg, ring, omega, lam)
        good, why = homotopy_witness_check(alg, ring, witness, omega, omega2)
        equal = []
        for i, k in _jump_grid(pair):
            before = jump_ideal_pair(pair, ring, omega, i, k)
            after = jump_ideal_pair(pair, ring, omega2, i, k)
            equal.append(before.mutually_contains(after))
        ok = good and all(a is True for a in equal)
        payload = {"witness": why, "end": {k: str(v) for k, v in sorted(omega2.items())},
                   "equal": equal}
        return (0 if ok else 1), ("pass" if ok else "fail"), payload

    return run


# Membership jobs per pair: order of m -> number of draws.  Mutual
# containment on exterior(3) and on Heisenberg x circle took 3-27 s per job,
# so those pairs are only twisted.  The m^3 jobs are the middle of the
# latency distribution, so job_p50_s falls inside their cluster.
_CONTAINS_DRAWS = {"heisenberg": {3: 4, 4: 2}, "random0": {3: 4, 4: 2}, "random1": {3: 4, 4: 2}}


def _signed_permutation(ring, rng: random.Random):
    """A seeded automorphism x_j -> +-x_pi(j) of the ring, as a map on elements."""
    h = ring.nvars
    perm = list(range(h))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(h)]

    def apply(elem):
        terms = {}
        for mono, coef in elem.terms.items():
            image = [0] * h
            for j, power in enumerate(mono):
                image[perm[j]] = power
                coef = coef * signs[j] ** power
            terms[tuple(image)] = coef
        return ring.element(terms)

    return apply, (perm, signs)


def _moved_ideals(pair, ring, omega, rng: random.Random) -> list:
    """(J^i_k, the same ideal after a unit-triangular change of basis) for
    the whole grid."""
    _, complex_ = twist_module(pair, ring, omega)
    cases = []
    for i, k in _jump_grid(pair):
        block = block_diag(complex_.matrix(i - 1), complex_.matrix(i))
        moved = (_unit_triangular(ring, block.rows, rng, True)
                 .compose(block)
                 .compose(_unit_triangular(ring, block.cols, rng, False)))
        size = pair.module.space.dim(i) - k + 1
        cases.append((complex_.jump_ideal(i, k), minors(moved, size)))
    return cases


def _jump_ideals(variant: int, workdir: Path) -> Workload:
    """The cost of membership varied 2.5x between draws of omega, through
    cancellations among the minors.  So omega, the changes of basis and the
    gauge data are drawn once, unseeded, and the seed moves each draw by a
    signed permutation of the variables (e -> +-e for the gauge jobs): every
    answer and input changes, the amount of work does not."""
    base = random.Random("jump-ideals")
    rng = random.Random(f"jump-ideals:{variant}")
    algebras = {
        "heisenberg": heisenberg(1),
        "exterior3": exterior_cdga(3),
        "heisenberg-circle": heisenberg_circle(1),
        "random0": _random_pair_cdga(0, 0),
        "random1": _random_pair_cdga(0, 1),
    }
    pairs = {label: transfer_pair(cdga_pair(alg), 4).pair for label, alg in algebras.items()}
    twist_jobs, contains_jobs = [], []
    inputs: dict = {}
    for label, pair in pairs.items():
        h = pair.algebra.space.dim(1)
        for order in (3, 4):
            ring = parse_ring(f"Q[x1..x{h}]/(m^{order})")
            draws = 1 + _CONTAINS_DRAWS.get(label, {}).get(order, 0)
            for draw in range(draws):
                move, inputs[f"{label}:m{order}:{draw}"] = _signed_permutation(ring, rng)
                omega = {lab: move(v) for lab, v in _mc_element(pair, ring, base).items()}
                if draw == 0:
                    twist_jobs.append(Job("twist", f"twist:{label}:m{order}",
                                          _twist_run(pair, ring, omega)))
                    continue
                contains_jobs.append(Job("contains", f"contains:{label}:m{order}:{draw}",
                                         _contains_run(_moved_ideals(pair, ring, omega, base))))
    ring = parse_ring("Q[e]/(e^4)")
    a, b, c1, c2 = (_coef(base) for _ in range(4))
    inputs["gauge"] = sign = rng.choice((1, -1))
    e = sign * ring.gen(0)
    gauge_jobs = [
        Job("gauge", "gauge:solvable", _gauge_run(solvable_dgla(), ring, {"f": a * e}, {"e": b * e})),
        Job("gauge", "gauge:affine-plane", _gauge_run(
            affine_plane_dgla(), ring, {"f1": a * e, "f2": b * e}, {"e1": c1 * e, "e2": c2 * e})),
    ]
    sizes = {label: len(alg.space) for label, alg in algebras.items()}
    return Workload("jump-ideals", variant, twist_jobs + contains_jobs + gauge_jobs,
                    sizes, inputs)


# ---------------------------------------------------------------------------
# resonance over polynomial rings

def _resonance_run(fn, pair, i, k):
    def run():
        res = fn(pair, i, k)
        ok = res.consistent
        return (0 if ok else 1), ("pass" if ok else "fail"), res.to_json()

    return run


def _tangent_cone_run(pair):
    # minors of size <= 2; the size-3 minors of exterior(4) took 0.3 s alone
    def run():
        reports = [tangent_cone_check(pair, i, k) for i, k in _jump_grid(pair)
                   if pair.module.space.dim(i) - k + 1 <= 2]
        ok = all(r.ok for r in reports)
        return (0 if ok else 1), ("pass" if ok else "fail"), [r.to_json() for r in reports]

    return run


def _dga_run(alg, i, k, seed):
    def run():
        return 0, "ok", dga_resonance_ideal(alg, i, k, seed=seed).to_json()

    return run


def _resonance(variant: int, workdir: Path) -> Workload:
    rng = random.Random(f"resonance:{variant}")
    c = _sign(rng)
    seed = rng.randrange(1000)
    heis = transfer_pair(cdga_pair(heisenberg(c, True)), 5, use_weights=True).pair
    ext4 = transfer_pair(cdga_pair(exterior_cdga(4, True)), 3, use_weights=True).pair
    circle = transfer_pair(cdga_pair(heisenberg_circle(c, True)), 4, use_weights=True).pair
    subtorus = subtorus_hypothesis_check(heis)
    if not subtorus.certified:
        raise RuntimeError("weighted Heisenberg pair lost its vanishing certificate")
    n0 = subtorus.n0
    exact = lambda p, i, k: resonance_ideal(p, i, k, n0=n0, seed=seed)
    binary = lambda p, i, k: binary_resonance_ideal(p, i, k, seed=seed)
    trunc3 = lambda p, i, k: resonance_ideal(p, i, k, trunc=3, seed=seed)
    jobs = []
    for label, pair, fn, degrees in (("heisenberg", heis, exact, (0, 1, 2, 3)),
                                     ("exterior4", ext4, binary, (1, 2, 3)),
                                     ("heisenberg-circle", circle, trunc3, (1, 2, 3))):
        for i, k in _jump_grid(pair):
            if i in degrees and pair.module.space.dim(i) - k + 1 <= 3:
                jobs.append(Job(f"resonance-{label}", f"resonance:{label}:{i}:{k}",
                                _resonance_run(fn, pair, i, k)))
    for label, pair in (("heisenberg", heis), ("exterior4", ext4), ("heisenberg-circle", circle)):
        jobs.append(Job("tangent-cone", f"tangent-cone:{label}", _tangent_cone_run(pair)))
    dgas = {"heisenberg-circle": heisenberg_circle(c).ainf(), "exterior4": exterior_cdga(4).ainf()}
    # Degree 2 took 0.5-1.9 s per job; a few such jobs per round made
    # job_tail_s jump with the number of rounds that fit in a run.
    for label, i, k in (("heisenberg-circle", 1, 1), ("heisenberg-circle", 1, 2),
                        ("exterior4", 1, 1), ("exterior4", 1, 2)):
        jobs.append(Job("dga-resonance", f"dga-resonance:{label}:{i}:{k}",
                        _dga_run(dgas[label], i, k, seed)))
    sizes = {label: len(alg.space) for label, alg in dgas.items()}
    return Workload("resonance", variant, jobs, sizes, {"c": c, "seed": seed})


_BUILDERS = {
    "transfer-deep": _transfer_deep,
    "transfer-wide": _transfer_wide,
    "jump-ideals": _jump_ideals,
    "resonance": _resonance,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[name](variant_of(seed), workdir)
