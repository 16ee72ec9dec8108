"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload transfer-deep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; ``hse`` is imported from ``src/`` of that
checkout, with ``HSE_THREADS`` removed from the environment so the default
serial program is measured.  Load is one client in a closed loop on one
thread: the jobs of a round run one after another, and whole rounds repeat
(at least ``MIN_ROUNDS``) while another round still fits in ``--seconds``.

Set-up (importing ``hse``, building the seeded inputs and minimal pairs, one
untimed warm-up job per job kind) is done ``SETUP_REPS`` times; ``setup_s``
is the import time plus the median set-up time.  Every job's exit code,
status and canonical payload are digested and compared with the digest
recorded at the seed commit in ``digests.json``; a job that raises, exits
non-zero, reports ``fail`` or returns another digest fails.

``jobs_per_s`` is the jobs with a correct result per second of job time,
``job_p50_s`` the median job latency, ``job_tail_s`` the latency at the
highest percentile with ``TAIL_BEYOND`` samples beyond it in ``MIN_ROUNDS``
rounds, and ``cpu_per_job_s`` the CPU seconds (process and children) per
job.

Every time in the end-to-end metrics is scaled to the speed of an
uncontended core.  On a shared host the same job runs up to 1.6x slower
while other tenants load the core, in spells from milliseconds to minutes,
so raw times of identical runs spread by 25-40%.  ``HostSpeed`` times the
fixed loop ``reference()`` every ``SAMPLE_EVERY_S`` from a timer signal,
also while a job runs, and once more after it; the job's wall and CPU time,
less the time those samples took, are multiplied by ``REFERENCE_S`` over
their mean.  Set-up is scaled the same way.  The loop is the benchmark's
own code, so a change to ``hse`` moves the job times and not the yardstick.
The raw wall times and the mean sample are on the details line.  Per-layer
times are raw, and traced runs take only the sample after each job.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced and traced rounds alternate, and the last line
reports the per-layer metrics of ``tracing.LAYER_MAP`` as totals per traced
round; the spans are written to ``.bench_out/``.  The line before the last
records the workload variant, commit, source digest, Python version,
``nproc``, the tail percentile and the job digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPS = 3
MIN_ROUNDS = 4
TAIL_BEYOND = 10
# A warm reference() takes 115-125 us on an uncontended vCPU of a 2-vCPU
# Xeon VM (Python 3.11), and up to 1.7 times that while the host loads it.
REFERENCE_S = 120e-6
SAMPLE_EVERY_S = 0.01


def reference() -> None:
    """A fixed loop of exact rational arithmetic, the yardstick of host speed."""
    total = Fraction(0)
    for i in range(1, 50):
        total += Fraction(i % 7 - 3, i)


class HostSpeed:
    """Samples the host's speed: while entered, a SIGALRM timer times
    ``reference()`` every SAMPLE_EVERY_S, between the bytecodes of whatever
    job is running.  Each sample runs the loop twice and times the second
    run, so that the caches the job left cold do not count."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent: list[float] = []  # the whole time each sample took

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference()
        warm = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent.append(end - start)

    def __enter__(self) -> "HostSpeed":
        self._handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def scale(self, first: int, *seconds: float) -> list[float]:
        """Times measured since sample ``first``, less the time the samples
        took meanwhile, scaled to an uncontended core by REFERENCE_S over the
        mean of those samples and of one taken now."""
        spent = sum(self.spent[first:])
        self.sample()
        taken = self.samples[first:]
        factor = REFERENCE_S * len(taken) / sum(taken)
        return [(t - spent) * factor for t in seconds]


def digest(code: int, status: str, payload) -> str:
    canon = json.dumps({"code": code, "status": status, "payload": payload},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def cpu_seconds() -> float:
    """User and system CPU seconds of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_job(job, tracer=None) -> tuple[float, float, str | None, str | None]:
    """Run one job; returns (wall seconds, CPU seconds, digest or None,
    error text or None), both times as measured, unscaled.

    Every job's answer is expected to pass, so a job that raises, exits
    non-zero or reports ``fail`` returns an error."""
    from tracing import reset_signs

    reset_signs()
    if tracer is not None:
        tracer.job = job.name
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        code, status, payload = job.run()
    except Exception:
        return time.perf_counter() - start, cpu_seconds() - cpu, None, traceback.format_exc()
    latency = time.perf_counter() - start
    cpu = cpu_seconds() - cpu
    if tracer is not None:
        tracer.end_job()
    got = digest(code, status, payload)
    if code != 0 or status in ("fail", "exit"):
        return latency, cpu, got, f"{job.name}: exit code {code}, status {status!r}"
    return latency, cpu, got, None


class Loop:
    """Runs rounds of a workload's jobs and keeps latencies and failures.

    ``wall`` holds each job's raw latencies; ``scaled`` and ``cpu`` hold
    the latencies and CPU seconds of every job run, scaled by ``host``."""

    def __init__(self, workload, expected: dict, host: HostSpeed | None = None):
        self.workload = workload
        self.expected = expected
        self.host = host or HostSpeed()
        self.wall: dict[str, list[float]] = defaultdict(list)
        self.scaled: list[float] = []
        self.cpu: list[float] = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str | None] = {}
        self.errors: list[str] = []

    def round(self, tracer=None) -> float:
        """Runs every job once; returns the round's scaled job time."""
        total = 0.0
        for job in self.workload.jobs:
            first = len(self.host.samples)
            latency, cpu, got, error = run_job(job, tracer)
            self.wall[job.name].append(latency)
            latency, cpu = self.host.scale(first, latency, cpu)
            total += latency
            self.attempted += 1
            self.scaled.append(latency)
            self.cpu.append(cpu)
            self.digests[job.name] = got
            if error is not None or got != self.expected.get(job.name):
                self.failed += 1
                self.errors.append(error or f"{job.name}: digest {got} != "
                                   f"recorded {self.expected.get(job.name)}")
        self.rounds += 1
        return total

    def metrics(self) -> dict:
        return {
            "jobs_per_s": {"value": (self.attempted - self.failed) / sum(self.scaled),
                           "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(self.scaled), "unit": "s"},
            "job_tail_s": {"value": tail(self.scaled, len(self.workload.jobs))[0], "unit": "s"},
            "cpu_per_job_s": {"value": sum(self.cpu) / self.attempted, "unit": "s"},
        }


def tail(latencies: list[float], jobs_per_round: int) -> tuple[float, float, int]:
    """(latency, percentile, samples) at the highest percentile with
    TAIL_BEYOND samples beyond it in a run of MIN_ROUNDS rounds.

    The percentile depends only on the job list, not on how many rounds fit
    in a run, so it picks the same place in the latency distribution on
    every run; a run with more rounds has more samples beyond it."""
    floor = MIN_ROUNDS * jobs_per_round
    ordered = sorted(latencies)
    index = max(-(-(floor - TAIL_BEYOND) * len(ordered) // floor) - 1, 0)
    return ordered[index], 100.0 * (floor - TAIL_BEYOND) / floor, len(ordered)


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hse").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hse" / "__init__.py").is_file():
        sys.stderr.write(f"error: no hse sources under {ROOT / 'src'}\n")
        return 2
    os.environ.pop("HSE_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))

    # Traced rounds are not sampled, so that spans time the engine alone.
    host = HostSpeed()
    with nullcontext(host) if args.trace else host:
        return measure(args, host)


def measure(args, host: HostSpeed) -> int:
    started = time.perf_counter()
    import hse  # noqa: F401  (timed as part of set-up)
    import tracing
    import workloads
    import_s, = host.scale(0, time.perf_counter() - started)

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    expected = recorded[args.workload][str(workloads.variant_of(args.seed))]

    workdir = OUT / f"{args.workload}-seed{args.seed}"
    setup_times = []
    for _ in range(SETUP_REPS):
        first = len(host.samples)
        start = time.perf_counter()
        workload = workloads.build(args.workload, args.seed, workdir)
        warmed = set()
        for job in workload.jobs:
            if job.kind not in warmed:
                warmed.add(job.kind)
                run_job(job)
        setup_times += host.scale(first, time.perf_counter() - start)

    loop = Loop(workload, expected, host)
    start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer([workloads])
        traced_s, untraced_s = 0.0, 0.0  # scaled job time of each kind of round
        while True:
            untraced_s += loop.round()
            tracer.install()
            try:
                traced_s += loop.round(tracer)
            finally:
                tracer.uninstall()
            tracer.keep_spans = False
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 2 / loop.rounds) > args.seconds:
                break
        metrics = tracer.metrics(loop.rounds // 2, traced_s, untraced_s)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        while True:
            loop.round()
            elapsed = time.perf_counter() - start
            if loop.rounds >= MIN_ROUNDS and elapsed * (1 + 1 / loop.rounds) > args.seconds:
                break
        metrics = loop.metrics()
        metrics["setup_s"] = {"value": import_s + statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}

    for error in loop.errors[:3]:
        sys.stderr.write(error + "\n")
    latencies = [x for values in loop.wall.values() for x in values]
    _, tail_pct, samples = tail(latencies, len(workload.jobs))
    details = {
        "workload": args.workload, "seed": args.seed, "variant": workload.variant,
        "rounds": loop.rounds, "jobs_per_round": len(workload.jobs),
        "job_tail_s": {"percentile": tail_pct, "samples": samples, "beyond": TAIL_BEYOND},
        "commit": commit(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "reference_s": {"mean": statistics.mean(host.samples), "samples": len(host.samples)},
        "digests": loop.digests,
        "job_wall_s": loop.wall,
    }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
