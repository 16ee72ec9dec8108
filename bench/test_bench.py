"""Self-checks of the benchmark itself (not part of the engine's test suite).

    python3 -m pytest bench/test_bench.py -q -p no:cacheprovider

Takes about two minutes: each workload runs three rounds.  Inputs and
reports go to ``.bench_out/selfcheck`` in the checkout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
RECORDED = json.loads(run.DIGESTS.read_text())
WORKDIR = run.OUT / "selfcheck"


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in tracing.LAYER_MAP]
    for workload in workloads.WORKLOADS:
        assert sorted(RECORDED[workload]) == [str(v) for v in range(workloads.VARIANTS)]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_inputs_not_sizes(name):
    one = workloads.build(name, 1, WORKDIR / name / "one")
    two = workloads.build(name, 2, WORKDIR / name / "two")
    assert one.inputs != two.inputs
    assert one.sizes == two.sizes
    assert [j.name for j in one.jobs] == [j.name for j in two.jobs]


def _traced_round(name, seed, workdir):
    workload = workloads.build(name, seed, workdir)
    loop = run.Loop(workload, RECORDED[name][str(workload.variant)])
    tracer = tracing.Tracer([workloads])
    tracer.install()
    try:
        loop.round(tracer)
    finally:
        tracer.uninstall()
    return loop, tracer


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_answers_and_work_counters_repeat(name):
    seed, workdir = 3, WORKDIR / name / "repeat"
    workload = workloads.build(name, seed, workdir)
    # the untraced round runs under the host-speed sampler, as a timed run does
    with run.HostSpeed() as host:
        untraced = run.Loop(workload, RECORDED[name][str(workload.variant)], host)
        untraced.round()
    assert len(host.samples) > len(workload.jobs)
    assert all(t > 0 for t in untraced.scaled + untraced.cpu)
    first, tracer1 = _traced_round(name, seed, workdir)
    second, tracer2 = _traced_round(name, seed, workdir)
    assert untraced.failed == first.failed == second.failed == 0, untraced.errors + first.errors
    # every recorded job passes: exit code 0 and no "fail" status
    for job in workload.jobs:
        code, status, _ = job.run()
        assert code == 0 and status not in ("fail", "exit"), (job.name, code, status)
    assert untraced.digests == first.digests == second.digests
    counts1 = {k: tracer1.counts[k] for k in tracing.COUNTERS}
    counts2 = {k: tracer2.counts[k] for k in tracing.COUNTERS}
    assert counts1 == counts2
    assert counts1["structures.violations"] == 0
    # every span is attributed to the job that caused it
    assert tracer1.spans and all(span[2] is not None for span in tracer1.spans)
