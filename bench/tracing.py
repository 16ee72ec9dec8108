"""Spans and work counters for the benchmark's traced run.

The traced run wraps the public functions listed in ``SPANS`` at every
module attribute they are resolved through: the ``hse`` modules (so a call
from one layer into another, such as ``transfer_pair -> transfer_linf ->
jacobi_check`` or ``Ideal.mutually_contains -> Ideal.contains ->
linalg.in_span``, is seen) and the benchmark's own job module.  Nothing under
``src/`` changes; the wrappers are removed again after each traced round, so
untraced rounds run the unmodified functions.

A span records its name, start, end, parent span and job.  The spans of
the first traced round are kept in memory and written out when the run
ends; later rounds only add to the totals.  A layer's time metric is its
self time: the span's duration minus the durations of its child spans.
Counts come from the values the wrapped calls return (or their arguments,
for the number of minors a call evaluates) and from ``cache_info()`` of the
``signs`` memo tables, which the runner clears before every job.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter, defaultdict
from math import comb
from pathlib import Path
from time import perf_counter

from hse import signs

SIGN_CACHES = (signs.perm_sign, signs._koszul_core, signs.unshuffles, signs.all_permutations)


def reset_signs() -> None:
    for fn in SIGN_CACHES:
        fn.cache_clear()


def sign_cache_counts() -> tuple[int, int]:
    infos = [fn.cache_info() for fn in SIGN_CACHES]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def _entries(maps: dict) -> int:
    return sum(len(row) for n, mm in maps.items() if n >= 2 for _, row in mm.entries())


def _count_linf(counts, result, args, kwargs):
    counts["transfer.kernel_entries"] += _entries(result.cache.p)
    counts["transfer.output_entries"] += _entries(result.algebra.brackets)


def _count_check(counts, result, args, kwargs):
    counts["structures.checks"] += 1
    counts["structures.violations"] += len(result.violations)


def _count_report(counts, result, args, kwargs):
    counts["io_json.report_bytes"] += len(result.encode("utf-8"))


def _count_minors(counts, result, args, kwargs):
    matrix, r = args
    rows, cols = matrix.shape()
    if 0 < r <= min(rows, cols):
        counts["rings.minors_evaluated"] += comb(rows, r) * comb(cols, r)
        counts["rings.minors_nonzero"] += len(result.generators)
    counts["rings.ideal_generators"] += len(result.generators)


def _count_samples(counts, result, args, kwargs):
    counts["resonance.oracle_points"] += len(result.samples)


def _calls(metric):
    def count(counts, result, args, kwargs):
        counts[metric] += 1

    return count


# (time metric, wrapped functions as "module:attribute", counter hook or None)
SPANS = (
    ("cli.self_s", ("cli:main",), None),
    ("io_json.parse_s", ("io_json:parse_structure",), None),
    ("io_json.emit_s", ("io_json:dumps",), _count_report),
    ("transfer.pair_s", ("transfer:transfer_pair",), None),
    ("transfer.linf_s", ("transfer:transfer_linf",), _count_linf),
    ("transfer.ainf_s", ("transfer:transfer_ainf",), None),
    ("transfer.split_s", ("transfer:cohomology_splitting",), None),
    ("multimap.tensor_compose_s", ("multimap:tensor_compose",), None),
    ("multimap.evaluate_s", ("multimap:evaluate_on_vectors",), _calls("multimap.evaluate_calls")),
    ("structures.jacobi_s", ("structures:jacobi_check",), _count_check),
    ("structures.module_s", ("structures:module_check",), _count_check),
    ("structures.stasheff_s", ("structures:stasheff_check",), _count_check),
    ("structures.morphism_s", ("structures:morphism_check",), _count_check),
    ("deformation.twist_s", ("deformation:twist_module",), None),
    ("deformation.mc_check_s", ("deformation:mc_check",), None),
    ("deformation.gauge_s", ("deformation:construct_gauge_witness",
                             "deformation:homotopy_witness_check"), None),
    ("deformation.jump_ideal_s", ("deformation:TwistedComplex.jump_ideal",), None),
    ("rings.contains_s", ("rings:Ideal.mutually_contains",), None),
    ("rings.contains_s", ("rings:Ideal.contains",), _calls("rings.contains_calls")),
    ("rings.minors_s", ("rings:minors",), _count_minors),
    ("rings.elem_evaluate_s", ("rings:RElem.evaluate",), None),
    ("linalg.in_span_s", ("linalg:in_span",), _calls("linalg.in_span_calls")),
    ("linalg.rank_s", ("linalg:rank",), _calls("linalg.rank_calls")),
    ("resonance.universal_complex_s", ("resonance:universal_complex",), None),
    ("resonance.oracle_s", ("resonance:twisted_cohomology_dim",
                            "resonance:pointwise_twisted_matrices"), None),
    ("resonance.ideal_s", ("resonance:resonance_ideal",), _count_samples),
    ("resonance.ideal_s", ("resonance:binary_resonance_ideal",), None),
    ("resonance.tangent_cone_s", ("resonance:tangent_cone_check",), None),
    ("resonance.dga_s", ("resonance:dga_resonance_ideal",), _count_samples),
)

# Every per-layer metric with its unit, the direction that is better, and the
# end-to-end metrics and workloads it should move.  Every other
# (end-to-end metric, workload) pair is predicted unchanged by a change to
# that layer.
DEEP, WIDE, JUMP, RES = "transfer-deep", "transfer-wide", "jump-ideals", "resonance"
_DEEP_MOVES = ("job_tail_s", "jobs_per_s"), (DEEP, "setup_s:" + JUMP, "setup_s:" + RES)
_CERT_MOVES = ("job_p50_s", "jobs_per_s"), (DEEP,)
_WIDE_MOVES = ("jobs_per_s", "job_tail_s"), (WIDE,)
_CLI_MOVES = ("job_p50_s",), (DEEP, WIDE)
_MEMBER_MOVES = ("jobs_per_s", "job_tail_s"), (JUMP,)
_TWIST_MOVES = ("job_p50_s",), (JUMP,)
_MINOR_MOVES = ("jobs_per_s",), (RES, JUMP)
_RES_MOVES = ("job_p50_s", "jobs_per_s"), (RES,)
LAYER_MAP = (
    ("transfer.linf_s", "s", "lower", _DEEP_MOVES),
    ("transfer.pair_s", "s", "lower", _DEEP_MOVES),
    ("transfer.kernel_entries", "count", "lower", _DEEP_MOVES),
    ("transfer.yield", "ratio", "higher", _DEEP_MOVES),
    ("signs.cache_hits", "count", "higher", _DEEP_MOVES),
    ("signs.cache_misses", "count", "lower", _DEEP_MOVES),
    ("structures.jacobi_s", "s", "lower", _CERT_MOVES),
    ("structures.module_s", "s", "lower", _CERT_MOVES),
    ("structures.checks", "count", "higher", _CERT_MOVES),
    ("structures.violations", "count", "lower", _CERT_MOVES),
    ("transfer.ainf_s", "s", "lower", _WIDE_MOVES),
    ("transfer.split_s", "s", "lower", _WIDE_MOVES),
    ("multimap.tensor_compose_s", "s", "lower", _WIDE_MOVES),
    ("structures.stasheff_s", "s", "lower", _WIDE_MOVES),
    ("structures.morphism_s", "s", "lower", _WIDE_MOVES),
    ("cli.self_s", "s", "lower", _CLI_MOVES),
    ("io_json.parse_s", "s", "lower", _CLI_MOVES),
    ("io_json.emit_s", "s", "lower", _CLI_MOVES),
    ("io_json.report_bytes", "B", "lower", _CLI_MOVES),
    ("rings.contains_s", "s", "lower", _MEMBER_MOVES),
    ("rings.contains_calls", "count", "lower", _MEMBER_MOVES),
    ("linalg.in_span_s", "s", "lower", _MEMBER_MOVES),
    ("linalg.in_span_calls", "count", "lower", _MEMBER_MOVES),
    ("deformation.twist_s", "s", "lower", _TWIST_MOVES),
    ("deformation.mc_check_s", "s", "lower", _TWIST_MOVES),
    ("deformation.gauge_s", "s", "lower", _TWIST_MOVES),
    ("deformation.jump_ideal_s", "s", "lower", _TWIST_MOVES),
    ("multimap.evaluate_s", "s", "lower", _TWIST_MOVES),
    ("multimap.evaluate_calls", "count", "lower", _TWIST_MOVES),
    ("rings.minors_s", "s", "lower", _MINOR_MOVES),
    ("rings.minors_evaluated", "count", "lower", _MINOR_MOVES),
    ("rings.minors_nonzero_ratio", "ratio", "higher", _MINOR_MOVES),
    ("rings.ideal_generators", "count", "lower", _MINOR_MOVES),
    ("resonance.universal_complex_s", "s", "lower", _RES_MOVES),
    ("resonance.oracle_s", "s", "lower", _RES_MOVES),
    ("resonance.oracle_points", "count", "higher", _RES_MOVES),
    ("resonance.ideal_s", "s", "lower", _RES_MOVES),
    ("resonance.tangent_cone_s", "s", "lower", _RES_MOVES),
    ("resonance.dga_s", "s", "lower", _RES_MOVES),
    ("rings.elem_evaluate_s", "s", "lower", _RES_MOVES),
    ("linalg.rank_s", "s", "lower", _RES_MOVES),
    ("linalg.rank_calls", "count", "lower", _RES_MOVES),
    ("trace.overhead_ratio", "ratio", "lower", ((), ())),
)
COUNTERS = ("transfer.kernel_entries", "transfer.output_entries", "signs.cache_hits",
            "signs.cache_misses", "structures.checks", "structures.violations",
            "io_json.report_bytes", "rings.contains_calls", "linalg.in_span_calls",
            "multimap.evaluate_calls", "rings.minors_evaluated", "rings.minors_nonzero",
            "rings.ideal_generators", "resonance.oracle_points", "linalg.rank_calls")


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.spans: list[tuple] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.job = None
        self.keep_spans = True
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _wrap(self, metric, fn, hook):
        stack, spans, self_time, counts, ids = (
            self._stack, self.spans, self.self_time, self.counts, self._ids)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_time[metric] += duration - frame[1]
                if self.keep_spans:
                    spans.append((frame[0], parent, self.job, fn.__qualname__, start, end))
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "hse" or n.startswith("hse.")]
        modules += self.extra_modules
        for metric, names, hook in SPANS:
            for qualified in names:
                mod_name, attr = qualified.split(":")
                module = sys.modules[f"hse.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = vars(owner)[meth]
                    self._patch(owner, meth, self._wrap(metric, original, hook))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(metric, original, hook)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def end_job(self) -> None:
        hits, misses = sign_cache_counts()
        self.counts["signs.cache_hits"] += hits
        self.counts["signs.cache_misses"] += misses

    def metrics(self, rounds: int, traced_wall: float, untraced_wall: float) -> dict:
        """Per-round totals of every metric in LAYER_MAP."""
        c = self.counts
        values = {metric: self.self_time.get(metric, 0.0) / rounds
                  for metric, unit, _, _ in LAYER_MAP if unit == "s"}
        values.update({name: c[name] / rounds for name in COUNTERS})
        values["transfer.yield"] = (c["transfer.output_entries"] / c["transfer.kernel_entries"]
                                    if c["transfer.kernel_entries"] else 0.0)
        values["rings.minors_nonzero_ratio"] = (c["rings.minors_nonzero"] / c["rings.minors_evaluated"]
                                                if c["rings.minors_evaluated"] else 0.0)
        values["trace.overhead_ratio"] = traced_wall / untraced_wall
        return {metric: {"value": values[metric], "unit": unit}
                for metric, unit, _, _ in LAYER_MAP}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, parent, job, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "job": job,
                                      "name": name, "start": start, "end": end}) + "\n")
