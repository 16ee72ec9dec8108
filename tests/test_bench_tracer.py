"""The benchmark's tracer wraps engine functions by name, so a renamed or
moved function breaks a traced bench run, and its counter hooks read the
fields of what those functions return.  This guard installs and removes
the tracer, and runs the hooks on real results, in the fast suite, where
such a break shows at once."""

import importlib.util
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hse.cli  # noqa: F401  (loads every module the tracer wraps)
from hse.fixtures import cdga_pair, heisenberg_cdga
from hse.structures import LInfAlgebra, jacobi_check, pair_to_algebra
from hse.transfer import _direct_sum_diagrams, pair_splitting, transfer_linf

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped(tracing) -> dict:
    """Every function the tracer wraps, as its module or class holds it."""
    found = {}
    for _, names, _ in tracing.SPANS:
        for qualified in names:
            mod_name, attr = qualified.split(":")
            owner = sys.modules[f"hse.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            found[qualified] = vars(owner)[attr]
    return found


def test_tracer_installs_and_uninstalls_on_the_engine():
    tracing = _load_tracing()
    before = _wrapped(tracing)
    tracer = tracing.Tracer([])
    tracer.install()
    try:
        during = _wrapped(tracing)
        assert all(during[name] is not fn for name, fn in before.items())
    finally:
        tracer.uninstall()
    assert _wrapped(tracing) == before
    assert all(hasattr(fn, "cache_info") for fn in tracing.SIGN_CACHES)


def test_counter_hooks_read_a_real_transfer_and_check():
    # the hooks read KernelCache.p and CheckReport fields: a reshaped one
    # must fail here, not only in the benchmark's own suite
    tracing = _load_tracing()
    pair = cdga_pair(heisenberg_cdga())
    result = transfer_linf(_direct_sum_diagrams(*pair_splitting(pair)), pair_to_algebra(pair), 4)
    counts = Counter()
    tracing._count_linf(counts, result, (), {})
    entries = sum(len(row) for n, mm in result.cache.p.items() if n >= 2
                  for row in mm.table.values())
    assert counts["transfer.kernel_entries"] == entries > 0
    assert counts["transfer.output_entries"] == sum(
        len(row) for n, mm in result.algebra.brackets.items() if n >= 2
        for row in mm.table.values()) > 0

    tracing._count_check(counts, result.certificate, (), {})
    assert counts["structures.checks"] == 1 and counts["structures.violations"] == 0
    l2 = result.algebra.brackets[2]
    key = min(l2.table)
    l2.add(key, min(l2.table[key]), Fraction(1))
    failed = jacobi_check(LInfAlgebra(result.algebra.space, result.algebra.brackets), 4)
    tracing._count_check(counts, failed, (), {})
    assert counts["structures.checks"] == 2
    assert counts["structures.violations"] == len(failed.violations) > 0
