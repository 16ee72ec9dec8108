"""The benchmark's tracer wraps engine functions by name, so a renamed or
moved function breaks a traced bench run.  This guard installs and removes
the tracer in the fast suite, where such a break shows at once."""

import importlib.util
import sys
from pathlib import Path

import hse.cli  # noqa: F401  (loads every module the tracer wraps)

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
