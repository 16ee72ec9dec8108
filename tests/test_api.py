"""The public surface stays put: ``hse.__all__`` is pinned, and every engine
function the benchmark's tracer wraps (bench/tracing.py ``SPANS``) still
resolves, since its ``install()`` fails on a missing name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import hse

PUBLIC = [
    "AInfAlgebra", "BasisElement", "CoefRing", "GradedSpace", "Ideal",
    "InfMorphism", "LInfAlgebra", "LInfModule", "LInfPair", "MultiMap",
    "RingMatrix", "algebra_to_module", "antisym_sign", "antisymmetrize",
    "block_permutations", "cohomology_splitting", "compose_multimaps",
    "def_ik_membership", "dga_resonance_ideal", "homotopy_witness_check",
    "jacobi_check", "koszul_sign", "mc_check", "minors", "module_check",
    "morphism_check", "pair_to_algebra", "parse_ring", "resonance_ideal",
    "stasheff_check", "subtorus_hypothesis_check", "tangent_cone_check",
    "tangent_space", "transfer_ainf", "transfer_linf", "transfer_pair",
    "twist_algebra", "twist_module", "unshuffles", "vanishing_bound",
]

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_public_names_are_pinned():
    assert hse.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(hse, name) is not None


@pytest.mark.skipif(not TRACING.exists(), reason="no benchmark tracer in this checkout")
def test_traced_engine_functions_resolve():
    spec = importlib.util.spec_from_file_location("_hse_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [q for _, qualified, _ in tracing.SPANS for q in qualified]
    assert "multimap:tensor_compose" in names
    assert "multimap:evaluate_on_vectors" in names
    for qualified in names:
        mod_name, attr = qualified.split(":")
        owner = importlib.import_module(f"hse.{mod_name}")
        *classes, name = attr.split(".")
        for part in classes:
            owner = getattr(owner, part)
        if classes:
            # install() patches vars(Class)[method]: an inherited method is not there
            assert name in vars(owner), qualified
        assert callable(getattr(owner, name)), qualified
    assert all(hasattr(cache, "cache_clear") for cache in tracing.SIGN_CACHES)
