"""The public surface stays put: ``hse.__all__`` is pinned, so are the
parameter names of every callable in it (a knob added or removed shows up
as an edit of ``SIGNATURES``), and every engine function the benchmark's
tracer wraps (bench/tracing.py ``SPANS``) still resolves, since its
``install()`` fails on a missing name."""

import importlib
import importlib.util
import inspect
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

# name -> its parameter names, in order (a class: those of its constructor)
SIGNATURES = {
    "AInfAlgebra": ("space", "products"),
    "BasisElement": ("label", "deg", "weight"),
    "CoefRing": ("kind", "varnames", "order", "trunc"),
    "GradedSpace": ("elements",),
    "Ideal": ("ring", "generators", "provenance"),
    "InfMorphism": ("kind", "source", "target", "components"),
    "LInfAlgebra": ("space", "brackets"),
    "LInfModule": ("algebra", "space", "actions"),
    "LInfPair": ("algebra", "module"),
    "MultiMap": ("space_in", "space_out", "arity", "shift", "symmetry"),
    "RingMatrix": ("ring", "rows", "cols", "data"),
    "algebra_to_module": ("alg", "module_space"),
    "antisym_sign": ("sigma", "degrees"),
    "antisymmetrize": ("alg",),
    "block_permutations": ("profile", "n", "min_first"),
    "cohomology_splitting": ("space", "differential", "use_weights", "label_prefix"),
    "compose_multimaps": ("outer", "inner", "slot"),
    "def_ik_membership": ("pair", "ring", "omega", "i", "k"),
    "dga_resonance_ideal": ("alg", "i", "k", "n_samples", "seed"),
    "homotopy_witness_check": ("alg", "ring", "witness", "omega1", "omega2"),
    "jacobi_check": ("alg", "max_arity"),
    "koszul_sign": ("sigma", "degrees"),
    "mc_check": ("alg", "ring", "omega"),
    "minors": ("matrix", "r"),
    "module_check": ("module", "max_arity"),
    "morphism_check": ("mor", "max_arity"),
    "pair_to_algebra": ("pair",),
    "parse_ring": ("descriptor",),
    "resonance_ideal": ("pair", "i", "k", "trunc", "exact", "n0", "n_samples", "seed"),
    "stasheff_check": ("alg", "max_arity"),
    "subtorus_hypothesis_check": ("pair",),
    "tangent_cone_check": ("pair", "i", "k", "trunc"),
    "tangent_space": ("pair", "i", "k"),
    "transfer_ainf": ("diagram", "source", "max_arity"),
    "transfer_linf": ("diagram", "source", "max_arity"),
    "transfer_pair": ("pair", "max_arity", "use_weights"),
    "twist_algebra": ("alg", "ring", "omega"),
    "twist_module": ("pair", "ring", "omega"),
    "unshuffles": ("i", "n"),
    "vanishing_bound": ("pair",),
}

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_public_names_are_pinned():
    assert hse.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(hse, name) is not None


def test_public_signatures_are_pinned():
    assert list(SIGNATURES) == PUBLIC
    for name, params in SIGNATURES.items():
        assert tuple(inspect.signature(getattr(hse, name)).parameters) == params, name


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
