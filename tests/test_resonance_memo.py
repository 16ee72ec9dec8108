"""What a structure determines for resonance is kept on it: a pair's
universal complex per (trunc, arity cap) with its minor memos, its binary
shadow and each degree's rank oracle; a dga's H^1 representatives, complex
and oracles.  The references are the same calls on a fresh structure each
time (a new ``LInfPair`` or ``AInfAlgebra`` over the same maps, with
nothing kept), so every report must be equal whatever ran before it on
the reused one.  The certificates still run: d^2 = 0 once per complex
built, the module check of the shadow once per pair, and a pair that
fails d^2 = 0 raises on every call, with nothing kept.  Nothing outside the
structure holds it: a pair and an algebra die with their last reference.
"""

import gc
import random
import weakref

import pytest

from hse import resonance
from hse.fixtures import cdga_pair, exterior_cdga, heisenberg_cdga, random_cdga
from hse.resonance import (
    ResonanceError,
    binary_resonance_ideal,
    dga_resonance_ideal,
    resonance_ideal,
    subtorus_hypothesis_check,
    tangent_cone_check,
    universal_complex,
)
from hse.structures import AInfAlgebra, LInfPair
from hse.transfer import transfer_pair
from test_contract_power import _heisenberg_circle, minimal_pair
from test_deformation import NOT_SQUARE_ZERO, line_pair

PAIRS = ["heisenberg-pair", "heisenberg-pair-weighted", "exterior4", "heisenberg-circle",
         "random-0", "random-1"]

ALGEBRAS = {
    "heisenberg": lambda: heisenberg_cdga().ainf(),
    "exterior4": lambda: exterior_cdga(4).ainf(),
    "heisenberg-circle": lambda: _heisenberg_circle().ainf(),
    "random-0": lambda: random_cdga(0, (1, 3, 3, 1)).ainf(),
    "random-1": lambda: random_cdga(1, (1, 3, 3, 1)).ainf(),
}


def _fresh_pair(pair):
    return LInfPair(pair.algebra, pair.module)


def _fresh_algebra(alg):
    return AInfAlgebra(alg.space, alg.products)


def _grid(space):
    dims = space.dims()
    return [(i, k) for i in sorted(dims) for k in range(1, dims[i] + 1)]


def _outcome(call, structure):
    """The report of call on structure, or the error it raised."""
    try:
        return "ok", call(structure).to_json()
    except ResonanceError as exc:
        return "raised", str(exc)


def _pair_calls(pair):
    """Every resonance entry point of a pair on its whole (i, k) grid; the
    tangent cone where its minors have size <= 3 (larger ones took
    seconds each on exterior(4)).  n0 = 1 caps the arity at 2 below the
    exact complex's, so the two exact complexes differ by the arity cap
    alone."""
    rep = subtorus_hypothesis_check(pair)
    n0 = rep.n0 if rep.certified else 2
    calls = []
    for i, k in _grid(pair.module.space):
        for kw in ({"n0": n0}, {"n0": 1}, {"exact": True}, {"trunc": 3}):
            calls.append((f"resonance {i} {k} {kw}",
                          lambda p, i=i, k=k, kw=kw: resonance_ideal(p, i, k, n_samples=30, **kw)))
        calls.append((f"binary {i} {k}",
                      lambda p, i=i, k=k: binary_resonance_ideal(p, i, k, n_samples=30)))
        if pair.module.space.dim(i) - k + 1 <= 3:
            calls.append((f"tangent cone {i} {k}",
                          lambda p, i=i, k=k: tangent_cone_check(p, i, k)))
    return calls


@pytest.mark.parametrize("name", PAIRS)
def test_a_reused_pair_reports_what_a_fresh_one_does(name):
    pair = minimal_pair(name)
    calls = _pair_calls(pair)
    random.Random(name).shuffle(calls)
    want = {}
    for label, call in calls:
        want[label] = _outcome(call, _fresh_pair(pair))
        assert _outcome(call, pair) == want[label], label
    # and again, everything now kept
    for label, call in calls[::-1]:
        assert _outcome(call, pair) == want[label], label


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_a_reused_algebra_reports_what_a_fresh_one_does(name):
    alg = ALGEBRAS[name]()
    calls = [(f"dga {i} {k} seed {seed}",
              lambda a, i=i, k=k, seed=seed: dga_resonance_ideal(a, i, k, n_samples=30, seed=seed))
             for i, k in _grid(alg.space) if alg.space.dim(i) - k + 1 <= 3
             for seed in (0, 1)]
    random.Random(name).shuffle(calls)
    for label, call in calls:
        assert _outcome(call, alg) == _outcome(call, _fresh_algebra(alg)), label


def test_one_universal_complex_per_trunc_and_arity_cap():
    pair = minimal_pair("heisenberg-pair")
    top = max(pair.module.actions)
    assert top > 2
    exact = universal_complex(pair, exact=True)
    # the same (trunc, arity cap), asked for in other words
    assert universal_complex(pair, exact=True) is exact
    assert universal_complex(pair, n0=top - 1) is exact
    assert universal_complex(pair, n0=top + 5) is exact
    assert universal_complex(pair, trunc=3, n0=1) is universal_complex(pair, trunc=3, n0=1)
    # different keys, different complexes
    complexes = [exact, universal_complex(pair, n0=1), universal_complex(pair, trunc=3),
                 universal_complex(pair, trunc=3, n0=1), universal_complex(pair, trunc=4),
                 universal_complex(resonance._binary_shadow(pair), exact=True)]
    assert len({id(c) for c in complexes}) == len(complexes)
    assert [(c.mode, c.arity_cap) for c in complexes[:5]] == [
        ("exact", top), ("exact", 2), ("truncated", min(top, 4)), ("truncated", 2),
        ("truncated", min(top, 5))]


def test_each_complex_built_is_checked_once(monkeypatch):
    checked = []
    real = resonance.UniversalComplex.validate_square_zero

    def counting(self):
        checked.append(self)
        return real(self)

    monkeypatch.setattr(resonance.UniversalComplex, "validate_square_zero", counting)
    pair = minimal_pair("heisenberg-pair-weighted")
    for i, k in _grid(pair.module.space):
        resonance_ideal(pair, i, k, exact=True, n_samples=5)
        resonance_ideal(pair, i, k, trunc=3, n_samples=5)
    assert len(checked) == 2
    assert universal_complex(pair, exact=True) is checked[0]
    alg = heisenberg_cdga().ainf()
    for i, k in _grid(alg.space):
        if alg.space.dim(i) - k + 1 <= 3:
            dga_resonance_ideal(alg, i, k, n_samples=5)
    assert len(checked) == 3


@pytest.mark.parametrize("kw", [{"trunc": 3}, {"exact": True}])
def test_a_pair_failing_square_zero_raises_on_every_call(kw):
    pair = line_pair(NOT_SQUARE_ZERO)
    for _ in range(2):
        with pytest.raises(ResonanceError, match=r"fails d\^2 = 0"):
            resonance_ideal(pair, 1, 1, **kw)
    assert not pair.memo


def test_kept_state_dies_with_its_structure():
    pair = transfer_pair(cdga_pair(heisenberg_cdga()), 4).pair
    alg = heisenberg_cdga().ainf()
    for i, k in _grid(pair.module.space):
        if pair.module.space.dim(i) - k + 1 <= 2:
            resonance_ideal(pair, i, k, exact=True, n_samples=10)
            binary_resonance_ideal(pair, i, k, n_samples=10)
            tangent_cone_check(pair, i, k)
    for i, k in ((1, 1), (1, 2), (2, 1)):
        dga_resonance_ideal(alg, i, k, n_samples=10)
    assert pair.memo and alg.memo
    refs = [weakref.ref(pair), weakref.ref(alg)]
    del pair, alg
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
