"""Tables written through ``MultiMap.store`` against tables built entry by
entry through ``MultiMap.add``.

The parser checks each key once (it must already be in stored, sorted
form) and stores its terms with no second scan; the L (+) M of a pair
(``structures._direct_sum``) and ``algebra_to_module``'s split copy keys
that are in stored form by construction.  Each must give the table ``add``
gives: equal as a mapping, with the same coefficient types (an int when
integral, else a Fraction), and the same ``denominator()``.  The inputs
cover an entry that lists one output label twice and cancels, a "0"
coefficient, rational coefficients and rationals that sum to an int.

The second half pins every error message of the package parser that the
CLI tests do not already pin, in full.
"""

import copy
import json
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from hse.fixtures import cdga_pair
from hse.grading import GradedSpace
from hse.io_json import ParseError, mc_from_json, multimap_from_json, parse_structure
from hse.multimap import MultiMap
from hse.scalars import parse_scalar
from hse.structures import (
    LInfAlgebra,
    LInfPair,
    algebra_to_module,
    pair_to_algebra,
)
from hse.transfer import _direct_sum_diagrams, pair_splitting, transfer_linf
from test_scalar_form import heisenberg_circle

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
PACKAGES = {path.name: json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(FIXTURES.glob("*.json"))}


def _edge_pair() -> dict:
    """The Heisenberg pair with edge cases in both halves: an output label
    listed twice that cancels, a "0" coefficient, rationals, and rationals
    summing to an int."""
    data = copy.deepcopy(PACKAGES["heisenberg-pair.json"])
    d1 = data["algebra"]["maps"]["1"]["entries"]
    d1[0]["out"] = [{"label": o["label"], "coef": "2/3"} for o in d1[0]["out"]]
    m2 = data["module"]["maps"]["2"]["entries"]
    first, second, third = m2[0], m2[1], m2[2]
    lab = first["out"][0]["label"]
    first["out"] = [{"label": lab, "coef": "1/2"}, {"label": lab, "coef": "-1/2"}]
    lab = second["out"][0]["label"]
    second["out"] = [{"label": lab, "coef": "1/2"}, {"label": lab, "coef": 1},
                     {"label": lab, "coef": "1/2"}]
    third["out"] = [{**third["out"][0], "coef": "-5/4"}, {**third["out"][0], "coef": "0"}]
    return data


def _added(data: dict, space_in: GradedSpace, space_out: GradedSpace) -> MultiMap:
    """A JSON map built entry by entry through ``MultiMap.add``."""
    mm = MultiMap(space_in, space_out, data["arity"], data["shift"],
                  data.get("symmetry", "none"))
    for entry in data["entries"]:
        for out in entry.get("out", []):
            mm.add(tuple(entry["in"]), out["label"], parse_scalar(str(out.get("coef", "0"))))
    return mm


def _types(mm: MultiMap) -> dict:
    return {(key, lab): type(c) for key, row in mm.table.items() for lab, c in row.items()}


def _recounted(mm: MultiMap) -> int:
    """The lcm of the stored denominators, counted afresh."""
    return lcm(*(c.denominator for row in mm.table.values() for c in row.values()
                 if type(c) is Fraction))


def _assert_same(got: MultiMap, want: MultiMap) -> None:
    assert got.table == want.table
    assert _types(got) == _types(want)
    assert got.denominator() == want.denominator() == _recounted(want)
    assert all(type(c) is int or type(c) is Fraction and c.denominator > 1
               for row in got.table.values() for c in row.values())


def _parsed_against_added(data: dict, parsed) -> list[MultiMap]:
    """Compare every map of a parsed package with its add-built table;
    return the parsed maps."""
    if data["kind"] == "pair":
        module = {**data["module"], "kind": "module", "algebra_ref": data["algebra"]}
        return (_parsed_against_added(data["algebra"], parsed.algebra)
                + _parsed_against_added(module, parsed.module))
    if data["kind"] == "module":
        maps, space_in, space_out = parsed.actions, parsed.combined, parsed.space
    else:
        maps = parsed.products if data["kind"] == "ainf" else parsed.brackets
        space_in = space_out = parsed.space
    seen = []
    for key, raw in data["maps"].items():
        want = _added(raw, space_in, space_out)
        if want.is_zero():
            assert int(key) not in maps
            continue
        _assert_same(maps[int(key)], want)
        seen.append(maps[int(key)])
    return seen


@pytest.mark.parametrize("name", sorted(PACKAGES) + ["edge-pair"])
def test_parsed_maps_equal_their_entry_by_entry_tables(name):
    data = _edge_pair() if name == "edge-pair" else PACKAGES[name]
    maps = _parsed_against_added(data, parse_structure(copy.deepcopy(data)))
    assert maps


def test_the_edge_pair_covers_its_cases():
    pair = parse_structure(_edge_pair())
    m2 = pair.module.actions[2]
    raw = _edge_pair()["module"]["maps"]["2"]["entries"]
    assert tuple(raw[0]["in"]) not in m2.table  # listed twice, cancelled
    assert m2.table[tuple(raw[1]["in"])] == {raw[1]["out"][0]["label"]: 2}
    assert type(m2.table[tuple(raw[1]["in"])][raw[1]["out"][0]["label"]]) is int
    assert m2.table[tuple(raw[2]["in"])] == {raw[2]["out"][0]["label"]: Fraction(-5, 4)}
    assert m2.denominator() == 4
    assert pair.algebra.brackets[1].denominator() == 3


def _pairs() -> dict:
    return {"heisenberg-pair": parse_structure(PACKAGES["heisenberg-pair.json"]),
            "weighted-pair": parse_structure(PACKAGES["heisenberg-pair-weighted.json"]),
            "edge-pair": parse_structure(_edge_pair()),
            "hc3-pair": cdga_pair(heisenberg_circle(3))}


@pytest.mark.parametrize("name", sorted(_pairs()))
def test_direct_sum_equals_its_entry_by_entry_table(name):
    pair = _pairs()[name]
    combined = pair_to_algebra(pair)
    module = pair.module
    for n in set(pair.algebra.brackets) | set(module.actions):
        want = MultiMap(module.combined, module.combined, n, 2 - n, "antisym")
        for part in (pair.algebra.brackets.get(n), module.actions.get(n)):
            for key, row in part.table.items() if part is not None else ():
                for lab, c in row.items():
                    want.add(key, lab, c)
        _assert_same(combined.brackets[n], want)


def _transferred(pair: LInfPair, arity: int) -> tuple[LInfAlgebra, GradedSpace]:
    diag_a, diag_m = pair_splitting(pair)
    result = transfer_linf(_direct_sum_diagrams(diag_a, diag_m), pair_to_algebra(pair), arity)
    return result.algebra, diag_m.small


def _split_cases() -> list:
    """(label, L (+) M, module space): each pair's own L (+) M, and the
    transferred one of each pair that is a module (the edge pair is not)."""
    cases = []
    for name, pair in _pairs().items():
        cases.append((name, pair_to_algebra(pair), pair.module.space))
        if name != "edge-pair":
            cases.append((f"{name}-transferred", *_transferred(pair, 4)))
    return cases


SPLIT_CASES = _split_cases()


@pytest.mark.parametrize("name, alg, module_space", SPLIT_CASES,
                         ids=[case[0] for case in SPLIT_CASES])
def test_algebra_to_module_split_equals_its_entry_by_entry_tables(name, alg, module_space):
    split = algebra_to_module(alg, module_space)
    mod_set = set(module_space.labels())
    algebra_space, combined = split.algebra.space, split.module.combined
    for n, whole in alg.brackets.items():
        l_n = MultiMap(algebra_space, algebra_space, n, 2 - n, "antisym")
        m_n = MultiMap(combined, split.module.space, n, 2 - n,
                       "antisym_algebra" if n > 1 else "none")
        for key, row in whole.table.items():
            half = m_n if any(lab in mod_set for lab in key) else l_n
            for lab, c in row.items():
                half.add(key, lab, c)
        for got, want in ((split.algebra.brackets.get(n), l_n),
                          (split.module.actions.get(n), m_n)):
            if want.is_zero():
                assert got is None
            else:
                _assert_same(got, want)


def test_the_split_reads_rational_coefficients():
    for name, alg, module_space in SPLIT_CASES:
        if name in ("hc3-pair-transferred", "edge-pair"):
            split = algebra_to_module(alg, module_space)
            dens = [m.denominator() for m in (*split.algebra.brackets.values(),
                                              *split.module.actions.values())]
            assert max(dens) > 1, (name, dens)


# ---------------------------------------------------------------------------
# parse error messages, in full

def _linf(basis, maps=None) -> dict:
    return {"kind": "linf", "space": {"basis": basis}, "maps": maps or {}}


A = [{"label": "a", "deg": 0}]


def _pair_with(mutate) -> dict:
    data = copy.deepcopy(PACKAGES["heisenberg-pair.json"])
    mutate(data)
    return data


def _module_entry(key, out):
    def mutate(data):
        data["module"]["maps"]["2"]["entries"].append(
            {"in": key, "out": [{"label": out, "coef": "1"}]})
    return mutate


@pytest.mark.parametrize("data, message", [
    ([], "structure package needs a 'kind'"),
    ({"kind": "lie"}, "unknown structure kind 'lie'"),
    ({"kind": "linf"}, "space needs a 'basis' list"),
    (_linf({}), "space 'basis' must be a list, got {}"),
    (_linf([3]), "bad basis element 3"),
    (_linf([{"label": "a"}]), "bad basis element {'label': 'a'}"),
    (_linf([{"label": 1, "deg": 0}]), "basis element 'label' must be a string, got 1"),
    (_linf([{"label": "a", "deg": "x"}]), "basis element 'a' 'deg' must be an integer, got 'x'"),
    (_linf([{"label": "a", "deg": True}]), "basis element 'a' 'deg' must be an integer, got True"),
    (_linf([{"label": "a", "deg": 0, "weight": 1.5}]),
     "basis element 'a' 'weight' must be an integer, got 1.5"),
    (_linf(A + A), "duplicate basis labels: ['a']"),
    (_linf([{"label": "a", "deg": 0, "weight": 0}, {"label": "b", "deg": 0}]),
     "either all basis elements carry weights or none"),
    ({**_linf(A), "maps": [1]}, "'maps' must be an object, got [1]"),
    (_linf(A, {"x": {}}), "map key 'x' is not an arity"),
    (_linf(A, {"2": 5}), "map 2 must be an object, got 5"),
    (_linf(A, {"2": {"arity": 2, "shift": 0, "symmetry": "none"}}),
     "map 2: expected symmetry antisym"),
    (_linf(A, {"2": {"arity": 3, "shift": -1}}),
     "map 2: arity/shift (3, -1) do not match (2, 0)"),
    ({"kind": "module", "algebra_ref": {**_linf(A), "kind": "ainf"}},
     "module package needs a linf algebra_ref"),
    ({"kind": "pair", "algebra": {**_linf(A), "kind": "ainf"}},
     "pair package needs a linf 'algebra'"),
    ({"kind": "pair", "algebra": _linf(A), "module": 5}, "pair 'module' must be an object, got 5"),
    ({"kind": "pair", "algebra": _linf(A), "module": {"space": {"basis": A}}},
     "module 'space': label clash in direct sum: ['a']"),
    (_pair_with(lambda data: data["module"].update(maps={"x": {}})),
     "module map key 'x' is not an arity"),
    (_pair_with(_module_entry(["m.1", "m.1"], "m.1")),
     "module map 2: algebra slots of ('m.1', 'm.1') must hold algebra labels"),
    (_pair_with(_module_entry(["a.1", "a.1"], "m.1")),
     "module map 2: last slot of ('a.1', 'a.1') must hold a module label"),
])
def test_parse_error_messages(data, message):
    with pytest.raises(ParseError) as exc:
        parse_structure(data)
    assert str(exc.value) == message


def test_map_and_mc_error_messages():
    space = parse_structure(_linf(A)).space
    with pytest.raises(ParseError) as exc:
        multimap_from_json(3, space, space, "map 2")
    assert str(exc.value) == "map 2 must be an object, got 3"
    for data, message in (
            (3, "an MC element needs an object of entries, label -> element"),
            ({"entries": [1]}, "an MC element needs an object of entries, label -> element"),
            ({"entries": {"a": "1"}}, "MC element needs a ring descriptor string"),
            ({"ring": "Q[e]/(e^2)", "entries": {"a": 3}}, "MC entry at 'a' must be a string, got 3"),
    ):
        with pytest.raises(ParseError) as exc:
            mc_from_json(data)
        assert str(exc.value) == message
