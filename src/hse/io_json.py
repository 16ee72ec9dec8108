"""JSON interchange for structure packages, maps, Maurer-Cartan elements,
and homotopy witnesses.

One format covers all structure kinds:

    {"kind": "ainf" | "linf" | "module" | "pair",
     "space": {"basis": [{"label": ..., "deg": ..., "weight": ...}, ...]},
     "maps": {"1": multimap, "2": multimap, ...},
     "algebra_ref": <linf package>}        # module kind only

    multimap = {"arity": n, "shift": s, "symmetry": ...,
                "entries": [{"in": [...], "out": [{"label": ..., "coef": "p/q"}]}]}

Pairs embed their two halves: {"kind": "pair", "algebra": ..., "module": ...}
with the module's algebra_ref implied.  Parsing validates degree shifts,
weight compatibility, and (for antisymmetric maps) that keys are canonical,
with element-level diagnostics.  Serialization is canonical: sorted keys,
stable entry order, so parse -> serialize -> parse is byte-stable.

Every report and package is written by ``dumps``, whose output is exactly
``json.dumps(data, indent=2, sort_keys=True) + "\\n"``.  It encodes plain
dicts with str keys, lists, tuples, str, int, finite float, bool and None
itself, because ``indent`` makes ``json`` fall back to its pure-Python
encoder; any other value goes to that stdlib call unchanged.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .grading import BasisElement, GradedSpace, combine_spaces
from .multimap import SYMMETRIES, MultiMap
from .scalars import format_scalar, parse_scalar
from .structures import (
    AInfAlgebra,
    LInfAlgebra,
    LInfModule,
    LInfPair,
)


class ParseError(ValueError):
    pass


def _as_int(value, what: str) -> int:
    """An integer field; JSON integers and integer strings pass, booleans,
    floats and anything else are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        raise ParseError(f"{what} must be an integer, got {value!r}") from exc


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {value!r}")
    return value


def _as_dict(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {value!r}")
    return value


# -- spaces -----------------------------------------------------------------

def space_to_json(space: GradedSpace) -> dict:
    return {
        "basis": [
            {"label": e.label, "deg": e.deg, "weight": e.weight}
            for e in space.elements
        ]
    }


def space_from_json(data: dict) -> GradedSpace:
    if not isinstance(data, dict) or "basis" not in data:
        raise ParseError("space needs a 'basis' list")
    elements = []
    for entry in _as_list(data["basis"], "space 'basis'"):
        if not isinstance(entry, dict) or "label" not in entry or "deg" not in entry:
            raise ParseError(f"bad basis element {entry!r}")
        if not isinstance(entry["label"], str):
            raise ParseError(f"basis element 'label' must be a string, got {entry['label']!r}")
        deg = _as_int(entry["deg"], f"basis element {entry['label']!r} 'deg'")
        weight = entry.get("weight")
        if weight is not None:
            weight = _as_int(weight, f"basis element {entry['label']!r} 'weight'")
        elements.append(BasisElement(entry["label"], deg, weight))
    try:
        return GradedSpace(elements)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


# -- maps ---------------------------------------------------------------------

def multimap_to_json(mm: MultiMap) -> dict:
    entries = []
    for key in sorted(mm.table):
        row = mm.table[key]
        entries.append({
            "in": list(key),
            "out": [
                {"label": lab, "coef": _coef_str(row[lab])}
                for lab in sorted(row)
            ],
        })
    return {
        "arity": mm.arity,
        "shift": mm.shift,
        "symmetry": mm.symmetry,
        "entries": entries,
    }


def _parse_coef(value, what: str) -> int | Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ParseError(f"{what} must be a rational string, got {value!r}")
    try:
        return parse_scalar(str(value))
    except ValueError as exc:
        raise ParseError(f"{what}: {exc}") from exc


def _coef_str(c) -> str:
    if isinstance(c, Fraction):
        return format_scalar(c)
    return str(c)


def multimap_from_json(
    data: dict, space_in: GradedSpace, space_out: GradedSpace, where: str,
) -> MultiMap:
    """A validated map, read in one pass over its entries.

    Each entry's checks run in a fixed order, and the first failure is raised
    with the entry (and output) it names.  Degrees and weights are looked up
    in dicts built once per call, each distinct coefficient string is parsed
    once, and each key is canonicalized once (``MultiMap.add`` finds it in
    the map's cache)."""
    _as_dict(data, where)
    if "arity" not in data or "shift" not in data:
        raise ParseError(f"{where}: arity/shift missing")
    arity = _as_int(data["arity"], f"{where}: 'arity'")
    shift = _as_int(data["shift"], f"{where}: 'shift'")
    if arity < 1:
        raise ParseError(f"{where}: 'arity' must be >= 1, got {arity}")
    symmetry = data.get("symmetry", "none")
    if symmetry not in SYMMETRIES:
        raise ParseError(f"{where}: unknown 'symmetry' {symmetry!r}")
    mm = MultiMap(space_in, space_out, arity, shift, symmetry)
    deg_in = {e.label: e.deg for e in space_in.elements}
    deg_out = {e.label: e.deg for e in space_out.elements}
    weighted = space_in.weighted and space_out.weighted
    weight_in = {e.label: e.weight for e in space_in.elements}
    weight_out = {e.label: e.weight for e in space_out.elements}
    coefs: dict[str, int | Fraction] = {}
    seen: set[tuple[str, ...]] = set()
    for entry in _as_list(data.get("entries", []), f"{where}: 'entries'"):
        _as_dict(entry, f"{where}: entry")
        key = tuple(_as_list(entry.get("in", []), f"{where}: entry 'in'"))
        if not all(isinstance(lab, str) for lab in key):
            raise ParseError(f"{where}: entry 'in' must list labels, got {list(key)!r}")
        if len(key) != arity:
            raise ParseError(f"{where}: entry {key} has arity {len(key)}, expected {arity}")
        for lab in key:
            if lab not in deg_in:
                raise ParseError(f"{where}: unknown input label {lab!r} in {key}")
        if mm._canonical(key) != (key, 1):
            raise ParseError(
                f"{where}: entry {key} is not in canonical (sorted) order for a "
                f"{symmetry} map; store the sorted representative only")
        if key in seen:
            raise ParseError(f"{where}: duplicate entry at {key}")
        seen.add(key)
        in_deg = sum(deg_in[l] for l in key)
        in_weight = sum(weight_in[l] for l in key) if weighted else None
        for out in _as_list(entry.get("out", []), f"{where}: 'out' at {key}"):
            _as_dict(out, f"{where}: output at {key}")
            lab = out.get("label")
            if not isinstance(lab, str) or lab not in deg_out:
                raise ParseError(f"{where}: unknown output label {lab!r} at {key}")
            raw = out.get("coef", "0")
            coef = coefs.get(raw) if type(raw) is str else None
            if coef is None:
                coef = _parse_coef(raw, f"{where}: 'coef' at {key} -> {lab}")
                if type(raw) is str:
                    coefs[raw] = coef
            if deg_out[lab] != in_deg + shift:
                raise ParseError(
                    f"{where}: entry {key} -> {lab} violates the degree shift "
                    f"({in_deg} + {shift} != {deg_out[lab]})")
            if weighted and weight_out[lab] != in_weight:
                raise ParseError(
                    f"{where}: entry {key} -> {lab} violates weight additivity")
            mm.add(key, lab, coef)
    return mm


# -- packages -----------------------------------------------------------------

def package_to_json(obj) -> dict:
    if isinstance(obj, AInfAlgebra):
        return {
            "kind": "ainf",
            "space": space_to_json(obj.space),
            "maps": {str(n): multimap_to_json(m) for n, m in sorted(obj.products.items())},
        }
    if isinstance(obj, LInfAlgebra):
        return {
            "kind": "linf",
            "space": space_to_json(obj.space),
            "maps": {str(n): multimap_to_json(m) for n, m in sorted(obj.brackets.items())},
        }
    if isinstance(obj, LInfModule):
        return {
            "kind": "module",
            "space": space_to_json(obj.space),
            "maps": {str(n): multimap_to_json(m) for n, m in sorted(obj.actions.items())},
            "algebra_ref": package_to_json(obj.algebra),
        }
    if isinstance(obj, LInfPair):
        mod = package_to_json(obj.module)
        mod.pop("algebra_ref", None)
        return {
            "kind": "pair",
            "algebra": package_to_json(obj.algebra),
            "module": mod,
        }
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def parse_structure(data: dict):
    """Validated structure package; every audit failure names the entry."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ParseError("structure package needs a 'kind'")
    kind = data["kind"]
    if kind == "ainf":
        space = space_from_json(data.get("space", {}))
        products = _parse_maps(data, space, space, lambda n: "none")
        return AInfAlgebra(space, products)
    if kind == "linf":
        space = space_from_json(data.get("space", {}))
        brackets = _parse_maps(data, space, space, lambda n: "antisym")
        return LInfAlgebra(space, brackets)
    if kind == "module":
        algebra = parse_structure(data.get("algebra_ref") or {})
        if not isinstance(algebra, LInfAlgebra):
            raise ParseError("module package needs a linf algebra_ref")
        return _parse_module(data, algebra)
    if kind == "pair":
        algebra = parse_structure(data.get("algebra") or {})
        if not isinstance(algebra, LInfAlgebra):
            raise ParseError("pair package needs a linf 'algebra'")
        module = _parse_module(_as_dict(data.get("module") or {}, "pair 'module'"), algebra)
        return LInfPair(algebra, module)
    raise ParseError(f"unknown structure kind {kind!r}")


def _parse_maps(data, space_in, space_out, symmetry_of, where=""):
    """The nonzero maps of a package's 'maps' by arity n, each checked to
    have symmetry symmetry_of(n) and shift 2 - n; where prefixes every
    error."""
    maps = {}
    for key, raw in _as_dict(data.get("maps") or {}, f"{where}'maps'").items():
        try:
            n = int(key)
        except ValueError as exc:
            raise ParseError(f"{where}map key {key!r} is not an arity") from exc
        symmetry = symmetry_of(n)
        raw = dict(_as_dict(raw, f"{where}map {key}"))
        raw.setdefault("symmetry", symmetry)
        if raw["symmetry"] != symmetry:
            raise ParseError(f"{where}map {key}: expected symmetry {symmetry}")
        mm = multimap_from_json(raw, space_in, space_out, where=f"{where}map {key}")
        if mm.shift != 2 - n or mm.arity != n:
            raise ParseError(
                f"{where}map {key}: arity/shift ({mm.arity}, {mm.shift}) do not match "
                f"({n}, {2 - n})")
        if not mm.is_zero():
            maps[n] = mm
    return maps


def _parse_module(data: dict, algebra: LInfAlgebra) -> LInfModule:
    space = space_from_json(data.get("space", {}))
    try:
        combined = combine_spaces(algebra.space, space)
    except ValueError as exc:
        raise ParseError(f"module 'space': {exc}") from exc
    actions = _parse_maps(data, combined, space,
                          lambda n: "antisym_algebra" if n > 1 else "none", "module ")
    for n, mm in actions.items():
        for entry_key in mm.table:
            if any(lab not in algebra.space for lab in entry_key[:-1]):
                raise ParseError(
                    f"module map {n}: algebra slots of {entry_key} must hold "
                    "algebra labels")
            if entry_key[-1] not in space:
                raise ParseError(
                    f"module map {n}: last slot of {entry_key} must hold a "
                    "module label")
    return LInfModule(algebra, space, actions)


# -- Maurer-Cartan elements and witnesses -------------------------------------

def mc_from_json(data: dict, ring=None):
    from .rings import parse_element, parse_ring

    entries = data.get("entries") or {} if isinstance(data, dict) else None
    if not isinstance(entries, dict):
        raise ParseError("an MC element needs an object of entries, label -> element")
    if ring is None:
        if not isinstance(data.get("ring"), str):
            raise ParseError("MC element needs a ring descriptor string")
        ring = parse_ring(data["ring"])
    omega = {}
    for lab, text in entries.items():
        if not isinstance(text, str):
            raise ParseError(f"MC entry at {lab!r} must be a string, got {text!r}")
        val = parse_element(ring, text)
        if val:
            omega[lab] = val
    return ring, omega


def witness_to_json(witness) -> dict:
    return {
        "ring": witness.ring.describe(),
        "t_part": {
            lab: {str(k): str(v) for k, v in sorted(p.c.items())}
            for lab, p in sorted(witness.t_part.items())
        },
        "dt_part": {
            lab: {str(k): str(v) for k, v in sorted(p.c.items())}
            for lab, p in sorted(witness.dt_part.items())
        },
    }


def witness_from_json(data: dict):
    from .deformation import HomotopyWitness, TPoly
    from .rings import parse_element, parse_ring

    ring = parse_ring(data["ring"])

    def part(raw):
        out = {}
        for lab, powers in (raw or {}).items():
            c = {int(k): parse_element(ring, v) for k, v in powers.items()}
            poly = TPoly(ring, c)
            if poly:
                out[lab] = poly
        return out

    return ring, HomotopyWitness(ring, part(data.get("t_part")), part(data.get("dt_part")))


# -- reports -------------------------------------------------------------------

class _Unsupported(Exception):
    """A value the report writer leaves to the json module."""


_quote = json.encoder.encode_basestring_ascii
_INF = float("inf")


def dumps(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``_encode`` writes the plain values (strings escaped by ``json``'s own
    ``encode_basestring_ascii``, numbers by ``int.__repr__`` and
    ``float.__repr__``).  Any other value, a cycle or a too deep nesting
    sends the whole call to ``json.dumps``, so its result and its errors are
    the stdlib's.
    """
    try:
        return _encode(data, "\n") + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _encode(value, newline: str) -> str:
    """The indented encoding of a container, or of a scalar via ``_scalar``;
    newline carries the indent of the line value starts on."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        for k in value:
            if type(k) is not str:
                raise _Unsupported
        inner = newline + "  "
        items = []
        for k in sorted(value):
            v = value[k]
            kv = type(v)
            if kv is str:
                items.append(_quote(k) + ": " + _quote(v))
            elif kv is dict or kv is list or kv is tuple:
                items.append(_quote(k) + ": " + _encode(v, inner))
            else:
                items.append(_quote(k) + ": " + _scalar(v))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = []
        for v in value:
            kv = type(v)
            if kv is str:
                items.append(_quote(v))
            elif kv is dict or kv is list or kv is tuple:
                items.append(_encode(v, inner))
            else:
                items.append(_scalar(v))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _scalar(value)


def _scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is float and -_INF < value < _INF:
        return float.__repr__(value)
    raise _Unsupported
