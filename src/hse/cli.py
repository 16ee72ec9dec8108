"""Command-line surface: every subcommand reads structure-package JSON,
runs one engine operation, and emits a deterministic report.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error.
Reports embed the exact ring descriptor, arity bounds, and a config hash;
timing is only included with --timing so byte-identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import io_json
from .deformation import (
    DeformationError,
    check_mc_shape,
    jump_ideal_pair,
    mc_check,
    tangent_space,
    twist_algebra,
    twist_module,
)
from .fixtures import FixtureDescriptor, ainf_cdga_pair, generate_fixture
from .io_json import ParseError, dumps, package_to_json, parse_structure
from .resonance import (
    ResonanceError,
    dga_resonance_ideal,
    resonance_ideal,
    subtorus_hypothesis_check,
    tangent_cone_check,
)
from .rings import RingError, parse_ring
from .structures import (
    AInfAlgebra,
    LInfAlgebra,
    LInfModule,
    LInfPair,
    StructureError,
    jacobi_check,
    pair_check,
    split_pair_report,
    stasheff_check,
)
from .transfer import (
    TransferError,
    cohomology_splitting,
    transfer_ainf,
    transfer_linf,
    transfer_pair,
)


class UsageError(ValueError):
    pass


def _config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _report(args, command: str, status: str, payload: dict, started: float) -> dict:
    rep = {
        "command": command,
        "config": {
            "seed": getattr(args, "seed", None),
            "max_arity": getattr(args, "max_arity", None),
            "ring": getattr(args, "ring", None),
            "trunc": getattr(args, "trunc", None),
        },
        "config_hash": _config_hash({"command": command, "argv": args._echo}),
        "status": status,
        "payload": payload,
    }
    if getattr(args, "timing", False):
        rep["timing_seconds"] = round(time.time() - started, 6)
    return rep


def _emit(args, report: dict) -> None:
    if args.format == "json":
        text = dumps(report)
    else:
        lines = [f"{report['command']}: {report['status']}"]
        lines += _text_lines(report["payload"], indent="  ")
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _text_lines(obj, indent="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list)) and val:
                lines.append(f"{indent}{key}:")
                lines.extend(_text_lines(val, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {val}")
    elif isinstance(obj, list):
        for val in obj[:20]:
            if isinstance(val, (dict, list)) and val:
                sub = _text_lines(val, indent + "  ")
                if isinstance(val, dict):  # "- " marks where each element starts
                    sub[0] = f"{indent}- {sub[0][len(indent) + 2:]}"
                lines.extend(sub)
            else:
                lines.append(f"{indent}- {val}")
        if len(obj) > 20:
            lines.append(f"{indent}... ({len(obj)} items)")
    else:
        lines.append(f"{indent}{obj}")
    return lines


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc


def _load_structure(path: str):
    return parse_structure(_load_json(path))


def _load_pair(path: str) -> LInfPair:
    obj = _load_structure(path)
    if isinstance(obj, LInfPair):
        return obj
    raise UsageError(f"{path} does not hold a pair package")


def _load_mc(args, alg: LInfAlgebra):
    """The --mc element; an entry outside L^1 (x) m of alg is an input error."""
    if not args.mc:
        raise UsageError("this command needs --mc FILE")
    data = _load_json(args.mc)
    ring = parse_ring(args.ring) if args.ring else None
    ring, omega = io_json.mc_from_json(data, ring)
    try:
        check_mc_shape(alg, ring, omega)
    except DeformationError as exc:
        raise UsageError(str(exc)) from exc
    return ring, omega


def _mc_algebra(obj, command: str) -> LInfAlgebra:
    """The algebra whose MC elements a linf or pair package takes."""
    alg = obj.algebra if isinstance(obj, LInfPair) else obj
    if not isinstance(alg, LInfAlgebra):
        raise UsageError(f"{command} expects a linf or pair package")
    return alg


def _minimal_pair(obj, path: str, max_arity: int) -> tuple[LInfPair, int | None]:
    """The minimal pair of a package and the arity it was transferred to;
    None when the package already is a minimal pair and no transfer ran."""
    if isinstance(obj, LInfPair):
        if 1 in obj.algebra.brackets or 1 in obj.module.actions:
            return transfer_pair(obj, max_arity).pair, max_arity
        return obj, None
    if isinstance(obj, AInfAlgebra):
        return transfer_pair(ainf_cdga_pair(obj), max_arity).pair, max_arity
    raise UsageError(f"{path}: need a pair (or commutative dga) package")


def _require_minimal_pair(path: str, args) -> LInfPair:
    return _minimal_pair(_load_structure(path), path, args.max_arity)[0]


# -- subcommand bodies ---------------------------------------------------------


def cmd_fixture(args) -> tuple[str, dict, int]:
    try:
        dims = tuple(int(x) for x in args.dims.split(",")) if args.dims else ()
        obj = generate_fixture(FixtureDescriptor(
            name=args.name, seed=args.seed or 0, dims=dims, weights=args.weights))
    except ValueError as exc:  # a bad number, an unknown name, or dims random_cdga cannot build
        raise UsageError(f"bad fixture descriptor: {exc}") from exc
    payload = package_to_json(obj)
    return "ok", payload, 0


def cmd_check(args) -> tuple[str, dict, int]:
    obj = _load_structure(args.file)
    wanted = args.identities.split(",") if args.identities != "all" else None
    if isinstance(obj, AInfAlgebra):
        names, run = {"stasheff"}, lambda n: [stasheff_check(obj, n)]
    elif isinstance(obj, LInfAlgebra):
        names, run = {"jacobi"}, lambda n: [jacobi_check(obj, n)]
    else:  # a module or a pair: both reports come from one Jacobi pass of L (+) M
        module = obj if isinstance(obj, LInfModule) else obj.module
        names, run = {"jacobi", "module"}, lambda n: pair_check(module, n)
    unknown = [name for name in wanted or () if name not in names]
    if unknown:
        raise UsageError(f"no identity named {','.join(unknown)!r} applies to this package")
    reports = [rep.to_json() for rep in run(args.max_arity) if wanted is None or rep.name in wanted]
    ok = all(r["ok"] for r in reports)
    return ("pass" if ok else "fail"), {"checks": reports}, 0 if ok else 1


def cmd_cohomology(args) -> tuple[str, dict, int]:
    obj = _load_structure(args.file)
    if isinstance(obj, AInfAlgebra):
        space, diff = obj.space, obj.products.get(1)
    elif isinstance(obj, LInfAlgebra):
        space, diff = obj.space, obj.brackets.get(1)
    else:
        raise UsageError("cohomology expects an algebra package")
    diagram = cohomology_splitting(space, diff, use_weights=_weights_flag(args, space))
    payload = {
        "dims": {str(d): diagram.small.dim(d) for d in diagram.small.degrees()},
        "blocks": diagram.blocks,
        "h_basis": io_json.space_to_json(diagram.small),
    }
    return "ok", payload, 0


def _weights_flag(args, space) -> bool | None:
    mode = getattr(args, "weights_mode", "auto")
    if mode == "require":
        if not space.weighted:
            raise UsageError("--weights require: input carries no weights")
        return True
    if mode == "ignore":
        return False
    return None


def cmd_transfer(args) -> tuple[str, dict, int]:
    obj = _load_structure(args.file)
    payload: dict = {}
    if isinstance(obj, AInfAlgebra):
        diagram = cohomology_splitting(
            obj.space, obj.products.get(1),
            use_weights=_weights_flag(args, obj.space))
        res = transfer_ainf(diagram, obj, args.max_arity)
        checks = {
            "stasheff": stasheff_check(res.algebra, args.max_arity).to_json(),
        }
        payload["metadata"] = {**res.metadata, "checks": checks}
        if args.emit in ("structure", "all"):
            payload["structure"] = package_to_json(res.algebra)
        if args.emit in ("morphisms", "all"):
            payload["phi"] = {str(n): io_json.multimap_to_json(m)
                              for n, m in sorted(res.phi.components.items())}
            payload["psi"] = {str(n): io_json.multimap_to_json(m)
                              for n, m in sorted(res.psi.components.items())}
            payload["homotopy"] = {str(n): io_json.multimap_to_json(m)
                                   for n, m in sorted(res.homotopy.items())}
        ok = checks["stasheff"]["ok"]
        return ("pass" if ok else "fail"), payload, 0 if ok else 1
    if isinstance(obj, LInfAlgebra):
        diagram = cohomology_splitting(
            obj.space, obj.brackets.get(1), use_weights=_weights_flag(args, obj.space))
        res = transfer_linf(diagram, obj, args.max_arity)
        payload["metadata"] = {
            **res.metadata,
            "checks": {"jacobi": res.certificate.to_json()},
        }
        if args.emit in ("structure", "all"):
            payload["structure"] = package_to_json(res.algebra)
        ok = res.certificate.ok
        return ("pass" if ok else "fail"), payload, 0 if ok else 1
    if isinstance(obj, LInfPair):
        res = transfer_pair(obj, args.max_arity,
                            use_weights=_weights_flag(args, obj.algebra.space))
        jac_rep, mod_rep = split_pair_report(res.certificate, res.pair.module)
        payload["metadata"] = {
            **res.metadata,
            "checks": {
                "jacobi": jac_rep.to_json(),
                "module": mod_rep.to_json(),
            },
        }
        if args.emit in ("structure", "all"):
            payload["structure"] = package_to_json(res.pair)
        ok = res.certificate.ok
        return ("pass" if ok else "fail"), payload, 0 if ok else 1
    raise UsageError("transfer expects an ainf, linf, or pair package")


def cmd_mc_check(args) -> tuple[str, dict, int]:
    alg = _mc_algebra(_load_structure(args.file), "mc-check")
    ring, omega = _load_mc(args, alg)
    ok, residual = mc_check(alg, ring, omega)
    payload = {
        "ring": ring.describe(),
        "ok": ok,
        "residual": {lab: str(v) for lab, v in sorted(residual.items())},
    }
    return ("pass" if ok else "fail"), payload, 0 if ok else 1


def cmd_twist(args) -> tuple[str, dict, int]:
    obj = _load_structure(args.file)
    ring, omega = _load_mc(args, _mc_algebra(obj, "twist"))
    if isinstance(obj, LInfAlgebra):
        twisted = twist_algebra(obj, ring, omega)
        rep = jacobi_check(twisted, args.max_arity)
        payload = {
            "ring": ring.describe(),
            "jacobi": rep.to_json(),
            "twisted": package_to_json(twisted),
        }
        return ("pass" if rep.ok else "fail"), payload, 0 if rep.ok else 1
    twisted_actions, complex_ = twist_module(obj, ring, omega)
    payload = {
        "ring": ring.describe(),
        "d_omega": {str(i): m.to_json() for i, m in sorted(complex_.matrices.items())},
        "twisted_actions": {str(n): io_json.multimap_to_json(m)
                            for n, m in sorted(twisted_actions.items())},
    }
    return "pass", payload, 0


def cmd_jump_ideal(args) -> tuple[str, dict, int]:
    pair = _load_pair(args.file)
    ring, omega = _load_mc(args, pair.algebra)
    ideal = jump_ideal_pair(pair, ring, omega, args.i, args.k)
    member = ideal.is_zero()
    payload = {
        "i": args.i, "k": args.k,
        "ring": ring.describe(),
        "ideal": ideal.to_json(),
        "defect_membership": member,
    }
    return "ok", payload, 0


def cmd_tangent_space(args) -> tuple[str, dict, int]:
    pair = _require_minimal_pair(args.file, args)
    ts = tangent_space(pair, args.i, args.k)
    return "ok", {"i": args.i, "k": args.k, **ts.to_json()}, 0


def cmd_resonance(args) -> tuple[str, dict, int]:
    """Exact mode sums the universal complex through arity n0 + 1, so a pair
    the command transfers itself is transferred at least that far; the
    payload records the arity reached (null for an already minimal pair)."""
    if not args.exact:
        if args.trunc is None:
            raise UsageError("resonance needs --trunc D or --exact")
        pair = _require_minimal_pair(args.file, args)
        res = resonance_ideal(pair, args.i, args.k, trunc=args.trunc, seed=args.seed or 0)
        ok = res.consistent
        return ("pass" if ok else "fail"), res.to_json(), 0 if ok else 1
    obj = _load_structure(args.file)
    pair, reached = _minimal_pair(obj, args.file, args.max_arity)
    rep = subtorus_hypothesis_check(pair)
    if not rep.certified:
        raise UsageError(
            "--exact needs the weight hypothesis; run subtorus-check "
            f"(offenders: {rep.offenders[:3]})")
    n0 = rep.n0
    if reached is not None and reached < n0 + 1:
        pair, reached = _minimal_pair(obj, args.file, n0 + 1)
    res = resonance_ideal(pair, args.i, args.k, n0=n0, seed=args.seed or 0)
    payload = {**res.to_json(), "n0": n0, "arity_reached": reached}
    ok = res.consistent
    return ("pass" if ok else "fail"), payload, 0 if ok else 1


def cmd_dga_resonance(args) -> tuple[str, dict, int]:
    obj = _load_structure(args.file)
    if not isinstance(obj, AInfAlgebra):
        raise UsageError("dga-resonance expects an ainf (dga) package")
    res = dga_resonance_ideal(obj, args.i, args.k, seed=args.seed or 0)
    return "ok", res.to_json(), 0


def cmd_tangent_cone(args) -> tuple[str, dict, int]:
    pair = _require_minimal_pair(args.file, args)
    rep = tangent_cone_check(pair, args.i, args.k, trunc=args.trunc)
    return ("pass" if rep.ok else "fail"), rep.to_json(), 0 if rep.ok else 1


def cmd_subtorus_check(args) -> tuple[str, dict, int]:
    pair = _require_minimal_pair(args.file, args)
    rep = subtorus_hypothesis_check(pair)
    return ("pass" if rep.certified else "fail"), rep.to_json(), 0 if rep.certified else 1


COMMANDS = {
    "fixture": cmd_fixture,
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "transfer": cmd_transfer,
    "mc-check": cmd_mc_check,
    "twist": cmd_twist,
    "jump-ideal": cmd_jump_ideal,
    "tangent-space": cmd_tangent_space,
    "resonance": cmd_resonance,
    "dga-resonance": cmd_dga_resonance,
    "tangent-cone": cmd_tangent_cone,
    "subtorus-check": cmd_subtorus_check,
}


def _arity(text: str) -> int:
    """The value of --max-arity: an int >= 1, since an arity below 1 would
    check nothing."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = argparse.ArgumentParser(
        prog="hse",
        description="exact homotopy transfer / cohomology jump ideal engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, file_arg=True):
        if file_arg:
            p.add_argument("file", help="structure package JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--max-arity", dest="max_arity", type=_arity, default=5)
        p.add_argument("--ring", default=None, help='e.g. "Q[e]/(e^3)"')
        p.add_argument("--trunc", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true")

    p = sub.add_parser("fixture", help="generate a fixture package")
    p.add_argument("--name", required=True,
                   help="exterior(N) | heisenberg | heisenberg-pair | random | random-pair | torus2")
    p.add_argument("--dims", default=None, help="comma-separated dimensions")
    p.add_argument("--weights", action="store_true")
    common(p, file_arg=False)

    p = sub.add_parser("check", help="run identity checkers")
    p.add_argument("--identities", default="all",
                   help="comma list of stasheff,jacobi,module or 'all'")
    common(p)

    common(sub.add_parser("cohomology", help="cohomology dims and splitting"))

    p = sub.add_parser("transfer", help="homotopy transfer to cohomology")
    p.add_argument("--weights", dest="weights_mode",
                   choices=("auto", "require", "ignore"), default="auto")
    p.add_argument("--emit", choices=("structure", "morphisms", "all"), default="all")
    common(p)

    p = sub.add_parser("mc-check", help="verify a Maurer-Cartan element")
    p.add_argument("--mc", required=True, help="MC element JSON")
    common(p)

    p = sub.add_parser("twist", help="twist a structure by an MC element")
    p.add_argument("--mc", required=True)
    common(p)

    p = sub.add_parser("jump-ideal", help="cohomology jump ideal of a twist")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mc", required=True)
    common(p)

    p = sub.add_parser("tangent-space", help="Zariski tangent space of Def^i_k")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("resonance", help="L-infinity resonance ideal")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    common(p)

    p = sub.add_parser("dga-resonance", help="resonance of a finite dga")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    p = sub.add_parser("tangent-cone", help="initial-form certificate")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p)

    common(sub.add_parser("subtorus-check", help="weight vanishing hypothesis"))
    # per command: option string -> (dest, takes a value), for _echo
    parser.command_options = {
        name: {s: (a.dest, a.nargs != 0) for a in p._actions for s in a.option_strings}
        for name, p in sub.choices.items()
    }
    return parser


# Options that choose where and how a report is written, not what it holds
_PRESENTATION = ("out", "format", "timing")


def _echo(argv: list[str], options: dict[str, tuple[str, bool]]) -> list[str]:
    """argv less every token argparse consumed for --out, --format and
    --timing, however spelled: "--opt value", "--opt=value" or a unique
    prefix of --opt.  config_hash digests this echo, so the hash names the
    computation only."""
    echo = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":  # the rest is positional
            echo.append(token)
            echo.extend(tokens)
            break
        name, eq, _ = token.partition("=")
        if name.startswith("--"):
            found = [name] if name in options else [s for s in options if s.startswith(name)]
            if len(found) == 1 and options[found[0]][0] in _PRESENTATION:
                if options[found[0]][1] and not eq:
                    next(tokens, None)  # the option's value
                continue
        echo.append(token)
    return echo


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args._echo = _echo(argv, parser.command_options[args.command])
    started = time.time()
    handler = COMMANDS[args.command]
    try:
        status, payload, code = handler(args)
        _emit(args, _report(args, args.command, status, payload, started))
    except (UsageError, ParseError, RingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (StructureError, TransferError, DeformationError, ResonanceError) as exc:
        sys.stderr.write(f"check error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
