"""Record the golden CLI reports checked by tests/test_golden.py.

Runs every subcommand on each applicable package in fixtures/, with the two
MC elements in tests/golden/ for mc-check, twist and jump-ideal.  Jump
ideals run at (i, k) = (1, 2), where they are neither zero nor the unit
ideal, and at (0, 1), (2, 1) and (3, 1), the edge shapes of the block
d^{i-1} (+) d^i; the other (i, k) commands run at (1, 1), and on the pairs
tangent-cone and resonance --trunc 3 also run at (2, 1).  Two perturbed
packages in tests/golden/ give failing ``check`` reports (exit 1), and two
dglas there give ``twist`` reports with non-abelian brackets.  Every case
goes through ``hse.cli.main`` from the repository root with relative
paths, because a report's ``config_hash`` hashes argv.
Each case's exit code and argv go to tests/golden/manifest.json and its
stdout to tests/golden/<name>.out.

    python scripts/record_golden.py

A change that alters a report on purpose reruns this script and says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

AINF = ("heisenberg", "torus2")
PAIRS = ("heisenberg-pair", "heisenberg-pair-weighted")
MC_FILES = ("mc-e", "mc-m")
# Packages in tests/golden/ with one coefficient changed (nu_2(1, x) of
# heisenberg, the action m_2(a.1, m.x) of heisenberg-pair), so that their
# checks fail and the report pins every violation and its order.
PERTURBED = ("perturbed-heisenberg", "perturbed-heisenberg-pair")
# linf packages in tests/golden/ (fixtures.solvable_dgla and
# fixtures.affine_plane_dgla) with an MC element over Q[e]/(e^4) each: their
# degree-0 parts act, so ``twist`` pins a non-abelian twist_brackets.
DGLAS = (("solvable-dgla", "mc-solvable"), ("affine-plane-dgla", "mc-affine-plane"))
# Degrees where the block d^{i-1} (+) d^i of a pair's twisted complex has
# an empty first block (i = 0), minors drawn from both blocks (i = 2) and a
# second block with no rows (i = 3); run at k = 1.
EDGE_DEGREES = ("0", "2", "3")


def cases() -> list[tuple[str, list[str]]]:
    """(name, argv) for every golden report, argv relative to the repo root."""
    out: list[tuple[str, list[str]]] = []

    def add(name: str, *argv: str) -> None:
        out.append((name, list(argv)))

    for fx in AINF + PAIRS:
        path = f"fixtures/{fx}.json"
        add(f"check-{fx}", "check", path)
        add(f"tangent-space-{fx}", "tangent-space", path, "--i", "1", "--k", "1")
        add(f"resonance-trunc3-{fx}", "resonance", path, "--i", "1", "--k", "1",
            "--trunc", "3")
        add(f"subtorus-check-{fx}", "subtorus-check", path)
        add(f"tangent-cone-{fx}", "tangent-cone", path, "--i", "1", "--k", "1")
    for fx in AINF:
        path = f"fixtures/{fx}.json"
        add(f"cohomology-{fx}", "cohomology", path)
        add(f"transfer-a5-{fx}", "transfer", path, "--emit", "all", "--max-arity", "5")
        add(f"dga-resonance-{fx}", "dga-resonance", path, "--i", "1", "--k", "1")
    for fx in PAIRS:
        path = f"fixtures/{fx}.json"
        for arity in ("5", "6"):
            add(f"transfer-a{arity}-{fx}", "transfer", path, "--emit", "all",
                "--max-arity", arity)
        for mc in MC_FILES:
            mc_path = f"tests/golden/{mc}.json"
            add(f"mc-check-{mc}-{fx}", "mc-check", path, "--mc", mc_path)
            add(f"twist-{mc}-{fx}", "twist", path, "--mc", mc_path)
            add(f"jump-ideal-{mc}-{fx}", "jump-ideal", path, "--i", "1", "--k", "2",
                "--mc", mc_path)
            for i in EDGE_DEGREES:
                add(f"jump-ideal-i{i}-{mc}-{fx}", "jump-ideal", path, "--i", i, "--k", "1",
                    "--mc", mc_path)
        add(f"tangent-cone-i2-{fx}", "tangent-cone", path, "--i", "2", "--k", "1")
        add(f"resonance-trunc3-i2-{fx}", "resonance", path, "--i", "2", "--k", "1",
            "--trunc", "3")
    add("resonance-exact-heisenberg-pair-weighted", "resonance",
        "fixtures/heisenberg-pair-weighted.json", "--i", "1", "--k", "1", "--exact")
    for pkg in PERTURBED:
        add(f"check-{pkg}", "check", f"tests/golden/{pkg}.json")
    for pkg, mc in DGLAS:
        add(f"twist-{pkg}", "twist", f"tests/golden/{pkg}.json",
            "--mc", f"tests/golden/{mc}.json")
    return out


def run_case(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of ``hse`` on argv, run from the repo root."""
    from hse.cli import main

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, buf.getvalue()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    manifest = []
    for name, argv in cases():
        code, stdout = run_case(argv)
        if code not in (0, 1):
            raise SystemExit(f"{name}: exit {code}; a golden case must produce a report")
        (GOLDEN / f"{name}.out").write_text(stdout, encoding="utf-8")
        manifest.append({"name": name, "argv": argv, "exit_code": code})
        print(f"{name}: exit {code}, {len(stdout)} bytes")
    (GOLDEN / "manifest.json").write_text(
        json.dumps({"cases": manifest}, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
