#!/usr/bin/env python3
"""Time the two certificate walls on H_{2n+1}: the pair transfer with its
Jacobi pass split out, and the A-infinity transfer followed by Stasheff.

    python3 scripts/walk_probe.py --n 3                       # H_7, this checkout
    python3 scripts/walk_probe.py --n 4 --rounds 3 OLD NEW    # H_9, two checkouts

H_{2n+1} is the Chevalley-Eilenberg cdga Lambda(x_1..x_n, y_1..y_n, z) with
dz = sum x_i y_i and weights 1, 1, 2, built with ``fixtures.Cdga``; with
n0 = 2(2n+1) + 2 both transfers run to arity n0 + 1:

  pair  ``transfer_pair(cdga_pair(A), n0 + 1)``, with the
        ``pair_splitting`` (both splittings and their identity checks) and
        the ``jacobi_check`` it calls each timed on its own;
  ainf  ``transfer_ainf`` along ``cohomology_splitting`` of A, then
        ``stasheff_check`` of the transferred algebra.

Each measurement runs in its own child process under ``RLIMIT_AS``
(``--limit-gb``) and reports its seconds and its peak RSS (``ru_maxrss``).
Given checkout roots, the child imports ``hse`` from each root's ``src/``
in turn, so the trees alternate within every round; with none, it runs
this checkout.  A child that fails (``MemoryError`` under the limit, say)
is reported with its exit code.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve()


def heisenberg(n: int):
    from fractions import Fraction

    from hse.fixtures import Cdga

    gens = ([(f"x{i}", 1, 1) for i in range(1, n + 1)]
            + [(f"y{i}", 1, 1) for i in range(1, n + 1)] + [("z", 1, 2)])
    return Cdga(gens, 2 * n + 1, {"z": [(Fraction(1), (i, n + i)) for i in range(n)]})


def _timed(fn, out: dict, column: str):
    """fn, adding the seconds each call takes to out[column]."""
    out[column] = 0.0

    def timed(*args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            out[column] += perf_counter() - t

    return timed


def child(probe: str, n: int) -> dict:
    """One measurement in this process: seconds per stage and peak RSS."""
    from hse import transfer
    from hse.fixtures import cdga_pair
    from hse.structures import stasheff_check

    arity = 2 * (2 * n + 1) + 2 + 1
    out = {"probe": probe, "n": n, "arity": arity}
    start = perf_counter()
    alg = heisenberg(n)
    if probe == "pair":
        pair = cdga_pair(alg)
        out["build_s"] = perf_counter() - start
        for name, column in (("pair_splitting", "split_s"), ("jacobi_check", "jacobi_s")):
            setattr(transfer, name, _timed(getattr(transfer, name), out, column))
        start = perf_counter()
        transfer.transfer_pair(pair, arity)
        out["transfer_s"] = perf_counter() - start
    else:
        source = alg.ainf()
        diagram = transfer.cohomology_splitting(source.space, source.products.get(1), None)
        out["build_s"] = perf_counter() - start
        start = perf_counter()
        res = transfer.transfer_ainf(diagram, source, arity)
        out["transfer_s"] = perf_counter() - start
        start = perf_counter()
        report = stasheff_check(res.algebra, arity)
        out["stasheff_s"] = perf_counter() - start
        out["ok"] = report.ok
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def spawn(tree: Path, probe: str, n: int, limit_gb: float) -> dict:
    """Run one child on tree's ``src/`` under the address-space limit."""
    limit = int(limit_gb * 2**30)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, str(HERE), "--child", probe, "--n", str(n)],
                          env=env, preexec_fn=cap, capture_output=True, text=True)
    if proc.returncode:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        return {"probe": probe, "n": n, "exit": proc.returncode, "error": tail}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(tree: Path, got: dict) -> str:
    head = f"{tree}  H_{2 * got['n'] + 1} {got['probe']}"
    if "exit" in got:
        return f"{head}: exit {got['exit']} ({got['error']})"
    columns = ("build_s", "transfer_s", "split_s", "jacobi_s", "stasheff_s")
    parts = [f"{key} {got[key]:.3f}" for key in columns if key in got]
    return f"{head}: " + ", ".join(parts) + f", peak RSS {got['peak_rss_mb']:.1f} MB"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path,
                        help="checkout roots to alternate (default: this checkout)")
    parser.add_argument("--n", type=int, default=3, help="H_{2n+1} (default 3: H_7)")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--probe", choices=("pair", "ainf", "both"), default="both")
    parser.add_argument("--limit-gb", type=float, default=4.0)
    parser.add_argument("--child", choices=("pair", "ainf"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child, args.n)))
        return 0
    trees = [tree.resolve() for tree in args.trees] or [HERE.parent.parent]
    probes = ("pair", "ainf") if args.probe == "both" else (args.probe,)
    for _ in range(args.rounds):
        for probe in probes:
            for tree in trees:
                print(describe(tree, spawn(tree, probe, args.n, args.limit_gb)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
