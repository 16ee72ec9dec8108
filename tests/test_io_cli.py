import contextlib
import copy
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hse import cli, structures, transfer
from hse.cli import build_parser, main
from hse.fixtures import Cdga, cdga_pair, heisenberg_cdga
from hse.io_json import (
    ParseError,
    dumps,
    package_to_json,
    parse_structure,
)
from hse.structures import AInfAlgebra, LInfPair
from hse.transfer import cohomology_splitting, transfer_pair_along
from test_deformation import NOT_SQUARE_ZERO, line_pair
from test_structures import h3_times_h3

ROOT = Path(__file__).resolve().parent.parent


def test_golden_heisenberg_fixture_is_stable():
    # the shipped fixture file equals the generator's output byte for byte
    golden = Path(__file__).resolve().parent.parent / "fixtures" / "heisenberg.json"
    generated = dumps(package_to_json(heisenberg_cdga().ainf()))
    assert golden.read_text(encoding="utf-8") == generated
    reparsed = parse_structure(json.loads(generated))
    assert dumps(package_to_json(reparsed)) == generated


def test_package_roundtrip_ainf():
    alg = heisenberg_cdga().ainf()
    data = package_to_json(alg)
    back = parse_structure(data)
    assert isinstance(back, AInfAlgebra)
    data2 = package_to_json(back)
    assert dumps(data) == dumps(data2)  # byte-stable round trip


def test_package_roundtrip_pair():
    pair = cdga_pair(heisenberg_cdga())
    data = package_to_json(pair)
    back = parse_structure(data)
    assert isinstance(back, LInfPair)
    assert dumps(package_to_json(back)) == dumps(data)


def test_parse_rejects_degree_shift_violation():
    alg = heisenberg_cdga().ainf()
    data = package_to_json(alg)
    # corrupt one entry: product landing in the wrong degree
    entry = data["maps"]["2"]["entries"][0]
    entry["out"] = [{"label": "xyz", "coef": "1"}]
    data["maps"]["2"]["entries"][0]["in"] = ["x", "y"]
    with pytest.raises(ParseError, match="degree shift"):
        parse_structure(data)


def test_parse_rejects_noncanonical_antisym_key():
    pair = cdga_pair(heisenberg_cdga())
    from hse.structures import pair_to_algebra

    combined = pair_to_algebra(pair)
    data = package_to_json(combined)
    for entry in data["maps"]["2"]["entries"]:
        if len(set(entry["in"])) == 2:
            entry["in"] = list(reversed(entry["in"]))
            break
    with pytest.raises(ParseError, match="canonical"):
        parse_structure(data)


def test_parse_rejects_unknown_label():
    alg = heisenberg_cdga().ainf()
    data = package_to_json(alg)
    data["maps"]["2"]["entries"][0]["in"] = ["nope", "y"]
    with pytest.raises(ParseError, match="unknown input label"):
        parse_structure(data)


def run_cli(tmp_path, *argv, expect=0):
    out = tmp_path / "out.json"
    code = main([*argv, "--out", str(out)])
    assert code == expect, f"argv={argv}, code={code}"
    return json.loads(out.read_text()) if out.exists() else None


def test_cli_fixture_and_check(tmp_path):
    fx = tmp_path / "heis.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg")
    fx.write_text(dumps(rep["payload"]))
    rep = run_cli(tmp_path, "check", str(fx), "--identities", "stasheff")
    assert rep["status"] == "pass"
    assert rep["payload"]["checks"][0]["ok"]


def test_cli_cohomology_dims(tmp_path):
    fx = tmp_path / "heis.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg")
    fx.write_text(dumps(rep["payload"]))
    rep = run_cli(tmp_path, "cohomology", str(fx))
    assert rep["payload"]["dims"] == {"0": 1, "1": 2, "2": 2, "3": 1}


def test_cli_transfer_and_tangent_space(tmp_path):
    fx = tmp_path / "pair.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg-pair")
    fx.write_text(dumps(rep["payload"]))
    rep = run_cli(tmp_path, "transfer", str(fx), "--max-arity", "4")
    assert rep["status"] == "pass"
    rep = run_cli(tmp_path, "tangent-space", str(fx), "--i", "1", "--k", "2",
                  "--max-arity", "4")
    assert rep["payload"]["kind"] in ("kernel", "full", "empty")
    rep = run_cli(tmp_path, "tangent-space", str(fx), "--i", "1", "--k", "3",
                  "--max-arity", "4")
    assert rep["payload"]["kind"] == "empty"


def test_cli_mc_and_jump_ideal(tmp_path):
    fx = tmp_path / "pair.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg-pair")
    fx.write_text(dumps(rep["payload"]))
    mc = tmp_path / "mc.json"
    mc.write_text(dumps({"ring": "Q[e]/(e^2)", "entries": {"a.x": "e"}}))
    rep = run_cli(tmp_path, "mc-check", str(fx), "--mc", str(mc))
    assert rep["status"] == "pass"
    rep = run_cli(tmp_path, "jump-ideal", str(fx), "--i", "1", "--k", "1",
                  "--mc", str(mc))
    assert "ideal" in rep["payload"]


def test_cli_resonance_and_subtorus(tmp_path):
    fx = tmp_path / "pairw.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg-pair", "--weights")
    fx.write_text(dumps(rep["payload"]))
    rep = run_cli(tmp_path, "subtorus-check", str(fx), "--max-arity", "4")
    assert rep["status"] == "pass"
    assert rep["payload"]["n0"] == 8
    rep = run_cli(tmp_path, "resonance", str(fx), "--i", "1", "--k", "1",
                  "--exact", "--max-arity", "4")
    assert rep["status"] == "pass"
    rep = run_cli(tmp_path, "tangent-cone", str(fx), "--i", "1", "--k", "1",
                  "--max-arity", "4")
    assert rep["status"] == "pass"


def test_cli_dga_resonance(tmp_path):
    fx = tmp_path / "heis.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg")
    fx.write_text(dumps(rep["payload"]))
    rep = run_cli(tmp_path, "dga-resonance", str(fx), "--i", "1", "--k", "1")
    assert rep["payload"]["ideal"]["generators"]


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError inside the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("command, argv", [
    ("resonance", ("--trunc", "3")),
    ("dga-resonance", ()),
])
def test_cli_resonance_without_degree_one_classes(tmp_path, command, argv):
    # Lambda(u) with |u| = 3 has H^1 = 0: the character space is the origin
    # alone, so both commands report one sample point
    u3 = Cdga([("u", 3, None)], 3)
    obj = cdga_pair(u3) if command == "resonance" else u3.ainf()
    fx = tmp_path / "u3.json"
    fx.write_text(dumps(package_to_json(obj)))
    with _deadline(1.0):
        rep = run_cli(tmp_path, command, str(fx), "--i", "0", "--k", "1", *argv)
    assert [s["point"] for s in rep["payload"]["samples"]] == [{}]
    assert rep["payload"]["samples"][0]["in_locus"]


def test_cli_resonance_reports_a_failed_square_zero_check(tmp_path, capsys):
    fx = tmp_path / "line.json"
    fx.write_text(dumps(package_to_json(line_pair(NOT_SQUARE_ZERO))))
    assert main(["resonance", str(fx), "--i", "1", "--k", "1", "--trunc", "3"]) == 1
    err = capsys.readouterr().err
    assert "fails d^2 = 0" in err
    assert "Traceback" not in err


def test_cli_usage_errors(tmp_path):
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    assert main(["no-such-command"]) == 2
    # bad flag
    assert main(["fixture", "--nope"]) == 2


def _unreadable(tmp_path, case):
    """argv whose input file, --mc file or --out destination cannot be used."""
    pair = str(ROOT / "fixtures" / "heisenberg-pair.json")
    if case == "input-directory":
        return ["check", str(tmp_path)]
    if case == "input-not-utf8":
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"kind": "ainf", "name": "caf\u00e9"}'.encode("latin-1"))
        return ["check", str(bad)]
    if case == "mc-directory":
        return ["mc-check", pair, "--mc", str(tmp_path)]
    return ["check", pair, "--out", str(tmp_path / "missing" / "out.json")]


@pytest.mark.parametrize("case, message", [
    ("input-directory", "Is a directory"),
    ("input-not-utf8", "'utf-8' codec can't decode"),
    ("mc-directory", "Is a directory"),
    ("out-in-missing-directory", "No such file or directory"),
])
def test_cli_io_errors_exit_2(tmp_path, capsys, case, message):
    """A file that cannot be read, or a report that cannot be written, is an
    input error: exit 2 with one error line, not a traceback."""
    assert main(_unreadable(tmp_path, case)) == 2
    err = capsys.readouterr().err
    verb = "write" if case.startswith("out") else "read"
    assert err.startswith(f"error: cannot {verb} ") and message in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("mc", [
    {"ring": "Q[e]/(e^3)", "entries": {"a.h1_0": 5}},
    {"ring": 5, "entries": {}},
    {"entries": {}},
    {"ring": "Q[e]/(e^3)", "entries": ["a.x", "e"]},
    {"ring": "Q[e]/(e^3)", "entries": "a.x"},
    ["Q[e]/(e^3)"],
    # entries outside L^1 (x) m: an unknown label, degree 0, a constant term
    {"ring": "Q[e]/(e^3)", "entries": {"a.nope": "e"}},
    {"ring": "Q[e]/(e^3)", "entries": {"a.1": "e"}},
    {"ring": "Q[e]/(e^3)", "entries": {"a.x": "1+e"}},
])
def test_cli_malformed_mc_file_exits_2(tmp_path, capsys, mc):
    fx = tmp_path / "mc.json"
    fx.write_text(json.dumps(mc))
    out = tmp_path / "out.json"
    pair = str(ROOT / "fixtures" / "heisenberg-pair.json")
    for command in (["mc-check"], ["twist"], ["jump-ideal", "--i", "1", "--k", "1"]):
        assert main([command[0], pair, *command[1:], "--mc", str(fx), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "MC" in err and "Traceback" not in err
        assert not out.exists()


def test_cli_mc_entry_with_a_zero_denominator_exits_2(tmp_path, capsys):
    """"1/0*e" used to escape parse_element as a ValueError: a traceback and
    exit 1, the code of a failed check."""
    fx = tmp_path / "mc.json"
    fx.write_text(json.dumps({"ring": "Q[e]/(e^3)", "entries": {"a.h1_0": "1/0*e"}}))
    out = tmp_path / "out.json"
    pair = str(ROOT / "fixtures" / "heisenberg-pair.json")
    for command in (["mc-check"], ["twist"], ["jump-ideal", "--i", "1", "--k", "1"]):
        assert main([command[0], pair, *command[1:], "--mc", str(fx), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad scalar factor '1/0' in '1/0*e'\n"
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["check", "heisenberg.json", "--max-arity", "-1"],
    ["check", "heisenberg.json", "--max-arity", "0"],
    ["transfer", "heisenberg-pair.json", "--max-arity", "-3"],
    ["resonance", "heisenberg-pair.json", "--i", "1", "--k", "1", "--trunc", "-1"],
    ["tangent-cone", "heisenberg-pair.json", "--i", "1", "--k", "1", "--trunc", "-1"],
])
def test_cli_rejects_a_negative_arity_or_truncation(tmp_path, capsys, argv):
    """An arity below 1 checks nothing and a negative truncation keeps no
    monomial; both used to report a pass.  Each exits 2 with no report."""
    command, name, *rest = argv
    out = tmp_path / "out.json"
    assert main([command, str(ROOT / "fixtures" / name), *rest, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert ("must be >= 1" in err) if "--max-arity" in rest else \
        err.startswith("error: truncation degree must be >= 0")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["resonance", "heisenberg-pair.json", "--exact", "--trunc", "2"],
     "--trunc does not apply to resonance --exact"),
    (["resonance", "heisenberg-pair.json", "--trunc", "3", "--ring", "Q[e]/(e^3)"],
     "--ring does not apply to resonance"),
    (["dga-resonance", "heisenberg.json", "--trunc", "3"], "--trunc does not apply to dga-resonance"),
    (["dga-resonance", "heisenberg.json", "--ring", "Q[e]/(e^3)"],
     "--ring does not apply to dga-resonance"),
    (["tangent-cone", "heisenberg-pair.json", "--ring", "Q[e]/(e^3)"],
     "--ring does not apply to tangent-cone"),
    (["tangent-cone", "heisenberg-pair.json", "--seed", "0"], "--seed does not apply to tangent-cone"),
])
def test_cli_resonance_commands_refuse_a_flag_they_do_not_read(tmp_path, capsys, argv, message):
    """A flag the command ignores would still be recorded in config and
    config_hash, so a report would claim a computation that did not run:
    it exits 2 and names the flag."""
    command, name, *rest = argv
    out = tmp_path / "out.json"
    assert main([command, str(ROOT / "fixtures" / name), "--i", "1", "--k", "1", *rest,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not out.exists()


_MC_E = str(ROOT / "tests" / "golden" / "mc-e.json")


@pytest.mark.parametrize("argv, message", [
    (["check", "heisenberg.json", "--ring", "Q[e]/(e^3)", "--trunc", "2"],
     "--ring does not apply to check"),
    (["cohomology", "heisenberg.json", "--trunc", "2"], "--trunc does not apply to cohomology"),
    (["transfer", "heisenberg-pair.json", "--seed", "4"], "--seed does not apply to transfer"),
    (["tangent-space", "heisenberg-pair.json", "--i", "1", "--k", "1", "--trunc", "3"],
     "--trunc does not apply to tangent-space"),
    (["subtorus-check", "heisenberg-pair-weighted.json", "--ring", "Q[e]/(e^3)", "--seed", "4"],
     "--ring does not apply to subtorus-check"),
    (["mc-check", "heisenberg-pair.json", "--mc", _MC_E, "--trunc", "2"],
     "--trunc does not apply to mc-check"),
    (["twist", "heisenberg-pair.json", "--mc", _MC_E, "--seed", "1"],
     "--seed does not apply to twist"),
    (["jump-ideal", "heisenberg-pair.json", "--i", "1", "--k", "1", "--mc", _MC_E,
      "--trunc", "2"], "--trunc does not apply to jump-ideal"),
])
def test_cli_structure_and_twist_commands_refuse_a_flag_they_do_not_read(tmp_path, capsys,
                                                                         argv, message):
    """As for the resonance commands: --ring, --trunc and --seed where the
    command reads none of them, --trunc and --seed where it reads only
    --ring; each exits 2, names the flag and writes no report."""
    command, name, *rest = argv
    out = tmp_path / "out.json"
    assert main([command, str(ROOT / "fixtures" / name), *rest, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--ring", "Q[e]/(e^3)"], ["--trunc", "2"]])
def test_cli_fixture_refuses_ring_and_trunc(tmp_path, capsys, flag):
    out = tmp_path / "out.json"
    assert main(["fixture", "--name", "heisenberg", *flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {flag[0]} does not apply to fixture\n"
    assert not out.exists()


def test_python_m_hse_runs_the_cli(capsys):
    """``python -m hse`` from a checkout, with src on the path, prints what
    ``cli.main`` prints and exits with its code."""
    argv = ["fixture", "--name", "heisenberg"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    got = subprocess.run([sys.executable, "-m", "hse", *argv], capture_output=True, text=True,
                         env=env, cwd=ROOT, timeout=60)
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == want
    got = subprocess.run([sys.executable, "-m", "hse", "fixture"], capture_output=True,
                         text=True, env=env, cwd=ROOT, timeout=60)
    assert got.returncode == 2 and got.stdout == ""


@pytest.mark.parametrize("argv", [["--name", "random", "--dims", "1,a"],
                                  ["--name", "exterior(x)"]])
def test_cli_fixture_bad_number_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main(["fixture", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "invalid literal for int()" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims, generated", [("0,5", "(1, 5)"), ("1,9,9,9", "(1, 9, 36, 84)")])
def test_cli_fixture_unsatisfiable_dims_exits_2(tmp_path, capsys, dims, generated):
    """Dims that random_cdga cannot generate are a usage error, not a failed check."""
    out = tmp_path / "out.json"
    for name in ("random", "random-pair"):
        assert main(["fixture", "--name", name, "--dims", dims, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad fixture descriptor: unsatisfiable dims: ")
        assert f"generated {generated}" in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--name", "exterior(40)"], "exterior(40) has 2^40 basis elements, over the cap of 256"),
    (["--name", "exterior(9)"], "exterior(9) has 2^9 basis elements, over the cap of 256"),
    (["--name", "random", "--dims", "1,40,780"],
     "dims (1, 40, 780) give 821 basis elements, over the cap of 256"),
    (["--name", "random-pair", "--dims", "1,300"],
     "dims (1, 300) give 301 basis elements, over the cap of 256"),
])
def test_cli_fixture_refuses_oversized_descriptors(tmp_path, capsys, argv, message):
    """A descriptor whose basis passes the cap is refused before anything is
    built (exterior(N) has 2^N elements; random dims must be C(k, d))."""
    out = tmp_path / "out.json"
    started = time.perf_counter()
    assert main(["fixture", *argv, "--out", str(out)]) == 2
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad fixture descriptor: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["--name", "random-pair", "--dims", "1,2,1", "--weights"], "random-pair carries no weights"),
    (["--name", "random", "--weights"], "random carries no weights"),
    (["--name", "torus2", "--dims", "5,5"], "dims apply to random and random-pair only"),
    (["--name", "exterior(3)", "--dims", "1,3,3,1"], "dims apply to random and random-pair only"),
    (["--name", "heisenberg", "--seed", "5"], "a seed applies to random and random-pair only"),
    (["--name", "heisenberg", "--seed", "0"], "a seed applies to random and random-pair only"),
])
def test_cli_fixture_refuses_a_flag_the_fixture_does_not_read(tmp_path, capsys, argv, message):
    """A random cdga has no weights and only a random cdga takes dims or a
    seed (even seed 0): the flag is a usage error, not a package built
    without it."""
    out = tmp_path / "out.json"
    assert main(["fixture", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad fixture descriptor: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["check"], ["transfer", "--max-arity", "5"]])
def test_cli_certifies_a_pair_with_one_jacobi_pass(tmp_path, monkeypatch, command):
    """check and transfer on a pair run one Jacobi pass of L (+) M, whose
    report is split into the jacobi and module reports, and no module pass."""
    passes = []
    real = structures._check

    def spy(name, *args):
        passes.append(name)
        return real(name, *args)

    monkeypatch.setattr(structures, "_check", spy)
    rep = run_cli(tmp_path, command[0], str(ROOT / "fixtures" / "heisenberg-pair.json"),
                  *command[1:])
    assert passes == ["jacobi"]
    checks = rep["payload"]["checks"] if command == ["check"] else \
        list(rep["payload"]["metadata"]["checks"].values())
    assert [(c["check"], c["ok"]) for c in checks] == [("jacobi", True), ("module", True)]


def test_cli_check_identities_pick_from_the_one_pair_pass(tmp_path):
    pair = str(ROOT / "tests" / "golden" / "perturbed-heisenberg-module.json")
    both = run_cli(tmp_path, "check", pair, expect=1)["payload"]["checks"]
    for name, report in zip(("jacobi", "module"), both):
        rep = run_cli(tmp_path, "check", pair, "--identities", name,
                      expect=0 if report["ok"] else 1)
        assert rep["payload"]["checks"] == [report]
    assert main(["check", pair, "--identities", "stasheff"]) == 2


@pytest.mark.parametrize("fixture, identities, named", [
    ("heisenberg.json", "stasheff,bogus", "bogus"),
    ("heisenberg.json", "jacobi", "jacobi"),
    ("heisenberg-pair.json", "module,stasheff", "stasheff"),
    ("heisenberg-pair.json", "bogus,jacobi,stasheff", "bogus,stasheff"),
])
def test_cli_check_refuses_every_inapplicable_identity(capsys, fixture, identities, named):
    """Any listed name that no report of the package carries exits 2, named."""
    assert main(["check", str(ROOT / "fixtures" / fixture), "--identities", identities]) == 2
    err = capsys.readouterr().err
    assert f"no identity named {named!r} applies to this package" in err


def _text_report(tmp_path, *argv, expect):
    out = tmp_path / "out.txt"
    assert main([*argv, "--format", "text", "--out", str(out)]) == expect
    return out.read_text(encoding="utf-8").splitlines()


def test_cli_text_format_marks_each_report_and_cuts_long_lists(tmp_path):
    lines = _text_report(tmp_path, "check", str(ROOT / "fixtures" / "heisenberg-pair.json"),
                         expect=0)
    assert lines[0] == "check: pass"
    # each report of the list starts with its own "- " line
    assert [l for l in lines if l.lstrip().startswith("- ")] == [
        "    - check: jacobi", "    - check: module"]
    assert lines.count("      ok: True") == 2
    lines = _text_report(tmp_path, "check", str(ROOT / "tests" / "golden" /
                                                 "perturbed-heisenberg.json"), expect=1)
    assert lines[0] == "check: fail"
    # exterior(5) has 32 basis elements: the first 20 are printed, then the cut
    lines = _text_report(tmp_path, "fixture", "--name", "exterior(5)", expect=0)
    cut = lines.index("      ... (32 items)")
    assert lines[cut - 61] == "    basis:"
    assert sum(l.startswith("      - label: ") for l in lines[cut - 60:cut]) == 20


def test_cli_timing_adds_only_the_timing_key(tmp_path):
    argv = ["check", str(ROOT / "fixtures" / "heisenberg-pair.json")]
    plain = run_cli(tmp_path, *argv)
    timed = run_cli(tmp_path, *argv, "--timing")
    assert set(timed) - set(plain) == {"timing_seconds"} and set(plain) < set(timed)
    assert isinstance(timed["timing_seconds"], float) and timed["timing_seconds"] >= 0
    assert (timed["status"], timed["payload"]) == (plain["status"], plain["payload"])


@pytest.mark.parametrize("name, message", [
    ("bogus", "unknown fixture 'bogus'"),
    ("exteriorxyz", "unknown fixture 'exteriorxyz'"),
    ("exterior(-1)", "needs N >= 0"),
])
def test_cli_unknown_fixture_name_exits_2(tmp_path, capsys, name, message):
    """Only exterior and exterior(N) with N >= 0 name an exterior algebra; any
    other name is a usage error, not a failed check or an empty algebra."""
    out = tmp_path / "out.json"
    assert main(["fixture", "--name", name, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad fixture descriptor: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_parser_is_built_once(tmp_path):
    """Each call parses with the one cached parser, and a usage error in one
    call leaves nothing behind for the next."""
    build_parser.cache_clear()
    assert main(["fixture", "--nope"]) == 2
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg")
    assert rep["status"] == "ok"
    assert build_parser.cache_info().misses == 1


def test_cli_reports_reproducible(tmp_path):
    fx = tmp_path / "heis.json"
    rep = run_cli(tmp_path, "fixture", "--name", "heisenberg")
    fx.write_text(dumps(rep["payload"]))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["transfer", str(fx), "--max-arity", "3", "--out", str(out1)]) == 0
    assert main(["transfer", str(fx), "--max-arity", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_check_failure_exit_code(tmp_path):
    alg = heisenberg_cdga()
    prod = alg.product_map()
    from fractions import Fraction

    prod.add(("x", "y"), "xz", Fraction(1))
    bad = AInfAlgebra(alg.space, {1: alg.differential_map(), 2: prod})
    fx = tmp_path / "bad.json"
    fx.write_text(dumps(package_to_json(bad)))
    out = tmp_path / "out.json"
    code = main(["check", str(fx), "--max-arity", "3", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["status"] == "fail"


def test_module_package_roundtrip_with_inline_algebra():
    pair = cdga_pair(heisenberg_cdga())
    data = package_to_json(pair.module)
    assert data["kind"] == "module" and "algebra_ref" in data
    back = parse_structure(data)
    from hse.structures import LInfModule

    assert isinstance(back, LInfModule)
    assert dumps(package_to_json(back)) == dumps(data)


def test_parse_rejects_weight_violation():
    alg = heisenberg_cdga(weights=True).ainf()
    data = package_to_json(alg)
    entry = data["maps"]["2"]["entries"][0]
    # retarget an entry to a wrong-weight (same-degree) class if possible
    import pytest
    from hse.io_json import ParseError

    data["space"]["basis"][0]["weight"] = 5  # unit class now weight 5
    with pytest.raises(ParseError):
        parse_structure(data)


def test_cli_transfer_linf_package(tmp_path):
    from hse.fixtures import solvable_dgla

    fx = tmp_path / "dgla.json"
    fx.write_text(dumps(package_to_json(solvable_dgla())))
    rep = run_cli(tmp_path, "transfer", str(fx), "--max-arity", "3")
    assert rep["status"] == "pass"
    assert rep["payload"]["metadata"]["checks"]["jacobi"]["ok"]


def test_cli_exact_resonance_transfers_to_n0_plus_one(tmp_path, monkeypatch, capsys):
    # n0 reads only the cohomology spaces, so the one transfer goes straight
    # to max(--max-arity, n0 + 1); an input failing both the transfer and the
    # weight hypothesis still exits 1 from the transfer.  n0 and the transfer
    # read one splitting: each cohomology (algebra, module) is split once
    arities, splits = [], []

    def counting(pair, splitting, max_arity):
        arities.append(max_arity)
        return transfer_pair_along(pair, splitting, max_arity)

    def splitting(space, *rest, **kw):
        splits.append(space)
        return cohomology_splitting(space, *rest, **kw)

    monkeypatch.setattr(cli, "transfer_pair_along", counting)
    monkeypatch.setattr(transfer, "cohomology_splitting", splitting)
    fx = ROOT / "fixtures" / "heisenberg-pair-weighted.json"
    for argv, reached in (((), 9), (("--max-arity", "3"), 9), (("--max-arity", "11"), 11)):
        arities.clear()
        splits.clear()
        rep = run_cli(tmp_path, "resonance", str(fx), "--i", "1", "--k", "1", "--exact", *argv)
        assert rep["status"] == "pass"
        assert (rep["payload"]["n0"], rep["payload"]["arity_reached"]) == (8, reached)
        assert arities == [reached]
        assert len(splits) == 2
    arities.clear()
    splits.clear()
    fx = ROOT / "tests" / "golden" / "perturbed-heisenberg-pair.json"
    assert main(["resonance", str(fx), "--i", "1", "--k", "1", "--exact"]) == 1
    assert arities == [5]
    assert len(splits) == 2
    assert capsys.readouterr().err.startswith("check error: input fails Jacobi: arity 3 at ")


def _tables_sha256(payload: dict) -> str:
    """SHA-256 of a report's tables: its payload without the metadata."""
    tables = {key: value for key, value in payload.items() if key != "metadata"}
    return hashlib.sha256(dumps(tables).encode("utf-8")).hexdigest()


def test_cli_h3_times_h3_end_to_end(tmp_path):
    # the first input with nu_4 != 0: the A-infinity and pair transfers to
    # arity 6, the exact resonance ideal and the tangent cone at (1, 1) all
    # pass; the --emit all reports (560 KB and 175 KB) are pinned by hash
    alg = h3_times_h3()
    ainf, pair = tmp_path / "h3xh3.json", tmp_path / "h3xh3-pair.json"
    ainf.write_text(dumps(package_to_json(alg.ainf())))
    pair.write_text(dumps(package_to_json(cdga_pair(alg))))
    rep = run_cli(tmp_path, "transfer", str(ainf), "--max-arity", "6")
    assert rep["status"] == "pass"
    assert {"4", "5", "6"} & set(rep["payload"]["structure"]["maps"]) == {"4"}
    assert _tables_sha256(rep["payload"]) == (
        "4c4733b70646522de01462146006dda2955edec0963e9c03bd510e2a657fdee0")
    rep = run_cli(tmp_path, "transfer", str(pair), "--max-arity", "6")
    assert rep["status"] == "pass"
    assert all(check["ok"] for check in rep["payload"]["metadata"]["checks"].values())
    assert _tables_sha256(rep["payload"]) == (
        "a5a4b8b2e90806229c19d7414250d9340846b9bcfa4cad36be6cf70a23fd352d")
    rep = run_cli(tmp_path, "resonance", str(pair), "--i", "1", "--k", "1", "--exact")
    assert rep["status"] == "pass"
    assert rep["payload"]["arity_reached"] >= rep["payload"]["n0"] + 1
    assert rep["payload"]["sample_oracle_consistent"]
    rep = run_cli(tmp_path, "tangent-cone", str(pair), "--i", "1", "--k", "1")
    assert rep["status"] == "pass" and rep["payload"]["ok"] and not rep["payload"]["failures"]


def test_cli_transfer_blames_an_input_that_fails_jacobi(tmp_path, capsys):
    # the perturbed pair fails its own module identity, so the transfer's
    # Jacobi failure is reported as the input's, without a traceback
    fx = ROOT / "tests" / "golden" / "perturbed-heisenberg-pair.json"
    out = tmp_path / "out.json"
    assert main(["transfer", str(fx), "--max-arity", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check error: input fails Jacobi: arity 3 at ")
    assert "Traceback" not in err and "engine defect" not in err


def _set_coef(value):
    def mutate(data):
        data["maps"]["2"]["entries"][0]["out"][0]["coef"] = value
    return mutate


def _set_entry_field(field, value):
    def mutate(data):
        data["maps"]["2"]["entries"][0][field] = value
    return mutate


def _set_map_field(field, value):
    def mutate(data):
        data["maps"]["2"][field] = value
    return mutate


@pytest.mark.parametrize("mutate, field", [
    (_set_coef(True), "coef"),
    (_set_coef("1/0"), "coef"),
    (_set_entry_field("out", 5), "out"),
    (_set_map_field("entries", None), "entries"),
    (_set_map_field("arity", 0), "arity"),
    (_set_entry_field("in", "1x"), "in"),
], ids=["coef-true", "coef-1/0", "out-5", "entries-null", "arity-0", "in-string"])
def test_malformed_package_exits_2_naming_the_field(tmp_path, capsys, mutate, field):
    golden = Path(__file__).resolve().parent.parent / "fixtures" / "heisenberg.json"
    data = json.loads(golden.read_text(encoding="utf-8"))
    mutate(data)
    with pytest.raises(ParseError, match=f"'{field}'"):
        parse_structure(json.loads(json.dumps(data)))
    fx = tmp_path / "bad.json"
    fx.write_text(json.dumps(data), encoding="utf-8")
    assert main(["check", str(fx)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


# -- the exit-code contract under malformed packages --------------------------

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = {path.name: json.loads(path.read_text(encoding="utf-8"))
          for path in sorted(FIXTURE_DIR.glob("*.json"))}
# values of every JSON type, and strings that look like labels or scalars
ODD_VALUES = [None, True, False, 0, -1, 2, 2.5, "", "x", "1/0", "0", [], {}, [None], ["x"],
              {"label": "x"}, {"1": {}}]


def test_basis_label_type_and_pair_label_clash_exit_2(tmp_path, capsys):
    pair = GOLDEN["heisenberg-pair.json"]
    numeric = copy.deepcopy(pair)
    numeric["algebra"]["space"]["basis"][0]["label"] = None
    clash = copy.deepcopy(pair)
    clash["module"]["space"]["basis"][0]["label"] = clash["algebra"]["space"]["basis"][0]["label"]
    for data, field in ((numeric, "'label'"), (clash, "module 'space'")):
        with pytest.raises(ParseError, match=field):
            parse_structure(data)
        fx = tmp_path / "bad.json"
        fx.write_text(json.dumps(data), encoding="utf-8")
        assert main(["check", str(fx)]) == 2
        assert field in capsys.readouterr().err


def _paths(node, prefix=()):
    """Every position in a JSON tree, as a tuple of keys and list indices."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


class _Twice:
    """A field written twice in the JSON text; a reader keeps the later one."""

    def __init__(self, first, last):
        self.first, self.last = first, last


def _encode(node) -> str:
    if isinstance(node, dict):
        fields = []
        for key, value in node.items():
            for v in ((value.first, value.last) if isinstance(value, _Twice) else (value,)):
                fields.append(json.dumps(key) + ":" + _encode(v))
        return "{" + ",".join(fields) + "}"
    if isinstance(node, list):
        return "[" + ",".join(_encode(v) for v in node) + "]"
    if isinstance(node, _Twice):
        return _encode(node.last)
    return json.dumps(node)


def _mutate(root, path, action, value) -> None:
    """Drop, retype or duplicate the field at path: a list item is repeated,
    an object key is written twice, with the odd value first or last."""
    value = copy.deepcopy(value)  # never share a mutable ODD_VALUES entry
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if action == "drop":
        del parent[key]
    elif action == "retype":
        parent[key] = value
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    elif action == "duplicate":
        parent[key] = _Twice(value, parent[key])
    else:
        parent[key] = _Twice(parent[key], value)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_check_never_raises_on_mutated_fixtures(data):
    name = data.draw(st.sampled_from(sorted(GOLDEN)))
    package = copy.deepcopy(GOLDEN[name])
    for _ in range(data.draw(st.integers(1, 2))):
        paths = [p for p in _paths(package) if p]
        if not paths:
            break
        path = data.draw(st.sampled_from(paths))
        action = data.draw(st.sampled_from(["drop", "retype", "duplicate", "duplicate-last"]))
        _mutate(package, path, action, data.draw(st.sampled_from(ODD_VALUES)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(_encode(package), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["check", str(path)])
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# every ParseError of multimap_from_json, with its full message

def _map_space():
    from hse.grading import BasisElement, GradedSpace

    return GradedSpace([
        BasisElement("e", 0, 0), BasisElement("x", 1, 1), BasisElement("y", 1, 1),
        BasisElement("z", 2, 2), BasisElement("u", 2, 1),
    ])


def _map_data(symmetry="antisym"):
    return {"arity": 2, "shift": 0, "symmetry": symmetry,
            "entries": [{"in": ["x", "y"], "out": [{"label": "z", "coef": "1"}]}]}


def _set(path, value):
    """A mutation of _map_data: set (or, for value None, delete) one field."""
    def apply(data):
        *head, last = path
        target = data
        for step in head:
            target = target[step]
        if value is None:
            del target[last]
        else:
            target[last] = value
    return apply


def _append_entry(entry):
    return lambda data: data["entries"].append(entry)


XY = "('x', 'y')"


@pytest.mark.parametrize("mutate, symmetry, message", [
    (_set(["arity"], None), "antisym", "map 2: arity/shift missing"),
    (_set(["shift"], None), "antisym", "map 2: arity/shift missing"),
    (_set(["arity"], "two"), "antisym", "map 2: 'arity' must be an integer, got 'two'"),
    (_set(["arity"], True), "antisym", "map 2: 'arity' must be an integer, got True"),
    (_set(["arity"], 0), "antisym", "map 2: 'arity' must be >= 1, got 0"),
    (_set(["shift"], 1.5), "antisym", "map 2: 'shift' must be an integer, got 1.5"),
    (_set(["symmetry"], "sym"), "antisym", "map 2: unknown 'symmetry' 'sym'"),
    (_set(["entries"], {}), "antisym", "map 2: 'entries' must be a list, got {}"),
    (_set(["entries", 0], 3), "antisym", "map 2: entry must be an object, got 3"),
    (_set(["entries", 0, "in"], "xy"), "antisym",
     "map 2: entry 'in' must be a list, got 'xy'"),
    (_set(["entries", 0, "in"], ["x", 1]), "antisym",
     "map 2: entry 'in' must list labels, got ['x', 1]"),
    (_set(["entries", 0, "in"], ["x"]), "antisym",
     "map 2: entry ('x',) has arity 1, expected 2"),
    (_set(["entries", 0, "in"], ["x", "q"]), "antisym",
     "map 2: unknown input label 'q' in ('x', 'q')"),
    (_set(["entries", 0, "in"], ["y", "x"]), "antisym",
     "map 2: entry ('y', 'x') is not in canonical (sorted) order for a antisym "
     "map; store the sorted representative only"),
    # a repeated even label: the antisymmetric map vanishes there
    (_set(["entries", 0, "in"], ["e", "e"]), "antisym",
     "map 2: entry ('e', 'e') is not in canonical (sorted) order for a antisym "
     "map; store the sorted representative only"),
    # a module map sorts all slots but the last
    (lambda data: data.update(arity=3, entries=[{"in": ["y", "x", "e"]}]), "antisym_algebra",
     "map 2: entry ('y', 'x', 'e') is not in canonical (sorted) order for a "
     "antisym_algebra map; store the sorted representative only"),
    (_append_entry({"in": ["x", "y"], "out": []}), "antisym",
     f"map 2: duplicate entry at {XY}"),
    # without symmetry any order is stored as given, and only equal keys clash
    (lambda data: data["entries"].extend([{"in": ["y", "x"]}, {"in": ["y", "x"]}]), "none",
     "map 2: duplicate entry at ('y', 'x')"),
    (_set(["entries", 0, "out"], "z"), "antisym",
     f"map 2: 'out' at {XY} must be a list, got 'z'"),
    (_set(["entries", 0, "out", 0], "z"), "antisym",
     f"map 2: output at {XY} must be an object, got 'z'"),
    (_set(["entries", 0, "out", 0, "label"], "q"), "antisym",
     f"map 2: unknown output label 'q' at {XY}"),
    (_set(["entries", 0, "out", 0, "label"], 5), "antisym",
     f"map 2: unknown output label 5 at {XY}"),
    (_set(["entries", 0, "out", 0, "label"], None), "antisym",
     f"map 2: unknown output label None at {XY}"),
    (_set(["entries", 0, "out", 0, "coef"], True), "antisym",
     f"map 2: 'coef' at {XY} -> z must be a rational string, got True"),
    (_set(["entries", 0, "out", 0, "coef"], 0.5), "antisym",
     f"map 2: 'coef' at {XY} -> z must be a rational string, got 0.5"),
    (_set(["entries", 0, "out", 0, "coef"], "1/0"), "antisym",
     f"map 2: 'coef' at {XY} -> z: not a rational scalar: '1/0'"),
    (_set(["entries", 0, "out", 0, "coef"], "two"), "antisym",
     f"map 2: 'coef' at {XY} -> z: not a rational scalar: 'two'"),
    (_set(["entries", 0, "out", 0, "label"], "x"), "antisym",
     f"map 2: entry {XY} -> x violates the degree shift (2 + 0 != 1)"),
    (_set(["shift"], -1), "antisym",
     f"map 2: entry {XY} -> z violates the degree shift (2 + -1 != 2)"),
    (_set(["entries", 0, "out", 0, "label"], "u"), "antisym",
     f"map 2: entry {XY} -> u violates weight additivity"),
])
def test_multimap_from_json_error_messages(mutate, symmetry, message):
    from hse.io_json import multimap_from_json

    data = _map_data(symmetry)
    mutate(data)
    space = _map_space()
    with pytest.raises(ParseError) as exc:
        multimap_from_json(data, space, space, "map 2")
    assert str(exc.value) == message


@pytest.mark.parametrize("outs, message", [
    # the coefficient is parsed before the degree and weight checks
    ([{"label": "x", "coef": "oops"}],
     f"map 2: 'coef' at {XY} -> x: not a rational scalar: 'oops'"),
    # the degree shift is checked before weight additivity
    ([{"label": "e", "coef": "1"}],
     f"map 2: entry {XY} -> e violates the degree shift (2 + 0 != 0)"),
    # outputs are checked in order, so the first bad one is named
    ([{"label": "z", "coef": "1"}, {"label": "u", "coef": "1"},
      {"label": "q", "coef": "1"}],
     f"map 2: entry {XY} -> u violates weight additivity"),
    # a repeated good coefficient string is read again for the next output
    ([{"label": "z", "coef": "1/2"}, {"label": "z", "coef": "1/2"},
      {"label": "z", "coef": True}],
     f"map 2: 'coef' at {XY} -> z must be a rational string, got True"),
])
def test_multimap_from_json_checks_outputs_in_order(outs, message):
    from hse.io_json import multimap_from_json

    data = _map_data()
    data["entries"][0]["out"] = outs
    space = _map_space()
    with pytest.raises(ParseError) as exc:
        multimap_from_json(data, space, space, "map 2")
    assert str(exc.value) == message


def test_multimap_from_json_accumulates_repeated_outputs():
    """Repeated (key, label) outputs add up through MultiMap.add, and a sum of
    zero stores nothing; integer and string coefficients parse alike."""
    from hse.io_json import multimap_from_json

    space = _map_space()
    data = _map_data()
    data["entries"][0]["out"] = [
        {"label": "z", "coef": "1/2"}, {"label": "z", "coef": 1}, {"label": "z", "coef": "1/2"}]
    data["entries"].append({"in": ["e", "x"], "out": [
        {"label": "x", "coef": "3"}, {"label": "x", "coef": -3}]})
    mm = multimap_from_json(data, space, space, "map 2")
    assert mm.table == {("x", "y"): {"z": 2}}
    assert type(mm.table[("x", "y")]["z"]) is int


# ---------------------------------------------------------------------------
# the report writer against json.dumps(..., indent=2, sort_keys=True)

def _stdlib_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _outcome(fn, data):
    """The text fn writes, or the type and message of what it raises."""
    try:
        return fn(data)
    except Exception as exc:  # noqa: BLE001  (the stdlib's own errors are compared)
        return type(exc), str(exc)


_json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10**40, 10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    # non-ASCII, control characters, surrogates, quotes and backslashes
    st.text(), st.text(alphabet=st.characters(max_codepoint=0x7f)),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", " ", "\ud800", "\U0001f600"]),
)
_json_keys = st.one_of(st.text(max_size=6), st.integers(-3, 3), st.floats(), st.booleans(),
                       st.none())
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        # non-str keys, some in one dict with keys of another type
        st.dictionaries(_json_keys, inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_json_values)
def test_dumps_matches_the_stdlib_on_any_value(data):
    assert _outcome(dumps, data) == _outcome(_stdlib_dumps, data)


@pytest.mark.parametrize("data", [
    {}, [], (), {"a": {}}, {"a": [[], {}, ()]}, [[[]]],
    {"a": float("nan")}, [float("inf"), float("-inf")], -0.0, 1e300, 5e-324,
    10**100, -(2**70), {"b": 1, "a": True, "c": None, "d": False},
    {1: "x", 2: "y"}, {True: 1, None: 2}, {"x": 1, 2: 3}, {1.5: 0, 0.5: 1},
    {"é": "\x07", "\U0001f600": "\ud83d"}, ("a", ("b",)),
    object(), {"a": {1, 2}}, [Fraction(1, 2)], {"a": "x" * 3}, b"bytes",
    [10**5000],  # past the int string limit: both raise the same ValueError
])
def test_dumps_matches_the_stdlib_on_edge_values(data):
    assert _outcome(dumps, data) == _outcome(_stdlib_dumps, data)


def test_dumps_leaves_subclasses_and_cycles_to_the_stdlib():
    import collections
    import enum

    class Color(enum.IntEnum):
        RED = 1

    class Tag(str):
        pass

    for data in [collections.OrderedDict(b=1, a=2), [Color.RED], {"k": Tag("v")},
                 {Tag("k"): 1}, [True, 1, 1.0]]:
        assert _outcome(dumps, data) == _outcome(_stdlib_dumps, data)
    loop: list = []
    loop.append(loop)
    assert _outcome(dumps, loop) == (ValueError, "Circular reference detected")


def test_dumps_matches_the_stdlib_on_every_golden_report():
    golden = sorted((ROOT / "tests" / "golden").glob("*.out"))
    assert len(golden) >= 70
    for path in golden:
        text = path.read_text(encoding="utf-8")
        data = json.loads(text)
        assert dumps(data) == _stdlib_dumps(data) == text, path.name


def test_dumps_matches_the_stdlib_on_a_bench_round(tmp_path, monkeypatch):
    """Every report one transfer-deep and one transfer-wide round write."""
    import importlib.util
    import sys

    from hse import cli

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    written = []

    def checked(data):
        text = dumps(data)
        assert text == _stdlib_dumps(data)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "dumps", checked)
    for name in ("transfer-deep", "transfer-wide"):
        workload = workloads.build(name, 1, tmp_path / name)
        for job in workload.jobs:
            code, status, _ = job.run()
            assert (code, status) == (0, "pass"), job.name
    assert len(written) == 12 and max(len(t) for t in written) > 20_000


# ---------------------------------------------------------------------------
# config_hash names the computation, not where or how the report is written

def test_config_hash_ignores_out_format_and_timing(tmp_path, monkeypatch):
    from hse import cli

    hashes = []
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(cli, "_emit", lambda args, report: hashes.append(report["config_hash"]))
    out = str(tmp_path / "r.json")
    spellings = [
        [], ["--timing"], ["--tim"], ["--format", "text"], ["--format=json"],
        ["--fo", "text"], ["--format", "text", "--format", "json"], ["--out", out],
        ["--ou=" + out], ["--o", out, "--ti", "--form=text"],
    ]
    for extra in spellings:
        assert main(["check", "fixtures/heisenberg.json", *extra]) == 0, extra
        assert main(["check", *extra, "fixtures/heisenberg.json"]) == 0, extra
    assert len(hashes) == 2 * len(spellings) and len(set(hashes)) == 1
    # an option of the computation still changes it
    assert main(["check", "fixtures/heisenberg.json", "--max-arity", "4", "--timing"]) == 0
    assert main(["check", "fixtures/heisenberg.json", "--identities", "stasheff"]) == 0
    assert len(set(hashes)) == 3


def test_config_hash_of_check_heisenberg_is_the_golden_one(tmp_path, monkeypatch):
    golden = json.loads((ROOT / "tests" / "golden" / "check-heisenberg.out").read_text())
    monkeypatch.chdir(ROOT)
    rep = run_cli(tmp_path, "check", "fixtures/heisenberg.json", "--timing", "--format", "json")
    assert rep["config_hash"] == golden["config_hash"]
