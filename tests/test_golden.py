"""Every CLI report in tests/golden/ is reproduced byte for byte.

The reports were recorded with scripts/record_golden.py; a change that
alters one on purpose reruns that script and says so.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from hse.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))["cases"]


def test_golden_set_covers_every_subcommand():
    commands = {case["argv"][0] for case in CASES}
    assert commands == {
        "check", "cohomology", "transfer", "mc-check", "twist", "jump-ideal",
        "tangent-space", "resonance", "subtorus-check", "dga-resonance", "tangent-cone",
    }


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_report(case):
    expected = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # config_hash hashes argv, so the paths stay relative
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(case["argv"])
    finally:
        os.chdir(cwd)
    assert code == case["exit_code"]
    assert buf.getvalue() == expected
