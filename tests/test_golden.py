"""Byte-for-byte CLI outputs pinned in ``tests/golden``.

Each file holds the stdout of one command on a corpus machine, as produced
before the memoised word counter and the single-pass ``simulate`` replaced
their slower predecessors (the ``gshift`` files: before the conjugacy replay
shared one sequence alphabet; the ``help`` files: ``--help`` at 80 columns
before each command imported its own modules).  A faster or simpler
implementation must give the same bytes; regenerate a file only when an
output change is intended.
"""

import json
from pathlib import Path

import pytest

from tmdyn.cli import _json, main

GOLDEN = Path(__file__).parent / "golden"

SIMULATE = {
    "utm_blank": ["--machine", "utm_6_4", "--steps", "12"],
    "wutm_tape": ["--machine", "wutm_6_2", "--state", "u4", "--tape", "b b g b", "--steps", "15"],
    "utm_halts": ["--machine", "utm_6_4", "--state", "u6", "--tape", "c", "--steps", "5",
                  "--halting-mode", "restart"],
}

CASES = {}
for name, argv in SIMULATE.items():
    for suffix, extra in (("", []), ("_trace", ["--trace"])):
        CASES[f"simulate_{name}{suffix}.txt"] = ["simulate", *argv, *extra]
        CASES[f"simulate_{name}{suffix}.json"] = ["simulate", *argv, *extra, "--json"]
for machine in ("utm_6_4", "wutm_6_2"):
    for mode in ("fixpoint", "restart"):
        common = ["--machine", machine, "--halting-mode", mode]
        CASES[f"entropy_{machine}_{mode}.csv"] = ["entropy", *common, "--n-max", "10"]
        CASES[f"entropy_{machine}_{mode}.json"] = ["entropy", *common, "--n-max", "10", "--json"]
        CASES[f"analyze_{machine}_{mode}.json"] = ["analyze", *common, "--n-max", "8"]
        verify = ["gshift", *common, "--verify", "500", "--seed", "3"]
        CASES[f"gshift_{machine}_{mode}_dump.json"] = ["gshift", *common, "--dump"]
        CASES[f"gshift_{machine}_{mode}_verify.txt"] = verify
        CASES[f"gshift_{machine}_{mode}_verify.json"] = [*verify, "--json"]
CASES["help.txt"] = ["--help"]
for command in ("analyze", "graph", "entropy", "simulate", "gshift"):
    CASES[f"help_{command}.txt"] = [command, "--help"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    # bytes, not text: the CSV rows end in \r\n, which text mode would translate
    assert out == (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_golden_json_re_encodes_unchanged(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert _json(json.loads(text)) == text
