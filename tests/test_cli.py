import argparse
import ast
import collections
import contextlib
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdyn import cli, corpus_names, gshift, machine, regularity, shift_analysis, words
from tmdyn.cli import main
from tmdyn.corpus import corpus_text

HALTER_TEXT = """\
states: q0 halt
alphabet: 0 1
blank: 0
initial: q0
halting: halt
q0 0 -> halt 0 N
q0 1 -> halt 1 N
"""


@pytest.fixture()
def halter_file(tmp_path):
    path = tmp_path / "halter.tm"
    path.write_text(HALTER_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_utm(capsys):
    code, out, err = run_cli(capsys, "analyze", "--machine", "utm_6_4")
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "strongly-regular"
    assert report["certificate"]["bound"]["log_of"] == 2
    assert report["certificate"]["bound"]["over"] == 1
    assert report["conjugacy"]["failures"] == 0
    assert len(report["shift_table"]) == 24
    assert report["machine"]["halting_mode"] == "fixpoint"


def test_analyze_wutm(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--machine", "wutm_6_2")
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "regular"
    assert report["certificate"]["witness"]["base"] == "u4"
    assert len(report["graphs"]["+1"]["edges"]) == 5


def test_analyze_is_reproducible(capsys):
    _, first, _ = run_cli(capsys, "analyze", "--machine", "wutm_6_2", "--seed", "5", "--n-max", "3")
    _, second, _ = run_cli(capsys, "analyze", "--machine", "wutm_6_2", "--seed", "5", "--n-max", "3")
    assert first == second


def test_analyze_n_max_appends_counts(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--n-max", "3")
    assert code == 0
    report = json.loads(out)
    assert [r["count"] for r in report["word_counts"]["rows"]] == [28, 97, 283]


def test_analyze_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["certificate"]["verdict"] == "strongly-regular"


def test_main_reuses_one_parser_without_leaking_state(capsys, tmp_path):
    # main builds its parser once per process; calls made in sequence on it
    # must each print what they print on a freshly built parser.
    target = tmp_path / "report.json"
    sequence = [
        ["analyze", "--machine", "wutm_6_2", "--n-max", "2", "--out", str(target)],
        ["analyze", "--machine", "wutm_6_2"],
        ["entropy", "--machine", "utm_6_4", "--n-max", "4", "--oracle", "--initial-only"],
        ["entropy", "--machine", "utm_6_4", "--n-max", "3", "--node-budget", "100"],
        ["entropy", "--machine", "utm_6_4", "--n-max", "3"],
        ["entropy", "--machine", "utm_6_4", "--n-max", "0"],
        ["simulate", "--machine", "utm_6_4", "--steps", "3", "--trace", "--json"],
        ["simulate", "--machine", "utm_6_4", "--steps", "3"],
    ]
    shared = [run_cli(capsys, *argv) for argv in sequence]
    assert cli._parser() is cli._parser()
    fresh = []
    for argv in sequence:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0, 2, 0, 0]
    assert shared[0][1] == "" and shared[1][1].startswith("{")


def test_bad_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\nq 0 -> q 9 N\n")
    code, _, err = run_cli(capsys, "analyze", "--file", str(bad))
    assert code == 2
    assert "line 6" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--file", "/no/such/file.tm")
    assert code == 2
    assert "error" in err


def test_undecodable_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "latin1.tm"
    bad.write_bytes(HALTER_TEXT.replace("q0", "q\xe9").encode("latin-1"))
    code, out, err = run_cli(capsys, "analyze", "--file", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = tmp_path / "missing" / "r.json"
    code, out, err = run_cli(capsys, "analyze", "--machine", "wutm_6_2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@given(
    st.one_of(
        st.binary(max_size=120),
        st.builds(
            lambda cut, junk: HALTER_TEXT.encode()[:cut] + junk,
            st.integers(0, len(HALTER_TEXT)),
            st.binary(max_size=8),
        ),
    )
)
@settings(max_examples=100, deadline=None)
def test_analyze_on_random_file_bytes_never_raises(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.tm"
    path.write_bytes(data)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", "--file", str(path), "--conjugacy-samples", "5"])
    assert code in (0, 1, 2)


# Flags of each subcommand, mapped to a strategy for their value (None for
# switches); sizes stay small, so every command finishes quickly.
_MODE = {"--halting-mode": st.sampled_from(["fixpoint", "restart"])}
_JSON = {"--json": None}
_SEED = {"--seed": st.integers(-2, 9)}
_COMMAND_FLAGS = {
    "analyze": {**_MODE, **_SEED, "--n-max": st.integers(0, 4), "--conjugacy-samples": st.integers(0, 20)},
    "graph": {"--eps": st.sampled_from(["+1", "-1", "0"])},
    "entropy": {
        **_MODE,
        **_JSON,
        # up to the last row --oracle checks; its n = 4 row takes under a second
        # (0.25 s on utm_6_4, 0.75 s on the 1500-state files)
        "--n-max": st.integers(0, 4),
        "--oracle": None,
        "--node-budget": st.integers(0, 10_000),
        "--initial-only": None,
    },
    "simulate": {
        **_MODE,
        **_JSON,
        "--state": st.sampled_from(["q0", "u2", "halt", "nope"]),
        "--tape": st.sampled_from(["", "1 0 1", "b d", "?"]),
        "--offset": st.integers(-3, 3),
        "--steps": st.integers(-1, 50),
        "--trace": None,
    },
    "gshift": {**_MODE, **_JSON, **_SEED, "--verify": st.integers(0, 20), "--dump": None},
}
# Flags that some subcommands (for --format, all) do not take; drawn rarely, so
# the "unrecognized arguments" exit stays covered without crowding out real runs.
_FOREIGN_FLAGS = (["--json"], ["--seed", "1"], ["--format", "dot"])
_FIRST_FLAGS = {
    "analyze": ["--conjugacy-samples"],
    "graph": ["--eps"],
    "entropy": ["--n-max"],
    "simulate": ["--steps"],
    "gshift": ["--verify", "--dump"],
}


@st.composite
def cli_argvs(draw, files):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    sources = [["--machine", name] for name in (*corpus_names(), "nope")]
    sources += [["--file", path] for path in (*files.values(), "/no/such/file.tm")]
    argv = [command, *draw(st.sampled_from(sources))]
    flags = _COMMAND_FLAGS[command]
    # the flag each command needs first (its default sample count is 200 for
    # analyze), then a few more; a repeated flag takes its last value
    first = draw(st.sampled_from(_FIRST_FLAGS[command]))
    for flag in [first, *draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))]:
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(str(draw(flags[flag])))
    if draw(st.integers(0, 9)) == 0:
        argv += draw(st.sampled_from([f for f in _FOREIGN_FLAGS if f[0] not in flags]))
    return argv


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_random_argv_never_raises(machine_files, data):
    argv = data.draw(cli_argvs(machine_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)


def test_analyze_long_cycle_has_no_witness(capsys, machine_files):
    code, out, _ = run_cli(capsys, "analyze", "--file", machine_files["cycle"])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "no-witness-found"


@pytest.mark.parametrize("command", [["analyze"], ["entropy", "--n-max", "2"]])
def test_alphabet_over_cap_is_analysis_failure(capsys, machine_files, command):
    code, out, err = run_cli(capsys, *command, "--file", machine_files["wide"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "cap 16" in err and err.count("\n") == 1


def test_unknown_corpus_name(capsys):
    code, _, err = run_cli(capsys, "analyze", "--machine", "nope")
    assert code == 2
    assert "unknown corpus machine" in err


def test_machine_and_file_are_exclusive(capsys, halter_file):
    code, _, _ = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--file", halter_file)
    assert code == 2


def test_graph_wutm(capsys):
    code, out, _ = run_cli(capsys, "graph", "--machine", "wutm_6_2", "--eps", "+1")
    assert code == 0
    edges = [line for line in out.splitlines() if "->" in line]
    assert len(edges) == 5
    assert '  "u4" -> "u6" [label="b"];' in out


def test_graph_minus_direction(capsys):
    code, out, _ = run_cli(capsys, "graph", "--machine", "utm_6_4", "--eps=-1")
    assert code == 0
    assert out.startswith("digraph left_shifts")


def test_graph_bad_eps(capsys):
    code, _, _ = run_cli(capsys, "graph", "--machine", "utm_6_4", "--eps", "0")
    assert code == 2


def test_entropy_csv_with_oracle(capsys):
    code, out, err = run_cli(capsys, "entropy", "--machine", "utm_6_4", "--n-max", "4", "--oracle")
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "n,count,e_n,min_e_n"
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert all(c >= 2**n for n, c in enumerate(counts, 1))


def test_entropy_json(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--machine", "wutm_6_2", "--n-max", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["bound"] == {
        "log_of": 2,
        "over": 3,
        "decimal": pytest.approx(0.23104906018664842),
    }


def test_entropy_zero_n_max(capsys):
    code, _, err = run_cli(capsys, "entropy", "--machine", "utm_6_4", "--n-max", "0")
    assert code == 2
    assert "--n-max" in err


def test_entropy_budget_failure(capsys):
    code, _, err = run_cli(
        capsys, "entropy", "--machine", "utm_6_4", "--n-max", "3", "--node-budget", "10"
    )
    assert code == 1
    assert "budget" in err


@pytest.mark.parametrize("value", ["0", "-5"])
def test_entropy_node_budget_below_one_is_usage_error(capsys, value):
    code, out, err = run_cli(
        capsys, "entropy", "--machine", "utm_6_4", "--n-max", "3", "--node-budget", value
    )
    assert code == 2
    assert out == ""
    assert "--node-budget" in err


def test_analyze_n_max_rejected_before_analysis(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(cli, "verify_conjugacy", fail)
    monkeypatch.setattr(cli, "shift_table_rows", fail)
    code, out, err = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--n-max", "0")
    assert code == 2
    assert out == ""
    assert "--n-max" in err


def _count_calls(monkeypatch, *targets):
    """Replace each (module, name) by a wrapper that counts its calls under ``name``."""
    calls = collections.Counter()
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_computes_each_fact_once(capsys, monkeypatch):
    calls = _count_calls(
        monkeypatch,
        (shift_analysis, "shift_table"),
        (cli, "shift_table"),
        (regularity, "shift_table"),
        (cli, "shift_graph"),
        (regularity, "shift_graph"),
        (cli, "entropy_lower_bound"),
        (words, "entropy_lower_bound"),
        (regularity, "check_regularity"),
    )
    code, _, _ = run_cli(capsys, "analyze", "--machine", "wutm_6_2", "--n-max", "5")
    assert code == 0
    # check_regularity builds its own table and graphs (2 and 4 in all); sharing
    # them would take a table parameter on the public certificate functions.
    assert calls == {
        "shift_table": 2, "shift_graph": 4, "entropy_lower_bound": 1, "check_regularity": 1
    }
    calls.clear()
    code, _, _ = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--n-max", "5")
    assert code == 0
    assert calls == {"shift_table": 1, "shift_graph": 2, "entropy_lower_bound": 1}


def test_analyze_budget_error_is_analysis_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "entropy_estimates", functools.partial(cli.entropy_estimates, node_budget=10)
    )
    code, out, err = run_cli(capsys, "analyze", "--machine", "utm_6_4", "--n-max", "3")
    assert code == 1
    assert "budget" in err
    report = json.loads(out)
    assert report["word_counts"]["rows"] == []
    assert "budget" in report["word_counts"]["budget_error"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--steps", "-1"],
        ["gshift", "--verify", "0"],
        ["analyze", "--conjugacy-samples", "0"],
        ["entropy", "--n-max", "x"],
    ],
)
def test_numeric_flags_out_of_range_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--machine", "wutm_6_2")
    assert code == 2
    assert out == ""
    assert argv[1] in err


@pytest.mark.parametrize("trace", [False, True])
def test_simulate_runs_the_orbit_once(capsys, monkeypatch, trace):
    calls = {"step": 0, "run": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # Counted where it is defined, so calls made inside iterate or run count too.
    monkeypatch.setattr(machine, "step", counted("step", machine.step))
    monkeypatch.setattr(cli, "run", counted("run", cli.run))
    argv = ["simulate", "--machine", "utm_6_4", "--steps", "40", "--json"]
    code, out, _ = run_cli(capsys, *argv, *(["--trace"] if trace else []))
    assert code == 0
    assert json.loads(out)["steps_taken"] == 40
    assert calls == ({"step": 40, "run": 0} if trace else {"step": 0, "run": 1})


def test_simulate_one_step(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--machine", "utm_6_4", "--state", "u2", "--tape", "b",
        "--steps", "1", "--trace",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].strip().startswith("0") and "u2" in lines[0]
    assert "did not halt" in out


def test_simulate_zero_steps_echoes(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--machine", "utm_6_4", "--tape", "b", "--steps", "0"
    )
    assert code == 0
    assert "u1" in out


def test_simulate_from_the_halting_state_prints_it_once(capsys):
    argv = ["simulate", "--machine", "utm_6_4", "--state", "halt", "--steps", "5"]
    plain = run_cli(capsys, *argv)
    assert plain == run_cli(capsys, *argv, "--trace")
    assert plain == (0, "   0  halt | …g . g g…\nhalted at time 0\n", "")


def test_simulate_reports_halting_time(capsys, halter_file):
    code, out, _ = run_cli(capsys, "simulate", "--file", halter_file, "--steps", "10")
    assert code == 0
    assert "halted at time 1" in out


def test_simulate_json(capsys, halter_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--file", halter_file, "--tape", "1", "--steps", "5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["halted"] is True
    assert doc["halting_time"] == 1
    assert doc["final"]["tape"] == {"0": "1"}


def test_simulate_restart_mode(capsys, halter_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--file", halter_file, "--steps", "3", "--json",
        "--halting-mode", "restart",
    )
    assert code == 0
    assert json.loads(out)["halting_time"] == 1


def test_gshift_verify(capsys):
    code, out, _ = run_cli(
        capsys, "gshift", "--machine", "wutm_6_2", "--verify", "1000", "--seed", "7"
    )
    assert code == 0
    assert "1000/1000 passed (seed 7)" in out


def test_gshift_dump(capsys):
    code, out, _ = run_cli(capsys, "gshift", "--machine", "utm_6_4", "--dump")
    assert code == 0
    doc = json.loads(out)
    assert doc["radius"] == 1
    assert len(doc["rules"]) > 0


def test_gshift_requires_mode(capsys):
    code, _, _ = run_cli(capsys, "gshift", "--machine", "utm_6_4")
    assert code == 2


def test_missing_machine_source(capsys):
    code, _, _ = run_cli(capsys, "gshift", "--dump")
    assert code == 2


def _accepted_flags(command):
    """The first option string of every argument ``command`` takes, help excluded."""
    sub = next(a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        action.option_strings[0]
        for action in sub.choices[command]._actions
        if action.option_strings and action.option_strings[0] != "-h"
    }


# Flags that change no output: --oracle only checks (see the test below); a simulated
# orbit stops on reaching the halting state, so it does not depend on the halting mode.
_SILENT_FLAGS = {"entropy": {"--oracle"}, "simulate": {"--halting-mode"}}


def _flag_cases(halter, other, out):
    """For each subcommand, a leading argv and, for each flag it takes, two
    argvs that differ only in that flag's presence or value."""
    u, w, h, f = ["--machine", "utm_6_4"], ["--machine", "wutm_6_2"], ["--file", halter], ["--file", other]
    restart, seed, verify, dump = ["--halting-mode", "restart"], ["--seed", "1"], ["--verify", "20"], ["--dump"]
    return {
        "analyze": (["--conjugacy-samples", "5"], {
            "--machine": (u, w),
            "--file": (h, f),
            "--halting-mode": (u, u + restart),
            "--seed": (u, u + seed),
            "--n-max": (u, u + ["--n-max", "2"]),
            "--conjugacy-samples": (u, u + ["--conjugacy-samples", "6"]),
            "--out": (u, u + ["--out", out]),
        }),
        "graph": (["--eps", "+1"], {
            "--machine": (u, w),
            "--file": (h, f),
            "--eps": (u, u + ["--eps", "-1"]),
        }),
        "entropy": (["--n-max", "3"], {
            "--machine": (u, w),
            "--file": (h, f),
            "--halting-mode": (u, u + restart),
            "--json": (u, u + ["--json"]),
            "--n-max": (u, u + ["--n-max", "2"]),
            "--node-budget": (u, u + ["--node-budget", "10"]),
            "--initial-only": (u, u + ["--initial-only"]),
        }),
        "simulate": (["--steps", "3"], {
            "--machine": (u, w),
            "--file": (h, f),
            "--json": (u, u + ["--json"]),
            "--state": (u, u + ["--state", "u2"]),
            "--tape": (u, u + ["--tape", "c"]),
            "--offset": (u + ["--tape", "c"], u + ["--tape", "c", "--offset", "2"]),
            "--steps": (u, u + ["--steps", "4"]),
            "--trace": (u, u + ["--trace"]),
        }),
        "gshift": ([], {
            "--machine": (u + dump, w + dump),
            "--file": (h + dump, f + dump),
            "--halting-mode": (u + dump, u + dump + restart),
            "--json": (u + verify, u + verify + ["--json"]),
            "--seed": (u + verify, u + verify + seed),
            "--verify": (u + verify, u + ["--verify", "21"]),
            "--dump": (u, u + dump),
        }),
    }


def test_every_flag_changes_the_outcome(capsys, halter_file, tmp_path):
    other = tmp_path / "wutm.tm"
    other.write_text(corpus_text("wutm_6_2"))
    cases = _flag_cases(halter_file, str(other), str(tmp_path / "report.json"))
    assert sorted(cases) == sorted(cli._COMMANDS)
    for command, (lead, flags) in cases.items():
        assert set(flags) | _SILENT_FLAGS.get(command, set()) == _accepted_flags(command)
        for flag, (a, b) in flags.items():
            assert flag in a + b
            results = [run_cli(capsys, command, *lead, *argv) for argv in (a, b)]
            assert results[0] != results[1], (command, flag)


def test_oracle_flag_runs_the_oracle(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, (cli, "count_words_oracle"))
    argv = ["entropy", "--machine", "utm_6_4", "--n-max", "3"]
    plain = run_cli(capsys, *argv)
    assert calls["count_words_oracle"] == 0
    assert run_cli(capsys, *argv, "--oracle") == plain
    assert calls["count_words_oracle"] == 3


@pytest.mark.parametrize(
    "command, foreign",
    [
        (["analyze"], ["--json"]),
        (["graph", "--eps", "+1"], ["--json"]),
        (["graph", "--eps", "+1"], ["--seed", "1"]),
        (["graph", "--eps", "+1"], ["--format", "dot"]),
        (["entropy", "--n-max", "2"], ["--seed", "1"]),
        (["simulate", "--steps", "2"], ["--seed", "1"]),
        (["graph", "--eps", "+1"], ["--halting-mode", "restart"]),
    ],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(capsys, command, foreign):
    code, out, err = run_cli(capsys, *command, "--machine", "utm_6_4", *foreign)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(foreign)}" in err


def test_readme_flag_table_matches_the_parser():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    rows = {
        command: set(re.findall(r"--[a-z-]+", row))
        for command, row in re.findall(r"^\| `(\w+)` \|(.*)\|$", readme, re.MULTILINE)
    }
    assert rows == {command: _accepted_flags(command) for command in cli._COMMANDS}


def _corrupt_oracle(monkeypatch):
    real = cli.count_words_oracle
    monkeypatch.setattr(
        cli, "count_words_oracle", lambda m, n, **kw: real(m, n, **kw) + (n == 2)
    )


def _corrupt_gshift(monkeypatch):
    real = gshift.compile_gshift

    def corrupted(m):  # one wrong replacement, as in test_conjugacy_detects_corruption
        g, b, u2 = m.symbol_named("g"), m.symbol_named("b"), m.state_named("u2")
        return gshift.GeneralizedShift(1, {**real(m).rules, (g, u2, b): ((b, b, u2), 1)})

    monkeypatch.setattr(gshift, "compile_gshift", corrupted)


def test_entropy_oracle_mismatch_is_analysis_failure(capsys, monkeypatch):
    argv = ["entropy", "--machine", "utm_6_4", "--n-max", "3", "--oracle"]
    _, report, _ = run_cli(capsys, *argv)
    _corrupt_oracle(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, report)  # the whole report, then the mismatch
    assert err == "error: oracle mismatch at n=2: count_words=97, oracle=98\n"


def test_gshift_conjugacy_failure_is_analysis_failure(capsys, monkeypatch):
    _corrupt_gshift(monkeypatch)
    argv = ["gshift", "--machine", "utm_6_4", "--verify", "300", "--seed", "3"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (1, "error: conjugacy check failed on 4 of 300 samples (seed 3)\n")
    assert out.splitlines() == [
        "conjugacy check: 296/300 passed (seed 3)",
        "first counterexample: u2 | …g g g . b d c g…",
    ]
    code, out, _ = run_cli(capsys, *argv, "--json")
    assert code == 1
    assert json.loads(out) == {"samples": 300, "passes": 296, "failures": 4, "seed": 3}


def _csv_rows(out):
    header, *rows = out.splitlines()
    assert header == "n,count,e_n,min_e_n"
    return rows


def _small_analyze_budget(monkeypatch):
    monkeypatch.setattr(
        cli, "entropy_estimates", functools.partial(cli.entropy_estimates, node_budget=300)
    )


_CONJUGACY_FAILED = "conjugacy check failed on 4 of 300 samples (seed 3)"
_UTM_ORACLE = ["entropy", "--machine", "utm_6_4", "--n-max", "3", "--oracle"]
_ANALYSIS_FAILURES = {
    # name: (argv, corruption, the error after "error: ", check of the full stdout)
    "analyze-conjugacy": (
        ["analyze", "--machine", "utm_6_4", "--conjugacy-samples", "300", "--seed", "3"],
        _corrupt_gshift,
        _CONJUGACY_FAILED,
        lambda out: json.loads(out)["conjugacy"] == {"samples": 300, "passes": 296, "failures": 4, "seed": 3},
    ),
    "gshift-text": (
        ["gshift", "--machine", "utm_6_4", "--verify", "300", "--seed", "3"],
        _corrupt_gshift,
        _CONJUGACY_FAILED,
        lambda out: out.startswith("conjugacy check: 296/300 passed (seed 3)\nfirst counterexample: "),
    ),
    "gshift-json": (
        ["gshift", "--machine", "utm_6_4", "--verify", "300", "--seed", "3", "--json"],
        _corrupt_gshift,
        _CONJUGACY_FAILED,
        lambda out: json.loads(out)["failures"] == 4,
    ),
    "entropy-oracle-csv": (
        _UTM_ORACLE,
        _corrupt_oracle,
        "oracle mismatch at n=2: count_words=97, oracle=98",
        lambda out: len(_csv_rows(out)) == 3,
    ),
    "entropy-oracle-json": (
        [*_UTM_ORACLE, "--json"],
        _corrupt_oracle,
        "oracle mismatch at n=2: count_words=97, oracle=98",
        lambda out: [r["count"] for r in json.loads(out)["rows"]] == [28, 97, 283],
    ),
    "entropy-budget": (
        ["entropy", "--machine", "utm_6_4", "--n-max", "6", "--node-budget", "300"],
        None,
        "word enumeration for n=5 exceeded the node budget of 300",
        lambda out: len(_csv_rows(out)) == 4,
    ),
    "analyze-budget": (
        ["analyze", "--machine", "utm_6_4", "--n-max", "6"],
        _small_analyze_budget,
        "exceeded the node budget of 300",
        lambda out: "node budget of 300" in json.loads(out)["word_counts"]["budget_error"],
    ),
    "analyze-alphabet-cap": (["analyze", "--file", "{wide}"], None, "cap 16", lambda out: out == ""),
}


@pytest.mark.parametrize("case", list(_ANALYSIS_FAILURES))
def test_each_analysis_failure_prints_its_output_then_one_error_line(
    capsys, monkeypatch, machine_files, case
):
    argv, corrupt, reason, full_output = _ANALYSIS_FAILURES[case]
    if corrupt is not None:
        corrupt(monkeypatch)
    code, out, err = run_cli(capsys, *(arg.format(**machine_files) for arg in argv))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert reason in err and "Traceback" not in err
    assert full_output(out)


def test_only_main_writes_to_stderr():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    in_main = {id(n) for n in ast.walk(defs["main"])}
    in_main_or_entry = in_main | {id(n) for n in ast.walk(defs["entry"])}

    def sys_uses(attr):
        return [
            n for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == attr
            and isinstance(n.value, ast.Name) and n.value.id == "sys"
        ]

    uses = sys_uses("stderr")
    assert uses and all(id(n) in in_main for n in uses)
    # Commands return their output, so only main and entry print or touch stdout.
    prints = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "print"
    ]
    stdout = sys_uses("stdout")
    assert prints and stdout and all(id(n) in in_main_or_entry for n in prints + stdout)


def test_machine_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    path = tmp_path / "wutm_bom.tm"
    path.write_bytes(b"\xef\xbb\xbf" + corpus_text("wutm_6_2").encode("utf-8"))
    for command in (["graph", "--eps", "+1"], ["graph", "--eps", "-1"], ["entropy", "--n-max", "8"]):
        assert run_cli(capsys, *command, "--file", str(path)) == run_cli(
            capsys, *command, "--machine", "wutm_6_2"
        )


def test_simulate_trace_agrees_with_run(capsys, halter_file):
    sources = [(["--machine", name], corpus_text(name)) for name in corpus_names()]
    sources.append((["--file", halter_file], HALTER_TEXT))
    sources = [(flags, machine.parse_machine(text)) for flags, text in sources]
    rng = random.Random(2024)
    halted = set()
    for _ in range(240):
        source, m = rng.choice(sources)
        tape = " ".join(rng.choice(m.alphabet).name for _ in range(rng.randint(0, 8)))
        argv = [
            "simulate", *source, "--json",
            "--halting-mode", rng.choice(machine.HALTING_MODES),
            "--state", rng.choice(m.states).name,
            "--tape", tape,
            "--offset", str(rng.randint(-4, 4)),
            "--steps", str(rng.randint(0, 60)),
        ]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        ran = json.loads(out)
        code, out, err = run_cli(capsys, *argv, "--trace")
        assert (code, err) == (0, ""), argv
        traced = json.loads(out)
        keys = ("initial", "final", "steps_taken", "halted", "halting_time")
        assert {k: traced[k] for k in keys} == {k: ran[k] for k in keys}, argv
        assert ran["trace"] is None
        assert len(traced["trace"]) == traced["steps_taken"] + 1, argv
        assert (traced["trace"][0], traced["trace"][-1]) == (traced["initial"], traced["final"]), argv
        halted.add(ran["halted"])
    assert halted == {True, False}


def _module_argv_env(argv, env=()):
    """``python -m tmdyn.cli ...``, as the console script runs it, and its environment."""
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return [sys.executable, "-m", "tmdyn.cli", *argv], env


def _run_module(*argv, env=()):
    args, env = _module_argv_env(argv, env)
    done = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_console_entry_point_exits_with_mains_code(capsys):
    argv = ["graph", "--machine", "wutm_6_2", "--eps", "+1"]
    assert _run_module(*argv) == run_cli(capsys, *argv)
    code, out, err = _run_module(*argv, "--seed", "1")
    assert (code, out) == (2, "")
    assert err.startswith("usage: tmdyn") and err.count("error:") == 1 and "Traceback" not in err


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_quietly():
    err = io.StringIO()
    with contextlib.redirect_stdout(_ClosedPipe()), contextlib.redirect_stderr(err):
        code = main(["entropy", "--machine", "utm_6_4", "--n-max", "3", "--json"])
    assert (code, err.getvalue()) == (1, "")


def test_reader_that_closes_the_pipe_early_ends_the_command_quietly():
    # The trace is megabytes, far more than a pipe buffer, so writing it fails;
    # a buffered stdout then still holds output for the flush at exit.
    args, env = _module_argv_env(["simulate", "--machine", "utm_6_4", "--steps", "2000", "--trace"])
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        assert child.stdout.readline().split()[:2] == [b"0", b"u1"]
        child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (1, b"")


def test_reader_gone_before_a_short_output_is_flushed_ends_the_command_quietly():
    # A short report is still buffered when main returns; the console entry
    # flushes it, and the flush at exit must not print "Exception ignored".
    args, env = _module_argv_env(["entropy", "--machine", "utm_6_4", "--n-max", "3", "--json"])
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(args, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


def test_stdout_that_cannot_encode_the_output_is_usage_error():
    # simulate's tape text has "…", which an ASCII stdout cannot write.
    argv = ["simulate", "--machine", "utm_6_4", "--steps", "2"]
    code, _, err = _run_module(*argv, env={"PYTHONIOENCODING": "ascii"})
    assert code == 2
    assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err


def _run_module_without_stdout(*argv):
    """``_run_module`` with file descriptor 1 closed, as the shell's ``>&-`` leaves it."""
    args, env = _module_argv_env(argv)
    done = subprocess.run(
        args, stderr=subprocess.PIPE, text=True, env=env, timeout=60, preexec_fn=lambda: os.close(1)
    )
    return done.returncode, done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--machine", "utm_6_4", "--n-max", "3"],
        ["graph", "--machine", "wutm_6_2", "--eps", "+1"],
        ["analyze", "--machine", "wutm_6_2", "--conjugacy-samples", "5"],
        ["simulate", "--machine", "utm_6_4", "--steps", "3"],
        ["gshift", "--machine", "utm_6_4", "--verify", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_shell_closed_stdout_is_usage_error(argv):
    assert _run_module_without_stdout(*argv) == (2, "error: standard output is closed\n")


def test_analyze_out_needs_no_stdout(capsys, tmp_path):
    argv = ["analyze", "--machine", "wutm_6_2", "--conjugacy-samples", "5"]
    path = tmp_path / "report.json"
    assert _run_module_without_stdout(*argv, "--out", str(path)) == (0, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and path.read_bytes() == out.encode("utf-8")


def test_main_without_a_stdout_is_usage_error():
    err = io.StringIO()
    with contextlib.redirect_stdout(None), contextlib.redirect_stderr(err):
        code = main(["graph", "--machine", "wutm_6_2", "--eps", "+1"])
    assert (code, err.getvalue()) == (2, "error: standard output is closed\n")
