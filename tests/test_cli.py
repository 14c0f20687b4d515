import functools
import json

import pytest

from tmdyn import cli
from tmdyn.cli import main

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

    monkeypatch.setattr(cli, "step", counted("step", cli.step))
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
