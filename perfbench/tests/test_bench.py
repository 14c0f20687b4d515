"""Tests of the benchmark itself: every check rejects a corrupted output.

Run with ``python3 -m pytest perfbench/tests``.
"""

import copy
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads
from tables import format_table, parse_table, random_table, replay_shift, simulate
from tmdyn import cli, parse_machine

ROOT = Path(__file__).resolve().parents[2]


def cli_json(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0
    return json.loads(out.getvalue())


def as_output(report):
    return 0, json.dumps(report)


# --- entropy-corpus -----------------------------------------------------------


@pytest.fixture(scope="module")
def wutm_entropy():
    check = workloads._prepare_entropy("wutm_6_2", "fixpoint", 8, 4)
    report = cli_json(["entropy", "--machine", "wutm_6_2", "--n-max", "8", "--json", "--oracle"])
    return check, report


def test_entropy_check_accepts_the_real_output(wutm_entropy):
    check, report = wutm_entropy
    assert check(*as_output(report)) == []


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda r: r["rows"][0].update(count=r["rows"][0]["count"] + 1), "c(1)"),
        (lambda r: r["rows"][2].update(count=r["rows"][2]["count"] - 1), "oracle"),
        (lambda r: r["rows"][7].update(count=r["rows"][0]["count"] ** 8 + 1), "c(8) > c("),
        (lambda r: r["rows"][7].update(count=6), "bracket broken at n=8"),
        (lambda r: r["rows"][4].update(e_n=r["rows"][4]["e_n"] * 1.001), "e_5"),
        (lambda r: r["rows"][5].update(min_e_n=r["rows"][4]["e_n"] * 2), "min_e_6"),
        (lambda r: r["certificate"]["bound"].update(over=2), "published"),
        (lambda r: r.update(budget_error="exceeded"), "budget error"),
        (lambda r: r["rows"].pop(), "rows cover"),
    ],
)
def test_entropy_check_rejects_corruption(wutm_entropy, corrupt, message):
    check, report = wutm_entropy
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems = check(*as_output(bad))
    assert any(message in p for p in problems), problems


def test_entropy_check_rejects_failed_exit_and_garbage(wutm_entropy):
    check, _ = wutm_entropy
    assert check(1, "") == ["exit code 1"]
    assert "not JSON" in check(0, "n,count\n1,14\n")[0]


# --- simulate-long ------------------------------------------------------------


def test_simulate_check_against_reference_and_closed_form():
    utm = workloads.corpus_table("utm_6_4")
    job = workloads._simulate_job("utm_6_4", utm, "fixpoint", "u1", [], 40, closed_form=True)
    check = job.prepare()
    report = cli_json(job.argv)
    assert check(*as_output(report)) == []

    bad = copy.deepcopy(report)
    bad["final"]["tape"]["7"] = "g"
    problems = check(*as_output(bad))
    assert any("reference simulator" in p for p in problems)
    assert any("closed form" in p or "cells 1..40" in p for p in problems)

    bad = copy.deepcopy(report)
    bad["steps_taken"] = 39
    assert any("steps_taken=39" in p for p in check(*as_output(bad)))

    bad = copy.deepcopy(report)
    bad["halted"], bad["halting_time"] = True, 40
    assert check(*as_output(bad))

    bad = copy.deepcopy(report)
    bad["trace"] = []
    assert any("trace" in p for p in check(*as_output(bad)))


def test_reference_simulator_matches_the_closed_form():
    utm = workloads.corpus_table("utm_6_4")
    result = simulate(utm, "u1", {}, 25)
    assert (result.state, result.tape, result.steps_taken, result.halted) == (
        "u1", {i: "b" for i in range(1, 26)}, 25, False
    )


def test_simulate_job_list_is_seeded_and_in_band():
    a = workloads.simulate_long(3, None)
    b = workloads.simulate_long(3, None)
    c = workloads.simulate_long(4, None)
    assert [j.argv for j in a] == [j.argv for j in b]
    assert [j.argv for j in a] != [j.argv for j in c]
    assert sum("random" in j.label and "utm_6_4" in j.label for j in a) == workloads.UTM_TAPES + 1


# --- survey-random ------------------------------------------------------------


@pytest.fixture(scope="module")
def analysed(tmp_path_factory):
    """A generated machine with a closed-walk witness, and its analyze report."""
    rng = random.Random(11)
    while True:
        table = random_table(rng, 3, 2, 0.0)
        machine = parse_machine(format_table(table))
        path = tmp_path_factory.mktemp("m") / "m.tm"
        path.write_text(format_table(table))
        argv = ["analyze", "--file", str(path), "--n-max", "4", "--conjugacy-samples", "20"]
        report = cli_json(argv)
        if report["certificate"]["verdict"] == "regular":
            break
    expect = checks.WordExpect(4, 8, {1: 8})
    return table, machine, expect, report


def check_analyze(analysed, report):
    table, machine, expect, _ = analysed
    return checks.check_analyze(0, json.dumps(report), table, machine, 20, expect)


def test_analyze_check_accepts_the_real_output(analysed):
    assert check_analyze(analysed, analysed[3]) == []


def test_analyze_check_rejects_a_broken_witness_walk(analysed):
    bad = copy.deepcopy(analysed[3])
    walk = bad["certificate"]["witness"]["walk_a"]
    walk[-1][0] = next(q for q in analysed[0].states[:-1] if q != walk[-1][0])
    assert any("verify_witness" in p for p in check_analyze(analysed, bad))


def test_analyze_check_rejects_a_bound_the_witness_does_not_give(analysed):
    bad = copy.deepcopy(analysed[3])
    bad["certificate"]["bound"]["over"] += 1
    assert any("does not follow" in p for p in check_analyze(analysed, bad))


def test_analyze_check_rejects_a_wrong_shift_row(analysed):
    bad = copy.deepcopy(analysed[3])
    row = next(r for r in bad["shift_table"] if r["kind"] == "shift")
    row["steps"] += 1
    assert any("shift table" in p for p in check_analyze(analysed, bad))


def test_analyze_check_rejects_conjugacy_failures_and_missing_samples(analysed):
    bad = copy.deepcopy(analysed[3])
    bad["conjugacy"].update(passes=19, failures=1)
    assert any("conjugacy" in p for p in check_analyze(analysed, bad))
    bad = copy.deepcopy(analysed[3])
    bad["conjugacy"].update(samples=10, passes=10)
    assert any("conjugacy" in p for p in check_analyze(analysed, bad))


def test_analyze_check_rejects_a_wrong_count(analysed):
    bad = copy.deepcopy(analysed[3])
    bad["word_counts"]["rows"][0]["count"] += 1
    assert any("c(1)" in p for p in check_analyze(analysed, bad))


def test_table_text_round_trips_through_both_parsers():
    table = random_table(random.Random(5), 4, 3, 0.3)
    text = format_table(table)
    assert "-> HALT" in text
    assert parse_table(text) == table
    machine = parse_machine(text)
    for q, s in table.rules:
        tr = machine.rules[(machine.state_named(q), machine.symbol_named(s))]
        assert (tr.next_state.name, tr.write.name, tr.move) == table.rules[(q, s)]
        assert replay_shift(table, q, s)["kind"] in ("halt", "periodic", "shift")


# --- the runner ---------------------------------------------------------------


def test_failed_checks_and_exit_codes_are_counted_as_failed():
    utm = workloads.corpus_table("utm_6_4")
    good = workloads._simulate_job("utm_6_4", utm, "fixpoint", "u1", [], 30, closed_form=True)
    wrong = workloads._simulate_job("utm_6_4", utm, "fixpoint", "u1", [], 30, closed_form=True)
    wrong.prepare = lambda: lambda code, text: checks.check_simulate(code, text, simulate(utm, "u1", {}, 29))
    refused = workloads.Job("unknown machine", ["simulate", "--machine", "nope", "--steps", "1"], good.prepare)
    malformed = workloads.Job("other report", ["gshift", "--machine", "utm_6_4", "--verify", "5", "--json"], good.prepare)
    jobs = [good, wrong, refused, malformed]
    phase = run.run_phase(jobs, [job.prepare() for job in jobs], seconds=0)
    (results,) = phase.rounds
    assert [(r.failed, r.wrong) for r in results] == [(False, False), (True, True), (True, False), (True, True)]
    assert results[3].problems[0].startswith("malformed output: KeyError")
    assert len(phase.refs) == 5


def test_tracing_records_spans_and_restores_the_functions():
    import tmdyn.machine
    import tmdyn.words

    original = tmdyn.machine.step
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert tmdyn.words.step is tmdyn.machine.step is not original
        assert cli._COMMANDS["simulate"] is cli.cmd_simulate
        job = workloads._simulate_job("utm_6_4", workloads.corpus_table("utm_6_4"), "fixpoint", "u1", [], 20)
        result = run.execute(job, job.prepare(), tracer, job_id=0)
    finally:
        uninstall()
    assert tmdyn.words.step is tmdyn.machine.step is original
    assert not result.failed
    calls, self_s, incl_s = tracer.totals({0: 1.0})
    assert calls["cli.main"] == 1 and calls["cli.cmd_simulate"] == 1
    assert calls["machine.run"] == 1 and calls["machine.step"] == 40  # the trail, then run
    assert tracer.counts["machine.run.steps"] == 20
    assert 0 <= self_s["machine.run"] <= incl_s["machine.run"] <= incl_s["cli.main"]
    spans = tracer.spans()
    main_span = next(s for s in spans if s["name"] == "cli.main")
    assert main_span["parent"] == -1
    assert all(s["job"] == 0 for s in spans)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_a_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "survey-random", "--seed", "2", "--seconds", "0", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.per_layer_metrics())
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    shapes = len(workloads.SURVEY_STATES) * len(workloads.SURVEY_SYMBOLS) * len(workloads.SURVEY_HALT_SHARES)
    assert metrics["cli.main.calls"] == 2 * shapes
    assert metrics["gshift.verify_conjugacy.samples"] == metrics["cli.main.calls"] * workloads.SURVEY_SAMPLES
    assert metrics["words.count_words.peak_mb"] > 0
