"""Output checks: each returns the list of problems found, empty when the output is right.

The expected values are computed outside the timed region, from the
benchmark's own tables and simulator, from tmdyn's deliberately naive
re-checks (``count_words_oracle``, ``verify_witness``), and from properties
every correct answer has (c(1), submultiplicativity, the exact entropy
bracket c(n)^over >= log_of^n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from tables import SimResult, Table, replay_shift

#: Published certificates of the corpus machines: (verdict, log_of, over).
PUBLISHED = {
    "utm_6_4": ("strongly-regular", 2, 1),
    "wutm_6_2": ("regular", 2, 3),
}


@dataclass(frozen=True)
class WordExpect:
    n_max: int
    c1: int
    oracle: dict[int, int] = field(default_factory=dict)  # n -> count_words_oracle


def check_word_rows(rows: list[dict], bound: dict | None, expect: WordExpect) -> list[str]:
    """Rows of an entropy report against c(1), the oracle, c(a+b) <= c(a)c(b) and the bracket."""
    problems = []
    if [r["n"] for r in rows] != list(range(1, expect.n_max + 1)):
        return [f"rows cover n = {[r['n'] for r in rows]}, expected 1..{expect.n_max}"]
    counts = {r["n"]: r["count"] for r in rows}
    if counts[1] != expect.c1:
        problems.append(f"c(1) = {counts[1]}, expected |states|*|alphabet| = {expect.c1}")
    for n, want in expect.oracle.items():
        if counts[n] != want:
            problems.append(f"c({n}) = {counts[n]}, oracle says {want}")
    for a in range(1, expect.n_max):
        for b in range(a, expect.n_max - a + 1):
            if counts[a + b] > counts[a] * counts[b]:
                problems.append(f"c({a + b}) > c({a}) * c({b})")
    if bound is not None:
        for n, c in counts.items():
            if c ** bound["over"] < bound["log_of"] ** n:
                problems.append(f"bracket broken at n={n}: c^{bound['over']} < {bound['log_of']}^{n}")
    running = math.inf
    for r in rows:
        e_n = math.log(r["count"]) / r["n"]
        running = min(running, e_n)
        if not math.isclose(r["e_n"], e_n, rel_tol=1e-12):
            problems.append(f"e_{r['n']} = {r['e_n']}, expected log(count)/n = {e_n}")
        if not math.isclose(r["min_e_n"], running, rel_tol=1e-12):
            problems.append(f"min_e_{r['n']} = {r['min_e_n']}, expected running minimum {running}")
    return problems


def _load(code: int, text: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_entropy(code: int, text: str, name: str, expect: WordExpect) -> list[str]:
    """``tmdyn entropy --json`` on a corpus machine."""
    report, problems = _load(code, text)
    if report is None:
        return problems
    cert = report["certificate"]
    verdict, log_of, over = PUBLISHED[name]
    bound = cert["bound"]
    if cert["verdict"] != verdict or bound is None or (bound["log_of"], bound["over"]) != (log_of, over):
        problems.append(f"certificate {cert['verdict']} {bound}, published {verdict} log {log_of} / {over}")
    if report["budget_error"] is not None:
        problems.append(f"budget error: {report['budget_error']}")
    return problems + check_word_rows(report["rows"], bound, expect)


def check_simulate(code: int, text: str, want: SimResult, closed_form_k: int | None = None) -> list[str]:
    """``tmdyn simulate --json`` against the reference run and, for a blank utm_6_4 tape, its closed form."""
    report, problems = _load(code, text)
    if report is None:
        return problems
    final = report["final"]
    tape = {int(i): s for i, s in final["tape"].items()}
    if final["state"] != want.state or tape != want.tape:
        problems.append("final configuration differs from the reference simulator")
    if report["steps_taken"] != want.steps_taken or report["halted"] != want.halted:
        problems.append(
            f"steps_taken={report['steps_taken']} halted={report['halted']}, "
            f"reference {want.steps_taken} {want.halted}"
        )
    if report["halting_time"] != (want.steps_taken if want.halted else None):
        problems.append(f"halting_time {report['halting_time']} does not match the run")
    if report["trace"] is not None:
        problems.append("a trace was printed without --trace")
    if closed_form_k is not None and (final["state"], tape) != ("u1", {i: "b" for i in range(1, closed_form_k + 1)}):
        problems.append(f"blank-tape orbit is not u1 with b on cells 1..{closed_form_k}")
    return problems


def check_analyze(code: int, text: str, table: Table, machine, samples: int, expect: WordExpect) -> list[str]:
    """``tmdyn analyze --n-max n --conjugacy-samples k`` on a generated machine file.

    ``machine`` is the file parsed by tmdyn, used to rebuild the witness for
    ``verify_witness``; ``table`` is the benchmark's own copy of the rules.
    """
    report, problems = _load(code, text)
    if report is None:
        return problems
    conj = report["conjugacy"]
    if (conj["samples"], conj["passes"], conj["failures"]) != (samples, samples, 0):
        problems.append(f"conjugacy {conj['passes']}/{conj['samples']} passed, {samples} samples requested")
    pairs = [(q, s) for q in table.states if q != table.halting for s in table.alphabet]
    if report["shift_table"] != [replay_shift(table, q, s) for q, s in pairs]:
        problems.append("shift table differs from the replay of the transition table")
    cert = report["certificate"]
    problems += _check_certificate(cert, machine)
    words = report["word_counts"]
    if words["budget_error"] is not None:
        problems.append(f"budget error: {words['budget_error']}")
    return problems + check_word_rows(words["rows"], cert["bound"], expect)


def _check_certificate(cert: dict, machine) -> list[str]:
    # Imported here, not at the top: a set-up probe times the first import of tmdyn.
    from tmdyn import MachineError, RegularWitness, StrongWitness, verify_witness

    w = cert["witness"]
    bound = cert["bound"]
    if w is None:
        if cert["verdict"] != "no-witness-found" or bound is not None:
            return [f"verdict {cert['verdict']} with bound {bound} but no witness"]
        return []
    try:
        if w["type"] == "strong-block":
            witness = StrongWitness(
                cert["direction"],
                frozenset(machine.state_named(q) for q in w["states"]),
                frozenset(machine.symbol_named(s) for s in w["symbols"]),
            )
            claimed = ("strongly-regular", len(w["symbols"]), 1)
        else:
            walks = [tuple((machine.state_named(q), machine.symbol_named(s)) for q, s in w[k]) for k in ("walk_a", "walk_b")]
            witness = RegularWitness(
                cert["direction"], machine.state_named(w["base"]), *walks, w["cost_a"], w["cost_b"]
            )
            claimed = ("regular", 2, max(w["cost_a"], w["cost_b"]))
    except MachineError as exc:
        return [f"witness names something the machine lacks: {exc}"]
    problems = []
    if not verify_witness(machine, witness):
        problems.append(f"witness fails verify_witness: {w}")
    if bound is None or (cert["verdict"], bound["log_of"], bound["over"]) != claimed:
        problems.append(f"certificate {cert['verdict']} {bound} does not follow from its witness")
    return problems
