import math
import random

import pytest
from hypothesis import given, settings

from tmdyn import (
    BudgetExceededError,
    State,
    Symbol,
    Transition,
    TuringMachine,
    builtin_machine,
    count_words,
    count_words_oracle,
    entropy_estimates,
    random_machine,
    report_to_csv,
    report_to_json_dict,
)
from tmdyn import words
from tmdyn.machine import HALTING_MODES, parse_machine
from tmdyn.regularity import STRONGLY_REGULAR

from conftest import machines, wide_machine_text, word_set


def test_length_one_words_are_all_pairs(utm, wutm):
    for m in (utm, wutm):
        expected = {((q, s),) for q in m.states for s in m.alphabet}
        assert word_set(m, 1) == expected
        assert count_words(m, 1) == len(m.states) * len(m.alphabet)
        assert count_words_oracle(m, 1) == len(expected)


def test_right_runner_counts(right_runner):
    # 2^3 words from the running state (free window symbols) plus the
    # constant traces of the two symbols under the halting fixpoint
    assert count_words(right_runner, 3) == 2**3 + 2
    assert count_words_oracle(right_runner, 3) == 2**3 + 2


def test_right_runner_word_set(right_runner):
    q = right_runner.state_named("q")
    zero, one = right_runner.symbol_named("0"), right_runner.symbol_named("1")
    words = word_set(right_runner, 2)
    assert ((q, zero), (q, one)) in words
    assert ((q, one), (q, zero)) in words


def test_initial_only_restriction(right_runner):
    assert count_words(right_runner, 3, initial_only=True) == 2**3
    assert count_words_oracle(right_runner, 3, initial_only=True) == 2**3


def test_initial_only_estimates(utm):
    full = entropy_estimates(utm, 2)
    restricted = entropy_estimates(utm, 2, initial_only=True)
    assert restricted.rows[0].count == len(utm.alphabet)  # one start state
    assert restricted.rows[1].count < full.rows[1].count


def test_utm_word_set_contains_shift_pair(utm):
    u2 = utm.state_named("u2")
    b, g = utm.symbol_named("b"), utm.symbol_named("g")
    assert ((u2, b), (u2, g)) in word_set(utm, 2)


@given(machines())
@settings(max_examples=25, deadline=None)
def test_oracle_equivalence_random(machine):
    for n in (1, 2, 3):
        assert count_words(machine, n) == count_words_oracle(machine, n)


def test_monotone_and_submultiplicative(utm, wutm):
    for m in (utm, wutm):
        counts = {n: count_words(m, n) for n in range(1, 6)}
        for n in range(1, 5):
            assert counts[n + 1] >= counts[n]
        for n in range(1, 5):
            for k in range(1, 6 - n):
                assert counts[n + k] <= counts[n] * counts[k]


def test_restart_mode_oracle_equivalence():
    from tmdyn import parse_machine

    machine = parse_machine(
        "states: a b h\nalphabet: 0 1\nblank: 0\ninitial: a\nhalting: h\n"
        "a 0 -> b 1 R\na 1 -> h 1 N\nb 0 -> a 0 L\nb 1 -> h 0 R\n",
        halting_mode="restart",
    )
    for n in (1, 2, 3, 4):
        assert count_words(machine, n) == count_words_oracle(machine, n)


# Oracle values c(1), c(2), ... frozen from the oracle that stepped canonical
# configurations through `step`, per (halting mode, initial_only).
_ORACLE_VALUES = {
    "utm_6_4": {
        ("fixpoint", False): (28, 97, 283, 871),
        ("restart", False): (28, 97, 295, 925),
        ("fixpoint", True): (4, 16, 55, 178),
        ("restart", True): (4, 16, 55, 178),
    },
    "wutm_6_2": {
        ("fixpoint", False): (14, 26, 41, 68, 112),
        ("restart", False): (14, 26, 43, 74, 124),
        ("fixpoint", True): (2, 4, 8, 14, 23),
        ("restart", True): (2, 4, 8, 14, 23),
    },
}


@pytest.mark.parametrize("name", sorted(_ORACLE_VALUES))
@pytest.mark.parametrize("mode", HALTING_MODES)
@pytest.mark.parametrize("initial_only", [False, True])
def test_oracle_frozen_values_equal_count_words_on_corpus(name, mode, initial_only):
    machine = builtin_machine(name).with_halting_mode(mode)
    expected = _ORACLE_VALUES[name][mode, initial_only]
    ns = range(1, len(expected) + 1)
    assert tuple(count_words_oracle(machine, n, initial_only=initial_only) for n in ns) == expected
    assert tuple(count_words(machine, n, initial_only=initial_only) for n in ns) == expected


# Deep counts c(n), far beyond the golden files, frozen from the counter that
# keyed every window cell by its symbol: a key that drops information a
# subtree needs would show here first, as reads left grow.
_DEEP_VALUES = {
    ("utm_6_4", 16): {
        ("fixpoint", False): 195239611,
        ("fixpoint", True): 74561254,
        ("restart", False): 229170736,
        ("restart", True): 74581861,
    },
    ("wutm_6_2", 32): {
        ("fixpoint", False): 41437398,
        ("fixpoint", True): 10696666,
        ("restart", False): 48062673,
        ("restart", True): 10696666,
    },
}


@pytest.mark.parametrize("name, n", sorted(_DEEP_VALUES))
@pytest.mark.parametrize("mode", HALTING_MODES)
@pytest.mark.parametrize("initial_only", [False, True])
def test_deep_frozen_counts_on_corpus(name, n, mode, initial_only):
    machine = builtin_machine(name).with_halting_mode(mode)
    assert count_words(machine, n, initial_only=initial_only) == _DEEP_VALUES[name, n][mode, initial_only]


def test_oracle_equals_count_words_on_seeded_random_machines():
    for seed in range(60):
        machine = random_machine(random.Random(seed), 4, 3, halt_prob=0.3)
        for mode in HALTING_MODES:
            m = machine.with_halting_mode(mode)
            for initial_only in (False, True):
                for n in (1, 2, 3):
                    expected = count_words(m, n, initial_only=initial_only)
                    assert count_words_oracle(m, n, initial_only=initial_only) == expected, (
                        seed, mode, initial_only, n,
                    )


def test_oracle_shares_nothing_with_the_fast_counter(monkeypatch, wutm):
    # The ground truth must not go through the counter it checks, nor through run.
    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached a fast path")

    for target in (
        "tmdyn.words._count_words",
        "tmdyn.words._id_table",
        "tmdyn.machine._id_table",
        "tmdyn.machine.run",
    ):
        monkeypatch.setattr(target, forbidden)
    for (mode, initial_only), expected in _ORACLE_VALUES["wutm_6_2"].items():
        m = wutm.with_halting_mode(mode)
        ns = range(1, len(expected) + 1)
        assert tuple(count_words_oracle(m, n, initial_only=initial_only) for n in ns) == expected


def test_restart_mode_changes_halting_traces(single_halt):
    fix = word_set(single_halt, 3)
    res = word_set(single_halt.with_halting_mode("restart"), 3)
    halt = single_halt.halting
    assert any(w[0][0] == halt and w[1][0] == halt for w in fix)
    # in restart mode a halting start jumps back to the initial state
    assert any(w[0][0] == halt and w[1][0] != halt for w in res)
    assert fix != res


def test_caps_and_budgets(utm):
    with pytest.raises(ValueError):
        count_words_oracle(utm, 6)
    with pytest.raises(ValueError):
        word_set(utm, 5)
    with pytest.raises(ValueError):
        count_words(utm, 0)
    with pytest.raises(ValueError):
        entropy_estimates(utm, 0)
    with pytest.raises(BudgetExceededError):
        count_words(utm, 3, node_budget=10)


def test_node_budget_counts_misses_and_leaves(utm):
    # n = 1: one memo miss per start state, then one leaf per symbol
    needed = len(utm.states) + len(utm.states) * len(utm.alphabet)
    assert count_words(utm, 1, node_budget=needed) == 28
    with pytest.raises(BudgetExceededError):
        count_words(utm, 1, node_budget=needed - 1)


def test_deep_count_hits_budget_not_recursion_limit(wutm):
    # the search is iterative: a depth far beyond the recursion limit still
    # stops at the budget
    with pytest.raises(BudgetExceededError):
        count_words(wutm, 1200, node_budget=10_000)


def _assert_counts_match_enumerator(machine, n_max):
    for mode in HALTING_MODES:
        m = machine.with_halting_mode(mode)
        for initial_only in (False, True):
            for n in range(1, n_max + 1):
                expected = len(word_set(m, n, max_n=n_max, initial_only=initial_only))
                assert count_words(m, n, initial_only=initial_only) == expected, (mode, initial_only, n)


def test_counts_match_enumerator_on_corpus(utm, wutm):
    for m in (utm, wutm):
        _assert_counts_match_enumerator(m, 7)


@given(machines())
@settings(max_examples=60, deadline=None)
def test_counts_match_enumerator_random(machine):
    _assert_counts_match_enumerator(machine, 7)


def test_entropy_estimates_bracket(utm):
    report = entropy_estimates(utm, 5)
    assert [row.n for row in report.rows] == [1, 2, 3, 4, 5]
    assert report.certificate.verdict == STRONGLY_REGULAR
    bound = report.certificate.bound_float()
    for row in report.rows:
        assert row.estimate == pytest.approx(math.log(row.count) / row.n)
        assert row.estimate >= bound
    assert report.budget_error is None


def test_entropy_estimates_single_row(wutm):
    report = entropy_estimates(wutm, 1)
    assert len(report.rows) == 1
    assert report.rows[0].estimate == pytest.approx(math.log(count_words(wutm, 1)))


def test_entropy_estimates_budget_error(utm):
    report = entropy_estimates(utm, 3, node_budget=10)
    assert report.rows == ()
    assert report.budget_error is not None


def test_alphabet_over_the_cap_raises_before_any_count(monkeypatch):
    def count(*args):
        raise AssertionError("counted words on a machine the certificate search refuses")

    monkeypatch.setattr(words, "_count_words", count)
    with pytest.raises(BudgetExceededError, match="alphabet size 17 exceeds the search cap 16"):
        entropy_estimates(parse_machine(wide_machine_text(17)), 8)


def _assert_rows_equal_independent_counts(machine, n_max):
    for mode in HALTING_MODES:
        m = machine.with_halting_mode(mode)
        for initial_only in (False, True):
            report = entropy_estimates(m, n_max, initial_only=initial_only)
            assert report.budget_error is None
            expected = [(n, count_words(m, n, initial_only=initial_only)) for n in range(1, n_max + 1)]
            assert [(row.n, row.count) for row in report.rows] == expected, (mode, initial_only)


def test_estimate_rows_equal_independent_counts_on_corpus(utm, wutm):
    # the rows share one memo; each must still equal a count with its own
    _assert_rows_equal_independent_counts(utm, 10)
    _assert_rows_equal_independent_counts(wutm, 16)


@given(machines())
@settings(max_examples=40, deadline=None)
def test_estimate_rows_equal_independent_counts_random(machine):
    _assert_rows_equal_independent_counts(machine, 8)


def test_estimate_budget_applies_per_row(utm, wutm):
    # Memo hits are free, those on entries of lower rows included, so a row
    # never needs more units than count_words alone: the row a budget error
    # names also fails alone, and a budget that suffices for every
    # count_words(m, n), n <= N, completes the report.
    for machine in (utm, wutm):
        for mode in HALTING_MODES:
            m = machine.with_halting_mode(mode)
            for budget in range(15, 800, 9):
                report = entropy_estimates(m, 6, node_budget=budget)
                assert [row.count for row in report.rows] == [
                    count_words(m, n) for n in range(1, len(report.rows) + 1)
                ]
                if report.budget_error is None:
                    continue
                k = len(report.rows) + 1
                assert f"for n={k} exceeded" in report.budget_error
                with pytest.raises(BudgetExceededError):
                    count_words(m, k, node_budget=budget)
    # The converse does not hold: row 2 reuses row 1's entries and finishes
    # within 40 units, where count_words(utm, 2) alone needs 70.
    assert len(entropy_estimates(utm, 2, node_budget=40).rows) == 2
    with pytest.raises(BudgetExceededError):
        count_words(utm, 2, node_budget=69)
    assert count_words(utm, 2, node_budget=70) == 97


def test_estimate_budget_error_names_first_unfinished_row(utm):
    # count_words(utm, n) needs 273 units for n = 4 and fewer below it; row 5
    # needs more than that even with the memo of rows 1..4.
    report = entropy_estimates(utm, 8, node_budget=273)
    assert report.rows == entropy_estimates(utm, 4).rows
    assert report.budget_error == "word enumeration for n=5 exceeded the node budget of 273"
    assert count_words(utm, 4, node_budget=273) == report.rows[-1].count
    with pytest.raises(BudgetExceededError):
        count_words(utm, 4, node_budget=272)


def test_csv_report(utm):
    report = entropy_estimates(utm, 3)
    text = report_to_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "n,count,e_n,min_e_n"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "28"
    assert len(first[2].replace(".", "").replace("-", "").lstrip("0")) >= 18


def test_json_report(wutm):
    doc = report_to_json_dict(entropy_estimates(wutm, 2))
    assert doc["certificate"]["verdict"] == "regular"
    assert [r["n"] for r in doc["rows"]] == [1, 2]
    assert doc["rows"][1]["min_e_n"] <= doc["rows"][0]["e_n"]


def test_counts_are_schedule_independent(utm):
    # same values regardless of enumerator entry order (set semantics)
    a = word_set(utm, 3)
    b = word_set(utm, 3)
    assert a == b


@pytest.mark.parametrize("n_symbols", [255, 256, 300])
def test_count_words_on_alphabets_past_one_byte(n_symbols):
    # From 256 symbols on, the counter's tape cells no longer fit in a byte.
    rng = random.Random(n_symbols)
    states = (State(0, "q0"), State(1, "q1"), State(2, "halt"))
    alphabet = tuple(Symbol(i, f"s{i}") for i in range(n_symbols))
    rules = {
        (q, s): Transition(rng.choice(states), rng.choice(alphabet), rng.choice((-1, 0, 1)))
        for q in states[:2]
        for s in alphabet
    }
    m = TuringMachine(states, alphabet, alphabet[0], states[0], states[2], rules)
    for n in (1, 2):
        assert count_words(m, n) == len(word_set(m, n))
