"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact (integer or rational comparisons) except
the six wall-clock limits, which are generous.
"""

import random
import time
from fractions import Fraction

from tmdyn import (
    CantorPoint,
    cantor_encode,
    check_regularity,
    check_strong_regularity,
    count_words,
    count_words_oracle,
    distance,
    entropy_lower_bound,
    parse_machine,
    run,
    shift_graph,
    shift_table,
    step,
    verify_conjugacy,
    verify_witness,
)
from tmdyn.cli import main
from tmdyn.machine import Configuration, iterate
from tmdyn.regularity import STRONGLY_REGULAR

from conftest import cycle_machine_text, random_machine, word_set


def _report(criterion, description, ok):
    print(f"criterion {criterion:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def _random_corpus(seed, count, **kwargs):
    rng = random.Random(seed)
    return [random_machine(rng, **kwargs) for _ in range(count)]


def test_criterion_01_utm_strong_regularity(utm):
    t0 = time.perf_counter()
    witness = check_strong_regularity(utm)
    certificate = entropy_lower_bound(utm)
    elapsed = time.perf_counter() - t0
    ok = (
        witness is not None
        and witness.direction == 1
        and utm.state_named("u2") in witness.states
        and {s.name for s in witness.symbols} == {"b", "d"}
        and len(witness.symbols) >= 2
        and verify_witness(utm, witness)
        and certificate.verdict == STRONGLY_REGULAR
        and (certificate.log_of, certificate.over) == (2, 1)
        and elapsed < 1.0
    )
    _report(1, "utm_6_4 strongly regular with bound exactly log 2", ok)


def test_criterion_02_wutm_verdicts(wutm):
    t0 = time.perf_counter()
    strong = check_strong_regularity(wutm)
    regular = check_regularity(wutm)
    elapsed = time.perf_counter() - t0
    ok = (
        strong is None
        and regular is not None
        and regular.base.name == "u4"
        and regular.direction == 1
        and verify_witness(wutm, regular)
        and elapsed < 1.0
    )
    _report(2, "wutm_6_2 not strongly regular, regular at u4 with direction +1", ok)


def test_criterion_03_wutm_plus_graph(wutm):
    graph = shift_graph(shift_table(wutm), 1)
    vertices = {v.name for v in graph.vertices}
    edges = sorted((e.src.name, e.dst.name) for e in graph.edges)
    ok = vertices == {"u1", "u2", "u3", "u4", "u5", "u6"} and edges == [
        ("u3", "u2"),
        ("u4", "u5"),
        ("u4", "u6"),
        ("u5", "u4"),
        ("u6", "u4"),
    ]
    _report(3, "wutm_6_2 +1 graph has exactly the five published edges", ok)


def test_criterion_04_utm_word_count_lower_bound(utm):
    counts = {n: count_words(utm, n) for n in range(1, 9)}
    ok = all(counts[n] >= 2**n for n in range(1, 9))
    _report(4, f"utm_6_4 word counts dominate 2^n for n=1..8 ({counts[8]} at n=8)", ok)


def test_criterion_05_oracle_equivalence(utm, wutm):
    machines = [utm, wutm] + _random_corpus(505, 50)
    ok = True
    for machine in machines:
        for n in range(1, 5):
            counted = count_words(machine, n)
            if counted != count_words_oracle(machine, n) or counted != len(
                word_set(machine, n)
            ):
                ok = False
                break
        if not ok:
            break
    _report(5, "count_words == oracle == |word_set| on corpus + 50 random, n <= 4", ok)


def test_criterion_06_submultiplicative_and_monotone(utm, wutm):
    ok = True
    for machine in (utm, wutm):
        counts = {n: count_words(machine, n) for n in range(1, 7)}
        ok = ok and all(counts[n + 1] >= counts[n] for n in range(1, 6))
        ok = ok and all(
            counts[n + m] <= counts[n] * counts[m]
            for n in range(1, 6)
            for m in range(1, 7 - n)
        )
    _report(6, "counts monotone and submultiplicative on corpus, n+m <= 6", ok)


def test_criterion_07_conjugacy(utm, wutm):
    machines = [utm, wutm] + _random_corpus(707, 50)
    failures = 0
    for machine in machines:
        for mode in ("fixpoint", "restart"):
            report = verify_conjugacy(machine.with_halting_mode(mode), samples=1000, seed=7)
            failures += report.failures
    _report(7, "conjugacy 1000/1000 on corpus + 50 random machines, both modes", failures == 0)


def test_criterion_08_metric_and_locality():
    rng = random.Random(808)
    lipschitz_violations = 0
    for _ in range(1000):
        machine = random_machine(rng)
        state = machine.states[rng.randrange(len(machine.states))]
        k = rng.randint(1, 5)
        base = {
            i: machine.alphabet[rng.randrange(len(machine.alphabet))]
            for i in range(-7, 8)
            if rng.random() < 0.5
        }
        x = Configuration(state, {i: s for i, s in base.items() if s != machine.blank})
        y_cells = {i: s for i, s in base.items() if abs(i) < k}
        for i in list(range(-7, -k + 1)) + list(range(k, 8)):
            if rng.random() < 0.5:
                y_cells[i] = machine.alphabet[rng.randrange(len(machine.alphabet))]
        y = Configuration(state, {i: s for i, s in y_cells.items() if s != machine.blank})
        if distance(x, y) > Fraction(1, 2**k):
            continue  # construction guarantees this; never taken
        if distance(step(machine, x), step(machine, y)) > Fraction(1, 2 ** (k - 1)):
            lipschitz_violations += 1

    locality_violations = 0
    checked = 0
    while checked < 100:
        machine = random_machine(rng, halt_prob=0.3)
        state = machine.states[rng.randrange(len(machine.states) - 1)]
        tape = {}
        for i in range(-3, 4):
            s = machine.alphabet[rng.randrange(len(machine.alphabet))]
            if s != machine.blank:
                tape[i] = s
        x = Configuration(state, tape)
        result = run(machine, x, 60)
        if not result.halted:
            continue
        checked += 1
        n = result.halting_time
        blank = machine.blank
        trace = [(c.state, c.tape.get(0, blank)) for c in iterate(machine, x, n)]
        perturbed = dict(tape)
        for i in (n + 1, n + 2, -(n + 1), -(n + 2)):
            s = machine.alphabet[rng.randrange(len(machine.alphabet))]
            if s != blank:
                perturbed[i] = s
            else:
                perturbed.pop(i, None)
        y = Configuration(state, perturbed)
        other = run(machine, y, 60)
        if not other.halted or other.halting_time != n:
            locality_violations += 1
            continue
        other_trace = [(c.state, c.tape.get(0, blank)) for c in iterate(machine, y, n)]
        if other_trace != trace:
            locality_violations += 1

    ok = lipschitz_violations == 0 and locality_violations == 0
    _report(8, "one-step Lipschitz on 1000 pairs, halting locality on 100 inputs", ok)


def test_criterion_09_strong_implies_regular():
    machines = _random_corpus(909, 500)
    strong_seen = 0
    counterexamples = 0
    for machine in machines:
        if check_strong_regularity(machine) is not None:
            strong_seen += 1
            if check_regularity(machine) is None:
                counterexamples += 1
    ok = counterexamples == 0 and strong_seen > 0
    _report(
        9,
        f"strong implies regular on 500 random machines ({strong_seen} strong cases)",
        ok,
    )


def test_criterion_10_regular_word_bound(wutm):
    witness = check_regularity(wutm)
    a = witness.cost
    ok = all(count_words(wutm, r * a) >= 2**r for r in (1, 2, 3))
    _report(10, f"wutm_6_2 satisfies count(r*a) >= 2^r for r=1..3 with a={a}", ok)


def test_criterion_11_cantor_coding():
    examples_ok = (
        cantor_encode({}) == CantorPoint(Fraction(0), Fraction(0))
        and cantor_encode({-1: 1}) == CantorPoint(Fraction(2, 3), Fraction(0))
        and cantor_encode({0: 1}) == CantorPoint(Fraction(0), Fraction(2, 3))
    )
    points = set()
    for mask in range(2**11):
        bits = {i - 5: (mask >> i) & 1 for i in range(11)}
        points.add(cantor_encode(bits))
    ok = examples_ok and len(points) == 2**11
    _report(11, "cantor coding matches exact rationals and is injective on [-5, 5]", ok)


def test_criterion_12_long_run_costs_constant_time_per_step(utm):
    # From the blank tape utm_6_4 writes b and moves left forever, so after k
    # steps it is in u1 with b on cells 1..k: the tape grows with every step.
    # run takes this runaway in one move; criterion 15 covers a stepped orbit.
    k = 200_000
    t0 = time.perf_counter()
    result = run(utm, Configuration(utm.initial, {}), k)
    elapsed = time.perf_counter() - t0
    b = utm.symbol_named("b")
    ok = (
        not result.halted
        and result.steps_taken == k
        and result.final == Configuration(utm.initial, {i: b for i in range(1, k + 1)})
        and elapsed < 5.0
    )
    _report(12, f"utm_6_4 runs {k} steps from the blank tape within 5 s ({elapsed:.2f} s)", ok)


def test_criterion_13_conjugacy_replay_costs_its_cells():
    # The 1500-state cycle machine has a 1502-token sequence alphabet, but a
    # replayed sample touches only a few cells, so the replay must not pay for
    # the alphabet per sample (building it per sequence is about 30x slower).
    machine = parse_machine(cycle_machine_text(1500))
    t0 = time.perf_counter()
    report = verify_conjugacy(machine, samples=2000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = report.passes == 2000 and elapsed < 1.0
    _report(13, f"1500-state cycle: 2000 conjugacy samples within 1 s ({elapsed:.2f} s)", ok)


def test_criterion_14_analyze_large_machine(capsys, machine_files):
    t0 = time.perf_counter()
    code = main(["analyze", "--file", machine_files["cycle"]])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()
    ok = code == 0 and elapsed < 2.0
    _report(14, f"analyze on the 1500-state cycle exits 0 within 2 s ({elapsed:.2f} s)", ok)


SWEEPER_TEXT = """\
states: r l halt
alphabet: 0 1
blank: 0
initial: r
halting: halt
r 1 -> r 1 R
r 0 -> l 1 L
l 1 -> l 1 L
l 0 -> r 1 R
"""


def _sweeper_after(sweeper, k):
    """The sweeper's configuration k steps from the blank tape, pass by pass.

    It sweeps its block of ones a..b and turns at each end, where it writes a
    one on the blank cell it finds, so the block grows by one cell a pass.
    """
    a, b, head, right = 0, -1, 0, True
    while True:
        to_edge = b + 1 - head if right else head - a + 1  # steps over ones before the blank
        if k <= to_edge:
            head += k if right else -k
            break
        k -= to_edge + 1
        if right:
            b, head = b + 1, b
        else:
            a, head = a - 1, a
        right = not right
    one = sweeper.symbol_named("1")
    return Configuration(sweeper.state_named("r" if right else "l"), {i - head: one for i in range(a, b + 1)})


def test_criterion_15_growing_tape_without_runaway_costs_constant_time_per_step():
    # Neither of the sweeper's blank rules keeps its state, so run steps every one
    # of its k steps while the tape grows to about sqrt(2k) cells; re-indexing the
    # tape on each step would cost about k**1.5 cell moves.
    sweeper = parse_machine(SWEEPER_TEXT)
    x = Configuration(sweeper.initial, {})
    model_ok = all(c == _sweeper_after(sweeper, i) for i, c in enumerate(iterate(sweeper, x, 2000)))
    k = 1_000_000
    t0 = time.perf_counter()
    result = run(sweeper, x, k)
    elapsed = time.perf_counter() - t0
    ok = model_ok and not result.halted and result.steps_taken == k and result.final == _sweeper_after(sweeper, k)
    ok = ok and elapsed < 5.0
    _report(15, f"a sweeper runs {k} steps, its tape growing, within 5 s ({elapsed:.2f} s)", ok)
