"""Job lists of the three workloads, generated from the workload seed.

Building a job list is the benchmark's set-up: it draws the inputs and writes
the machine files.  Each job's check is made by ``Job.prepare``, which
computes the expected values and runs outside both set-up and the timed
region.  tmdyn is imported inside the functions, so that a set-up probe can
time the import.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks
from tables import Table, format_table, parse_table, random_table, simulate

MODES = ("fixpoint", "restart")

#: entropy-corpus: machine -> (n_max, oracle-checked n, pass --oracle to the CLI).
ENTROPY_SIZES = {"utm_6_4": (8, 3, False), "wutm_6_2": (16, 4, True)}

#: simulate-long sizes.  utm_6_4 orbits from random tapes either halt
#: within a few steps or grow like the blank one, at rates that differ by
#: half; a tape is kept only if its orbit runs the whole budget with a mean
#: tape size (stored cells per step) inside the band, so that the work of a
#: round does not depend on the seed.  wutm_6_2 never halts and its tape
#: stays near its starting size.
BLANK_STEPS = 2000  # utm_6_4 from a blank tape; the tape grows one cell per step
WUTM_TAPES, WUTM_STEPS = 4, 8000
UTM_TAPES, UTM_STEPS, UTM_BAND = 2, 1000, (380.0, 420.0)  # plus one orbit that halts
TAPE_WIDTH = 32

#: survey-random grid: every (states, symbols, halting share) once.
SURVEY_STATES = (1, 2, 3, 4, 5)
SURVEY_SYMBOLS = (2, 3, 4)
SURVEY_HALT_SHARES = (0.0, 0.15, 0.3)
SURVEY_N_MAX, SURVEY_ORACLE_N, SURVEY_SAMPLES = 5, 3, 100

Check = Callable[[int, str], "list[str]"]


@dataclass
class Job:
    label: str
    argv: list[str]
    prepare: Callable[[], Check]


def corpus_table(name: str) -> Table:
    from tmdyn.corpus import UTM_6_4_TEXT, WUTM_6_2_TEXT

    return parse_table({"utm_6_4": UTM_6_4_TEXT, "wutm_6_2": WUTM_6_2_TEXT}[name])


def entropy_corpus(seed: int, workdir: Path) -> list[Job]:
    """Fixed corpus jobs; the seed does not change them."""
    jobs = []
    for name, (n_max, oracle_n, cli_oracle) in ENTROPY_SIZES.items():
        for mode in MODES:
            argv = ["entropy", "--machine", name, "--n-max", str(n_max), "--json", "--halting-mode", mode]
            if cli_oracle:
                argv.append("--oracle")
            jobs.append(Job(f"entropy {name} n={n_max} {mode}", argv, partial(_prepare_entropy, name, mode, n_max, oracle_n)))
    return jobs


def _prepare_entropy(name: str, mode: str, n_max: int, oracle_n: int) -> Check:
    from tmdyn import builtin_machine, count_words_oracle

    table = corpus_table(name)
    machine = builtin_machine(name, halting_mode=mode)
    expect = checks.WordExpect(
        n_max,
        len(table.states) * len(table.alphabet),
        {n: count_words_oracle(machine, n) for n in range(1, oracle_n + 1)},
    )
    return partial(checks.check_entropy, name=name, expect=expect)


def simulate_long(seed: int, workdir: Path) -> list[Job]:
    """Long orbits: utm_6_4 from a blank tape, and both machines from seeded random tapes."""
    rng = random.Random(f"simulate-long/{seed}")
    utm, wutm = corpus_table("utm_6_4"), corpus_table("wutm_6_2")
    jobs = [_simulate_job("utm_6_4", utm, mode, utm.initial, [], BLANK_STEPS, closed_form=True) for mode in MODES]
    for i in range(WUTM_TAPES):
        state, window = _random_start(rng, wutm)
        jobs.append(_simulate_job("wutm_6_2", wutm, MODES[i % 2], state, window, WUTM_STEPS))

    def in_band(run):
        return run.steps_taken == UTM_STEPS and UTM_BAND[0] <= run.cells / UTM_STEPS <= UTM_BAND[1]

    for i in range(UTM_TAPES):
        state, window = _random_start(rng, utm, in_band)
        jobs.append(_simulate_job("utm_6_4", utm, MODES[i % 2], state, window, UTM_STEPS))
    state, window = _random_start(rng, utm, lambda run: run.halted)
    jobs.append(_simulate_job("utm_6_4", utm, MODES[1], state, window, UTM_STEPS))
    return jobs


def _random_start(rng: random.Random, table: Table, accept=None) -> tuple[str, list[str]]:
    """Draw a start state and a tape, until ``accept`` takes the reference orbit of UTM_STEPS."""
    states = [q for q in table.states if q != table.halting]
    while True:
        state = rng.choice(states)
        window = [rng.choice(table.alphabet) for _ in range(TAPE_WIDTH)]
        if accept is None or accept(simulate(table, state, _cells(window), UTM_STEPS)):
            return state, window


def _cells(window: list[str]) -> dict[int, str]:
    return {i - TAPE_WIDTH // 2: s for i, s in enumerate(window)}


def _simulate_job(name, table, mode, state, window, steps, closed_form=False) -> Job:
    argv = ["simulate", "--machine", name, "--halting-mode", mode, "--state", state, "--steps", str(steps), "--json"]
    if window:
        argv += ["--tape", " ".join(window), f"--offset={-(TAPE_WIDTH // 2)}"]
    label = f"simulate {name} {'blank' if not window else 'random'} {steps} steps {mode}"

    def prepare() -> Check:
        want = simulate(table, state, _cells(window), steps)
        return partial(checks.check_simulate, want=want, closed_form_k=steps if closed_form else None)

    return Job(label, argv, prepare)


def survey_random(seed: int, workdir: Path) -> list[Job]:
    """One seeded machine per grid shape, written to a file and analysed in both halting modes."""
    rng = random.Random(f"survey-random/{seed}")
    jobs = []
    shapes = [(q, s, h) for q in SURVEY_STATES for s in SURVEY_SYMBOLS for h in SURVEY_HALT_SHARES]
    for index, (n_states, n_symbols, halt_share) in enumerate(shapes):
        table = random_table(rng, n_states, n_symbols, halt_share)
        text = format_table(table)
        path = workdir / f"m{index:03d}.tm"
        path.write_text(text, encoding="utf-8")
        conj_seed = rng.randrange(2**31)
        for mode in MODES:
            argv = [
                "analyze", "--file", str(path), "--halting-mode", mode, "--n-max", str(SURVEY_N_MAX),
                "--conjugacy-samples", str(SURVEY_SAMPLES), "--seed", str(conj_seed),
            ]
            label = f"analyze {path.name} ({n_states}x{n_symbols}, halt {halt_share}) {mode}"
            jobs.append(Job(label, argv, partial(_prepare_analyze, table, text, mode)))
    return jobs


def _prepare_analyze(table: Table, text: str, mode: str) -> Check:
    from tmdyn import count_words_oracle, parse_machine

    machine = parse_machine(text, halting_mode=mode)
    expect = checks.WordExpect(
        SURVEY_N_MAX,
        len(table.states) * len(table.alphabet),
        {n: count_words_oracle(machine, n) for n in range(1, SURVEY_ORACLE_N + 1)},
    )
    return partial(checks.check_analyze, table=table, machine=machine, samples=SURVEY_SAMPLES, expect=expect)


WORKLOADS = {
    "entropy-corpus": entropy_corpus,
    "simulate-long": simulate_long,
    "survey-random": survey_random,
}
