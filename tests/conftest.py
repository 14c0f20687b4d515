import random

import pytest
from hypothesis import strategies as st

from tmdyn import builtin_machine, compile_gshift, gshift_step, parse_machine, step
from tmdyn.gshift import GeneralizedShift, _embed, sequence_alphabet
from tmdyn.machine import Configuration, State, Symbol, Transition, TuringMachine
from tmdyn.words import TraceWord


@pytest.fixture(scope="session")
def utm():
    return builtin_machine("utm_6_4")


@pytest.fixture(scope="session")
def wutm():
    return builtin_machine("wutm_6_2")


SINGLE_HALT_TEXT = """\
states: q0 halt
alphabet: 0 1
blank: 0
initial: q0
halting: halt
q0 0 -> halt 0 N
q0 1 -> halt 1 N
"""

RIGHT_RUNNER_TEXT = """\
states: q halt
alphabet: 0 1
blank: 0
initial: q
halting: halt
q 0 -> q 0 R
q 1 -> q 1 R
"""

NO_SHIFT_LOOP_TEXT = """\
states: q halt
alphabet: 0 1
blank: 0
initial: q
halting: halt
q 0 -> q 0 N
q 1 -> q 1 N
"""

# Every transition shifts, but each per-direction graph is a one-way street
# (q1 -> q2 going right, q2 -> q1 going left), so neither direction has a cycle.
ALTERNATOR_TEXT = """\
states: q1 q2 halt
alphabet: 0 1
blank: 0
initial: q1
halting: halt
q1 0 -> q2 0 R
q1 1 -> q2 1 R
q2 0 -> q1 0 L
q2 1 -> q1 1 L
"""


@pytest.fixture(scope="session")
def single_halt():
    return parse_machine(SINGLE_HALT_TEXT)


@pytest.fixture(scope="session")
def right_runner():
    return parse_machine(RIGHT_RUNNER_TEXT)


@pytest.fixture(scope="session")
def no_shift_loop():
    return parse_machine(NO_SHIFT_LOOP_TEXT)


@pytest.fixture(scope="session")
def alternator():
    return parse_machine(ALTERNATOR_TEXT)


def _machine_text(n, rules, symbols=("0", "1")):
    states = " ".join(f"q{i}" for i in range(n))
    return (
        f"states: {states} halt\nalphabet: {' '.join(symbols)}\nblank: {symbols[0]}\n"
        "initial: q0\nhalting: halt\n" + "".join(rules)
    )


def cycle_machine_text(n):
    """q_i 0 -> q_{i+1} 0 R and q_i 1 -> q_{i+1} 1 L (indices mod n).

    Each shift graph is one n-vertex cycle, so there is no witness, and a
    recursive component search would recurse n deep.
    """
    nxt = lambda i: (i + 1) % n
    return _machine_text(
        n, (f"q{i} 0 -> q{nxt(i)} 0 R\nq{i} 1 -> q{nxt(i)} 1 L\n" for i in range(n))
    )


def chain_machine_text(n):
    """q_i s -> q_{i+1} s R for both symbols; the last state loops on itself instead."""
    nxt = lambda i: min(i + 1, n - 1)
    return _machine_text(
        n, (f"q{i} {s} -> q{nxt(i)} {s} R\n" for i in range(n) for s in "01")
    )


def wide_machine_text(n_symbols):
    """One state that keeps moving right over an alphabet of ``n_symbols`` symbols."""
    symbols = tuple(f"s{i}" for i in range(n_symbols))
    return _machine_text(1, (f"q0 {s} -> q0 {s} R\n" for s in symbols), symbols)


@pytest.fixture(scope="session")
def machine_files(tmp_path_factory):
    """Paths of the 1500-state cycle and chain machines and a 17-symbol machine."""
    root = tmp_path_factory.mktemp("machines")
    texts = {
        "cycle": cycle_machine_text(1500),
        "chain": chain_machine_text(1500),
        "wide": wide_machine_text(17),
    }
    for name, text in texts.items():
        (root / f"{name}.tm").write_text(text)
    return {name: str(root / f"{name}.tm") for name in texts}


def random_machine(
    rng: random.Random,
    max_states: int = 4,
    max_symbols: int = 3,
    halt_prob: float = 0.15,
    halting_mode: str = "fixpoint",
) -> TuringMachine:
    """Draw a random total machine with up to ``max_states`` non-halting states.

    For property tests; the distribution is not meant to be uniform over
    anything, just varied.  The halting state is always present (possibly
    unreachable) and the blank is the first symbol.
    """
    n_states = rng.randint(1, max_states)
    n_symbols = rng.randint(2, max(2, max_symbols))
    states = tuple(State(i, f"q{i}") for i in range(n_states)) + (State(n_states, "halt"),)
    halting = states[-1]
    alphabet = tuple(Symbol(i, f"s{i}") for i in range(n_symbols))
    rules = {}
    for q in states[:-1]:
        for s in alphabet:
            if rng.random() < halt_prob:
                nxt = halting
            else:
                nxt = states[rng.randrange(n_states)]
            rules[(q, s)] = Transition(nxt, alphabet[rng.randrange(n_symbols)], rng.choice((-1, 0, 1)))
    return TuringMachine(states, alphabet, alphabet[0], states[0], halting, rules, halting_mode)


def machines(max_states=4, max_symbols=3, halt_prob=0.15):
    """Strategy producing seeded random machines."""
    return st.builds(
        lambda seed: random_machine(random.Random(seed), max_states, max_symbols, halt_prob),
        st.integers(0, 2**32 - 1),
    )


@st.composite
def machine_configs(draw, **kwargs):
    """Strategy producing (machine, canonical configuration) pairs."""
    machine = draw(machines(**kwargs))
    state = draw(st.sampled_from(machine.states))
    cells = draw(
        st.dictionaries(st.integers(-6, 6), st.sampled_from(machine.alphabet), max_size=8)
    )
    tape = {i: s for i, s in cells.items() if s != machine.blank}
    return machine, Configuration(state, tape)


def word_set(machine: TuringMachine, n: int, max_n: int = 4, initial_only: bool = False) -> set[TraceWord]:
    """The actual n-word set from the lazy enumerator.

    An independent slow path beside the oracle, for tests and inspection:
    it stores every trace, so :func:`count_words` is the way to count.  Its
    only cap is ``max_n`` (default 4): a larger n raises ``ValueError``.
    """
    if not 1 <= n <= max_n:
        raise ValueError(f"n must be in 1..{max_n} for word_set (got {n})")
    traces: set[TraceWord] = set()
    alphabet = machine.alphabet
    transition = machine.transition

    def explore(state: State, head: int, tape: dict[int, Symbol], trace: TraceWord) -> None:
        symbol = tape.get(head)
        if symbol is None:
            # First read of this cell: branch over every assignment.
            for s in alphabet:
                tape[head] = s
                explore(state, head, tape, trace)
            del tape[head]
            return
        trace = trace + ((state, symbol),)
        if len(trace) == n:
            traces.add(trace)
            return
        tr = transition(state, symbol)
        tape[head] = tr.write
        explore(tr.next_state, head + tr.move, tape, trace)
        tape[head] = symbol

    starts = (machine.initial,) if initial_only else machine.states
    for q in starts:
        explore(q, 0, {}, ())
    return traces


def replay_conjugacy(
    machine: TuringMachine, samples: int, seed: int, shift: GeneralizedShift | None = None
) -> tuple[tuple[int, int, Configuration | None], list[Configuration]]:
    """A frozen copy of the sampled replay that replays every draw, drawn with ``choice``/``randint``.

    Returns ``(samples, failures, first_counterexample)``, as
    :func:`verify_conjugacy` reports them, and the drawn configurations in
    order.  ``shift`` defaults to the machine's compiled shift.
    """
    shift = compile_gshift(machine) if shift is None else shift
    alphabet = sequence_alphabet(machine)
    rng = random.Random(seed)
    failures = 0
    first = None
    drawn = []
    for _ in range(samples):
        state = rng.choice(machine.states)
        width = rng.randint(0, 6)
        offset = rng.randint(-4, 2)
        tape = {}
        for i in range(width):
            s = rng.choice(machine.alphabet)
            if s != machine.blank:
                tape[offset + i] = s
        config = Configuration(state, tape)
        drawn.append(config)
        via_shift = gshift_step(shift, _embed(alphabet, config))
        via_machine = _embed(alphabet, step(machine, config))
        if via_shift != via_machine:
            failures += 1
            if first is None:
                first = config
    return (samples, failures, first), drawn
