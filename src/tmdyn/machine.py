"""Turing machines as dynamical systems on the space of configurations.

A machine acts on configurations (state, bi-infinite tape) with the head
pinned at cell 0: each step writes at cell 0 and then re-indexes the whole
tape by the move, so "the head moved right" is realized as "the tape shifted
left".  Tapes are stored sparsely and blank cells are never stored, which
keeps configurations canonical: two configurations are equal iff their
fields are equal.

Machines and configurations are frozen dataclasses that hold plain dicts
(``rules``, ``tape``), so they are unhashable and their dicts must not be
mutated.  Every operation here is a pure function of its inputs, so
everything is safe to share across threads.  This holds for the one
module-level table that interns states and symbols too: a miss is stored
under a lock, so threads that build one value get one object, and values are
held weakly, so the table keeps no token nothing references.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

MOVE_LEFT = -1
MOVE_NONE = 0
MOVE_RIGHT = 1

MOVES = (MOVE_LEFT, MOVE_NONE, MOVE_RIGHT)

#: File-format move letters.  L and R name the head motion; on the pinned-head
#: tape, R (move = +1) shifts the tape one cell to the left and L (move = -1)
#: shifts it one cell to the right.
MOVE_LETTERS = {"L": MOVE_LEFT, "N": MOVE_NONE, "R": MOVE_RIGHT}

#: How the one-step map treats a halting-state configuration:
#: "fixpoint" leaves it unchanged, "restart" jumps back to the initial state
#: with the tape untouched.
HALTING_MODES = ("fixpoint", "restart")


class MachineError(ValueError):
    """Base class for machine construction and parsing failures."""


class MachineValidationError(MachineError):
    """A structurally invalid machine (bad table, bad alphabet, ...)."""


class MachineFormatError(MachineError):
    """A malformed machine description document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class BudgetExceededError(RuntimeError):
    """A search hit its explicit budget or cap and returned no result."""


_tokens = weakref.WeakValueDictionary()
_tokens_lock = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class _Token:
    """One object per (class, id, name): equality is identity, and hashing is ``object``'s."""

    id: int
    name: str

    def __new__(cls, id: int, name: str):
        key = (cls, id, name)
        token = _tokens.get(key)
        if token is None:
            fresh = object.__new__(cls)
            vars(fresh).update(id=id, name=name)
            with _tokens_lock:  # setdefault is Python code, so not atomic by itself
                token = _tokens.setdefault(key, fresh)
        return token

    def __reduce__(self):
        return type(self), (self.id, self.name)


class Symbol(_Token):
    """One tape symbol; ``id`` indexes the machine's alphabet.  Interned: ``is`` and ``==`` agree."""


class State(_Token):
    """One machine state; ``id`` indexes the machine's state list.  Interned: ``is`` and ``==`` agree."""


@dataclass(frozen=True)
class Transition:
    """Right-hand side of one table entry: next state, written symbol, move."""

    next_state: State
    write: Symbol
    move: int

    def __post_init__(self) -> None:
        if self.move not in MOVES:
            raise MachineValidationError(f"move must be -1, 0 or +1, got {self.move!r}")


def _is_member(items: tuple, item: object) -> bool:
    """``item in items`` in O(1), for the tuples of a machine, whose ids index them."""
    i = getattr(item, "id", None)
    return isinstance(i, int) and 0 <= i < len(items) and items[i] == item


@dataclass(frozen=True)
class TuringMachine:
    """A deterministic machine with a total table on (states \\ halting) x alphabet.

    ``rules`` maps (state, symbol) pairs to transitions; the halting state has
    no table entries of its own.  Use :meth:`transition` rather than ``rules``
    to look up a step: it extends the table to halting configurations per
    ``halting_mode``, which makes the one-step dynamics total.
    """

    states: tuple[State, ...]
    alphabet: tuple[Symbol, ...]
    blank: Symbol
    initial: State
    halting: State
    rules: dict[tuple[State, Symbol], Transition]
    halting_mode: str = "fixpoint"

    def __post_init__(self) -> None:
        if len(self.alphabet) < 2:
            raise MachineValidationError("alphabet must have >= 2 symbols")
        for seq, kind in ((self.states, "state"), (self.alphabet, "symbol")):
            names = [item.name for item in seq]
            if len(set(names)) != len(names):
                raise MachineValidationError(f"duplicate {kind} names")
            if [item.id for item in seq] != list(range(len(seq))):
                raise MachineValidationError(f"{kind} ids must be 0..{len(seq) - 1}")
        if not _is_member(self.alphabet, self.blank):
            raise MachineValidationError("blank symbol is not in the alphabet")
        for q in (self.initial, self.halting):
            if not _is_member(self.states, q):
                raise MachineValidationError(f"state {q.name!r} is not in the state list")
        if self.halting_mode not in HALTING_MODES:
            raise MachineValidationError(f"unknown halting mode {self.halting_mode!r}")
        expected = dict.fromkeys((q, s) for q in self.states if q != self.halting for s in self.alphabet)
        for q, s in expected:
            if (q, s) not in self.rules:
                raise MachineValidationError(f"missing rule for ({q.name}, {s.name})")
        for q, s in (key for key in self.rules if key not in expected):
            raise MachineValidationError(f"unexpected rule for ({q.name}, {s.name})")
        for (q, s), tr in self.rules.items():
            if not (_is_member(self.states, tr.next_state) and _is_member(self.alphabet, tr.write)):
                raise MachineValidationError(
                    f"rule for ({q.name}, {s.name}) references an unknown state or symbol"
                )
        # transition()'s table, halting row included: not a field, so eq and repr skip it; replace() rebuilds it.
        target = self.halting if self.halting_mode == "fixpoint" else self.initial
        halting_row = {(self.halting, s): Transition(target, s, MOVE_NONE) for s in self.alphabet}
        object.__setattr__(self, "_table", {**self.rules, **halting_row})

    def transition(self, state: State, symbol: Symbol) -> Transition:
        """Table lookup, extended to the halting state by ``halting_mode``."""
        return self._table[(state, symbol)]

    def non_halting_states(self) -> tuple[State, ...]:
        return tuple(q for q in self.states if q != self.halting)

    def state_named(self, name: str) -> State:
        for q in self.states:
            if q.name == name:
                return q
        raise MachineError(f"unknown state {name!r}")

    def symbol_named(self, name: str) -> Symbol:
        for s in self.alphabet:
            if s.name == name:
                return s
        raise MachineError(f"unknown symbol {name!r}")

    def with_halting_mode(self, mode: str) -> "TuringMachine":
        return dataclasses.replace(self, halting_mode=mode)


@dataclass(frozen=True)
class Configuration:
    """Machine state plus sparse tape; the head always reads cell 0.

    Canonical form: the tape dict never stores the blank symbol, so dataclass
    equality is configuration equality.  :func:`make_config`, :func:`step` and
    :func:`run` always produce canonical tapes.
    """

    state: State
    tape: dict[int, Symbol]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a bounded run: where it stopped and whether it halted."""

    halted: bool
    steps_taken: int
    final: Configuration

    @property
    def halting_time(self) -> int | None:  # steps taken to reach the halting state
        return self.steps_taken if self.halted else None


def make_config(
    machine: TuringMachine,
    state: State,
    window: Union[str, Sequence[Union[str, Symbol]]] = "",
    offset: int = 0,
) -> Configuration:
    """Build a canonical configuration whose tape holds ``window`` from ``offset``.

    ``window`` may be a sequence of symbols or symbol names, a whitespace
    separated string of names, or (when every character is itself a symbol
    name) a plain string like ``"bgg"``.  Blank cells are not stored.
    """
    symbols = _resolve_window(machine, window)
    _check_members(machine, state, symbols)
    return Configuration(state, {offset + i: s for i, s in enumerate(symbols) if s != machine.blank})


def _resolve_window(machine, window) -> list[Symbol]:
    if isinstance(window, str):
        names = {s.name for s in machine.alphabet}
        tokens = window.split()
        if not all(t in names for t in tokens) and all(c in names for c in window):
            tokens = list(window)
        window = tokens
    return [item if isinstance(item, Symbol) else machine.symbol_named(item) for item in window]


def _check_members(machine: TuringMachine, state: State, symbols) -> None:
    """Raise :class:`MachineError` unless ``state`` and every one of ``symbols`` belong to ``machine``."""
    if not _is_member(machine.states, state):
        raise MachineError(f"state {state.name!r} is not a state of this machine")
    for s in symbols:
        if not _is_member(machine.alphabet, s):
            raise MachineError(f"symbol {s.name!r} is not in the alphabet")


def step(machine: TuringMachine, config: Configuration) -> Configuration:
    """One application of the global one-step map; total on all configurations.

    Writes at cell 0, then re-indexes the tape so the head is again at cell 0:
    move +1 decreases every stored index by one, move -1 increases it.
    """
    read = config.tape.get(0, machine.blank)
    tr = machine.transition(config.state, read)
    tape = dict(config.tape)
    if tr.write == machine.blank:
        tape.pop(0, None)
    else:
        tape[0] = tr.write
    if tr.move != MOVE_NONE:
        tape = {i - tr.move: s for i, s in tape.items()}
    return Configuration(tr.next_state, tape)


def run(machine: TuringMachine, config: Configuration, max_steps: int) -> RunResult:
    """Run the one-step map until it halts or has taken ``max_steps`` steps.

    Equal to iterated :func:`step`, and tested against it, at O(1) per step
    plus one final re-index.  The budget is mandatory because halting is
    undecidable; a run that does not halt comes back with ``halted=False``.
    A state or tape symbol foreign to ``machine`` raises :class:`MachineError`.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    _check_members(machine, config.state, config.tape.values())
    table, blank, halting = _id_table(machine), machine.blank.id, machine.halting.id
    state, tape, head, steps = config.state.id, {i: s.id for i, s in config.tape.items()}, 0, 0
    while state != halting and steps < max_steps:
        state, write, move = table[state][tape.get(head, blank)]
        if write == blank:
            tape.pop(head, None)
        else:
            tape[head] = write
        head, steps = head + move, steps + 1
    final = Configuration(machine.states[state], {i - head: machine.alphabet[s] for i, s in tape.items()})
    return RunResult(state == halting, steps, final)


def _id_table(machine: TuringMachine) -> list[list[tuple[int, int, int]]]:
    """``machine.transition`` on ids: (next state id, write id, move) at [state id][read id]."""
    # run keeps this id path although tokens are interned: walking the tokens through
    # machine.rules made perfbench simulate-long task_s 22 % slower (0.030 s vs 0.025 s).
    rows = [[machine.transition(q, s) for s in machine.alphabet] for q in machine.states]
    return [[(tr.next_state.id, tr.write.id, tr.move) for tr in row] for row in rows]


def iterate(machine: TuringMachine, config: Configuration, steps: int) -> Iterator[Configuration]:
    """Yield the orbit segment config, step(config), ... of length ``steps + 1``."""
    current = config
    yield current
    for _ in range(steps):
        current = step(machine, current)
        yield current


def distance(x: Configuration, y: Configuration) -> Fraction:
    """Exact configuration metric: 1 on state mismatch, else 2**-(agreement radius).

    The radius is the largest k such that the tapes agree on every cell with
    |i| < k; it is finite whenever the (canonical, finitely supported) tapes
    differ.  Configurations of different machines simply compare unequal cell
    by cell; there is no cross-machine check here.
    """
    if x.state != y.state:
        return Fraction(1)
    if x.tape == y.tape:
        return Fraction(0)
    disagree = min(abs(i) for i in set(x.tape) | set(y.tape) if x.tape.get(i) != y.tape.get(i))
    return Fraction(1, 2**disagree)


def format_config(machine: TuringMachine, config: Configuration) -> str:
    """Render a configuration as ``state | ... a b . c d ...`` with cell 0 after the dot."""
    radius = max((abs(i) for i in config.tape), default=0) + 1
    names = [config.tape.get(i, machine.blank).name for i in range(-radius, radius + 1)]
    left = " ".join(names[:radius])
    right = " ".join(names[radius:])
    return f"{config.state.name} | …{left} . {right}…"


# --- machine description documents ------------------------------------------

_HEADERS = ("states", "alphabet", "blank", "initial", "halting")


def parse_machine(text: str, halting_mode: str = "fixpoint") -> TuringMachine:
    """Parse the line-oriented machine format into a validated machine.

    Format: ``#`` starts a comment; the five headers ``states:``,
    ``alphabet:``, ``blank:``, ``initial:`` and ``halting:`` come first in
    any order; then one rule per line, ``state symbol -> state symbol move``
    with move one of L, R, N, or the shorthand ``state symbol -> HALT`` for
    "enter the halting state, keep the symbol, do not move".  Rules are told
    apart by length, so in the six-token form ``HALT`` is an ordinary state
    name.  Exactly one rule per (non-halting state, symbol) pair.

    All failures raise :class:`MachineFormatError` carrying the line number.
    """
    headers: dict[str, tuple[list[str], int]] = {}
    rule_lines: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "->" in line:
            rule_lines.append((lineno, line.split()))
            continue
        if ":" in line:
            key, _, rest = line.partition(":")
            key = key.strip()
            if key not in _HEADERS:
                raise MachineFormatError(f"unknown header {key!r}", lineno)
            if rule_lines:
                raise MachineFormatError(f"header {key!r} appears after the first rule", lineno)
            if key in headers:
                raise MachineFormatError(f"duplicate header {key!r}", lineno)
            headers[key] = (rest.split(), lineno)
            continue
        raise MachineFormatError(f"cannot parse {line!r} (not a header or a rule)", lineno)

    missing = [h for h in _HEADERS if h not in headers]
    if missing:
        raise MachineFormatError(f"missing header line(s): {', '.join(missing)}")

    state_names, states_line = headers["states"]
    symbol_names, alpha_line = headers["alphabet"]
    for names, line, kind in ((state_names, states_line, "state"), (symbol_names, alpha_line, "symbol")):
        dup = _first_duplicate(names)
        if dup is not None:
            raise MachineFormatError(f"duplicate {kind} name {dup!r}", line)
        if not names:
            raise MachineFormatError(f"empty {kind} list", line)
    if len(symbol_names) < 2:
        raise MachineFormatError("alphabet must have >= 2 symbols", alpha_line)

    states = tuple(State(i, n) for i, n in enumerate(state_names))
    alphabet = tuple(Symbol(i, n) for i, n in enumerate(symbol_names))
    state_by_name = {q.name: q for q in states}
    symbol_by_name = {s.name: s for s in alphabet}

    def one_name(key: str, table: Mapping[str, object], what: str):
        names, line = headers[key]
        if len(names) != 1:
            raise MachineFormatError(f"header {key!r} needs exactly one name", line)
        if names[0] not in table:
            raise MachineFormatError(f"{key}: unknown {what} {names[0]!r}", line)
        return table[names[0]]

    blank = one_name("blank", symbol_by_name, "symbol")
    initial = one_name("initial", state_by_name, "state")
    halting = one_name("halting", state_by_name, "state")

    rules: dict[tuple[State, Symbol], Transition] = {}
    for lineno, tokens in rule_lines:
        shorthand = tokens[3:] == ["HALT"]
        if not (shorthand or len(tokens) == 6) or tokens[2] != "->":
            raise MachineFormatError(
                "rule must look like 'state symbol -> state symbol move' or 'state symbol -> HALT'", lineno
            )
        if tokens[0] not in state_by_name:
            raise MachineFormatError(f"unknown state {tokens[0]!r}", lineno)
        if tokens[1] not in symbol_by_name:
            raise MachineFormatError(f"unknown symbol {tokens[1]!r}", lineno)
        q, s = state_by_name[tokens[0]], symbol_by_name[tokens[1]]
        if q == halting:
            raise MachineFormatError(f"rule for the halting state {q.name!r}", lineno)
        if shorthand:
            tr = Transition(halting, s, MOVE_NONE)
        else:
            if tokens[3] not in state_by_name:
                raise MachineFormatError(f"unknown state {tokens[3]!r}", lineno)
            if tokens[4] not in symbol_by_name:
                raise MachineFormatError(f"unknown symbol {tokens[4]!r}", lineno)
            if tokens[5] not in MOVE_LETTERS:
                raise MachineFormatError(f"unknown move {tokens[5]!r} (expected L, R or N)", lineno)
            tr = Transition(state_by_name[tokens[3]], symbol_by_name[tokens[4]], MOVE_LETTERS[tokens[5]])
        if (q, s) in rules:
            raise MachineFormatError(f"duplicate rule for ({q.name}, {s.name})", lineno)
        rules[(q, s)] = tr

    try:
        return TuringMachine(states, alphabet, blank, initial, halting, rules, halting_mode)
    except MachineValidationError as exc:
        raise MachineFormatError(str(exc)) from exc


def _first_duplicate(names: Sequence[str]) -> str | None:
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return None
