"""The benchmark's own view of a machine: a plain transition table.

Inputs are generated and written from these tables, and outputs are checked
against them, without going through tmdyn's parser or step function.  The
reference simulator keeps the head at an absolute index on a dict tape, the
opposite of tmdyn's pinned-head representation, so the two share no code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MOVE_OF_LETTER = {"L": -1, "N": 0, "R": 1}
LETTER_OF_MOVE = {v: k for k, v in MOVE_OF_LETTER.items()}


@dataclass(frozen=True)
class Table:
    """States, symbols and rules by name; ``rules[(q, s)] = (next, write, move)``."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    blank: str
    initial: str
    halting: str
    rules: dict[tuple[str, str], tuple[str, str, int]]


def parse_table(text: str) -> Table:
    """Read the documented machine format (headers, rules, ``-> HALT``)."""
    headers: dict[str, list[str]] = {}
    rules = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "->" in line:
            q, s, _, *rhs = line.split()
            if rhs == ["HALT"]:
                rules[(q, s)] = (headers["halting"][0], s, 0)
            else:
                rules[(q, s)] = (rhs[0], rhs[1], MOVE_OF_LETTER[rhs[2]])
        elif ":" in line:
            key, _, rest = line.partition(":")
            headers[key.strip()] = rest.split()
    return Table(
        tuple(headers["states"]),
        tuple(headers["alphabet"]),
        headers["blank"][0],
        headers["initial"][0],
        headers["halting"][0],
        rules,
    )


def format_table(table: Table) -> str:
    """Write a table in the documented format; halting rules use the HALT shorthand."""
    lines = [
        f"states: {' '.join(table.states)}",
        f"alphabet: {' '.join(table.alphabet)}",
        f"blank: {table.blank}",
        f"initial: {table.initial}",
        f"halting: {table.halting}",
        "",
    ]
    for (q, s), (nxt, write, move) in table.rules.items():
        if nxt == table.halting and write == s and move == 0:
            lines.append(f"{q} {s} -> HALT")
        else:
            lines.append(f"{q} {s} -> {nxt} {write} {LETTER_OF_MOVE[move]}")
    return "\n".join(lines) + "\n"


def random_table(rng: random.Random, n_states: int, n_symbols: int, halt_share: float) -> Table:
    """A total table on ``n_states`` working states; each rule halts with ``halt_share``."""
    states = tuple(f"q{i}" for i in range(n_states)) + ("halt",)
    alphabet = tuple(f"s{i}" for i in range(n_symbols))
    rules = {}
    for q in states[:-1]:
        for s in alphabet:
            if rng.random() < halt_share:
                # Half of the halting rules keep the symbol and stay, which
                # the file writes with the ``-> HALT`` shorthand.
                if rng.random() < 0.5:
                    rules[(q, s)] = ("halt", s, 0)
                else:
                    rules[(q, s)] = ("halt", rng.choice(alphabet), rng.choice((-1, 0, 1)))
            else:
                rules[(q, s)] = (rng.choice(states[:-1]), rng.choice(alphabet), rng.choice((-1, 0, 1)))
    return Table(states, alphabet, alphabet[0], states[0], "halt", rules)


@dataclass(frozen=True)
class SimResult:
    state: str
    tape: dict[int, str]  # cell -> symbol relative to the head, blanks omitted
    steps_taken: int
    halted: bool
    cells: int = 0  # stored tape cells summed over the steps taken


def simulate(table: Table, state: str, cells: dict[int, str], max_steps: int) -> SimResult:
    """Reference run: absolute head index on a dict tape, stop on the halting state."""
    tape = {i: s for i, s in cells.items() if s != table.blank}
    head = 0
    taken = 0
    stored = 0
    while state != table.halting and taken < max_steps:
        nxt, write, move = table.rules[(state, tape.get(head, table.blank))]
        if write == table.blank:
            tape.pop(head, None)
        else:
            tape[head] = write
        head += move
        state = nxt
        taken += 1
        stored += len(tape)
    relative = {i - head: s for i, s in sorted(tape.items())}
    return SimResult(state, relative, taken, state == table.halting, stored)


def replay_shift(table: Table, state: str, symbol: str) -> dict:
    """Follow the head cell from (state, symbol) until it halts, repeats or moves.

    Returns a shift-table row in the CLI's JSON shape.
    """
    row = {"state": state, "symbol": symbol, "kind": None, "direction": None, "exit_state": None, "steps": None}
    seen = {(state, symbol)}
    q, s = state, symbol
    steps = 0
    while True:
        nxt, write, move = table.rules[(q, s)]
        steps += 1
        if nxt == table.halting:
            row["kind"] = "halt"
            return row
        if move != 0:
            row.update(kind="shift", direction=move, exit_state=nxt, steps=steps)
            return row
        q, s = nxt, write
        if (q, s) in seen:
            row["kind"] = "periodic"
            return row
        seen.add((q, s))
