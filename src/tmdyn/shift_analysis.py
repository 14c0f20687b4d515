"""Classify the eventual head motion out of each (state, symbol) pair.

While the head does not move, only the cell under it can change, so the
evolution of a configuration is fully described by the (state, head symbol)
pair.  Iterating the table on that pair must, within |states|*|alphabet|
stages, either reach a halting transition, repeat a pair (so the orbit is
periodic and never shifts), or hit a transition that moves the head.  The
classification of that trichotomy, together with the step count up to and
including the first shift, is what drives the regularity analysis; the
per-direction multigraphs built from it expose the cycle structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .machine import State, Symbol, TuringMachine

HALT = "halt"
PERIODIC = "periodic"
SHIFT = "shift"


@dataclass(frozen=True)
class ShiftOutcome:
    """Eventual behavior of the head cell started at one (state, symbol) pair.

    ``kind`` is "halt", "periodic" or "shift".  For shifts, ``direction`` is
    the move of the first shifting transition, ``exit_state`` the state it
    enters, and ``steps`` the number of machine steps consumed including the
    shifting one (so an immediately shifting pair has ``steps == 1``).
    """

    kind: str
    direction: int | None = None
    exit_state: State | None = None
    steps: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (HALT, PERIODIC, SHIFT):
            raise ValueError(f"unknown outcome kind {self.kind!r}")
        if self.kind == SHIFT:
            if self.direction not in (-1, 1) or self.exit_state is None or self.steps is None:
                raise ValueError("shift outcomes need a direction, an exit state and a step count")
            if self.steps < 1:
                raise ValueError("step count must be >= 1")


def classify_shift(machine: TuringMachine, state: State, symbol: Symbol) -> ShiftOutcome:
    """Decide whether (state, symbol) eventually halts, loops in place, or shifts.

    Halting takes precedence: a transition into the halting state counts as
    "halt" even if it also moves the head.  Periodicity is detected on the
    (state, head symbol) pair alone, which is sound because the head is
    stationary and only cell 0 mutates.  Terminates within
    |states| * |alphabet| stages.
    """
    if state == machine.halting:
        raise ValueError("the halting state has no shift classification")
    seen = {(state, symbol)}
    q, s = state, symbol
    steps = 0
    while True:
        tr = machine.rules[(q, s)]
        steps += 1
        if tr.next_state == machine.halting:
            return ShiftOutcome(HALT)
        if tr.move != 0:
            return ShiftOutcome(SHIFT, tr.move, tr.next_state, steps)
        q, s = tr.next_state, tr.write
        if (q, s) in seen:
            return ShiftOutcome(PERIODIC)
        seen.add((q, s))


def shift_table(machine: TuringMachine) -> dict[tuple[State, Symbol], ShiftOutcome]:
    """:func:`classify_shift` at every (non-halting state, symbol) pair, in (state id, symbol id) order."""
    return {
        (q, s): classify_shift(machine, q, s)
        for q in machine.non_halting_states()
        for s in machine.alphabet
    }


@dataclass(frozen=True)
class ShiftEdge:
    """One shifting pair, drawn from its state to the state the shift enters."""

    src: State
    dst: State
    label: Symbol


@dataclass(frozen=True)
class ShiftGraph:
    """Directed multigraph of all pairs shifting in one direction.

    Vertices are the non-halting states; there is one edge per (state,
    symbol) pair whose classification is a shift with matching direction,
    labeled by the symbol.  Labels are therefore unique per source vertex.
    """

    direction: int
    vertices: tuple[State, ...]
    edges: tuple[ShiftEdge, ...]

    def out_edges(self, v: State) -> tuple[ShiftEdge, ...]:
        return tuple(e for e in self.edges if e.src == v)


def shift_graph(
    machine: TuringMachine,
    direction: int,
    table: dict[tuple[State, Symbol], ShiftOutcome] | None = None,
) -> ShiftGraph:
    """Build the per-direction multigraph; edges keep the table's (source id, label id) order."""
    if direction not in (-1, 1):
        raise ValueError("direction must be -1 or +1")
    if table is None:
        table = shift_table(machine)
    edges = tuple(
        ShiftEdge(q, out.exit_state, s)
        for (q, s), out in table.items()
        if out.kind == SHIFT and out.direction == direction
    )
    return ShiftGraph(direction, machine.non_halting_states(), edges)


def graph_to_dot(graph: ShiftGraph) -> str:
    """Deterministic dot text: vertices sorted by id, edges by (source, label)."""
    name = "right_shifts" if graph.direction == 1 else "left_shifts"
    lines = [f"digraph {name} {{"]
    for v in sorted(graph.vertices, key=lambda q: q.id):
        lines.append(f'  "{v.name}";')
    for e in sorted(graph.edges, key=lambda e: (e.src.id, e.label.id, e.dst.id)):
        lines.append(f'  "{e.src.name}" -> "{e.dst.name}" [label="{e.label.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def shift_table_rows(table: dict[tuple[State, Symbol], ShiftOutcome]) -> list[dict]:
    """A shift table as JSON-friendly rows (state, symbol, kind, direction, exit, steps), in table order."""
    rows = []
    for (q, s), out in table.items():
        rows.append(
            {
                "state": q.name,
                "symbol": s.name,
                "kind": out.kind,
                "direction": out.direction,
                "exit_state": out.exit_state.name if out.exit_state else None,
                "steps": out.steps,
            }
        )
    return rows
