"""Regularity certificates and the entropy lower bounds they imply.

Two machine-checkable criteria are decided here, each with an explicit
witness that can be re-verified independently of the search:

* a *strong* witness is a block Q' x S' (non-halting states times >= 2
  symbols) on which every transition moves the same direction and stays in
  Q'; it certifies a topological-entropy lower bound of log |S'|.
* a *regular* witness is a pair of distinct closed walks from a common state
  in one of the per-direction shift graphs; with walk costs a_w = 1 + sum of
  the per-edge step counts, it certifies log 2 / max(a_1, a_2).

Bounds are carried exactly as (log of an integer) / integer; decimal values
are derived, never stored.  Absence of a witness is reported as such and is
not a zero-entropy claim.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

from .machine import State, Symbol, TuringMachine
from .shift_analysis import SHIFT, ShiftEdge, ShiftGraph, classify_shift, shift_graph, shift_table

STRONGLY_REGULAR = "strongly-regular"
REGULAR = "regular"
NO_WITNESS = "no-witness-found"

#: Walks are (state, symbol) pair sequences; consecutive pairs are linked by
#: the shift classification and the last pair shifts back to the base state.
Walk = tuple[tuple[State, Symbol], ...]


@dataclass(frozen=True)
class StrongWitness:
    direction: int
    states: frozenset[State]
    symbols: frozenset[Symbol]


@dataclass(frozen=True)
class RegularWitness:
    direction: int
    base: State
    walk_a: Walk
    walk_b: Walk
    cost_a: int
    cost_b: int

    @property
    def cost(self) -> int:
        return max(self.cost_a, self.cost_b)


@dataclass(frozen=True)
class EntropyCertificate:
    """Verdict plus an exact bound log(log_of)/over when a witness exists."""

    verdict: str
    log_of: int | None
    over: int | None
    witness: Union[StrongWitness, RegularWitness, None]

    def bound_float(self) -> float | None:
        if self.log_of is None:
            return None
        return math.log(self.log_of) / self.over

    def bound_text(self) -> str | None:
        if self.log_of is None:
            return None
        return f"log {self.log_of}" if self.over == 1 else f"log {self.log_of} / {self.over}"


def check_strong_regularity(machine: TuringMachine, max_alphabet: int = 16) -> Optional[StrongWitness]:
    """Search for a strong block, largest symbol set first, or return None.

    For a fixed symbol set S' and direction, the block condition is pointwise
    in the states, so the greatest admissible Q' is a fixed point: start from
    all non-halting states and delete any state with a violating transition
    until stable.  A block for S' restricts to a block for every 2-subset of
    S', so scanning the 2-subsets decides existence per direction; only on a
    hit are larger subsets enumerated, largest first, to maximize |S'|.

    The search is direction-major (+1 fully before -1) and stops at the first
    hit, so a machine with blocks in both directions gets its +1 witness even
    if the -1 one has more symbols; the certificate is sound either way.
    """
    if len(machine.alphabet) > max_alphabet:
        raise ValueError(
            f"alphabet size {len(machine.alphabet)} exceeds the search cap {max_alphabet}"
        )
    for direction in (1, -1):
        if not any(
            _greatest_block(machine, direction, pair)
            for pair in itertools.combinations(machine.alphabet, 2)
        ):
            continue
        for size in range(len(machine.alphabet), 1, -1):
            for symbols in itertools.combinations(machine.alphabet, size):
                block = _greatest_block(machine, direction, symbols)
                if block:
                    return StrongWitness(direction, frozenset(block), frozenset(symbols))
        raise AssertionError("2-subset scan found a block but enumeration did not")
    return None


def _greatest_block(machine: TuringMachine, direction: int, symbols) -> set[State]:
    block = set(machine.non_halting_states())
    changed = True
    while changed:
        changed = False
        for q in sorted(block, key=lambda q: q.id):
            for s in symbols:
                tr = machine.rules[(q, s)]
                if tr.move != direction or tr.next_state not in block:
                    block.discard(q)
                    changed = True
                    break
    return block


def check_regularity(machine: TuringMachine) -> Optional[RegularWitness]:
    """Search both shift graphs for two distinct closed walks from one state.

    A strongly connected component in which every vertex lies on a cycle is a
    single simple cycle exactly when its internal edge count equals its
    vertex count, so a component with more internal edges than vertices
    contains a vertex with two internal out-edges, each of which closes up
    into a walk back to that vertex.  Among all extracted candidates the
    witness with the smallest max(cost_a, cost_b) is returned (cheapest
    return paths are found by Dijkstra on the per-edge step counts, so the
    certified bound log 2 / cost is large, though not provably maximal).
    """
    candidates = []
    table = shift_table(machine)
    steps = {pair: out.steps for pair, out in table.items() if out.kind == SHIFT}
    for direction in (1, -1):
        graph = shift_graph(machine, direction, table)
        for component in _strongly_connected_components(graph):
            # Internal out-edges per vertex, in label order (graph.edges is
            # in (source, label) order); labels are unique per source.
            internal: dict[State, list[ShiftEdge]] = {v: [] for v in component}
            for e in graph.edges:
                if e.src in component and e.dst in component:
                    internal[e.src].append(e)
            if sum(map(len, internal.values())) <= len(component):
                continue
            for v in sorted(component, key=lambda q: q.id):
                if len(internal[v]) < 2:
                    continue
                walks = []
                for first in internal[v]:
                    back = _cheapest_path(internal, steps, first.dst, v)
                    walk = _as_walk([first] + back)
                    cost = 1 + sum(steps[pair] for pair in walk)
                    walks.append((cost, walk))
                walks.sort(key=lambda cw: (cw[0], _walk_key(cw[1])))
                (cost_a, walk_a), (cost_b, walk_b) = walks[0], walks[1]
                candidates.append(
                    RegularWitness(direction, v, walk_a, walk_b, cost_a, cost_b)
                )
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda w: (
            w.cost,
            min(w.cost_a, w.cost_b),
            0 if w.direction == 1 else 1,
            w.base.id,
            _walk_key(w.walk_a),
            _walk_key(w.walk_b),
        ),
    )


def _as_walk(edges: list[ShiftEdge]) -> Walk:
    pairs = tuple((e.src, e.label) for e in edges)
    if len(pairs) == 1:
        # A self-loop is traversed twice so the walk has length >= 2.
        pairs = pairs * 2
    return pairs


def _walk_key(walk: Walk):
    return tuple((q.id, s.id) for q, s in walk)


def _cheapest_path(out_edges, steps, src: State, dst: State) -> list[ShiftEdge]:
    """Deterministic Dijkstra over the given out-edge lists, weighted by step counts."""
    if src == dst:
        return []
    best: dict[State, tuple[int, list[ShiftEdge]]] = {src: (0, [])}
    heap = [(0, src.id, src)]
    while heap:
        dist, _, v = heapq.heappop(heap)
        if best[v][0] < dist:
            continue
        if v == dst:
            return best[v][1]
        for e in out_edges[v]:
            w = dist + steps[(e.src, e.label)]
            if e.dst not in best or w < best[e.dst][0]:
                best[e.dst] = (w, best[v][1] + [e])
                heapq.heappush(heap, (w, e.dst.id, e.dst))
    raise AssertionError(f"no path {src.name} -> {dst.name} inside a strongly connected component")


def _strongly_connected_components(graph: ShiftGraph) -> list[frozenset[State]]:
    """Tarjan's algorithm; parallel edges collapse for reachability purposes."""
    succ: dict[State, list[State]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        if e.dst not in succ[e.src]:
            succ[e.src].append(e.dst)
    index: dict[State, int] = {}
    low: dict[State, int] = {}
    on_stack: set[State] = set()
    stack: list[State] = []
    counter = itertools.count()
    components: list[frozenset[State]] = []

    def connect(v: State) -> None:
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        for w in succ[v]:
            if w not in index:
                connect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            component = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                component.add(w)
                if w == v:
                    break
            components.append(frozenset(component))

    for v in graph.vertices:
        if v not in index:
            connect(v)
    return components


def verify_witness(machine: TuringMachine, witness: Union[StrongWitness, RegularWitness]) -> bool:
    """Re-check every clause of the witness definition directly against the table.

    Independent of the search path: strong blocks are checked transition by
    transition, walks are checked link by link through the shift
    classification.  Malformed witnesses (foreign states, missing fields)
    verify as False rather than raising.
    """
    try:
        if isinstance(witness, StrongWitness):
            return _verify_strong(machine, witness)
        if isinstance(witness, RegularWitness):
            return _verify_regular(machine, witness)
    except (KeyError, ValueError):
        return False
    return False


def _verify_strong(machine: TuringMachine, w: StrongWitness) -> bool:
    if w.direction not in (-1, 1) or not w.states or len(w.symbols) < 2:
        return False
    if machine.halting in w.states:
        return False
    if not w.states <= set(machine.states) or not w.symbols <= set(machine.alphabet):
        return False
    for q in w.states:
        for s in w.symbols:
            tr = machine.rules[(q, s)]
            if tr.move != w.direction or tr.next_state not in w.states:
                return False
    return True


def _verify_regular(machine: TuringMachine, w: RegularWitness) -> bool:
    if w.direction not in (-1, 1):
        return False
    if w.walk_a == w.walk_b:
        return False
    for walk, cost in ((w.walk_a, w.cost_a), (w.walk_b, w.cost_b)):
        if len(walk) < 2:
            return False
        if walk[0][0] != w.base:
            return False
        total = 1
        for i, (q, s) in enumerate(walk):
            if q == machine.halting:
                return False
            out = classify_shift(machine, q, s)
            if out.kind != SHIFT or out.direction != w.direction:
                return False
            expected = walk[i + 1][0] if i + 1 < len(walk) else w.base
            if out.exit_state != expected:
                return False
            total += out.steps
        if total != cost:
            return False
    return True


def entropy_lower_bound(machine: TuringMachine) -> EntropyCertificate:
    """Best certified lower bound available from the two witness searches.

    A strong witness gives log |S'|, which is never below a regular one's
    log 2 / cost (|S'| >= 2 and cost >= 1), so the closed-walk search runs
    only when there is no strong witness.  With no witness the certificate
    carries no bound at all; this is not a zero-entropy claim.
    """
    strong = check_strong_regularity(machine)
    if strong is not None:
        return EntropyCertificate(STRONGLY_REGULAR, len(strong.symbols), 1, strong)
    regular = check_regularity(machine)
    if regular is not None:
        return EntropyCertificate(REGULAR, 2, regular.cost, regular)
    return EntropyCertificate(NO_WITNESS, None, None, None)


def certificate_to_json_dict(certificate: EntropyCertificate) -> dict:
    """JSON document {verdict, bound, direction, witness} for reports and the CLI."""
    bound = None
    if certificate.log_of is not None:
        bound = {
            "log_of": certificate.log_of,
            "over": certificate.over,
            "decimal": certificate.bound_float(),
        }
    witness = None
    direction = None
    w = certificate.witness
    if isinstance(w, StrongWitness):
        direction = w.direction
        witness = {
            "type": "strong-block",
            "states": sorted(q.name for q in w.states),
            "symbols": sorted(s.name for s in w.symbols),
        }
    elif isinstance(w, RegularWitness):
        direction = w.direction
        witness = {
            "type": "closed-walks",
            "base": w.base.name,
            "walk_a": [[q.name, s.name] for q, s in w.walk_a],
            "walk_b": [[q.name, s.name] for q, s in w.walk_b],
            "cost_a": w.cost_a,
            "cost_b": w.cost_b,
        }
    return {
        "verdict": certificate.verdict,
        "bound": bound,
        "direction": direction,
        "witness": witness,
    }
