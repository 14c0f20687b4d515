"""Regularity certificates and the entropy lower bounds they imply.

Two machine-checkable criteria are decided here, each with an explicit
witness that can be re-verified independently of the search:

* a *strong* witness is a block Q' x S' (non-halting states times >= 2
  symbols) on which every transition moves the same direction and stays in
  Q'; it certifies a topological-entropy lower bound of log |S'|.
* a *regular* witness is a pair of closed walks from a common state in one
  of the per-direction shift graphs, neither a prefix of the other; with
  walk costs a_w = 1 + sum of the per-edge step counts, it certifies
  log 2 / max(a_1, a_2).

Bounds are carried exactly as (log of an integer) / integer; decimal values
are derived, never stored.  Absence of a witness is reported as such and is
not a zero-entropy claim.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass

from .machine import BudgetExceededError, State, Symbol, TuringMachine
from .shift_analysis import SHIFT, ShiftEdge, ShiftGraph, classify_shift, shift_graph, shift_table

STRONGLY_REGULAR = "strongly-regular"
REGULAR = "regular"
NO_WITNESS = "no-witness-found"

#: The strong-block search enumerates symbol subsets, so it refuses larger alphabets.
MAX_ALPHABET = 16

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
    """A witness, or None; the verdict and the exact bound log(log_of)/over follow from it."""

    witness: StrongWitness | RegularWitness | None

    def _terms(self) -> tuple[str, int | None, int | None]:
        w = self.witness
        if isinstance(w, StrongWitness):
            return STRONGLY_REGULAR, len(w.symbols), 1
        if isinstance(w, RegularWitness):
            return REGULAR, 2, w.cost
        return NO_WITNESS, None, None

    verdict = property(lambda self: self._terms()[0])
    log_of = property(lambda self: self._terms()[1])
    over = property(lambda self: self._terms()[2])

    def bound_float(self) -> float | None:
        if self.witness is None:
            return None
        return math.log(self.log_of) / self.over

    def bound_text(self) -> str | None:
        if self.witness is None:
            return None
        return f"log {self.log_of}" if self.over == 1 else f"log {self.log_of} / {self.over}"


def check_strong_regularity(machine: TuringMachine) -> StrongWitness | None:
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
    Raises :class:`BudgetExceededError` above :data:`MAX_ALPHABET` symbols.
    """
    if len(machine.alphabet) > MAX_ALPHABET:
        raise BudgetExceededError(
            f"alphabet size {len(machine.alphabet)} exceeds the search cap {MAX_ALPHABET}"
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
    # A state only leaves when it fails against a superset of the greatest
    # block, so the fixed point does not depend on the order of deletion.
    block = set(machine.non_halting_states())
    while True:
        keep = {
            q
            for q in block
            if all(
                tr.move == direction and tr.next_state in block
                for tr in (machine.rules[(q, s)] for s in symbols)
            )
        }
        if keep == block:
            return block
        block = keep


def check_regularity(machine: TuringMachine) -> RegularWitness | None:
    """Search both shift graphs for two distinct closed walks from one state.

    An out-edge of v closes up into a walk back to v exactly when its target
    lies in v's strongly connected component, so every vertex with at least
    two such edges carries a witness: one walk per edge, each closed by the
    cheapest return path inside the component (Dijkstra on the per-edge step
    counts), and the two cheapest walks are kept.  Among all vertices of both
    graphs the witness with the smallest max(cost_a, cost_b) is returned, so
    the certified bound log 2 / cost is large, though not provably maximal.
    """
    candidates = []
    table = shift_table(machine)
    steps = {pair: out.steps for pair, out in table.items() if out.kind == SHIFT}
    for direction in (1, -1):
        graph = shift_graph(table, direction)
        component = _component_labels(graph)
        # Closing out-edges per vertex, in label order (graph.edges is in
        # (source, label) order); labels are unique per source.
        internal: dict[State, list[ShiftEdge]] = {v: [] for v in graph.vertices}
        for e in graph.edges:
            if component[e.dst] == component[e.src]:
                internal[e.src].append(e)
        for v in graph.vertices:
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
            candidates.append(RegularWitness(direction, v, walk_a, walk_b, cost_a, cost_b))
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


def _component_labels(graph: ShiftGraph) -> dict[State, State]:
    """Label each vertex with a representative of its strongly connected component.

    Kosaraju's algorithm, on explicit stacks so that no recursion limit applies.
    """
    succ: dict[State, list[State]] = {v: [] for v in graph.vertices}
    pred: dict[State, list[State]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        succ[e.src].append(e.dst)
        pred[e.dst].append(e.src)
    # Depth-first search; a vertex finishes when the marker pushed below its
    # successors comes off the stack.
    finished: list[State] = []
    seen: set[State] = set()
    stack = [(v, False) for v in reversed(graph.vertices)]
    while stack:
        v, done = stack.pop()
        if done:
            finished.append(v)
        elif v not in seen:
            seen.add(v)
            stack.append((v, True))
            stack.extend((w, False) for w in succ[v] if w not in seen)
    # Searching back from the last finished unlabelled vertex reaches exactly its component.
    label: dict[State, State] = {}
    for root in reversed(finished):
        if root in label:
            continue
        label[root] = root
        todo = [root]
        while todo:
            for u in pred[todo.pop()]:
                if u not in label:
                    label[u] = root
                    todo.append(u)
    return label


def verify_witness(machine: TuringMachine, witness: StrongWitness | RegularWitness) -> bool:
    """Re-check every clause of the witness definition directly against the table.

    Independent of the search path: strong blocks are checked transition by
    transition, walks are checked link by link through the shift
    classification, and neither walk may be a prefix of the other, so that
    the pair is a prefix code and distinct concatenations give distinct
    words (two powers of one loop are rejected).  Malformed witnesses
    (foreign states, missing or ill-typed fields) verify as False rather than raising.
    A block holding the halting state fails through the missing rule: the
    table has none for it.
    """
    try:
        if isinstance(witness, StrongWitness):
            return _verify_strong(machine, witness)
        if isinstance(witness, RegularWitness):
            return _verify_regular(machine, witness)
    except (KeyError, TypeError, ValueError):
        return False
    return False


def _verify_strong(machine: TuringMachine, w: StrongWitness) -> bool:
    if w.direction not in (-1, 1) or not w.states or len(w.symbols) < 2:
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
    a, b = w.walk_a, w.walk_b
    if a[: len(b)] == b or b[: len(a)] == a:
        return False
    for walk, cost in ((a, w.cost_a), (b, w.cost_b)):
        if len(walk) < 2:
            return False
        if walk[0][0] != w.base:
            return False
        total = 1
        for i, (q, s) in enumerate(walk):
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
    return EntropyCertificate(strong if strong is not None else check_regularity(machine))


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
    w = certificate.witness
    direction = None if w is None else w.direction
    if isinstance(w, StrongWitness):
        witness = {
            "type": "strong-block",
            "states": sorted(q.name for q in w.states),
            "symbols": sorted(s.name for s in w.symbols),
        }
    elif isinstance(w, RegularWitness):
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
