"""Exact counting of the (state, head symbol) trace words of length n.

The n-words of a machine are the sequences ((q_0, s_0), ..., (q_{n-1},
s_{n-1})) realized by some configuration: entry i is the state and the
symbol under the head after i steps.  Their counts grow submultiplicatively,
so log(count)/n decreases toward the machine's topological entropy; together
with a certificate from :mod:`tmdyn.regularity` each report row brackets the
entropy from above and below.

Two counters are provided.  The oracle fixes every tape cell the head could
possibly visit and simulates outright on a plain list tape; it shares only
``machine.transition`` with the production counter and is exponentially
expensive ground truth.  The production counter :func:`count_words` assigns
tape cells on first read, which only branches where the trace can actually
differ, and counts the leaves of that search tree, sharing the count of
every subtree that starts at a first read with the same state, reads left
and tape window.  Starting states deliberately range over *all* states,
halting one included (its traces follow the configured halting extension);
pass ``initial_only=True`` to explore the restriction to the initial state.
"""

from __future__ import annotations

import io
import itertools
import math
from array import array
from dataclasses import dataclass

from .machine import BudgetExceededError, State, Symbol, TuringMachine, _id_table

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .regularity import EntropyCertificate

#: One n-word: ((state, symbol), ...) of length n.
TraceWord = tuple[tuple[State, Symbol], ...]

DEFAULT_NODE_BUDGET = 10**8
# A report's memo stores no entry past this many: about 1 GB at the 137-165 B an
# entry measured (utm_6_4 n_max 24, wutm_6_2 n_max 44, Python 3.11).
MAX_MEMO_ENTRIES = 6_000_000
ORACLE_MAX_N = 5  # the largest n count_words_oracle accepts
ORACLE_CHECKED_N = 4  # entropy --oracle checks the rows n <= this


def count_words_oracle(machine: TuringMachine, n: int, *, initial_only: bool = False) -> int:
    """Brute-force |S(n)|: enumerate every window assignment and simulate.

    In n - 1 steps the head cannot leave cells [-(n-1), n-1], so symbols
    outside that window never influence the trace and enumerating the
    |alphabet| ** (2n - 1) window assignments (times every starting state) is
    exhaustive.  Each window runs on a plain list tape through
    ``machine.transition``, all the oracle shares with :func:`count_words`.
    n is capped at :data:`ORACLE_MAX_N` (5); a larger n raises ``ValueError``.
    """
    if not 1 <= n <= ORACLE_MAX_N:
        raise ValueError(f"n must be in 1..{ORACLE_MAX_N} for the oracle (got {n})")
    traces: set[TraceWord] = set()
    starts = (machine.initial,) if initial_only else machine.states
    for q in starts:
        for window in itertools.product(machine.alphabet, repeat=2 * n - 1):
            state, tape, head = q, list(window), n - 1
            trace = [(state, tape[head])]
            for _ in range(n - 1):
                tr = machine.transition(state, tape[head])
                tape[head] = tr.write
                state, head = tr.next_state, head + tr.move
                trace.append((state, tape[head]))
            traces.add(tuple(trace))
    return len(traces)


def count_words(
    machine: TuringMachine,
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    initial_only: bool = False,
) -> int:
    """Exact |S(n)| by counting the leaves of the lazy search; agrees with the oracle.

    The lazy search branches only at the first read of a cell and records the
    symbol just read, so sibling subtrees differ at that position and
    distinct start states differ at position 0: leaves and traces correspond
    one to one, and no trace is stored.  With r reads left the head stays
    within r - 1 cells, so the leaves below a first read at h depend only on
    the state, r and the tape window h - (r-1) .. h + (r-1), unvisited cells
    included as such.  Only the last read, which takes no step, can reach
    the window's two end cells: one leaf if the cell was seen, one per symbol
    if not.  So the memo key stores a seen end cell as symbol 0.  Entries
    hold O(n) cells; an explicit stack replaces recursion.

    Raises :class:`BudgetExceededError` when memo misses, deterministic steps
    and leaves together exceed ``node_budget``; there is no silent truncation.
    Memo hits are free.  The steps between two first reads are charged at
    once, in the same units, so a count raises exactly when they exceed the
    budget.  :func:`entropy_estimates` gives the budget to each of its rows.
    The memo stops growing at :data:`MAX_MEMO_ENTRIES`, so memory is bounded
    and counts stay exact, but past it a subtree not stored is searched
    again, the work per n rises, and the budget may raise at a smaller n.
    """
    memo: list[dict[bytes, int]] = [{} for _ in machine.states]
    return _count_words(machine, n, node_budget, initial_only, _id_table(machine), memo)


def _count_words(machine: TuringMachine, n: int, node_budget: int, initial_only: bool, table, memo) -> int:
    """:func:`count_words` on the id ``table`` of ``machine``, reading and filling ``memo``.

    A key's length fixes the reads left, so one memo may serve every n on the
    same machine and halting mode; it stores no entry once it holds
    :data:`MAX_MEMO_ENTRIES`.  Each first read snapshots the tape while
    its cell is unseen and restores it before each symbol it tries.  A walk
    is charged, and the budget tested, once, when it ends.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = len(machine.alphabet)
    unseen = k  # the marker of a cell the search has not read yet
    # The head starts at cell n - 1 and never leaves cells 0..2n-2.
    blank = array("B" if k < 256 else "I", [unseen]) * (2 * n - 1)
    tape = blank[:]

    starts = (machine.initial,) if initial_only else machine.states
    remaining = node_budget - len(starts)  # the misses of the start frames
    room = MAX_MEMO_ENTRIES - sum(map(len, memo))
    result = 0
    for start in starts:
        # The frame of a first read: state, head, reads left, its memo key,
        # next symbol to assign, leaves so far, and the tape before its read.
        state, head, reads, key, sym, total, saved = start.id, n - 1, n, blank.tobytes(), 0, 0, blank
        parents = []
        while True:
            if sym == k:
                if room > 0:  # a full memo stores nothing more; the count goes on
                    memo[state][key] = total
                    room -= 1
                if not parents:
                    break
                below = total
                state, head, reads, key, sym, total, saved = parents.pop()
                total += below
                continue
            tape[:] = saved
            tape[head] = sym
            sym += 1
            # Follow the deterministic steps up to a leaf or the next first read.
            q, h, r = state, head, reads
            while r := r - 1:
                q, tape[h], move = table[q][tape[h]]
                h += move
                if tape[h] == unseen:
                    break
            hit = 1  # a leaf
            if r:
                window = tape[h - r + 1 : h + r]
                if window[0] != unseen:  # a seen end cell is keyed as 0
                    window[0] = 0
                if window[-1] != unseen:
                    window[-1] = 0
                window = window.tobytes()
                hit = memo[q].get(window)
            remaining -= reads - r + (hit is None)
            if remaining < 0:
                raise BudgetExceededError(f"word enumeration for n={n} exceeded the node budget of {node_budget}")
            if hit is None:
                parents.append((state, head, reads, key, sym, total, saved))
                state, head, reads, key, sym, total, saved = q, h, r, window, 0, 0, tape[:]
            else:
                total += hit
        result += total
    return result


@dataclass(frozen=True)
class WordCountRow:
    n: int
    count: int

    @property
    def estimate(self) -> float:  # log(count) / n, an upper bound on the entropy
        return math.log(self.count) / self.n


@dataclass(frozen=True)
class WordCountReport:
    """Per-n counts plus the certificate bound, bracketing the entropy.

    Every ``estimate`` is an upper bound (subadditivity of log counts) and
    the certificate bound, when present, is a lower bound.  If a row hit the
    node budget, ``budget_error`` explains it and the completed rows are
    still reported.
    """

    rows: tuple[WordCountRow, ...]
    certificate: EntropyCertificate
    budget_error: str | None = None


def entropy_estimates(
    machine: TuringMachine,
    n_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    initial_only: bool = False,
) -> WordCountReport:
    """Count words for n = 1..n_max and attach the certified lower bound.

    The rows share one memo, so a row reuses the subtree counts of the rows
    before it.  ``node_budget`` applies to each row, with memo hits free; the
    first row that runs out ends the report.  Memory grows with the memo
    entries of all rows (time and peak RSS per n_max: the cost table in
    README.md) until the memo holds :data:`MAX_MEMO_ENTRIES`.  Below that
    cap no row costs more than :func:`count_words` alone.  Past it the
    counts stay exact, but the memo keeps the lower rows' entries, so the
    work per row rises and the budget may end the report at a smaller n.

    With ``initial_only`` the counts cover only orbits started in the initial
    state; that restriction is exploratory and the bracketing guarantee
    (every estimate >= certificate bound) applies to the full counts only.
    """
    from .regularity import entropy_lower_bound  # here: every command loads words for its constants

    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    certificate = entropy_lower_bound(machine)  # raises over the alphabet cap before any counting
    table, memo = _id_table(machine), [{} for _ in machine.states]
    rows = []
    budget_error = None
    for n in range(1, n_max + 1):
        try:
            count = _count_words(machine, n, node_budget, initial_only, table, memo)
        except BudgetExceededError as exc:
            budget_error = str(exc)
            break
        rows.append(WordCountRow(n, count))
    return WordCountReport(tuple(rows), certificate, budget_error)


def report_to_csv(report: WordCountReport) -> str:
    """CSV with columns n, count, e_n, min_e_n (estimates at 20 significant digits)."""
    import csv  # here, not at import: only CSV output needs it

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["n", "count", "e_n", "min_e_n"])
    for row in report_to_json_dict(report)["rows"]:
        writer.writerow([row["n"], row["count"], f"{row['e_n']:.20g}", f"{row['min_e_n']:.20g}"])
    return out.getvalue()


def report_to_json_dict(report: WordCountReport) -> dict:
    from .regularity import certificate_to_json_dict

    running = math.inf
    rows = []
    for row in report.rows:
        running = min(running, row.estimate)
        rows.append({"n": row.n, "count": row.count, "e_n": row.estimate, "min_e_n": running})
    return {
        "rows": rows,
        "certificate": certificate_to_json_dict(report.certificate),
        "budget_error": report.budget_error,
    }
