"""Generalized shifts, machine compilation, and Cantor-set coordinates.

A generalized shift acts on bi-infinite sequences over a finite alphabet: it
reads the window at cells [-r, r], substitutes a replacement window for it,
and then shifts the whole sequence by an amount that also depends on the
window.  Every machine compiles to a radius-1 shift over the disjoint union
A = states + tape symbols: embedding a configuration as

    ... t(-2) t(-1) [state] t(0) t(1) ...      (state at cell 0)

turns one machine step into one shift step, cell for cell.  The compiled
tables are not taken on faith; :func:`verify_conjugacy` replays random
configurations through both routes and compares.

For coordinates, a sequence is block-encoded into bits and the bits are read
as base-3 digits in {0, 2}, one coordinate per tape side, which lands every
sequence on the square ternary Cantor set.  All Cantor arithmetic is exact
(:class:`fractions.Fraction`); no floats are involved.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Hashable, Mapping

from .machine import Configuration, State, Symbol, TuringMachine, _is_member, step

Token = Hashable
Window = tuple


class SequenceAlphabet(tuple):
    """The ordered tokens of a sequence space plus their membership set.

    The first token is the default of every sequence over the alphabet, and
    :func:`block_encode` gives each token its index as code, so the default
    has code 0.  A tuple, so it iterates, indexes and compares like the plain
    tuple it replaces; the frozenset is built once, on first use.  Sequences
    that share one alphabet compare it by identity, in O(1).
    """

    @cached_property
    def members(self) -> frozenset:
        return frozenset(self)


@dataclass(frozen=True, init=False)
class ASequence:
    """Sparse bi-infinite sequence over a finite alphabet, filled with its first token.

    The alphabet's first token is the default.  Cells holding it are never
    stored, so equality of the dataclass fields is equality of sequences.
    The constructor canonicalizes and validates in one pass, so any ASequence
    in hand is well formed.  A plain ``alphabet`` is wrapped in a
    :class:`SequenceAlphabet`; a shared one is kept, so each sequence of a
    replay costs O(its cells), independent of |states| + |alphabet|.
    """

    alphabet: tuple[Token, ...]
    cells: dict[int, Token]

    def __init__(self, alphabet: tuple[Token, ...], cells: Mapping[int, Token]) -> None:
        if not isinstance(alphabet, SequenceAlphabet):
            alphabet = SequenceAlphabet(alphabet)
        if not alphabet:
            raise ValueError("the alphabet must not be empty")
        known, default = alphabet.members, alphabet[0]
        clean = {}
        for i, v in cells.items():
            if v not in known:
                raise ValueError(f"cell {i} holds {v!r}, which is not in the alphabet")
            if v != default:
                clean[i] = v
        vars(self).update(alphabet=alphabet, cells=clean)

    @property
    def default(self) -> Token:
        return self.alphabet[0]

    def at(self, i: int) -> Token:
        return self.cells.get(i, self.alphabet[0])

    def window(self, lo: int, hi: int) -> Window:
        return tuple(self.at(i) for i in range(lo, hi + 1))


@dataclass(frozen=True)
class GeneralizedShift:
    """Radius, plus sparse tables window -> replacement window and shift amount.

    Windows absent from ``rules`` substitute to themselves and shift by 0,
    so only behavior different from the identity is stored.
    """

    radius: int
    rules: dict[Window, tuple[Window, int]]

    def __post_init__(self) -> None:
        width = 2 * self.radius + 1
        for window, (replacement, _) in self.rules.items():
            if len(window) != width or len(replacement) != width:
                raise ValueError(f"windows must have length {width}")

    def apply_window(self, window: Window) -> tuple[Window, int]:
        return self.rules.get(window, (window, 0))


def gshift_step(shift: GeneralizedShift, seq: ASequence) -> ASequence:
    """One application: substitute at [-r, r], then shift the whole sequence.

    The shift is the left shift raised to the window's amount F: result cell
    i holds what the substituted sequence held at cell i + F.
    """
    r, get, default = shift.radius, seq.cells.get, seq.alphabet[0]
    replacement, amount = shift.apply_window(tuple([get(i, default) for i in range(-r, r + 1)]))
    cells = dict(seq.cells)
    cells.update(zip(range(-r, r + 1), replacement))  # the constructor drops defaults
    if amount != 0:
        cells = {i - amount: v for i, v in cells.items()}
    return ASequence(seq.alphabet, cells)


def sequence_alphabet(machine: TuringMachine) -> SequenceAlphabet:
    """The compiled alphabet: blank first (it is the default), then the rest."""
    rest = tuple(s for s in machine.alphabet if s != machine.blank)
    return SequenceAlphabet((machine.blank,) + rest + tuple(machine.states))


def embed(machine: TuringMachine, config: Configuration) -> ASequence:
    """Configuration -> sequence: state at cell 0, tape split around it.

    Cell i holds tape cell i - 1 for i >= 1 and tape cell i for i <= -1, so
    the head symbol sits immediately to the right of the state.  A replay builds
    the :func:`sequence_alphabet` once, so its embeddings cost O(their cells).
    """
    return _embed(sequence_alphabet(machine), config)


def _embed(alphabet: SequenceAlphabet, config: Configuration) -> ASequence:
    cells: dict[int, Token] = {0: config.state}
    for i, s in config.tape.items():
        cells[i + 1 if i >= 0 else i] = s
    return ASequence(alphabet, cells)


class NotInImageError(ValueError):
    """The sequence is not the embedding of any configuration."""


def unembed(machine: TuringMachine, seq: ASequence) -> Configuration:
    """Inverse of :func:`embed` on its image; raises :class:`NotInImageError` off it."""
    if seq.default != machine.blank:
        raise NotInImageError("the default is not the machine's blank")
    state = seq.at(0)
    if not _is_member(machine.states, state):
        raise NotInImageError("cell 0 does not hold a state")
    tape = {}
    for i, v in seq.cells.items():
        if i == 0:
            continue
        if not _is_member(machine.alphabet, v):
            raise NotInImageError(f"cell {i} does not hold a tape symbol")
        tape[i - 1 if i >= 1 else i] = v
    return Configuration(state, tape)


def compile_gshift(machine: TuringMachine) -> GeneralizedShift:
    """Compile the machine into its radius-1 generalized shift.

    Only windows of shape (tape symbol, state, tape symbol) do anything; for
    a transition (q', w, move) read from the middle state and the right
    symbol, the replacement rotates the written symbol and the new state so
    that the subsequent global shift by ``move`` re-centers the state:

        move +1:  (a, q, b) -> (a, w, q'), shift +1
        move -1:  (a, q, b) -> (q', a, w), shift -1
        move  0:  (a, q, b) -> (a, q', w), shift  0

    Halting states follow the machine's halting mode, so the compiled map is
    total and in fixpoint mode halting windows are identities (not stored).
    Everything off the image of :func:`embed` is the identity, which is
    harmless because the image is forward invariant.
    """
    rules: dict[Window, tuple[Window, int]] = {}
    for q in machine.states:
        row = [(right, machine.transition(q, right)) for right in machine.alphabet]
        for left in machine.alphabet:
            for right, tr in row:
                q2, w = tr.next_state, tr.write
                if tr.move == 1:
                    replacement: Window = (left, w, q2)
                elif tr.move == -1:
                    replacement = (q2, left, w)
                else:
                    replacement = (left, q2, w)
                window: Window = (left, q, right)
                if replacement != window or tr.move != 0:
                    rules[window] = (replacement, tr.move)
    return GeneralizedShift(1, rules)


@dataclass(frozen=True)
class ConjugacyReport:
    samples: int
    failures: int
    seed: int
    first_counterexample: Configuration | None

    @property
    def passes(self) -> int:
        return self.samples - self.failures


def verify_conjugacy(machine: TuringMachine, samples: int = 1000, seed: int = 0) -> ConjugacyReport:
    """Replay random configurations through both routes and compare cell by cell.

    For each sample the check is: compiled shift applied to the embedding
    equals the embedding of the machine step.  Failures are counted per draw,
    not raised; the first failing draw is reported for debugging.  Both routes
    are pure, so a configuration drawn again within one call reuses its
    verdict.  Sequences share one alphabet, so a sample costs O(its cells).
    """
    shift = compile_gshift(machine)
    alphabet = sequence_alphabet(machine)
    rng = random.Random(seed)
    choice, randrange, symbols, blank = rng.choice, rng.randrange, machine.alphabet, machine.blank
    verdicts: dict[tuple, bool] = {}  # (state, *tape items) -> both routes agree
    failures, first = 0, None
    for _ in range(samples):
        state = choice(machine.states)
        width = randrange(0, 7)  # randint(0, 6), which the random docs define as this call
        offset = randrange(-4, 3)
        tape = {}
        for i in range(width):
            s = choice(symbols)
            if s != blank:
                tape[offset + i] = s
        key = (state, *tape.items())  # cells go in left to right, so equal tapes give equal keys
        if key not in verdicts:
            config = Configuration(state, tape)
            verdicts[key] = gshift_step(shift, _embed(alphabet, config)) == _embed(alphabet, step(machine, config))
        if not verdicts[key]:
            failures += 1
            if first is None:
                first = Configuration(state, tape)
    return ConjugacyReport(samples, failures, seed, first)


# --- binary coding and Cantor coordinates ------------------------------------


def block_encode(seq: ASequence) -> dict[int, int]:
    """Fixed-width binary coding of a sequence; only 1-bits are stored.

    Each symbol takes w = ceil(log2 |alphabet|) bits; the symbol at cell i
    occupies bit cells [i*w, (i+1)*w), most significant bit first.  A token's
    code is its alphabet index, so the default, first, encodes to all zeroes
    and finite support is preserved.
    """
    index = {token: k for k, token in enumerate(seq.alphabet)}
    width = max(1, (len(seq.alphabet) - 1).bit_length())
    bits: dict[int, int] = {}
    for i, token in seq.cells.items():
        code = index[token]
        for j in range(width):
            bit = (code >> (width - 1 - j)) & 1
            if bit:
                bits[i * width + j] = 1
    return bits


@dataclass(frozen=True)
class CantorPoint:
    """A point of the square ternary Cantor set, held as exact rationals."""

    x: Fraction
    y: Fraction


def cantor_encode(bits: Mapping[int, int]) -> CantorPoint:
    """Map a finitely supported binary sequence onto the square Cantor set.

    The left half-sequence gives x = sum over k >= 1 of bit(-k) * 2 / 3**k
    and the right half gives y = sum over k >= 1 of bit(k-1) * 2 / 3**k, so
    both coordinates have ternary expansions using digits {0, 2} only, which
    makes the coding injective on finitely supported sequences.
    """
    x = Fraction(0)
    y = Fraction(0)
    for i, bit in bits.items():
        if bit not in (0, 1):
            raise ValueError(f"bit at {i} is {bit!r}, expected 0 or 1")
        if not bit:
            continue
        if i < 0:
            x += Fraction(2, 3 ** (-i))
        else:
            y += Fraction(2, 3 ** (i + 1))
    return CantorPoint(x, y)


def cantor_point_of_config(machine: TuringMachine, config: Configuration) -> CantorPoint:
    """Convenience composition: embed, block-encode, Cantor-encode."""
    return cantor_encode(block_encode(embed(machine, config)))


def _token_json(token: State | Symbol) -> dict:
    return {"state": token.name} if isinstance(token, State) else {"symbol": token.name}


def gshift_to_json_dict(shift: GeneralizedShift) -> dict:
    """JSON dump of a :func:`compile_gshift` table, whose windows hold only
    states and tape symbols; windows sort by kind (symbols first), then id."""
    def window_key(window: Window):
        return tuple((isinstance(t, State), t.id) for t in window)
    rules = []
    for window in sorted(shift.rules, key=window_key):
        replacement, amount = shift.rules[window]
        rules.append(
            {
                "window": [_token_json(t) for t in window],
                "replacement": [_token_json(t) for t in replacement],
                "shift": amount,
            }
        )
    return {
        "radius": shift.radius,
        "default_rule": {"replacement": "identity", "shift": 0},
        "rules": rules,
    }
