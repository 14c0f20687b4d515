"""Built-in machines.

The two corpus machines are small universal machines transcribed from their
published transition tables.  Both use ``g`` as the blank symbol and ``u1``
as the initial state; in ``utm_6_4`` the symbol ``d`` stands in for the
table's delta-like third symbol, and in ``wutm_6_2`` the written symbols
0 and 1 are identified with ``g`` and ``b``.  The single "halt" entry of
``utm_6_4`` is realized as "enter the halting state, keep the symbol, do
not move".
"""

from .machine import MachineError, TuringMachine, parse_machine

UTM_6_4_TEXT = """\
# 6-state, 4-symbol universal machine
states: u1 u2 u3 u4 u5 u6 halt
alphabet: g b d c
blank: g
initial: u1
halting: halt

u1 g -> u1 b L
u1 b -> u1 g L
u1 d -> u2 c R
u1 c -> u1 d L

u2 g -> u1 g R
u2 b -> u2 g R
u2 d -> u2 c R
u2 c -> u5 g R

u3 g -> u3 b L
u3 b -> u5 b L
u3 d -> u5 d L
u3 c -> u3 d L

u4 g -> u2 b R
u4 b -> u4 g R
u4 d -> u4 c R
u4 c -> u5 c R

u5 g -> u6 b L
u5 b -> u6 g R
u5 d -> u5 d R
u5 c -> u3 b L

u6 g -> u4 b L
u6 b -> u5 g R
u6 d -> u1 g R
u6 c -> HALT
"""

WUTM_6_2_TEXT = """\
# 6-state, 2-symbol weakly universal machine (never halts)
states: u1 u2 u3 u4 u5 u6 halt
alphabet: g b
blank: g
initial: u1
halting: halt

u1 g -> u1 g L
u1 b -> u2 b L

u2 g -> u6 g L
u2 b -> u3 g L

u3 g -> u2 g R
u3 b -> u3 b L

u4 g -> u5 b R
u4 b -> u6 g R

u5 g -> u4 b L
u5 b -> u4 b R

u6 g -> u1 b L
u6 b -> u4 g R
"""

_CORPUS = {
    "utm_6_4": UTM_6_4_TEXT,
    "wutm_6_2": WUTM_6_2_TEXT,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_CORPUS))


def corpus_text(name: str) -> str:
    """The description text of a built-in machine; :class:`MachineError` for an unknown name."""
    try:
        return _CORPUS[name]
    except KeyError:
        raise MachineError(f"unknown corpus machine {name!r}; known: {', '.join(corpus_names())}") from None


def builtin_machine(name: str, halting_mode: str = "fixpoint") -> TuringMachine:
    """Return a built-in machine by corpus name (see :func:`corpus_names`)."""
    return parse_machine(corpus_text(name), halting_mode=halting_mode)
