import copy
import dataclasses
import gc
import pickle
import random
import re
import sys
import threading
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdyn import (
    MachineError,
    MachineFormatError,
    MachineValidationError,
    RunResult,
    State,
    Symbol,
    Transition,
    builtin_machine,
    corpus_names,
    corpus_text,
    distance,
    make_config,
    parse_machine,
    random_machine,
    run,
    step,
)
from tmdyn.corpus import UTM_6_4_TEXT
from tmdyn.machine import HALTING_MODES, Configuration, iterate

from conftest import machine_configs, machines


# --- parsing ------------------------------------------------------------------


def test_parse_utm_shape(utm):
    assert len(utm.states) == 7  # 6 working states plus halt
    assert len(utm.alphabet) == 4
    assert len(utm.rules) == 24
    assert utm.blank.name == "g"
    assert utm.initial.name == "u1"
    assert utm.halting.name == "halt"


def test_parse_utm_rules(utm):
    u2, b, g = utm.state_named("u2"), utm.symbol_named("b"), utm.symbol_named("g")
    assert utm.rules[(u2, b)] == Transition(u2, g, 1)
    u6, c = utm.state_named("u6"), utm.symbol_named("c")
    assert utm.rules[(u6, c)] == Transition(utm.halting, c, 0)


def test_parse_wutm_rules(wutm):
    u4, u5, g, b = (
        wutm.state_named("u4"),
        wutm.state_named("u5"),
        wutm.symbol_named("g"),
        wutm.symbol_named("b"),
    )
    assert wutm.rules[(u4, g)] == Transition(u5, b, 1)


def test_missing_rule_reports_pair():
    text = "\n".join(
        line for line in UTM_6_4_TEXT.splitlines() if not line.startswith("u1 g")
    )
    with pytest.raises(MachineFormatError, match=r"missing rule for \(u1, g\)"):
        parse_machine(text)


# Each builds a machine, transition or lookup that validation must refuse;
# the base is right_runner (states q halt, alphabet 0 1).
_INVALID = {
    "one symbol": (
        lambda m: dataclasses.replace(m, alphabet=m.alphabet[:1]),
        "alphabet must have >= 2 symbols",
    ),
    "duplicate names": (
        lambda m: dataclasses.replace(m, states=(m.states[0], State(1, "q"))),
        "duplicate state names",
    ),
    "ids out of order": (
        lambda m: dataclasses.replace(m, alphabet=m.alphabet[::-1]),
        "symbol ids must be 0..1",
    ),
    "foreign blank": (
        lambda m: dataclasses.replace(m, blank=Symbol(2, "2")),
        "blank symbol is not in the alphabet",
    ),
    "foreign initial": (
        lambda m: dataclasses.replace(m, initial=State(0, "nope")),
        "state 'nope' is not in the state list",
    ),
    "foreign halting": (
        lambda m: dataclasses.replace(m, halting=State(2, "stop")),
        "state 'stop' is not in the state list",
    ),
    "unknown halting mode": (
        lambda m: dataclasses.replace(m, halting_mode="bounce"),
        "unknown halting mode 'bounce'",
    ),
    "unexpected rule": (
        lambda m: dataclasses.replace(
            m, rules={**m.rules, (m.halting, m.blank): Transition(m.initial, m.blank, 0)}
        ),
        "unexpected rule for (halt, 0)",
    ),
    "unexpected rules, first in table order": (
        lambda m: dataclasses.replace(
            m, rules={**m.rules, **{(m.halting, s): Transition(m.initial, s, 0) for s in reversed(m.alphabet)}}
        ),
        "unexpected rule for (halt, 1)",
    ),
    "foreign rule target": (
        lambda m: dataclasses.replace(
            m, rules={**m.rules, (m.initial, m.blank): Transition(State(2, "z"), m.blank, 1)}
        ),
        "rule for (q, 0) references an unknown state or symbol",
    ),
    "move 2": (lambda m: Transition(m.initial, m.blank, 2), "move must be -1, 0 or +1, got 2"),
    "unknown state name": (lambda m: m.state_named("nope"), "unknown state 'nope'"),
}


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_direct_construction_is_validated(right_runner, case):
    build, message = _INVALID[case]
    with pytest.raises(MachineError, match=f"^{re.escape(message)}$"):
        build(right_runner)


def test_validation_names_first_missing_pair_in_id_order(utm):
    u3, u5 = utm.state_named("u3"), utm.state_named("u5")
    rules = {(q, s): tr for (q, s), tr in utm.rules.items() if q not in (u3, u5)}
    with pytest.raises(MachineValidationError, match=r"missing rule for \(u3, g\)$"):
        dataclasses.replace(utm, rules=rules)


_HEADER_BLOCK = "states: q r halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
_TOKENS = ("q", "r", "halt", "0", "1", "2", "->", "L", "R", "N", "HALT", "#", "states:", "blank:", "x:")


@given(st.booleans(), st.lists(st.lists(st.sampled_from(_TOKENS), max_size=7), max_size=8))
@settings(max_examples=200, deadline=None)
def test_parse_token_soup_raises_only_format_errors(with_headers, lines):
    text = (_HEADER_BLOCK if with_headers else "") + "\n".join(" ".join(line) for line in lines)
    try:
        parse_machine(text)
    except MachineFormatError:
        pass


def test_one_symbol_alphabet_rejected():
    text = "states: q halt\nalphabet: 0\nblank: 0\ninitial: q\nhalting: halt\nq 0 -> q 0 N\n"
    with pytest.raises(MachineFormatError, match=">= 2 symbols"):
        parse_machine(text)


def test_duplicate_state_name():
    text = "states: q q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
    with pytest.raises(MachineFormatError, match="line 1.*duplicate state name 'q'"):
        parse_machine(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("states:\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n", "line 1: empty state list"),
        (_HEADER_BLOCK.replace("blank: 0", "blank: 0 1"), "line 3: header 'blank' needs exactly one name"),
        (_HEADER_BLOCK.replace("initial: q", "initial: nope"), "line 4: initial: unknown state 'nope'"),
        (_HEADER_BLOCK + "p 0 -> q 0 N\n", "line 6: unknown state 'p'"),
        (_HEADER_BLOCK + "q 2 -> q 0 N\n", "line 6: unknown symbol '2'"),
        (_HEADER_BLOCK + "q 0 -> p 0 N\n", "line 6: unknown state 'p'"),
    ],
)
def test_unknown_names_carry_line_numbers(text, message):
    with pytest.raises(MachineFormatError, match=f"^{re.escape(message)}$"):
        parse_machine(text)


def test_unknown_token_in_rule_carries_line_number():
    text = (
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
        "q 0 -> q 0 N\nq 1 -> q 2 N\n"
    )
    with pytest.raises(MachineFormatError, match="line 7.*unknown symbol '2'"):
        parse_machine(text)


def test_bad_move_letter():
    text = (
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
        "q 0 -> q 0 X\nq 1 -> q 1 N\n"
    )
    with pytest.raises(MachineFormatError, match="unknown move 'X'"):
        parse_machine(text)


def test_missing_header():
    text = "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nq 0 -> q 0 N\nq 1 -> q 1 N\n"
    with pytest.raises(MachineFormatError, match="missing header.*halting"):
        parse_machine(text)


def test_duplicate_rule():
    text = (
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
        "q 0 -> q 0 N\nq 0 -> q 1 N\nq 1 -> q 1 N\n"
    )
    with pytest.raises(MachineFormatError, match=r"line 7.*duplicate rule for \(q, 0\)"):
        parse_machine(text)


def test_rule_for_halting_state_rejected():
    text = (
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
        "q 0 -> q 0 N\nq 1 -> q 1 N\nhalt 0 -> q 0 N\n"
    )
    with pytest.raises(MachineFormatError, match="halting state"):
        parse_machine(text)


def test_headers_in_any_order():
    text = (
        "halting: halt\ninitial: q\nblank: 0\nalphabet: 0 1\nstates: q halt\n"
        "q 0 -> q 1 R\nq 1 -> HALT\n"
    )
    m = parse_machine(text)
    assert m.initial.name == "q" and m.blank.name == "0"


def test_header_after_rules_rejected():
    text = (
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\n"
        "q 0 -> q 0 N\nhalting: halt\nq 1 -> q 1 N\n"
    )
    with pytest.raises(MachineFormatError, match="line 6.*after the first rule"):
        parse_machine(text)


def test_comments_and_halt_shorthand(single_halt):
    q0 = single_halt.state_named("q0")
    one = single_halt.symbol_named("1")
    # HALT shorthand keeps the symbol and does not move
    text = (
        "# a comment\nstates: q0 halt\nalphabet: 0 1  # trailing comment\n"
        "blank: 0\ninitial: q0\nhalting: halt\nq0 0 -> HALT\nq0 1 -> HALT\n"
    )
    m = parse_machine(text)
    assert m.rules[(m.state_named("q0"), m.symbol_named("1"))] == Transition(
        m.halting, m.symbol_named("1"), 0
    )
    assert single_halt.rules[(q0, one)].next_state == single_halt.halting


_HALT_NAMED_STATE = "states: q HALT stop\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: stop\n"


def test_state_named_halt_is_a_six_token_rule_target():
    rules = "q 0 -> HALT 1 R\nq 1 -> q 1 N\nHALT 0 -> stop 0 N\nHALT 1 -> HALT 1 N\n"
    m = parse_machine(_HALT_NAMED_STATE + rules)
    target = m.state_named("HALT")
    assert target != m.halting
    assert m.rules[(m.initial, m.symbol_named("0"))] == Transition(target, m.symbol_named("1"), 1)
    y = step(m, make_config(m, m.initial))
    assert y == Configuration(target, {-1: m.symbol_named("1")})
    assert step(m, y).state == m.halting  # HALT reads the blank at cell 0 and enters stop


def test_four_token_halt_is_still_the_shorthand():
    rules = "q 0 -> HALT\nq 1 -> q 1 N\nHALT 0 -> HALT 0 N\nHALT 1 -> HALT 1 N\n"
    m = parse_machine(_HALT_NAMED_STATE + rules)
    assert m.rules[(m.initial, m.symbol_named("0"))] == Transition(m.halting, m.symbol_named("0"), 0)


@pytest.mark.parametrize("rule", ["q 0 -> HALT 1", "q 0 -> q", "q 0 -> HALT 1 R N", "q 0 ->", "q -> 0 HALT"])
def test_rule_of_neither_shape_is_a_line_numbered_error(rule):
    with pytest.raises(MachineFormatError, match="^line 6: rule must look like"):
        parse_machine(_HALT_NAMED_STATE + rule + "\nq 1 -> q 1 N\n")


# --- step semantics -----------------------------------------------------------


def test_step_right_move_reindexes(utm):
    u2, b = utm.state_named("u2"), utm.symbol_named("b")
    # reading b in u2 writes the blank and shifts the tape left
    x = make_config(utm, u2, "b b", 0)
    y = step(utm, x)
    assert y.state == u2
    assert y.tape == {0: b}  # old cell 1 is now under the head


def test_step_matches_written_example(utm):
    # tape b at 0, blank (g) at 1: after the step every cell holds g
    u2 = utm.state_named("u2")
    y = step(utm, make_config(utm, u2, "b", 0))
    assert y.state == u2
    assert y.tape == {}


def test_step_left_move(utm):
    u1, b = utm.state_named("u1"), utm.symbol_named("b")
    # (u1, g) writes b and moves left: indices increase by one
    y = step(utm, make_config(utm, u1, "", 0))
    assert y.state == u1
    assert y.tape == {1: b}


def test_halting_fixpoint_is_identity(utm):
    x = make_config(utm, utm.halting, "b c d", -1)
    assert step(utm, x) == x


def test_halting_restart_changes_only_state(utm):
    m = utm.with_halting_mode("restart")
    x = make_config(m, m.halting, "b c d", -1)
    y = step(m, x)
    assert y.state == m.initial
    assert y.tape == x.tape


def test_halting_transitions_follow_mode_and_replace(utm):
    # The halting row is built once per machine; every way to a new machine rebuilds it.
    u3 = utm.state_named("u3")
    restart = utm.with_halting_mode("restart")
    for m, target in (
        (utm, utm.halting),
        (restart, utm.initial),
        (restart.with_halting_mode("fixpoint"), utm.halting),
        (dataclasses.replace(restart, initial=u3), u3),
    ):
        assert [m.transition(m.halting, s) for s in m.alphabet] == [Transition(target, s, 0) for s in m.alphabet]
    assert restart.with_halting_mode("fixpoint") == utm
    assert [f.name for f in dataclasses.fields(utm)] == [
        "states", "alphabet", "blank", "initial", "halting", "rules", "halting_mode",
    ]
    assert repr(utm) == repr(parse_machine(UTM_6_4_TEXT))
    assert "_table" not in repr(utm)


# --- runs ---------------------------------------------------------------------


def test_run_single_step_halt(single_halt):
    x = make_config(single_halt, single_halt.initial)
    result = run(single_halt, x, 100)
    assert result.halted
    assert result.halting_time == 1
    assert result.steps_taken == 1
    assert result.final.tape == x.tape


def test_run_right_runner_never_halts(right_runner):
    result = run(right_runner, make_config(right_runner, right_runner.initial), 100)
    assert not result.halted
    assert result.steps_taken == 100
    assert result.halting_time is None


def test_run_from_halting_state(utm):
    result = run(utm, make_config(utm, utm.halting, "b", 0), 10)
    assert result.halted
    assert result.halting_time == 0


def test_run_utm_blank_tape_regression(utm):
    # On the all-blank tape the machine fills cells with b moving left forever.
    result = run(utm, make_config(utm, utm.initial), 500)
    assert not result.halted
    assert result.steps_taken == 500
    assert result.final.state == utm.initial


def test_run_negative_budget_rejected(utm):
    with pytest.raises(ValueError):
        run(utm, make_config(utm, utm.initial), -1)


@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(HALTING_MODES),
    offset=st.integers(-40, 40),
    k=st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_run_equals_iterated_step(seed, mode, offset, k, data):
    # run moves a head index over its own tape; the reference is k-fold step,
    # stopped at the halting state or at k, from any state (halting included).
    machine = random_machine(random.Random(seed), halting_mode=mode)
    state = data.draw(st.sampled_from(machine.states))
    window = data.draw(st.lists(st.sampled_from(machine.alphabet), max_size=10))
    x = make_config(machine, state, window, offset)
    current, taken = x, 0
    while current.state != machine.halting and taken < k:
        current = step(machine, current)
        taken += 1
    assert run(machine, x, k) == RunResult(current.state == machine.halting, taken, current)


# --- metric -------------------------------------------------------------------


def test_distance_examples(utm):
    u1, u2 = utm.state_named("u1"), utm.state_named("u2")
    x = make_config(utm, u1, "b c", 0)
    assert distance(x, x) == 0
    assert distance(x, make_config(utm, u2, "b c", 0)) == 1
    # same state, first difference at cell -2, agreement on |i| < 2
    a = make_config(utm, u1, "b b b b b", -2)
    b = make_config(utm, u1, "c b b b b", -2)
    assert distance(a, b) == Fraction(1, 4)


def test_distance_difference_at_head():
    m = parse_machine(
        "states: q halt\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: halt\n"
        "q 0 -> q 0 N\nq 1 -> q 1 N\n"
    )
    x = make_config(m, m.initial, "1", 0)
    y = make_config(m, m.initial, "", 0)
    assert distance(x, y) == 1


@given(machine_configs())
def test_distance_zero_iff_equal(mc):
    machine, config = mc
    other = Configuration(config.state, dict(config.tape))
    assert distance(config, other) == 0
    stepped = step(machine, config)
    if stepped != config:
        assert distance(config, stepped) > 0


@st.composite
def _lipschitz_pairs(draw):
    machine = draw(machines())
    state = draw(st.sampled_from(machine.states))
    k = draw(st.integers(1, 5))
    shared = draw(
        st.dictionaries(st.integers(-8, 8), st.sampled_from(machine.alphabet), max_size=8)
    )
    far = draw(
        st.dictionaries(
            st.integers(-8, 8).filter(lambda i: abs(i) >= k),
            st.sampled_from(machine.alphabet),
            max_size=6,
        )
    )
    x_tape = {i: s for i, s in shared.items() if s != machine.blank}
    y_tape = {i: s for i, s in shared.items() if abs(i) < k and s != machine.blank}
    y_tape.update({i: s for i, s in far.items() if s != machine.blank})
    return machine, Configuration(state, x_tape), Configuration(state, y_tape), k


@given(_lipschitz_pairs())
def test_one_step_lipschitz(quad):
    machine, x, y, k = quad
    assert distance(x, y) <= Fraction(1, 2**k)
    assert distance(step(machine, x), step(machine, y)) <= Fraction(1, 2 ** (k - 1))


# --- make_config and canonical form -------------------------------------------


def test_make_config_examples(utm):
    q0 = utm.initial
    assert make_config(utm, q0, "", 0).tape == {}
    b = utm.symbol_named("b")
    assert make_config(utm, q0, "b", 0).tape == {0: b}
    # blanks are never stored
    assert make_config(utm, q0, "gg", -3).tape == {}
    # whitespace-separated names work for multi-character symbols
    assert make_config(utm, q0, "b g b", -1).tape == {-1: b, 1: b}


def test_make_config_rejects_foreign_symbol(utm):
    with pytest.raises(Exception, match="unknown symbol"):
        make_config(utm, utm.initial, "z", 0)


@pytest.mark.parametrize("bad_id", [-1, 7, 99, 1.5, None])
def test_make_config_rejects_foreign_ids(utm, bad_id):
    # Membership is checked through the id index; an id off that index is a
    # foreign item, never an IndexError.  Id 0 with a foreign name is too.
    assert len(utm.states) == 7 and len(utm.alphabet) == 4
    for state in (State(bad_id, "u1"), State(0, "zz")):
        with pytest.raises(MachineError, match="is not a state of this machine"):
            make_config(utm, state)
    for symbol in (Symbol(bad_id, "b"), Symbol(0, "zz")):
        with pytest.raises(MachineError, match="is not in the alphabet"):
            make_config(utm, utm.initial, [symbol])


@pytest.mark.parametrize("bad_id", [-1, 7, 99, 1.5, None])
def test_run_rejects_foreign_ids(utm, bad_id):
    # run works on ids, so a foreign state or symbol must raise, not alias
    # into the id table; a symbol on a cell the run never reads too.
    for state in (State(bad_id, "u1"), State(0, "zz")):
        with pytest.raises(MachineError, match="is not a state of this machine"):
            run(utm, Configuration(state, {}), 5)
    for symbol in (Symbol(bad_id, "b"), Symbol(0, "zz")):
        for start in (utm.initial, utm.halting):
            with pytest.raises(MachineError, match="is not in the alphabet"):
                run(utm, Configuration(start, {40: symbol}), 5)


@given(machine_configs())
@settings(max_examples=60)
def test_step_preserves_canonical_form(mc):
    machine, config = mc
    current = config
    for _ in range(4):
        current = step(machine, current)
        assert machine.blank not in current.tape.values()


# --- halting locality ----------------------------------------------------------


def test_halting_locality_sample():
    rng = random.Random(11)
    checked = 0
    while checked < 20:
        machine = random_machine(rng, halt_prob=0.3)
        state = machine.states[rng.randrange(len(machine.states) - 1)]
        tape = {}
        for i in range(-3, 4):
            s = machine.alphabet[rng.randrange(len(machine.alphabet))]
            if s != machine.blank:
                tape[i] = s
        x = Configuration(state, tape)
        result = run(machine, x, 60)
        if not result.halted or result.halting_time == 0:
            continue
        n = result.halting_time
        trace = [(c.state, c.tape.get(0, machine.blank)) for c in iterate(machine, x, n)]
        junk = dict(tape)
        for i in (n + 1, n + 3, -(n + 1), -(n + 2)):
            s = machine.alphabet[rng.randrange(len(machine.alphabet))]
            if s != machine.blank:
                junk[i] = s
            else:
                junk.pop(i, None)
        y = Configuration(state, junk)
        other = run(machine, y, 60)
        assert other.halted and other.halting_time == n
        other_trace = [(c.state, c.tape.get(0, machine.blank)) for c in iterate(machine, y, n)]
        assert other_trace == trace
        checked += 1


# --- interned states and symbols -----------------------------------------------


def _tokens_of(m):
    rule_tokens = [t for (q, s), tr in m.rules.items() for t in (q, s, tr.next_state, tr.write)]
    return [*m.states, *m.alphabet, m.blank, m.initial, m.halting, *rule_tokens]


def _assert_same_tokens(a, b):
    assert all(x is y for x, y in zip(_tokens_of(a), _tokens_of(b), strict=True))


@pytest.mark.parametrize("name", corpus_names())
def test_parses_of_one_text_share_their_tokens(name):
    _assert_same_tokens(parse_machine(corpus_text(name)), parse_machine(corpus_text(name)))
    _assert_same_tokens(builtin_machine(name), parse_machine(corpus_text(name)))


def test_a_state_never_equals_a_symbol():
    assert State(0, "a") != Symbol(0, "a")
    assert State(0, "a") is not Symbol(0, "a")
    assert State(0, "a") is State(0, "a") and Symbol(0, "a") is Symbol(id=0, name="a")
    assert State(0, "a") != State(0, "b") and State(0, "a") != State(1, "a")


def test_tokens_hash_and_compare_in_c():
    for cls in (State, Symbol):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__


_COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "replace": dataclasses.replace,
}


@pytest.mark.parametrize("how", sorted(_COPIES))
def test_copies_keep_identity(utm, how):
    copied = _COPIES[how]
    for token in (State(3, "q"), Symbol(3, "q"), utm.initial, utm.blank):
        assert copied(token) is token
    _assert_same_tokens(copied(utm), utm)


def test_with_halting_mode_and_replace_keep_identity(utm):
    _assert_same_tokens(utm.with_halting_mode("restart"), utm)
    assert dataclasses.replace(utm.blank, name="zz") is Symbol(utm.blank.id, "zz")


def test_tokens_nothing_references_are_not_kept():
    ref = weakref.ref(State(10**6, "zz"))
    gc.collect()
    assert ref() is None
    assert State(10**6, "zz").name == "zz"


def test_threads_building_one_value_get_one_object():
    barrier, results = threading.Barrier(8, timeout=30), [[] for _ in range(8)]

    def build(out):
        barrier.wait()
        out.extend(State(2 * 10**6 + k, "race") for k in range(300))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so that misses overlap
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [len(out) for out in results] == [300] * 8
    for built in zip(*results):
        assert all(x is built[0] for x in built)
