import dataclasses
import itertools
import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmdyn import (
    BudgetExceededError,
    EntropyCertificate,
    RegularWitness,
    State,
    StrongWitness,
    Symbol,
    Transition,
    builtin_machine,
    certificate_to_json_dict,
    check_regularity,
    check_strong_regularity,
    corpus_names,
    count_words,
    entropy_lower_bound,
    parse_machine,
    shift_graph,
    shift_table,
    verify_witness,
)
from tmdyn.regularity import MAX_ALPHABET, NO_WITNESS, REGULAR, STRONGLY_REGULAR, _component_labels

from conftest import chain_machine_text, machines, random_machine, wide_machine_text


def brute_force_regular(machine):
    """Ground truth: two closed walks from a common vertex with different first edges.

    A closed walk from v exists through an out-edge e exactly when v is
    reachable from e's endpoint within 2 * |edges| further steps, so the pair
    search reduces to bounded reachability per out-edge.
    """
    for direction in (1, -1):
        graph = shift_graph(shift_table(machine), direction)
        bound = 2 * len(graph.edges)
        for v in graph.vertices:
            closing = [
                e for e in _out_edges(graph, v) if _reachable(graph, e.dst, v, bound - 1)
            ]
            if len(closing) >= 2:
                return True
    return False


def _out_edges(graph, v):
    return [e for e in graph.edges if e.src == v]


def _reachable(graph, src, dst, bound):
    if bound < 0:
        return False
    if src == dst:
        return True
    seen = {src}
    frontier = deque([(src, 0)])
    while frontier:
        v, depth = frontier.popleft()
        if depth == bound:
            continue
        for e in _out_edges(graph, v):
            if e.dst == dst:
                return True
            if e.dst not in seen:
                seen.add(e.dst)
                frontier.append((e.dst, depth + 1))
    return False


# --- strong regularity ----------------------------------------------------------


def test_utm_strong_witness(utm):
    w = check_strong_regularity(utm)
    assert w is not None
    assert w.direction == 1
    assert {s.name for s in w.symbols} == {"b", "d"}
    assert utm.state_named("u2") in w.states
    assert {q.name for q in w.states} == {"u2", "u4"}  # the greatest block
    assert verify_witness(utm, w)


def test_wutm_not_strongly_regular(wutm):
    assert check_strong_regularity(wutm) is None


def test_full_table_block(right_runner):
    w = check_strong_regularity(right_runner)
    assert w is not None
    assert w.states == frozenset({right_runner.state_named("q")})
    assert w.symbols == frozenset(right_runner.alphabet)


def test_verify_rejects_broken_block(utm):
    w = check_strong_regularity(utm)
    bad = StrongWitness(
        w.direction, w.states, frozenset({utm.symbol_named("b"), utm.symbol_named("g")})
    )
    assert not verify_witness(utm, bad)  # (u2, g) exits the block
    assert not verify_witness(utm, StrongWitness(w.direction, frozenset(), w.symbols))
    assert not verify_witness(utm, StrongWitness(0, w.states, w.symbols))


def test_alphabet_cap():
    assert check_strong_regularity(parse_machine(wide_machine_text(MAX_ALPHABET))) is not None
    with pytest.raises(BudgetExceededError, match="cap 16"):
        check_strong_regularity(parse_machine(wide_machine_text(MAX_ALPHABET + 1)))


# --- regularity -----------------------------------------------------------------


def test_wutm_regular_witness(wutm):
    w = check_regularity(wutm)
    assert w is not None
    assert w.direction == 1
    assert w.base.name == "u4"
    names = lambda walk: [(q.name, s.name) for q, s in walk]
    assert {tuple(names(w.walk_a)), tuple(names(w.walk_b))} == {
        (("u4", "g"), ("u5", "b")),
        (("u4", "b"), ("u6", "b")),
    }
    assert (w.cost_a, w.cost_b) == (3, 3)
    assert verify_witness(wutm, w)


def test_utm_regular_too(utm):
    w = check_regularity(utm)
    assert w is not None
    assert verify_witness(utm, w)


def test_alternator_not_regular(alternator):
    assert check_regularity(alternator) is None
    assert not brute_force_regular(alternator)


def test_verify_rejects_identical_walks(wutm):
    w = check_regularity(wutm)
    assert not verify_witness(
        wutm, RegularWitness(w.direction, w.base, w.walk_a, w.walk_a, w.cost_a, w.cost_a)
    )


def test_verify_rejects_wrong_cost(wutm):
    w = check_regularity(wutm)
    assert not verify_witness(
        wutm, RegularWitness(w.direction, w.base, w.walk_a, w.walk_b, w.cost_a + 1, w.cost_b)
    )


def test_verify_rejects_two_powers_of_one_loop():
    # c(n) = n + 3 grows linearly, so the claimed h >= log 2 / 4 is false:
    # two walks that repeat one loop spell one word per length, not 2^(n/4).
    m = parse_machine(
        "states: q h\nalphabet: 0 1\nblank: 0\ninitial: q\nhalting: h\n"
        "q 0 -> q 0 R\nq 1 -> HALT\n"
    )
    assert check_regularity(m) is None
    loop = (m.initial, m.blank)
    assert not verify_witness(m, RegularWitness(1, m.initial, (loop,) * 2, (loop,) * 3, 3, 4))
    assert [count_words(m, n) for n in (1, 2, 80)] == [4, 5, 83]
    assert count_words(m, 80) ** 4 < 2**80


_FOREIGN_STATE, _FOREIGN_SYMBOL = State(9, "z"), Symbol(9, "z")


def _with_rule(m, state, symbol, next_state, move):
    """``m`` with the rule for (state, symbol) replaced; the written symbol is kept."""
    pair = (m.state_named(state), m.symbol_named(symbol))
    tr = Transition(m.state_named(next_state), m.rules[pair].write, move)
    return dataclasses.replace(m, rules={**m.rules, pair: tr})


# Each case breaks one clause of utm_6_4's strong witness (direction +1,
# states u2 u4, symbols b d) or regular witness (base u2, walks
# (u2 g)(u1 d) and (u2 b)(u2 b), direction +1, costs 3 and 3).
_BROKEN_CLAUSES = {
    "strong block with the halting state": lambda m, s, r: (
        m, dataclasses.replace(s, states=s.states | {m.halting})
    ),
    "strong block with a foreign state": lambda m, s, r: (
        m, dataclasses.replace(s, states=s.states | {_FOREIGN_STATE})
    ),
    "strong block with a foreign symbol": lambda m, s, r: (
        m, dataclasses.replace(s, symbols=s.symbols | {_FOREIGN_SYMBOL})
    ),
    "regular witness with direction 0": lambda m, s, r: (m, dataclasses.replace(r, direction=0)),
    "one-pair walk": lambda m, s, r: (m, dataclasses.replace(r, walk_b=r.walk_b[:1], cost_b=2)),
    "walk that does not start at base": lambda m, s, r: (
        m, dataclasses.replace(r, walk_a=r.walk_a[1:] + r.walk_a[:1])
    ),
    # Every link holds and the walk ends at base u2; only its start is wrong.
    "walk that ends at base but starts elsewhere": lambda m, s, r: (
        m,
        dataclasses.replace(
            r, walk_a=((m.state_named("u1"), m.symbol_named("d")), (r.base, m.symbol_named("b"))), cost_a=3
        ),
    ),
    "walk through the halting state": lambda m, s, r: (
        m,
        dataclasses.replace(
            r, base=m.halting, walk_a=((m.halting, m.blank),) * 2, walk_b=((m.halting, r.walk_b[0][1]),) * 2
        ),
    ),
    "link that halts": lambda m, s, r: (_with_rule(m, "u1", "d", "halt", 0), r),
    "link that loops": lambda m, s, r: (_with_rule(m, "u1", "d", "u1", 0), r),
    "link that shifts the wrong way": lambda m, s, r: (_with_rule(m, "u1", "d", "u2", -1), r),
    "link with the wrong exit state": lambda m, s, r: (_with_rule(m, "u1", "d", "u3", 1), r),
    "walk with a foreign pair": lambda m, s, r: (
        m, dataclasses.replace(r, walk_a=((r.base, _FOREIGN_SYMBOL),) + r.walk_a[1:])
    ),
    "not a witness": lambda m, s, r: (m, (s, r)),
    "strong block without a symbol set": lambda m, s, r: (m, dataclasses.replace(s, symbols=None)),
    "regular witness without walk b": lambda m, s, r: (m, dataclasses.replace(r, walk_b=None)),
    "walk of bare states": lambda m, s, r: (
        m, dataclasses.replace(r, walk_a=tuple(q for q, _ in r.walk_a))
    ),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_CLAUSES))
def test_verify_rejects_each_broken_clause(utm, case):
    strong, regular = check_strong_regularity(utm), check_regularity(utm)
    assert verify_witness(utm, strong) and verify_witness(utm, regular)
    machine, witness = _BROKEN_CLAUSES[case](utm, strong, regular)
    assert not verify_witness(machine, witness)


def test_self_loop_doubling():
    # one state whose two symbols both loop right: two doubled self-loop walks
    from tmdyn import parse_machine

    m = parse_machine(
        "states: q halt\nalphabet: a b\nblank: a\ninitial: q\nhalting: halt\n"
        "q a -> q b R\nq b -> q a R\n"
    )
    w = check_regularity(m)
    assert w is not None
    assert len(w.walk_a) == 2 and len(w.walk_b) == 2
    assert w.walk_a[0] == w.walk_a[1]
    assert verify_witness(m, w)
    assert (w.cost_a, w.cost_b) == (3, 3)


def test_long_chain_finds_the_self_loops_at_its_end():
    # the chain is deeper than Python's recursion limit
    m = parse_machine(chain_machine_text(1500))
    w = check_regularity(m)
    assert w.base == m.state_named("q1499")
    assert (w.cost_a, w.cost_b) == (3, 3)
    assert verify_witness(m, w)


@given(st.one_of(machines(), machines(max_states=8)))
@settings(max_examples=150, deadline=None)
def test_scc_criterion_matches_brute_force(machine):
    # up to 8 states, so that components of several vertices and several
    # components per graph occur
    assert (check_regularity(machine) is not None) == brute_force_regular(machine)


@given(machines(max_states=8))
@settings(max_examples=100, deadline=None)
def test_component_labels_are_mutual_reachability(machine):
    for direction in (1, -1):
        graph = shift_graph(shift_table(machine), direction)
        label = _component_labels(graph)
        bound = len(graph.vertices)
        for v, w in itertools.product(graph.vertices, repeat=2):
            mutual = _reachable(graph, v, w, bound) and _reachable(graph, w, v, bound)
            assert (label[v] == label[w]) == mutual


@given(machines())
@settings(max_examples=100, deadline=None)
def test_search_results_verify(machine):
    strong = check_strong_regularity(machine)
    if strong is not None:
        assert verify_witness(machine, strong)
    regular = check_regularity(machine)
    if regular is not None:
        assert verify_witness(machine, regular)


@given(machines())
@settings(max_examples=100, deadline=None)
def test_strongly_regular_implies_regular(machine):
    if check_strong_regularity(machine) is not None:
        assert check_regularity(machine) is not None


# --- certificates ----------------------------------------------------------------


def test_utm_certificate_is_log2(utm):
    cert = entropy_lower_bound(utm)
    assert cert.verdict == STRONGLY_REGULAR
    assert (cert.log_of, cert.over) == (2, 1)
    assert cert.bound_float() == pytest.approx(math.log(2))
    assert cert.bound_text() == "log 2"


def test_wutm_certificate_is_log2_over_3(wutm):
    cert = entropy_lower_bound(wutm)
    assert cert.verdict == REGULAR
    assert (cert.log_of, cert.over) == (2, 3)
    assert cert.bound_text() == "log 2 / 3"


def test_no_witness_certificate(alternator):
    cert = entropy_lower_bound(alternator)
    assert cert.verdict == NO_WITNESS
    assert cert.log_of is None and cert.over is None and cert.witness is None
    assert [f.name for f in dataclasses.fields(EntropyCertificate)] == ["witness"]
    assert cert.bound_float() is None and cert.bound_text() is None
    doc = certificate_to_json_dict(cert)
    assert doc["bound"] is None and doc["witness"] is None


def test_certificate_json_round(wutm):
    doc = certificate_to_json_dict(entropy_lower_bound(wutm))
    assert doc["verdict"] == "regular"
    assert doc["bound"] == {"log_of": 2, "over": 3, "decimal": pytest.approx(math.log(2) / 3)}
    assert doc["witness"]["base"] == "u4"


@given(machines(max_states=3, max_symbols=2))
@settings(max_examples=120, deadline=None)
def test_bound_is_consistent_with_word_counts(machine):
    # log c(n) is subadditive, so log(c(n))/n >= h >= log(log_of)/over for
    # every n; checked in exact integers as c(n)**over >= log_of**n
    cert = entropy_lower_bound(machine)
    if cert.log_of is None:
        return
    for n in range(1, 15):
        assert count_words(machine, n) ** cert.over >= cert.log_of**n, n


def test_certificate_side_does_not_depend_on_halting_mode():
    # The halting mode only extends the dynamics at the halting state, which the
    # shift table never steps from; word counts start orbits there and see it.
    pool = [builtin_machine(name) for name in corpus_names()]
    pool += [random_machine(random.Random(seed), 4, 3, 0.3) for seed in range(300)]
    counts_differ = 0
    for fixpoint in pool:
        restart = fixpoint.with_halting_mode("restart")
        for fn in (shift_table, check_strong_regularity, check_regularity, entropy_lower_bound):
            assert fn(fixpoint) == fn(restart)
        for direction in (1, -1):
            assert shift_graph(shift_table(fixpoint), direction) == shift_graph(shift_table(restart), direction)
        counts_differ += count_words(fixpoint, 4) != count_words(restart, 4)
    assert counts_differ > 0
