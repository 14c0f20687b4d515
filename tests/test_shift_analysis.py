import random
import re

import pytest
from hypothesis import given, settings

from tmdyn import (
    HALT,
    PERIODIC,
    MachineError,
    SHIFT,
    ShiftGraph,
    ShiftOutcome,
    State,
    classify_shift,
    graph_to_dot,
    make_config,
    parse_machine,
    shift_graph,
    shift_table,
)
from tmdyn.machine import iterate

from conftest import machines, random_machine

WUTM_PLUS_EDGES = {("u3", "u2"), ("u4", "u5"), ("u4", "u6"), ("u5", "u4"), ("u6", "u4")}


def test_wutm_immediate_shift(wutm):
    out = classify_shift(wutm, wutm.state_named("u4"), wutm.symbol_named("g"))
    assert out == ShiftOutcome(SHIFT, 1, wutm.state_named("u5"), 1)


def test_utm_halt_entry(utm):
    out = classify_shift(utm, utm.state_named("u6"), utm.symbol_named("c"))
    assert out.kind == HALT


def test_no_shift_fixed_point_is_periodic(no_shift_loop):
    q = no_shift_loop.state_named("q")
    for s in no_shift_loop.alphabet:
        assert classify_shift(no_shift_loop, q, s).kind == PERIODIC


@pytest.mark.parametrize(
    "args", [("bogus",), (SHIFT, 1, None, 1), (SHIFT, 1, State(0, "q0"), 0)], ids=repr
)
def test_malformed_outcome_rejected(args):
    # A caller's table reaches shift_graph as is, so its outcomes guard themselves.
    with pytest.raises(ValueError):
        ShiftOutcome(*args)


def test_halting_state_rejected(utm):
    with pytest.raises(ValueError):
        classify_shift(utm, utm.halting, utm.blank)


def test_wutm_table(wutm):
    table = shift_table(wutm)
    assert len(table) == 12
    plus = {
        (q.name, out.exit_state.name)
        for (q, _), out in table.items()
        if out.kind == SHIFT and out.direction == 1
    }
    assert plus == WUTM_PLUS_EDGES
    assert all(out.steps == 1 for out in table.values() if out.kind == SHIFT)


def test_utm_table(utm):
    table = shift_table(utm)
    assert len(table) == 24
    halts = [(q.name, s.name) for (q, s), out in table.items() if out.kind == HALT]
    assert halts == [("u6", "c")]


def test_all_periodic_machine_has_empty_graphs(no_shift_loop):
    for direction in (1, -1):
        assert shift_graph(shift_table(no_shift_loop), direction).edges == ()


def test_wutm_plus_graph(wutm):
    graph = shift_graph(shift_table(wutm), 1)
    assert {v.name for v in graph.vertices} == {"u1", "u2", "u3", "u4", "u5", "u6"}
    assert {(e.src.name, e.dst.name) for e in graph.edges} == WUTM_PLUS_EDGES
    assert len(graph.edges) == 5


def test_utm_plus_graph_has_u2_self_loops(utm):
    graph = shift_graph(shift_table(utm), 1)
    loops = sorted(
        e.label.name for e in graph.edges if e.src.name == "u2" and e.dst.name == "u2"
    )
    assert loops == ["b", "d"]


def test_graph_vertices_are_the_non_halting_states(utm, wutm):
    halt_only = parse_machine("states: halt\nalphabet: 0 1\nblank: 0\ninitial: halt\nhalting: halt\n")
    pool = [utm, wutm, halt_only] + [random_machine(random.Random(seed), 5, 3) for seed in range(40)]
    for machine in pool:
        for direction in (1, -1):
            assert shift_graph(shift_table(machine), direction).vertices == machine.non_halting_states()
    assert shift_table(halt_only) == {}
    for direction in (1, -1):
        assert shift_graph(shift_table(halt_only), direction) == ShiftGraph(direction, (), ())


def test_bad_direction_rejected(utm):
    with pytest.raises(ValueError):
        shift_graph(shift_table(utm), 2)


# --- dot export -----------------------------------------------------------------


def test_dot_wutm_plus(wutm):
    dot = graph_to_dot(shift_graph(shift_table(wutm), 1))
    lines = dot.strip().splitlines()
    vertex_lines = [l for l in lines if l.endswith('";')]
    edge_lines = [l for l in lines if "->" in l]
    assert len(vertex_lines) == 6
    assert len(edge_lines) == 5
    assert '  "u4" -> "u5" [label="g"];' in lines
    assert dot == graph_to_dot(shift_graph(shift_table(wutm), 1))  # deterministic


def test_dot_empty_graph(no_shift_loop):
    dot = graph_to_dot(shift_graph(shift_table(no_shift_loop), 1))
    assert "->" not in dot
    assert '"q";' in dot


def test_dot_preserves_parallel_edges():
    m = parse_machine(
        "states: q1 q2 halt\nalphabet: a b\nblank: a\ninitial: q1\nhalting: halt\n"
        "q1 a -> q2 a R\nq1 b -> q2 b R\nq2 a -> q2 a N\nq2 b -> q2 b N\n"
    )
    dot = graph_to_dot(shift_graph(shift_table(m), 1))
    assert '  "q1" -> "q2" [label="a"];' in dot
    assert '  "q1" -> "q2" [label="b"];' in dot


def test_dot_escapes_quotes_in_names():
    # Names are whitespace-separated tokens, so a file may name a state q"0.
    m = parse_machine(
        'states: q"0 q2 halt\nalphabet: a "b\nblank: a\ninitial: q"0\nhalting: halt\n'
        'q"0 a -> q2 a R\nq"0 "b -> q2 "b R\nq2 a -> q2 a N\nq2 "b -> q2 "b N\n'
    )
    dot = graph_to_dot(shift_graph(shift_table(m), 1))
    assert dot == (
        "digraph right_shifts {\n"
        '  "q\\"0";\n'
        '  "q2";\n'
        '  "q\\"0" -> "q2" [label="a"];\n'
        '  "q\\"0" -> "q2" [label="\\"b"];\n'
        "}\n"
    )
    # Read back with dot's one escape, every quoted id is a name of the machine.
    ids = [t.replace('\\"', '"') for t in re.findall(r'"((?:[^"\\]|\\")*)"', dot)]
    assert set(ids) == {'q"0', "q2", "a", '"b'}


def _two_state_text(state, symbol):
    return (
        f"states: {state} q2 halt\nalphabet: a {symbol}\nblank: a\ninitial: {state}\nhalting: halt\n"
        f"{state} a -> q2 a R\n{state} {symbol} -> q2 {symbol} L\nq2 a -> q2 a N\nq2 {symbol} -> {state} a R\n"
    )


def test_dot_keeps_backslashes_inside_names():
    dot = graph_to_dot(shift_graph(shift_table(parse_machine(_two_state_text("q\\x", "\\b"))), 1))
    assert dot == (
        "digraph right_shifts {\n"
        '  "q\\x";\n'
        '  "q2";\n'
        '  "q\\x" -> "q2" [label="a"];\n'
        '  "q2" -> "q\\x" [label="\\b"];\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "state, symbol, message",
    [("q\\", "b", "state 'q\\\\' ends in"), ("q", "b\\", "symbol 'b\\\\' ends in")],
)
def test_dot_rejects_a_name_that_ends_in_a_backslash(state, symbol, message):
    # In "q\" dot reads \" as an escaped quote, so the id would never close.
    graph = shift_graph(shift_table(parse_machine(_two_state_text(state, symbol))), 1)
    with pytest.raises(MachineError, match=f"^{re.escape(message)} a backslash: dot cannot quote it$"):
        graph_to_dot(graph)


# --- consistency with the step semantics ----------------------------------------


@given(machines())
@settings(max_examples=60, deadline=None)
def test_outcomes_consistent_with_runs(machine):
    size_bound = len(machine.states) * len(machine.alphabet)
    table = shift_table(machine)
    for (q, s), out in table.items():
        config = make_config(machine, q, [s], 0)
        if out.kind == SHIFT:
            moves = []
            current = config
            for _ in range(out.steps):
                tr = machine.transition(current.state, current.tape.get(0, machine.blank))
                moves.append(tr.move)
                current = _one(machine, current)
            assert current.state == out.exit_state
            assert moves[:-1] == [0] * (out.steps - 1)
            assert moves[-1] == out.direction
            assert 1 <= out.steps <= size_bound + 1
        elif out.kind == HALT:
            # no shift may occur strictly before the halting state is entered
            current = config
            for _ in range(size_bound + 1):
                tr = machine.transition(current.state, current.tape.get(0, machine.blank))
                if tr.next_state == machine.halting:
                    break
                assert tr.move == 0
                current = _one(machine, current)
            else:
                raise AssertionError("halt classification but no halting transition reached")
        else:
            seen = set()
            for current in iterate(machine, config, size_bound):
                pair = (current.state, current.tape.get(0, machine.blank))
                if pair in seen:
                    break
                seen.add(pair)
                assert current.state != machine.halting
                tr = machine.transition(*pair)
                assert tr.move == 0
            else:
                raise AssertionError("periodic classification but no pair repeated")


def _one(machine, config):
    from tmdyn import step

    return step(machine, config)


@given(machines())
@settings(max_examples=60)
def test_graph_edge_counts_match_table(machine):
    table = shift_table(machine)
    for direction in (1, -1):
        expected = sum(
            1 for out in table.values() if out.kind == SHIFT and out.direction == direction
        )
        assert len(shift_graph(shift_table(machine), direction).edges) == expected
