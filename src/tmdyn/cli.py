"""Command line surface: analyze, graph, entropy, simulate, gshift.

Machines come either from the built-in corpus (``--machine NAME``) or from a
description file (``--file PATH``).  Reports are deterministic for fixed
inputs, flags and seed: no timestamps, stable key order, seeds echoed back.
A command returns its whole output and None or why it failed (oracle mismatch,
conjugacy failure, exhausted budget or cap); ``main`` alone writes both, the
output to stdout and a failure as one ``error:`` line on stderr, and exits 1,
or 2 on usage or machine-format errors or a closed stdout.  Each command
imports the analysis modules it calls, so ``simulate`` loads none of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .corpus import corpus_names, corpus_text
from .machine import (
    HALTING_MODES,
    BudgetExceededError,
    MachineError,
    RunResult,
    TuringMachine,
    format_config,
    iterate,
    make_config,
    parse_machine,
    run,
)

TYPE_CHECKING = False  # as typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .gshift import ConjugacyReport
    from .shift_analysis import ShiftGraph


def _int_at_least(minimum: int):
    """An argparse type for an integer flag that must be >= ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum} (got {value})")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    from .words import DEFAULT_NODE_BUDGET, MAX_MEMO_ENTRIES, ORACLE_CHECKED_N

    parser = argparse.ArgumentParser(
        prog="tmdyn",
        description="Analyze Turing machines as dynamical systems.",
    )
    parser.add_argument("--version", action="version", version=f"tmdyn {__version__}")
    machine_source = argparse.ArgumentParser(add_help=False)
    source = machine_source.add_mutually_exclusive_group(required=True)
    source.add_argument("--machine", metavar="NAME", help=f"built-in machine ({', '.join(corpus_names())})")
    source.add_argument("--file", metavar="PATH", help="machine description file")
    common = argparse.ArgumentParser(add_help=False, parents=[machine_source])
    common.add_argument("--halting-mode", choices=HALTING_MODES, default="fixpoint")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="emit JSON instead of text")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for randomized checks (echoed in reports)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common, seeded], help="full report: shift table, graphs, certificate")
    p.add_argument("--n-max", type=_int_at_least(1), help="also append word counts for n = 1..N")
    p.add_argument("--conjugacy-samples", type=_int_at_least(1), default=200)
    p.add_argument("--out", metavar="PATH", help="write the JSON report to a file instead of stdout")

    p = sub.add_parser("graph", parents=[machine_source], help="per-direction shift graph as dot text")
    p.add_argument("--eps", required=True, choices=("+1", "-1"), help="shift direction")

    p = sub.add_parser("entropy", parents=[common, as_json], help="word counts and entropy estimates")
    p.add_argument("--n-max", type=_int_at_least(1), required=True)
    oracle_help = f"check rows n <= {ORACLE_CHECKED_N} against the brute-force oracle"
    p.add_argument("--oracle", action="store_true", help=oracle_help)
    budget_help = (
        f"work units per row; memo hits are free. The memo stops growing at {MAX_MEMO_ENTRIES}"
        " entries; past that a row costs more and the budget may end the report sooner"
    )
    p.add_argument("--node-budget", type=_int_at_least(1), default=DEFAULT_NODE_BUDGET, help=budget_help)
    p.add_argument(
        "--initial-only",
        action="store_true",
        help="exploratory: count only orbits started in the initial state",
    )

    p = sub.add_parser("simulate", parents=[common, as_json], help="run the machine step by step")
    p.add_argument("--state", help="starting state (default: the initial state)")
    p.add_argument("--tape", default="", help="symbols to place on the tape")
    p.add_argument("--offset", type=int, default=0, help="cell index of the first tape symbol")
    p.add_argument("--steps", type=_int_at_least(0), required=True)
    p.add_argument("--trace", action="store_true", help="print every configuration along the run")

    p = sub.add_parser("gshift", parents=[common, as_json, seeded], help="compiled generalized shift")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--verify",
        type=_int_at_least(1),
        metavar="SAMPLES",
        help="check the conjugacy on random configurations",
    )
    mode.add_argument("--dump", action="store_true", help="dump the compiled tables as JSON")

    return parser


# Where a machine came from, ("name", NAME) or ("file", PATH), and its text.
_Source = tuple[str, str, str]


def _load_machine(args) -> tuple[TuringMachine, _Source]:
    if args.machine is not None:
        source = ("name", args.machine, corpus_text(args.machine))
    else:  # a leading BOM is not text
        source = ("file", args.file, Path(args.file).read_text(encoding="utf-8-sig"))
    # graph takes no --halting-mode: a shift graph never steps from the halting state.
    mode = {"halting_mode": args.halting_mode} if "halting_mode" in args else {}
    return parse_machine(source[2], **mode), source


def _machine_json(machine: TuringMachine, source: dict) -> dict:
    return {
        **source,
        "states": [q.name for q in machine.states],
        "alphabet": [s.name for s in machine.alphabet],
        "blank": machine.blank.name,
        "initial": machine.initial.name,
        "halting": machine.halting.name,
        "halting_mode": machine.halting_mode,
    }


def _graph_json(graph: ShiftGraph) -> dict:
    return {
        "direction": graph.direction,
        "vertices": [v.name for v in graph.vertices],
        "edges": [
            {"from": e.src.name, "to": e.dst.name, "label": e.label.name}
            for e in graph.edges
        ],
    }


def _conjugacy_json(report: ConjugacyReport) -> dict:
    return {
        "samples": report.samples,
        "passes": report.passes,
        "failures": report.failures,
        "seed": report.seed,
    }


def _conjugacy_failure(report: ConjugacyReport) -> str | None:
    if report.failures:
        return f"conjugacy check failed on {report.failures} of {report.samples} samples (seed {report.seed})"
    return None


def _json(data: dict) -> str:
    """``json.dumps(data, indent=2) + "\\n"`` byte for byte, built on stdlib's C encoders.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; this one writes
    strings and long flat containers in C and the indented structure in Python.
    """
    parts = []
    _encode(data, 0, parts)
    parts.append("\n")
    return "".join(parts)


# A container of more than this many scalars is encoded by one call to the C
# encoder, which is built afresh on each call: below it, that set-up costs more
# than the Python loop.  Encoding per benchmark round at cut-off 0/4/8/16
# (Python 3.11, 2 CPUs): survey-random, whose rows hold 3-8 keys,
# 13.9/9.6/8.2/8.5 ms; simulate-long, whose tapes hold hundreds to thousands
# of cells, 1.1 ms at each.
_FLAT_CUTOFF = 8


@functools.cache
def _flat_encoder(depth: int):
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": ")).encode


def _encode(o, depth: int, parts: list) -> None:
    if isinstance(o, (list, tuple)):
        brackets, values = "[]", o
    elif isinstance(o, dict):
        brackets, values = "{}", o.values()
    else:
        parts.append(_scalar(o))
        return
    if not o:
        parts.append(brackets)
        return
    depth += 1
    pad = "\n" + "  " * depth
    if len(o) > _FLAT_CUTOFF and not any(issubclass(t, (list, tuple, dict)) for t in set(map(type, values))):
        # The compact text with the indent as item separator lacks only the
        # breaks after the opening and before the closing bracket.  Splicing
        # them in by position is safe: ensure_ascii output holds no raw newline.
        text = _flat_encoder(depth)(o)
        parts += (brackets[0], pad, text[1:-1], pad[:-2], brackets[1])
        return
    parts.append(brackets[0])
    sep = pad
    for key, value in enumerate(o) if values is o else o.items():
        parts.append(sep)
        sep = "," + pad
        if values is not o:
            # A key that is not a str converts as stdlib converts it (cut from the
            # text of {key: null}), or raises its TypeError.
            parts.append(encode_basestring_ascii(key) if isinstance(key, str) else json.dumps({key: None})[1:-7])
            parts.append(": ")
        if isinstance(value, str):
            parts.append(encode_basestring_ascii(value))
        else:
            _encode(value, depth, parts)
    parts += (pad[:-2], brackets[1])


def _scalar(o) -> str:  # _encode writes each str inline; a bare one would reach json.dumps below
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float) and o - o == 0:  # finite: NaN and inf - inf are NaN
        return float.__repr__(o)
    return json.dumps(o)  # NaN and +-Infinity as stdlib writes them; its TypeError for the rest


@functools.cache  # found once: a failed import searches sys.path on every try
def _sha256():
    """hashlib's SHA-256 without OpenSSL's libcrypto, from CPython's built-in module as
    random.py takes it: _sha2 from 3.12, _sha256 before, hashlib on a build without either."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def cmd_analyze(machine: TuringMachine, source: _Source, args) -> tuple[str, str | None]:
    from .gshift import verify_conjugacy
    from .regularity import certificate_to_json_dict, entropy_lower_bound
    from .shift_analysis import shift_graph, shift_table, shift_table_rows
    from .words import entropy_estimates, report_to_json_dict

    kind, origin, machine_text = source
    # Only analyze shows the hash, so only it loads a SHA-256 module.
    source_json = {kind: origin, "sha256": _sha256()(machine_text.encode("utf-8")).hexdigest()}
    table = shift_table(machine)
    words = None if args.n_max is None else entropy_estimates(machine, args.n_max)
    certificate = entropy_lower_bound(machine) if words is None else words.certificate
    conj = verify_conjugacy(machine, samples=args.conjugacy_samples, seed=args.seed)
    report = {
        "tool": {"name": "tmdyn", "version": __version__},
        "machine": _machine_json(machine, source_json),
        "seed": args.seed,
        "shift_table": shift_table_rows(table),
        "graphs": {
            "+1": _graph_json(shift_graph(table, 1)),
            "-1": _graph_json(shift_graph(table, -1)),
        },
        "certificate": certificate_to_json_dict(certificate),
        "conjugacy": _conjugacy_json(conj),
    }
    if words is not None:
        report["word_counts"] = report_to_json_dict(words)
    text = _json(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        text = ""
    return text, (words.budget_error if words is not None else None) or _conjugacy_failure(conj)


def cmd_graph(machine: TuringMachine, source: _Source, args) -> tuple[str, None]:
    from .shift_analysis import graph_to_dot, shift_graph, shift_table

    return graph_to_dot(shift_graph(shift_table(machine), int(args.eps))), None


def cmd_entropy(machine: TuringMachine, source: _Source, args) -> tuple[str, str | None]:
    from .words import ORACLE_CHECKED_N, count_words_oracle, entropy_estimates, report_to_csv, report_to_json_dict

    report = entropy_estimates(
        machine, args.n_max, node_budget=args.node_budget, initial_only=args.initial_only
    )
    text = _json(report_to_json_dict(report)) if args.json else report_to_csv(report)
    if args.oracle:
        for row in report.rows[:ORACLE_CHECKED_N]:  # rows are n = 1, 2, ...
            expected = count_words_oracle(machine, row.n, initial_only=args.initial_only)
            if expected != row.count:
                return text, f"oracle mismatch at n={row.n}: count_words={row.count}, oracle={expected}"
    return text, report.budget_error


def cmd_simulate(machine: TuringMachine, source: _Source, args) -> tuple[str, None]:
    state = machine.state_named(args.state) if args.state else machine.initial
    config = make_config(machine, state, args.tape, args.offset)
    def render(c):
        if args.json:
            return {"state": c.state.name, "tape": {str(i): s.name for i, s in sorted(c.tape.items())}}
        return format_config(machine, c)
    # The configurations shown, keyed by time and kept only as rendered.
    if args.trace:  # one pass over the orbit
        shown = {}
        for final in iterate(machine, config, args.steps):
            shown[len(shown)] = render(final)
            if final.state == machine.halting:
                break
        result = RunResult(final.state == machine.halting, len(shown) - 1, final)
    else:  # run keeps only the final configuration: the initial one if no step was taken
        result = run(machine, config, args.steps)
        shown = {0: render(config), result.steps_taken: render(result.final)}
    if args.json:
        return _json(
            {
                "initial": shown[0],
                "trace": list(shown.values()) if args.trace else None,
                "final": shown[result.steps_taken],
                "steps_taken": result.steps_taken,
                "halted": result.halted,
                "halting_time": result.halting_time,
            }
        ), None
    lines = [f"{i:4d}  {c}\n" for i, c in shown.items()]
    if result.halted:
        lines.append(f"halted at time {result.halting_time}\n")
    else:
        lines.append(f"did not halt within {args.steps} steps\n")
    return "".join(lines), None


def cmd_gshift(machine: TuringMachine, source: _Source, args) -> tuple[str, str | None]:
    from .gshift import compile_gshift, gshift_to_json_dict, verify_conjugacy

    if args.dump:
        return _json(gshift_to_json_dict(compile_gshift(machine))), None
    report = verify_conjugacy(machine, samples=args.verify, seed=args.seed)
    if args.json:
        text = _json(_conjugacy_json(report))
    else:
        text = f"conjugacy check: {report.passes}/{report.samples} passed (seed {report.seed})\n"
        if report.first_counterexample is not None:
            text += f"first counterexample: {format_config(machine, report.first_counterexample)}\n"
    return text, _conjugacy_failure(report)


_COMMANDS = {
    "analyze": cmd_analyze,
    "graph": cmd_graph,
    "entropy": cmd_entropy,
    "simulate": cmd_simulate,
    "gshift": cmd_gshift,
}


_parser = functools.cache(build_parser)  # built on the first main call, not at import


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    code = 1
    try:
        machine, source = _load_machine(args)
        text, failure = _COMMANDS[args.command](machine, source, args)
        if text:  # an empty one is never written, so analyze --out runs without a stdout
            if sys.stdout is None:  # closed by the shell (>&-)
                raise OSError("standard output is closed")
            sys.stdout.write(text)
    except BrokenPipeError:  # the reader closed stdout: nothing is left to tell it
        return 1
    except BudgetExceededError as exc:  # a cap hit before there was a report
        failure = exc
    except (MachineError, OSError, UnicodeError) as exc:
        failure, code = exc, 2
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
    return 0 if failure is None else code


def entry() -> None:
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:  # the flush at exit would fail again and print "Exception ignored"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
