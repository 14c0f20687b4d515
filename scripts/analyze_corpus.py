#!/usr/bin/env python3
"""Full analysis of the built-in machines, printed as a readable summary.

For each corpus machine: the regularity verdict with its witness, the
certified entropy lower bound, a word-count table bracketing the entropy
(upper bounds log(count)/n vs. the certified lower bound), and a conjugacy
spot check of the compiled generalized shift.

Usage: python scripts/analyze_corpus.py [--n-max N] [--samples K] [--seed S]
"""

import argparse
import math

from tmdyn import (
    builtin_machine,
    check_regularity,
    check_strong_regularity,
    corpus_names,
    entropy_estimates,
    report_to_json_dict,
    shift_graph,
    shift_table,
    verify_conjugacy,
    verify_witness,
)
from tmdyn.cli import _int_at_least


def describe(name: str, n_max: int, samples: int, seed: int) -> None:
    machine = builtin_machine(name)
    print(f"\n=== {name} ===")
    print(
        f"{len(machine.states)} states, {len(machine.alphabet)} symbols, "
        f"blank {machine.blank.name!r}, initial {machine.initial.name!r}"
    )

    strong = check_strong_regularity(machine)
    if strong is not None:
        states = ", ".join(sorted(q.name for q in strong.states))
        symbols = ", ".join(sorted(s.name for s in strong.symbols))
        print(f"strong block: direction {strong.direction:+d}, states {{{states}}}, symbols {{{symbols}}}")
        print(f"  verified: {verify_witness(machine, strong)}")
    else:
        print("strong block: none")

    regular = check_regularity(machine)
    if regular is not None:
        fmt = lambda walk: " ".join(f"({q.name},{s.name})" for q, s in walk)
        print(
            f"closed-walk witness: direction {regular.direction:+d} at {regular.base.name}, "
            f"costs {regular.cost_a}/{regular.cost_b}"
        )
        print(f"  walk a: {fmt(regular.walk_a)}")
        print(f"  walk b: {fmt(regular.walk_b)}")
        print(f"  verified: {verify_witness(machine, regular)}")
    else:
        print("closed-walk witness: none")

    report = entropy_estimates(machine, n_max)
    certificate = report.certificate
    bound = certificate.bound_float()
    print(f"certificate: {certificate.verdict}", end="")
    print(f", entropy >= {certificate.bound_text()} = {bound:.6f}" if bound else "")

    table = shift_table(machine)
    for direction in (1, -1):
        graph = shift_graph(table, direction)
        print(f"shift graph {direction:+d}: {len(graph.edges)} edges")

    print(f"word counts up to n = {n_max}:")
    print("    n      count        e_n")
    for row in report.rows:
        print(f"  {row.n:3d} {row.count:10d}   {row.estimate:.6f}")
    if bound is not None and report.rows:
        upper = report_to_json_dict(report)["rows"][-1]["min_e_n"]
        print(f"entropy bracket: {bound:.6f} <= h <= {upper:.6f} (log 2 = {math.log(2):.6f})")

    conj = verify_conjugacy(machine, samples=samples, seed=seed)
    print(f"conjugacy check: {conj.passes}/{conj.samples} passed (seed {seed})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=_int_at_least(1), default=8)
    parser.add_argument("--samples", type=_int_at_least(1), default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for name in corpus_names():
        describe(name, args.n_max, args.samples, args.seed)


if __name__ == "__main__":
    main()
