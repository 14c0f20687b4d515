"""Benchmark of the tmdyn CLI: three closed-loop workloads, checked outputs.

    python3 perfbench/run.py --workload entropy-corpus --seed 1 --seconds 36 --trace 0

One process runs one workload.  It calls ``tmdyn.cli.main(argv)`` in-process
with stdout captured, and repeats the workload's job list round after round
until ``--seconds`` have passed; every round is whole.  Each output is
checked outside the timed region.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Run reports and traces go to ``perfbench/results/``.

Times are given in seconds at reference speed: the raw time of a job times
``REFERENCE_NOMINAL_S`` over the mean time of a fixed pure-Python reference
loop, measured three times before the job and three times after it (the
loop runs once between any two jobs).  See README.md for why.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: A time at reference speed is what a job would take where the reference
#: loop takes this long; about the loop's time on the machine of the
#: README's figures.
REFERENCE_NOMINAL_S = 0.010
REFERENCE_STEPS, REFERENCE_DEPTH = 450, 9
REFERENCE_WINDOW = 6  # reference times averaged into one job's factor

SETUP_PROBES = 7
TRACE_UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, measured without spans

END_TO_END = {
    "task_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metrics: function -> the metrics reported for it.
LAYER_FUNCTIONS = {
    "words.count_words": ("calls", "self_s", "words", "us_per_word", "peak_mb"),
    "words.entropy_estimates": ("self_s",),
    "words.count_words_oracle": ("self_s",),
    "machine.run": ("calls", "self_s", "steps", "us_per_step"),
    "machine.step": ("calls", "self_s"),
    "cli.main": ("calls", "self_s"),
    "shift_analysis.shift_table": ("calls", "self_s"),
    "shift_analysis.shift_graph": ("calls", "self_s"),
    "shift_analysis.shift_table_rows": ("calls", "self_s"),
    "regularity.check_strong_regularity": ("calls", "self_s"),
    "regularity.check_regularity": ("calls", "self_s"),
    "regularity.entropy_lower_bound": ("calls", "self_s"),
    "regularity.verify_witness": ("calls", "self_s"),
    "gshift.compile_gshift": ("calls", "self_s"),
    "gshift.verify_conjugacy": ("calls", "self_s", "samples", "us_per_sample"),
    "machine.parse_machine": ("self_s",),
    "corpus.builtin_machine": ("self_s",),
}
LAYER_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "words": ("count", "higher"),
    "us_per_word": ("us", "lower"),
    "peak_mb": ("MB", "lower"),
    "steps": ("count", "higher"),
    "us_per_step": ("us", "lower"),
    "samples": ("count", "higher"),
    "us_per_sample": ("us", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    metrics = {
        f"{fn}.{kind}": LAYER_UNITS[kind] for fn, kinds in LAYER_FUNCTIONS.items() for kind in kinds
    }
    metrics["trace.overhead_s"] = ("s", "lower")
    return metrics


@dataclass(frozen=True)
class _Cell:
    index: int
    tape: dict


_PAIRS = [(q, s) for q in range(6) for s in range(4)]


def reference_loop() -> int:
    """Fixed dict, tuple and integer work of the kind tmdyn does; about 10 ms.

    Half of it re-indexes a 64-cell dict and builds a frozen dataclass, as
    ``step`` does; the other half enumerates tuple words depth first into a
    set, as the word counter does.  Such a loop slows down under contention
    about as much as the jobs do; a loop of integer arithmetic alone slows
    down far more than they do.
    """
    tape = {i: i & 7 for i in range(64)}
    for i in range(REFERENCE_STEPS):
        tape = {k - 1: v for k, v in tape.items()}
        _Cell(i, tape)
    words: set[tuple] = set()

    def extend(word: tuple, x: int) -> None:
        if len(word) == REFERENCE_DEPTH:
            words.add(word)
            return
        for branch in range(4 if len(word) % 3 == 0 else 2):
            y = (x * 31 + branch) % len(_PAIRS)
            extend(word + (_PAIRS[y],), y)

    extend((), 1)
    return len(tape) + len(words)


def reference_time() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


@dataclass
class JobResult:
    label: str
    raw_s: float
    failed: bool
    wrong: bool  # exit 0, but the output failed its check
    problems: list[str] = field(default_factory=list)


def execute(job, check, tracer=None, job_id: int = 0) -> JobResult:
    """Run one job in-process with its output captured, then check the output."""
    import tmdyn.cli  # ``main`` is looked up per call: a traced run replaces it by its wrapper

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.active_job = job_id
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = tmdyn.cli.main(job.argv)
        error = None
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    raw = perf_counter() - start
    if tracer is not None:
        tracer.active_job = None
    if error:
        problems = [error]
    else:
        try:
            problems = check(code, out.getvalue())
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems = [f"malformed output: {type(exc).__name__}: {exc}"]
    if error is None and code != 0:
        problems.append(err.getvalue().strip()[-500:])
    wrong = error is None and code == 0 and bool(problems)
    return JobResult(job.label, raw, bool(problems), wrong, problems)


@dataclass
class Phase:
    """Whole rounds of the job list, with reference-loop times taken between jobs.

    ``refs[i]`` is the reference time just before job ``i`` of the phase and
    ``refs[i + 1]`` the one just after it.
    """

    first_job_id: int = 0
    rounds: list[list[JobResult]] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)

    def factors(self) -> dict[int, float]:
        """Job id -> raw seconds to seconds at reference speed.

        The factor of a job is the nominal time over the mean of the
        ``REFERENCE_WINDOW`` reference times nearest it, half before it and
        half after it.
        """
        half = REFERENCE_WINDOW // 2
        count = sum(len(rnd) for rnd in self.rounds)
        return {
            self.first_job_id + i: REFERENCE_NOMINAL_S / statistics.mean(self.refs[max(0, i + 1 - half): i + 1 + half])
            for i in range(count)
        }

    def round_s(self) -> list[float]:
        factors = list(self.factors().values())
        width = len(self.rounds[0])
        return [
            sum(r.raw_s * factors[k * width + j] for j, r in enumerate(rnd)) for k, rnd in enumerate(self.rounds)
        ]

    def task_s(self) -> float:
        return statistics.median(self.round_s())


def run_phase(jobs, checks, seconds: float, tracer=None, first_job_id: int = 0) -> Phase:
    """Whole rounds of the job list until ``seconds`` have passed (at least one)."""
    phase = Phase(first_job_id, refs=[reference_time()])
    job_id = first_job_id
    start = perf_counter()
    while not phase.rounds or perf_counter() - start < seconds:
        results = []
        for job, check in zip(jobs, checks):
            results.append(execute(job, check, tracer, job_id))
            phase.refs.append(reference_time())
            job_id += 1
        phase.rounds.append(results)
    return phase


def setup_probe(workload: str, seed: int, workdir: Path) -> dict:
    """One set-up, timed in a fresh interpreter: import tmdyn and write the inputs."""
    import workloads

    refs = [reference_time() for _ in range(3)]
    start = perf_counter()
    import tmdyn.cli  # noqa: F401

    workloads.WORKLOADS[workload](seed, workdir)
    raw = perf_counter() - start
    refs += [reference_time() for _ in range(3)]
    return {"raw_s": raw, "s": raw * REFERENCE_NOMINAL_S / statistics.mean(refs)}


def measure_setup(workload: str, seed: int, scratch: Path) -> list[dict]:
    samples = []
    for i in range(SETUP_PROBES):
        workdir = scratch / f"setup-{i}"
        workdir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def layer_report(tracer, traced: Phase, untraced: Phase) -> dict[str, float]:
    calls, self_s, incl_s = tracer.totals(traced.factors())
    rounds = len(traced.rounds)
    counts = {k: v / rounds for k, v in tracer.counts.items()}
    values = {}
    for fn, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            if kind == "calls":
                value = calls[fn] / rounds
            elif kind == "self_s":
                value = self_s[fn] / rounds
            elif kind == "peak_mb":
                value = tracer.peaks[fn] / 2**20
            elif kind.startswith("us_per_"):
                work = counts.get(f"{fn}.{kind.removeprefix('us_per_')}s", 0.0)
                # A word is counted inside count_words; a step or a sample is
                # counted over the whole call, including its traced children.
                busy = self_s[fn] if kind == "us_per_word" else incl_s[fn]
                value = busy / rounds / work * 1e6 if work else 0.0
            else:
                value = counts.get(f"{fn}.{kind}", 0.0)
            values[f"{fn}.{kind}"] = value
    values["trace.overhead_s"] = traced.task_s() - untraced.task_s()
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("entropy-corpus", "simulate-long", "survey-random"))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=36.0, help="length of the measured part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tmdyn" / "__init__.py").is_file():
        print(f"error: no tmdyn sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, Path(args.workdir))))
        return 0

    import tmdyn.cli  # noqa: F401
    import workloads

    if not Path(tmdyn.__file__).resolve().is_relative_to(SRC):
        print(f"error: tmdyn was imported from {tmdyn.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=RESULTS))
    try:
        setup = measure_setup(args.workload, args.seed, scratch)
        jobs = workloads.WORKLOADS[args.workload](args.seed, scratch)
        checks = [job.prepare() for job in jobs]
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "reference_nominal_s": REFERENCE_NOMINAL_S,
            "setup_probes": setup,
            "jobs": [job.label for job in jobs],
        }
        if args.trace:
            phases, metrics = traced_run(jobs, checks, args, report)
        else:
            phase = run_phase(jobs, checks, args.seconds)
            phases = [phase]
            metrics = {
                "task_s": phase.task_s(),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(p["s"] for p in setup),
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    results = [r for phase in phases for rnd in phase.rounds for r in rnd]
    failures = [{"job": r.label, "problems": r.problems[:5]} for r in results if r.failed]
    report["phases"] = [
        {"reference_s": phase.refs, "round_s": phase.round_s(),
         "job_raw_s": [[r.raw_s for r in rnd] for rnd in phase.rounds]}
        for phase in phases
    ]
    report["failures"] = failures[:20]
    report["metrics"] = metrics
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1) + "\n")

    units = {**END_TO_END, **{k: u for k, (u, _) in per_layer_metrics().items()}}
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    for failure in failures[:5]:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    print(f"rounds {sum(len(p.rounds) for p in phases)}, report {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def traced_run(jobs, checks, args, report) -> tuple[list[Phase], dict]:
    """Untraced rounds, then traced rounds, then one round for tracemalloc peaks."""
    from tracing import Tracer, install

    start = perf_counter()
    untraced = run_phase(jobs, checks, args.seconds * TRACE_UNTRACED_SHARE)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        first_id = sum(len(r) for r in untraced.rounds)
        traced = run_phase(jobs, checks, args.seconds - (perf_counter() - start), tracer, first_id)
        first_round_spans = next((i for i, job in enumerate(tracer.job) if job >= first_id + len(jobs)), len(tracer.job))
        tracer.memory_pass = True
        memory = run_phase(jobs, checks, 0, tracer, first_id + sum(len(r) for r in traced.rounds))
    finally:
        uninstall()
    metrics = layer_report(tracer, traced, untraced)
    trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_task_s": untraced.task_s(),
        "traced_task_s": traced.task_s(),
        "overhead_s": metrics["trace.overhead_s"],
        "traced_rounds": len(traced.rounds),
        "metrics": metrics,
        "jobs": {first_id + i: job.label for i, job in enumerate(jobs)},
        "spans_of_first_traced_round": tracer.spans(first_round_spans),
    }) + "\n")
    report["trace_file"] = str(trace_file.relative_to(ROOT))
    return [untraced, traced, memory], metrics


if __name__ == "__main__":
    sys.exit(main())
