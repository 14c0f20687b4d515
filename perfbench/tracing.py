"""Spans around tmdyn's public functions, recorded from the benchmark's side.

``install`` replaces every public function of every ``tmdyn`` module by a
wrapper, at each module attribute that holds it and in module-level dicts
that hold it (``cli._COMMANDS``), because ``cli`` and ``words`` import names
directly.  A wrapper records a span only while a job is active; checks and
preparation run with no job and are not recorded.

Spans are kept in flat arrays (no per-span Python object for the collector
to walk) and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
import types
from array import array
from collections import defaultdict
from time import perf_counter

#: Work counted from a function's result: span name -> (counter, how to read it).
RESULT_COUNTERS = {
    "words.count_words": ("words", lambda result: result),
    "machine.run": ("steps", lambda result: result.steps_taken),
    "gshift.verify_conjugacy": ("samples", lambda result: result.samples),
}

#: Functions whose tracemalloc peak is taken in the memory pass.
MEMORY_PEAK = ("words.count_words",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.job = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.active_job: int | None = None
        self.memory_pass = False

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def call(self, name: str, name_id: int, fn, args, kwargs):
        if self.memory_pass:
            if name not in MEMORY_PEAK:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks[name] = max(self.peaks[name], tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        index = len(self.start)
        parent = self.stack[-1] if self.stack else -1
        self.name.append(name_id)
        self.job.append(self.active_job)
        self.parent.append(parent)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.end[index] = end
            if parent >= 0:
                self.child[parent] += end - self.start[index]
        counter = RESULT_COUNTERS.get(name)
        if counter is not None:
            self.counts[f"{name}.{counter[0]}"] += counter[1](result)
        return result

    def spans(self, count: int | None = None) -> list[dict]:
        """The first ``count`` spans (all by default) as JSON objects."""
        return [
            {
                "id": i,
                "name": self.names[self.name[i]],
                "start": self.start[i],
                "end": self.end[i],
                "parent": self.parent[i],
                "job": self.job[i],
            }
            for i in range(len(self.start) if count is None else count)
        ]

    def totals(self, factors: dict[int, float]) -> tuple[dict, dict, dict]:
        """Per span name: calls, self seconds and inclusive seconds at reference speed."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            factor = factors[self.job[i]]
            duration = self.end[i] - self.start[i]
            calls[name] += 1
            self_s[name] += (duration - self.child[i]) * factor
            incl_s[name] += duration * factor
        return calls, self_s, incl_s


def _public_functions(module) -> dict[str, types.FunctionType]:
    return {
        attr: value
        for attr, value in vars(module).items()
        if isinstance(value, types.FunctionType)
        and value.__module__.startswith("tmdyn")
        and not value.__name__.startswith("_")
        and not inspect.isgeneratorfunction(value)
    }


def _wrap(tracer: Tracer, fn):
    name = f"{fn.__module__.removeprefix('tmdyn.')}.{fn.__name__}"
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active_job is None:
            return fn(*args, **kwargs)
        return tracer.call(name, name_id, fn, args, kwargs)

    return wrapper


def install(tracer: Tracer):
    """Wrap tmdyn's public functions; returns a function that undoes it."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "tmdyn" or name.startswith("tmdyn.")]
    wrappers: dict[types.FunctionType, types.FunctionType] = {}

    def wrapper_of(fn):
        if fn not in wrappers:
            wrappers[fn] = _wrap(tracer, fn)
        return wrappers[fn]

    undo = []
    for module in modules:
        for attr, fn in _public_functions(module).items():
            undo.append((vars(module), attr, fn))
            setattr(module, attr, wrapper_of(fn))
    for module in modules:
        for table in [v for v in vars(module).values() if isinstance(v, dict)]:
            for key, fn in list(table.items()):
                if isinstance(fn, types.FunctionType) and fn in wrappers:
                    undo.append((table, key, fn))
                    table[key] = wrappers[fn]

    def uninstall() -> None:
        for namespace, key, fn in reversed(undo):
            namespace[key] = fn

    return uninstall
