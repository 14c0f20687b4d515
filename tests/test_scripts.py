import ast
import importlib
import inspect
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from tmdyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
ANALYZE_CORPUS = ROOT / "scripts" / "analyze_corpus.py"
PERFBENCH_RUN = ROOT / "perfbench" / "run.py"


def run_analyze_corpus(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", [str(ANALYZE_CORPUS), *argv])
    runpy.run_path(str(ANALYZE_CORPUS), run_name="__main__")


def test_analyze_corpus_prints_both_certificates(capsys, monkeypatch):
    run_analyze_corpus(monkeypatch, "--n-max", "5", "--samples", "50")
    out = capsys.readouterr().out
    assert "certificate: strongly-regular, entropy >= log 2 = 0.693147" in out
    assert "certificate: regular, entropy >= log 2 / 3 = 0.231049" in out
    assert out.count("conjugacy check: 50/50 passed") == 2


def test_analyze_corpus_bracket_ends_at_the_smallest_estimate(capsys, monkeypatch):
    run_analyze_corpus(monkeypatch, "--n-max", "5", "--samples", "1")
    out = capsys.readouterr().out
    brackets = re.findall(r"^entropy bracket: (\S+) <= h <= (\S+) ", out, re.MULTILINE)
    assert brackets == [("0.693147", "1.563364"), ("0.231049", "0.943700")]
    tables = re.findall(r"^    n +count +e_n\n((?:  .*\n)+)", out, re.MULTILINE)
    smallest = [min(float(line.split()[2]) for line in table.splitlines()) for table in tables]
    assert [f"{e:.6f}" for e in smallest] == [upper for _, upper in brackets]


@pytest.mark.parametrize("flag", ["--n-max", "--samples"])
def test_analyze_corpus_rejects_counts_below_one(capsys, monkeypatch, flag):
    with pytest.raises(SystemExit) as exc:
        run_analyze_corpus(monkeypatch, flag, "0")
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (tour,) = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    exec(compile(tour, "README.md", "exec"), {})


def test_readme_shell_examples_run(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line, comments=True)
        for block in re.findall(r"^```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
        for line in block.splitlines()
        if line.startswith("tmdyn ")
    ]
    assert len(commands) >= 6
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        assert capsys.readouterr().err == "", argv


def test_every_traced_benchmark_layer_names_a_tmdyn_function():
    # The benchmark traces "module.function" names of public tmdyn functions;
    # a rename in the library must not silently leave a layer metric at zero.
    # The file is parsed, not imported, so nothing under perfbench/ is written.
    tree = ast.parse(PERFBENCH_RUN.read_text(encoding="utf-8"))
    (node,) = [
        n for n in tree.body
        if isinstance(n, ast.Assign) and [getattr(t, "id", None) for t in n.targets] == ["LAYER_FUNCTIONS"]
    ]
    names = ast.literal_eval(node.value)
    assert names
    for name in names:
        module, function = name.split(".")
        fn = getattr(importlib.import_module(f"tmdyn.{module}"), function, None)
        assert inspect.isfunction(fn) and (fn.__module__, fn.__name__) == (f"tmdyn.{module}", function), name
        assert not function.startswith("_") and not inspect.isgeneratorfunction(fn), name
