"""The benchmark's recorded quad-sweep counts hold in the test suite.

perfbench/expected.json pins the gradient and value totals and the sweep.csv
sha256 of each quad-sweep reference call. A change of an algorithm's rules that
moves them, such as stopping algm as soon as an adopted point meets epsilon,
fails here as well as in a benchmark run. The test reads perfbench and writes
nothing there.
"""

import importlib
import json
from pathlib import Path

from fastgrad.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_quad_sweep_reference_calls_match_the_recorded_counts(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    quad_sweep = importlib.import_module("workloads").WORKLOADS["quad-sweep"]
    recorded = json.loads((PERFBENCH / "expected.json").read_text())["workloads"]["quad-sweep"]
    calls = quad_sweep.setup(quad_sweep.reference)
    assert len(calls) == len(recorded)
    for i, (argv, expect) in enumerate(zip(calls, recorded)):
        out = tmp_path / str(i)
        assert main([*argv, "--out", str(out)]) == 0
        solves, digest = quad_sweep.read(out, argv[argv.index("--method") + 1])
        assert len(solves) == quad_sweep.solves_per_call
        grads, values = sum(s.grad_evals for s in solves), sum(s.value_evals for s in solves)
        assert (grads, values, digest) == (expect["grad_evals"], expect["value_evals"], expect["sha256"])
