"""The benchmark's traced pass wraps layers by the module globals callers look up.

perfbench/spans.py patches names such as bench.build_problem and
bench.write_trace_csv for the length of a traced pass. A refactor that renames
one of them, or calls past it, would leave its per-layer metric at zero without
failing anything; these runs make such a change fail here instead.
"""

import importlib
from pathlib import Path

import pytest

from fastgrad.bench import METHODS
from fastgrad.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans")


def traced(spans, argv, exit_code=0):
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert main(argv) == exit_code
    return spans.layer_metrics(tracer, bytes_out=0)


def test_run_reaches_every_layer(spans, tmp_path):
    metrics = traced(spans, [
        "run", "--problem", "logreg:30,20,1.0,5", "--method", "algm",
        "--l0", "100", "--eps-rel", "1e-6", "--out", str(tmp_path / "run"),
    ])
    assert metrics["problems.builds"] == 1
    assert metrics["bench.write_trace_s"] > 0
    assert metrics["drivers.solve_s"] > 0
    assert metrics["drivers.attempts"] > 0


def test_sweep_builds_each_point_once(spans, tmp_path):
    metrics = traced(spans, [
        "sweep", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100",
        "--eps-rel", "1e-5", "--axis", "L", "--values", "100,400", "--out", str(tmp_path / "sweep"),
    ])
    assert metrics["problems.builds"] == 2
    assert metrics["drivers.solve_s"] > 0
    assert metrics["drivers.attempts"] > 0


def test_compare_counts_accepted_points_of_every_driver(spans, tmp_path):
    metrics = traced(spans, [
        "compare", "--problem", "quadratic:1000.0,0.1", "--seed", "7", "--eps-rel", "1e-6",
        "--l0", "1000", "--spec", "acgm", "--spec", "algm;l0=5", "--spec", "ugm",
        "--spec", "ogmg_repeated;mu0=0.1", "--out", str(tmp_path / "cmp"),
    ])
    assert metrics["drivers.attempts"] > 0
    assert metrics["drivers.accept_ratio"] > 0


def test_fixed_budget_run_counts_its_steps(spans, tmp_path):
    metrics = traced(spans, [
        "run", "--problem", "quadratic:1000.0,0.1", "--method", "ogmg:40", "--l0", "1000",
        "--eps-rel", "0.5", "--seed", "7", "--out", str(tmp_path / "run"),
    ])
    assert metrics["ogmg.ogmg_run.steps"] == 40


def test_budget_stop_unwinds_through_wrapped_attempts(spans, tmp_path):
    # the attempt that does not fit the cap raises out of the wrapped ogmgl_run
    metrics = traced(spans, [
        "run", "--problem", "quadratic:1000.0,0.1", "--method", "algm", "--l0", "5",
        "--eps-rel", "1e-12", "--seed", "7", "--max-grad-calls", "150",
        "--out", str(tmp_path / "run"),
    ], exit_code=2)
    assert metrics["problems.builds"] == 1
    assert metrics["drivers.attempts"] > 0


@pytest.mark.parametrize("method", list(METHODS))
def test_every_method_row_reaches_its_traced_driver(spans, tmp_path, method):
    # each row's solve must look its driver up when it runs; one bound at import bypasses the span
    row = METHODS[method]
    metrics = traced(spans, [
        "run", "--problem", "quadratic:1000.0,0.1", "--method", f"{method}:40" if row.takes_n else method,
        "--l0", "1000", "--eps-rel", "0.5", "--seed", "7", "--out", str(tmp_path / "run"),
    ])
    # the fixed-budget run is no driver: its span is ogmg_run's
    assert metrics["ogmg.ogmg_run.calls" if row.takes_n else "drivers.solve_s"] > 0
