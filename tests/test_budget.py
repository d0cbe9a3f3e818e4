"""The gradient budget is a hard cap, enforced by the oracle for every driver.

Random drivers, objectives (smooth, non-smooth, non-convex and inconsistent)
and constants: whatever happens, no driver spends a gradient past the cap,
and value calls stay within 2 * grad_calls + 61. An accelerated pass of N
steps starts only if N + 1 gradients fit, its steps plus the one that judges
its result, so every momentum schedule is shorter than the budget left and a
run that ends unconverged has spent no gradient after its last trace row.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fastgrad import (
    CountingOracle,
    DivergenceError,
    NonFiniteError,
    Objective,
    QuadraticProblem,
    RunawayLipschitzError,
    SolverConfig,
    acgm,
    algm,
    ogmg_repeated,
    ugm,
)
from fastgrad import ogmg
from fastgrad.cli import main

DRIVERS = {
    "acgm": lambda oracle, x0, cfg: acgm(oracle, x0, cfg.L0, cfg),
    "algm": algm,
    "ugm": ugm,
    "ogmg_repeated": lambda oracle, x0, cfg: ogmg_repeated(oracle, x0, cfg.L0, cfg.mu0, cfg.epsilon),
}

OBJECTIVES = {
    "quadratic": lambda dim, L: QuadraticProblem(diag=L * np.geomspace(1.0, 1e-3, dim)).objective(),
    "l1": lambda dim, L: Objective(
        dim, lambda x: L * float(np.abs(x).sum()), lambda x: L * np.sign(x)
    ),
    "concave": lambda dim, L: Objective(dim, lambda x: -0.5 * L * float(x @ x), lambda x: -L * x),
    # the gradient points uphill of the value: no step ever decreases f
    "inconsistent": lambda dim, L: Objective(dim, lambda x: 0.5 * L * float(x @ x), lambda x: -L * x),
}

ABORTS = (NonFiniteError, RunawayLipschitzError, DivergenceError)


def log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


def run_within_budget(driver, objective, x0, cfg, cap):
    """Run driver under cap; return the oracle, the (N, room left) of every
    schedule, and the driver's result (None if the oracle aborted the run)."""
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = cap
    schedules = []
    make_schedule = ogmg.make_schedule

    def recording(N):
        schedules.append((N, oracle.max_grad_calls - oracle.grad_calls))
        return make_schedule(N)

    result = None
    with mock.patch.object(ogmg, "make_schedule", recording), np.errstate(all="ignore"):
        try:
            result = DRIVERS[driver](oracle, x0, cfg)
        except ABORTS:
            pass
    return oracle, schedules, result


def assert_within_budget(oracle, schedules, result, cap):
    assert oracle.grad_calls <= cap
    assert oracle.value_calls <= 2 * oracle.grad_calls + 61
    assert all(N < room for N, room in schedules)
    if result is not None and not result.converged:
        assert result.trace.events[-1].grad_calls == oracle.grad_calls


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    driver=st.sampled_from(sorted(DRIVERS)),
    objective=st.sampled_from(sorted(OBJECTIVES)),
    dim=st.integers(1, 4),
    L=log_uniform(1e-2, 1e6),
    L0_ratio=log_uniform(1e-3, 1e3),
    mu0_ratio=log_uniform(1e-6, 1.0),
    eps=log_uniform(1e-10, 1e-1),
    start=st.floats(-10.0, 10.0, allow_subnormal=False),
    cap=st.integers(1, 3000),
)
def test_no_driver_spends_past_the_cap(driver, objective, dim, L, L0_ratio, mu0_ratio, eps, start, cap):
    L0 = L * L0_ratio
    cfg = SolverConfig(epsilon=eps, L0=L0, mu0=L0 * mu0_ratio)
    x0 = start * np.linspace(1.0, 2.0, dim)
    oracle, schedules, result = run_within_budget(driver, OBJECTIVES[objective](dim, L), x0, cfg, cap)
    assert_within_budget(oracle, schedules, result, cap)


@pytest.mark.parametrize("driver", ["acgm", "algm", "ogmg_repeated"])
def test_ill_conditioned_run_stops_at_the_cap(driver):
    # one ogmg_repeated repetition alone is halving_budget(1e6, 1e-3) = 89443 steps
    objective = QuadraticProblem(diag=np.array([1e6, 1e-3])).objective()
    cfg = SolverConfig(epsilon=1e-12, L0=1e6, mu0=1e-3 if driver == "ogmg_repeated" else None)
    oracle, schedules, result = run_within_budget(driver, objective, np.ones(2), cfg, 1000)
    assert_within_budget(oracle, schedules, result, 1000)


def run_capped(tmp_path, method, eps_rel, cap):
    out = tmp_path / f"cap{cap}"
    code = main([
        "run", "--problem", "quadratic:1000.0,0.1", "--method", method, "--l0", "1000",
        "--eps-rel", eps_rel, "--x0", "gaussian", "--seed", "7",
        "--max-grad-calls", str(cap), "--out", str(out),
    ])
    assert code == 2
    summary = json.loads((out / "summary.json").read_text())
    return summary["grad_calls"], (out / "trace.csv").read_text()


def test_pass_that_cannot_be_judged_is_not_started(tmp_path):
    # with cap 225 the next acgm pass would fit its steps but not its judging gradient
    calls_200, trace_200 = run_capped(tmp_path, "acgm", "9.5367431640625e-07", 200)
    calls_225, trace_225 = run_capped(tmp_path, "acgm", "9.5367431640625e-07", 225)
    assert calls_200 == calls_225 == 134
    assert trace_225 == trace_200


def test_repetition_needs_room_for_its_judging_gradient(tmp_path):
    # the start gradient plus halving_budget(1000, 0.1) = 283 steps fill the cap of 284
    calls, _ = run_capped(tmp_path, "ogmg_repeated:1000,0.1", "1e-12", 284)
    assert calls == 1
