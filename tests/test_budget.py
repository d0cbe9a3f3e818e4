"""The gradient budget is a hard cap, enforced by the oracle for every driver.

Random drivers, objectives (smooth, non-smooth, non-convex and inconsistent)
and constants: whatever happens, no driver spends a gradient past the cap,
value calls stay within 2 * grad_calls + 61, and no momentum schedule is
built for more steps than the budget has left.
"""

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
    """Run driver under cap; return the oracle and the (N, room left) of every schedule."""
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = cap
    schedules = []
    make_schedule = ogmg.make_schedule

    def recording(N):
        schedules.append((N, oracle.max_grad_calls - oracle.grad_calls))
        return make_schedule(N)

    with mock.patch.object(ogmg, "make_schedule", recording), np.errstate(all="ignore"):
        try:
            DRIVERS[driver](oracle, x0, cfg)
        except ABORTS:
            pass
    return oracle, schedules


def assert_within_budget(oracle, schedules, cap):
    assert oracle.grad_calls <= cap
    assert oracle.value_calls <= 2 * oracle.grad_calls + 61
    assert all(N <= room for N, room in schedules)


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
    oracle, schedules = run_within_budget(driver, OBJECTIVES[objective](dim, L), x0, cfg, cap)
    assert_within_budget(oracle, schedules, cap)


@pytest.mark.parametrize("driver", ["acgm", "algm", "ogmg_repeated"])
def test_ill_conditioned_run_stops_at_the_cap(driver):
    # one ogmg_repeated repetition alone is halving_budget(1e6, 1e-3) = 89443 steps
    objective = QuadraticProblem(diag=np.array([1e6, 1e-3])).objective()
    cfg = SolverConfig(epsilon=1e-12, L0=1e6, mu0=1e-3 if driver == "ogmg_repeated" else None)
    oracle, schedules = run_within_budget(driver, objective, np.ones(2), cfg, 1000)
    assert_within_budget(oracle, schedules, 1000)
