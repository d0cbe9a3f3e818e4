"""Scale invariance: a power-of-two rescaling of the problem rescales the run exactly.

Let c = 2**k. Two rescalings of a problem f leave every method's run the same
up to exact powers of two:
- f -> c*f, with L0, mu0 and epsilon times c: each gradient norm, f value and
  curvature estimate is c times the original one, at the same points;
- f(x) -> f(x/c), with x0 times c, L0 and mu0 over c**2 and epsilon over c:
  each gradient norm is over c, each f value the same, each curvature estimate
  over c**2, and each point c times the original one.
Every operation on the path (the step g/L, the momentum update, the decrease
test, halving_budget's L/mu, norm2) scales exactly by a power of two, so the
oracle counts and every trace column match bit for bit. Only an absolute
constant in the algorithm breaks this.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgrad import CountingOracle, LogRegSpec, Objective, QuadraticSpec, SolverConfig, StartSpec, norm2
from fastgrad.bench import METHODS, build_problem, make_start

PROBLEMS = [
    build_problem(spec)
    for spec in (QuadraticSpec((1000.0, 0.1)), QuadraticSpec((64.0, 3.0, 0.5)), LogRegSpec(40, 20, 0.01, 3))
]
MAX_GRAD_CALLS = 3000  # so that a run which lost the invariance cannot run long


def outer(objective: Objective, c: float) -> Objective:
    """c * f."""
    return Objective(objective.dim, lambda x: c * objective.value(x), lambda x: c * objective.gradient(x))


def inner(objective: Objective, c: float) -> Objective:
    """f(x / c)."""
    return Objective(objective.dim, lambda x: objective.value(x / c), lambda x: objective.gradient(x / c) / c)


def solve(method, objective, x0, L0, mu0, epsilon):
    """The run's trace, best point and converged flag, or the type of the error that ended it."""
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = MAX_GRAD_CALLS
    cfg = SolverConfig(epsilon=epsilon, L0=L0, mu0=mu0)
    try:
        result = METHODS[method].solve(oracle, x0, cfg, 40)
    except RuntimeError as exc:
        return type(exc)
    return result.trace.events, result.best_point, result.converged


def times(value, factor):
    return None if value is None else value * factor


def scaled(run, grad, f, curvature, point):
    """run with each gradient norm, f value, curvature estimate and point multiplied by the given factor."""
    if isinstance(run, type):
        return run
    events, best_point, converged = run
    events = [
        ev._replace(
            grad_norm=ev.grad_norm * grad,
            f_value=times(ev.f_value, f),
            mu_estimate=times(ev.mu_estimate, curvature),
            L_estimate=times(ev.L_estimate, curvature),
        )
        for ev in events
    ]
    return events, best_point * point, converged


def assert_same(actual, expected):
    if isinstance(expected, type):
        assert actual is expected
        return
    assert actual[0] == expected[0]
    np.testing.assert_array_equal(actual[1], expected[1], strict=True)
    assert actual[2] == expected[2]


@pytest.mark.parametrize("method", list(METHODS))
@given(
    problem=st.sampled_from(PROBLEMS),
    seed=st.integers(0, 2**32),
    k=st.integers(-8, 8).filter(bool),
    l0_factor=st.sampled_from([1.0, 64.0]),
)
@settings(max_examples=4, deadline=None)
def test_power_of_two_rescaling_rescales_the_run_exactly(method, problem, seed, k, l0_factor):
    c = 2.0**k
    objective = problem.objective()
    x0 = make_start(StartSpec("gaussian", seed), problem.dim)
    L0 = l0_factor * problem.known_L
    # the known-constants baseline runs at the true mu; the others start their estimate at L0
    mu0 = problem.known_mu if METHODS[method].trusts_mu0 else L0
    epsilon = 2.0**-20 * norm2(objective.gradient(x0))
    original = solve(method, objective, x0, L0, mu0, epsilon)

    times_c = solve(method, outer(objective, c), x0, c * L0, c * mu0, c * epsilon)
    assert_same(times_c, scaled(original, grad=c, f=c, curvature=c, point=1.0))

    stretched = solve(method, inner(objective, c), c * x0, L0 / c**2, mu0 / c**2, epsilon / c)
    assert_same(stretched, scaled(original, grad=1 / c, f=1.0, curvature=1 / c**2, point=c))
