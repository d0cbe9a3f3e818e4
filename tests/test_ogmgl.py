import math

import numpy as np
import pytest

from fastgrad import (
    CountingOracle,
    Objective,
    QuadraticProblem,
    RunawayLipschitzError,
    make_schedule,
    ogmgl_run,
)


def run_with_step_checks(oracle, x0, L_in, n, **kwargs):
    margins = []

    def probe(i, f_x, g_sq, f_y, L_hat):
        margins.append(f_x - g_sq / (2.0 * L_hat) - f_y)

    out = ogmgl_run(oracle, x0, L_in, n, step_probe=probe, **kwargs)
    return out, margins


def scalar_reference_ogmgl(diag, x0, L_in, n):
    # independent oracle for ogmgl_run on a diagonal quadratic: every
    # coordinate follows its own scalar recurrence with the same IEEE
    # operations; f and |g|^2 are summed in plain Python, which can differ
    # from a BLAS dot in the last bit, far below the decrease test's margins
    sched = make_schedule(n)
    beta, gamma = sched.beta_coef.tolist(), sched.gamma_coef.tolist()

    def f(v):
        return 0.5 * sum(d * (c * c) for d, c in zip(diag, v))

    L_hat, restarts, values, grads = L_in / 2.0, 0, 0, 0
    while True:
        x = [float(c) for c in x0]
        y = list(x)
        for i in range(n):
            g = [d * c for d, c in zip(diag, x)]
            g_sq = sum(c * c for c in g)
            y_next = [c - gc / L_hat for c, gc in zip(x, g)]
            values, grads = values + 2, grads + 1
            if f(y_next) > f(x) - g_sq / (2.0 * L_hat):
                restarts += 1
                L_hat *= 2.0
                break
            x = [
                yn + beta[i] * (yn - yp) + gamma[i] * (yn - xc)
                for yn, yp, xc in zip(y_next, y, x)
            ]
            y = y_next
        else:
            return x, L_hat, restarts, values, grads


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("L_in", [10.0, 300.0])
def test_matches_independent_scalar_recurrence(n, L_in):
    diag = [1000.0, 0.1, 3.7]
    x0 = np.array([1.0, -2.0, 0.25])
    oracle = CountingOracle(QuadraticProblem(diag=np.array(diag)).objective())
    out = ogmgl_run(oracle, x0, L_in, n)
    x_ref, L_ref, restarts_ref, values_ref, grads_ref = scalar_reference_ogmgl(diag, x0, L_in, n)
    assert restarts_ref >= 1
    assert np.array_equal(out.x_final, np.array(x_ref))
    assert (out.L_end, out.inner_restarts) == (L_ref, restarts_ref)
    assert (oracle.value_calls, oracle.grad_calls) == (values_ref, grads_ref)


def test_exact_quadratic_identity_keeps_estimate():
    # f = x^2/2 with estimate 1 after the entry halving of L_in = 2:
    # f(y) = f(x) - |g|^2/2 holds with equality at every step
    p = QuadraticProblem(diag=np.array([1.0]))
    oracle = CountingOracle(p.objective())
    out, margins = run_with_step_checks(oracle, np.array([3.0]), 2.0, 5)
    assert out.L_end == 1.0
    assert out.inner_restarts == 0
    assert all(m >= 0.0 for m in margins)


def test_entry_halving_recovers_true_constant():
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    oracle = CountingOracle(p.objective())
    out, margins = run_with_step_checks(oracle, np.array([1.0, 1.0]), 2000.0, 10)
    assert 1000.0 <= out.L_end <= 2000.0
    assert out.inner_restarts <= 1
    assert all(m >= 0.0 for m in margins)


def test_severe_underestimate_doubles_to_at_most_twice_true():
    p = QuadraticProblem(diag=np.array([1e5, 1.0]))
    oracle = CountingOracle(p.objective())
    out, margins = run_with_step_checks(oracle, np.array([1.0, 1.0]), 10.0, 8)
    assert out.L_end <= 2.0 * 1e5
    assert all(m >= 0.0 for m in margins)


@pytest.mark.parametrize("L_in", [1.0, 7.0, 500.0, 1000.0, 4096.0])
def test_estimate_ratio_is_power_of_two(L_in):
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    oracle = CountingOracle(p.objective())
    out = ogmgl_run(oracle, np.array([0.3, -1.2]), L_in, 6)
    assert out.L_end >= L_in / 2.0
    ratio = out.L_end / (L_in / 2.0)
    assert math.log2(ratio).is_integer()
    assert ratio == 2.0**out.inner_restarts


def test_per_attempt_oracle_cost():
    # every pass between doublings costs at most N gradients and 2N values
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    oracle = CountingOracle(p.objective())
    n = 6
    marks = []

    def on_restart(x, g_norm, f_x, L_new):
        marks.append((oracle.value_calls, oracle.grad_calls))

    out = ogmgl_run(oracle, np.array([1.0, 1.0]), 1.0, n, on_restart=on_restart)
    assert out.inner_restarts == len(marks) > 0
    prev_v, prev_g = 0, 0
    for v, g in marks + [(oracle.value_calls, oracle.grad_calls)]:
        assert g - prev_g <= n
        assert v - prev_v <= 2 * n
        prev_v, prev_g = v, g


# value decreases along x while the reported gradient points up: the
# sufficient-decrease test fails at every scale
LYING = Objective(dim=1, value=lambda x: float(-x[0]), gradient=lambda x: np.ones(1))


def test_runaway_estimate_aborts():
    oracle = CountingOracle(LYING)
    with pytest.raises(RunawayLipschitzError):
        ogmgl_run(oracle, np.zeros(1), 1.0, 3)


def test_runaway_limit_holds_where_its_product_overflows():
    # L_in * 2**60 is inf; the estimate itself overflows after 28 doublings
    oracle = CountingOracle(LYING)
    with pytest.raises(RunawayLipschitzError, match="exceeded"):
        ogmgl_run(oracle, np.zeros(1), 1e300, 3)
    assert oracle.grad_calls == 29


# flat values and a tiny gradient: every trial step g/L vanishes against x = 1
FLAT = Objective(dim=1, value=lambda x: 1.0, gradient=lambda x: np.full(1, 1e-30))


@pytest.mark.parametrize("target", [0.0, 9e-31])
def test_non_step_above_target_aborts(target):
    with pytest.raises(RunawayLipschitzError, match="left the iterate unchanged"):
        ogmgl_run(CountingOracle(FLAT), np.ones(1), 2.0, 3, target=target)


def test_non_step_at_target_returns_the_iterate():
    oracle = CountingOracle(FLAT)
    x0 = np.ones(1)
    out = ogmgl_run(oracle, x0, 2.0, 3, target=1e-30)
    assert np.array_equal(out.x_final, x0)
    assert (out.L_end, out.inner_restarts) == (1.0, 0)
    assert (oracle.grad_calls, oracle.value_calls) == (1, 2)


def test_rejects_bad_inputs():
    p = QuadraticProblem(diag=np.array([1.0]))
    oracle = CountingOracle(p.objective())
    with pytest.raises(ValueError):
        ogmgl_run(oracle, np.array([1.0]), -1.0, 3)
    with pytest.raises(ValueError):
        ogmgl_run(oracle, np.array([1.0]), 1.0, 0)
