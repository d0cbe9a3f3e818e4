import math
import sys
import warnings

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
from fastgrad.ogmg import StalledIterate, _decrease_step, _doubled


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
    # L_in * 2**60 is inf; the 29th doubling stops at the largest float, and the 30th raises
    oracle = CountingOracle(LYING)
    with pytest.raises(RunawayLipschitzError, match="is the largest float and cannot double"):
        ogmgl_run(oracle, np.zeros(1), 1e300, 3)
    assert oracle.grad_calls == 30


def test_doubling_stops_at_the_largest_float():
    assert _doubled(2.0**1022, 2.0**1000) == 2.0**1023
    assert _doubled(2.0**1023, 1e300) == sys.float_info.max
    with pytest.raises(RunawayLipschitzError, match="is the largest float"):
        _doubled(sys.float_info.max, 1e300)
    with pytest.raises(RunawayLipschitzError, match="exceeded"):
        _doubled(2.0**1023, 1.0)


# flat values and a tiny gradient: every trial step g/L vanishes against x = 1
FLAT = Objective(dim=1, value=lambda x: 1.0, gradient=lambda x: np.full(1, 1e-30))


def test_non_step_raises_the_stalled_iterate():
    # the pass does not judge the iterate; the restart driver does (test_drivers)
    oracle = CountingOracle(FLAT)
    x0 = np.ones(1)
    with pytest.raises(StalledIterate, match="left the iterate unchanged") as stall:
        ogmgl_run(oracle, x0, 2.0, 3)
    assert np.array_equal(stall.value.x, x0)
    assert (stall.value.grad_norm, stall.value.L) == (1e-30, 1.0)
    assert (oracle.grad_calls, oracle.value_calls) == (1, 2)


def test_gradient_whose_square_overflows_is_judged_without_squaring():
    # |g|**2 = 1e400 overflows; the test takes its decrease as |g| / L / 2 * |g|, and the
    # restart reports |g| itself, without an overflow warning
    oracle = CountingOracle(QuadraticProblem(diag=np.array([1e200, 1.0])).objective())
    norms = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ogmgl_run(oracle, np.ones(2), 1e200, 3, on_restart=lambda x, g, f, L: norms.append(g))
    # at L_in/2 and at L_in, f(x) - 5e199 rounds to 0 < f(y) = 0.5: two doublings, as without overflow
    assert norms == [1e200, 1e200]
    assert out.L_end == 2e200 and out.inner_restarts == 2


def test_gradient_whose_square_underflows_reports_its_norm():
    # |g|**2 = 1e-340 underflows to 0; each restart still reports |g|, not sqrt(0)
    tiny = Objective(dim=1, value=lambda x: float(-x[0]), gradient=lambda x: np.full(1, 1e-170))
    norms = []
    with pytest.raises(RunawayLipschitzError):
        ogmgl_run(CountingOracle(tiny), np.zeros(1), 1.0, 3, on_restart=lambda x, g, f, L: norms.append(g))
    assert norms == [1e-170] * 61


def test_decrease_where_2L_overflows_rejects_a_step_below_the_curvature():
    # at L = 2**1023 < 1e308 the drop |g| / L / 2 * |g| = 5.6e307 exceeds f(1) = 5e307, so the
    # step to 1 - 1e308 / 2**1023 = -0.113 fails; a drop over 2L = inf would be 0 and accept it
    oracle = CountingOracle(QuadraticProblem(diag=np.array([1e308])).objective())
    x = np.ones(1)
    f_x, g = oracle.value(x), oracle.gradient(x)
    assert _decrease_step(oracle, x, f_x, g, float(np.vdot(g, g)), 2.0**1023, 2.0**1023) is None


def test_rejects_bad_inputs():
    p = QuadraticProblem(diag=np.array([1.0]))
    oracle = CountingOracle(p.objective())
    with pytest.raises(ValueError):
        ogmgl_run(oracle, np.array([1.0]), -1.0, 3)
    with pytest.raises(ValueError):
        ogmgl_run(oracle, np.array([1.0]), 1.0, 0)
