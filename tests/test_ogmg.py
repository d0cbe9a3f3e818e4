import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_quadratic
from fastgrad import (
    CountingOracle,
    NonFiniteError,
    Objective,
    QuadraticProblem,
    halving_budget,
    make_schedule,
    norm2,
    ogmg_run,
)
from fastgrad import ogmg
from fastgrad.ogmg import _momentum_pass


def check_schedule_invariants(s):
    theta = s.theta
    N = s.beta_coef.size
    assert theta[N] == 1.0
    assert np.all(theta >= 1.0)
    assert np.all(np.diff(theta) <= 0.0)
    for i in range(1, N):
        residual = theta[i] ** 2 - theta[i] - theta[i + 1] ** 2
        assert abs(residual) <= 1e-12 * theta[i] ** 2
    if N >= 1:
        residual = theta[0] ** 2 - theta[0] - 2.0 * theta[1] ** 2
        assert abs(residual) <= 1e-12 * theta[0] ** 2
    assert np.all(s.gamma_coef > 0.0)
    assert np.all(s.gamma_coef <= 1.0)
    assert np.all(s.beta_coef >= 0.0)


def test_schedule_budget_one_exact():
    s = make_schedule(1)
    assert s.theta.tolist() == [2.0, 1.0]
    assert s.beta_coef[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert s.gamma_coef[0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_schedule_budget_two_values():
    s = make_schedule(2)
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert s.theta[1] == pytest.approx(golden, rel=1e-15)
    assert s.theta[0] == pytest.approx((1.0 + math.sqrt(1.0 + 8.0 * golden**2)) / 2.0, rel=1e-15)
    assert s.theta[0] == pytest.approx(2.8422354364, abs=1e-6)
    check_schedule_invariants(s)


@given(st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_schedule_invariants_hold(n):
    check_schedule_invariants(make_schedule(n))


def test_schedule_invariants_full_range():
    for n in range(1, 501):
        check_schedule_invariants(make_schedule(n))


def numpy_scalar_schedule(N):
    # make_schedule's earlier theta loop, over numpy scalars: the reference for its Python-float loop
    theta = np.ones(N + 1)
    for i in range(N - 1, 0, -1):
        theta[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta[i + 1] ** 2))
    theta[0] = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * theta[1] ** 2))
    head, tail = theta[:-1], theta[1:]
    beta = (head - 1.0) * (2.0 * tail - 1.0) / (head * (2.0 * head - 1.0))
    gamma = (2.0 * tail - 1.0) / (2.0 * head - 1.0)
    return theta, beta, gamma


@pytest.mark.parametrize("budgets", [range(1, 401), [725, 1000, 5793, 100_000]], ids=["1-400", "large"])
def test_schedule_is_bit_equal_to_the_numpy_scalar_loop(budgets):
    for N in budgets:
        s = make_schedule(N)
        for got, want in zip((s.theta, s.beta_coef, s.gamma_coef), numpy_scalar_schedule(N)):
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), N


def test_schedule_rejects_zero_budget():
    with pytest.raises(ValueError):
        make_schedule(0)


def test_schedule_is_cached_per_budget():
    assert make_schedule(17) is make_schedule(17)
    assert not make_schedule(17).theta.flags.writeable


def test_halving_budget_values():
    assert halving_budget(1000.0, 0.1) == 283
    assert halving_budget(1.0, 1.0) == 3
    assert halving_budget(2.0, 1.0) == 4
    assert halving_budget(2.0**1023, 2.0**1023) == 3  # 2L overflows, L/mu does not


positive_floats = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@given(positive_floats, positive_floats)
@settings(max_examples=200, deadline=None)
def test_halving_budget_is_power_of_two_invariant(L, mu):
    # c = 2**k scales L and mu exactly while both stay finite and neither drops
    # into the subnormals (frexp's exponent e puts x in [2**(e-1), 2**e))
    (_, e_L), (_, e_mu) = math.frexp(L), math.frexp(mu)
    lowest = min(0, -1021 - min(e_L, e_mu))
    highest = 1024 - max(e_L, e_mu)
    n = halving_budget(L, mu)
    assert all(halving_budget(math.ldexp(L, k), math.ldexp(mu, k)) == n for k in range(lowest, highest + 1))


@given(positive_floats, positive_floats)
@settings(max_examples=200, deadline=None)
def test_halving_budget_where_2L_is_finite_is_the_doubled_ratios(L, mu):
    # ceil(2*sqrt(2*L/mu)) with 2*L formed first, where that product is finite
    if 2.0 * L < math.inf:
        assert halving_budget(L, mu) == max(1, math.ceil(min(2.0 * math.sqrt(2.0 * L / mu), sys.float_info.max)))


@pytest.mark.parametrize("L,mu", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (math.inf, 1.0), (1.0, math.nan)])
def test_halving_budget_rejects_bad_inputs(L, mu):
    with pytest.raises(ValueError):
        halving_budget(L, mu)


def test_halving_budget_never_below_one():
    assert halving_budget(1.0, 1e12) == 1


def test_one_dim_quadratic_single_step():
    # exact step lands y at the minimizer; the momentum combination leaves
    # x_1 = -(beta_0 + gamma_0) * x0 = -x0/2
    p = QuadraticProblem(diag=np.array([1.0]))
    oracle = CountingOracle(p.objective())
    out = ogmg_run(oracle, np.array([5.0]), 1.0, 1)
    assert out[0] == pytest.approx(-2.5, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 10, 57])
def test_exact_gradient_budget_no_values(n):
    p = QuadraticProblem(diag=np.array([3.0, 1.0, 0.5]))
    oracle = CountingOracle(p.objective())
    ogmg_run(oracle, np.array([1.0, -2.0, 0.5]), 3.0, n)
    assert oracle.grad_calls == n
    assert oracle.value_calls == 0


def test_final_norm_guarantee_random_quadratics():
    rng = np.random.default_rng(314)
    for _ in range(200):
        p = sample_quadratic(rng)
        obj = p.objective()
        x0 = rng.normal(size=p.dim) * 3.0
        f0 = obj.value(x0)
        for n in (1, 5, 50):
            out = ogmg_run(CountingOracle(obj), x0, p.known_L, n)
            gsq = float(np.dot(obj.gradient(out), obj.gradient(out)))
            assert gsq <= 4.0 * p.known_L * f0 / n**2 * (1 + 1e-9) + 1e-300


def test_value_gap_guarantee_random_quadratics():
    # f(x_N) - f* <= L |x0 - x*|^2 / N^2 with x* = 0
    rng = np.random.default_rng(2718)
    for _ in range(100):
        p = sample_quadratic(rng)
        obj = p.objective()
        x0 = rng.normal(size=p.dim) * 2.0
        for n in (1, 5, 50):
            out = ogmg_run(CountingOracle(obj), x0, p.known_L, n)
            gap = obj.value(out)
            bound = p.known_L * float(np.dot(x0, x0)) / n**2
            assert gap <= bound * (1 + 1e-9) + 1e-300


def scalar_reference_run(diag, x0, L, n):
    # independent oracle: on a diagonal quadratic each coordinate follows its
    # own scalar recurrence; same IEEE operations, no arrays involved
    sched = make_schedule(n)
    out = []
    for d, start in zip(diag, x0):
        inv_L = 1.0 / L
        x = float(start)
        y = x
        for i in range(n):
            g = d * x
            y_next = x - inv_L * g
            x = y_next + float(sched.beta_coef[i]) * (y_next - y) + float(
                sched.gamma_coef[i]
            ) * (y_next - x)
            y = y_next
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 7, 40])
def test_matches_independent_scalar_recurrence(n):
    diag = np.array([1000.0, 0.1, 3.7])
    p = QuadraticProblem(diag=diag)
    x0 = np.array([1.0, -2.0, 0.25])
    got = ogmg_run(CountingOracle(p.objective()), x0, 1000.0, n)
    want = scalar_reference_run(diag, x0, 1000.0, n)
    assert np.array_equal(got, want)


def test_halving_on_ill_conditioned_quadratic():
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    obj = p.objective()
    x0 = np.array([1.0, 1.0])
    n = halving_budget(p.known_L, p.known_mu)
    out = ogmg_run(CountingOracle(obj), x0, p.known_L, n)
    assert norm2(obj.gradient(out)) <= 0.5 * norm2(obj.gradient(x0))


def test_rejects_bad_L_and_budget():
    p = QuadraticProblem(diag=np.array([1.0]))
    oracle = CountingOracle(p.objective())
    with pytest.raises(ValueError):
        ogmg_run(oracle, np.array([1.0]), 0.0, 1)
    with pytest.raises(ValueError):
        ogmg_run(oracle, np.array([1.0]), 1.0, 0)


def test_iterate_probe_sees_every_iterate():
    p = QuadraticProblem(diag=np.array([2.0, 1.0]))
    oracle = CountingOracle(p.objective())
    seen = []
    ogmg_run(oracle, np.array([1.0, 1.0]), 2.0, 7, iterate_probe=lambda x, g: seen.append((x.copy(), g.copy())))
    assert len(seen) == 7
    first_x, first_g = seen[0]
    assert np.array_equal(first_x, [1.0, 1.0])
    assert np.array_equal(first_g, [2.0, 1.0])


@pytest.mark.parametrize("N", [1, 2, 5])
def test_non_finite_iterate_aborts(N):
    # a constant gradient never sees the iterate, so only the pass's own check can stop it
    c = np.array([1e300])
    flat = Objective(dim=1, value=lambda x: float(c @ x), gradient=lambda x: c)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError):
        ogmg_run(CountingOracle(flat), np.zeros(1), 1e-10, N)


@pytest.mark.parametrize("n", [1, 3, 12])
def test_momentum_pass_never_writes_arrays_it_handed_out(n):
    # callers keep references to the iterates (best_point, iterate probes), so
    # the update must build each x_{i+1} in fresh arrays; the step stores what
    # it sees and returns by reference, next to snapshot copies
    held = []

    def keep(a):
        held.append((a, a.copy()))
        return a

    def step(_i, x):
        keep(x)
        return keep(x - 0.25 * x + 0.5)

    x0 = np.array([1.0, -2.0, 0.25])
    out = _momentum_pass(keep(x0), n, step)
    assert len(held) == 2 * n + 1  # x0, then each x_i and y_{i+1}
    assert all(out is not a for a, _ in held)
    for a, snapshot in held:
        assert np.array_equal(a, snapshot)


def same_bits(a, b):
    """Equal bit for bit, except that any NaN matches any NaN: a pass that makes one raises."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def scripted_pass(x0, N, script, give_up, vector_min):
    """_momentum_pass under _VECTOR_MIN = vector_min, with the step y = a_i * x + s_i.

    Returns the outcome (the returned point, None or "non-finite") and, per step, the
    iterate it was handed, a snapshot of it and the step's result."""
    seen = []

    def step(i, x):
        if i == give_up:
            return None
        a, s = script[i]
        y = x * a + s
        seen.append((x, x.copy(), y))
        return y

    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(ogmg, "_VECTOR_MIN", vector_min)
        try:
            out = _momentum_pass(x0, N, step)
        except NonFiniteError:
            out = "non-finite"
    return out, seen


@given(
    dim=st.integers(1, 2 * ogmg._VECTOR_MIN),
    N=st.integers(1, 40),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_float_and_array_updates_agree_bit_for_bit(dim, N, data):
    x0 = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)))
    plain = st.floats(-2.0, 2.0)
    script = data.draw(st.lists(st.tuples(plain, plain), min_size=N, max_size=N))
    if data.draw(st.booleans()):  # a huge a_i or s_i overflows the iterate to inf and then NaN, or nearly
        huge = st.sampled_from([1e300, -1e300, 1e155, 3e307])
        script[data.draw(st.integers(0, N - 1))] = data.draw(st.tuples(huge, plain | huge))
    give_up = data.draw(st.integers(0, N - 1)) if data.draw(st.sampled_from([False, False, True])) else None
    by_array = scripted_pass(x0, N, script, give_up, vector_min=0)
    by_floats = scripted_pass(x0, N, script, give_up, vector_min=dim + 1)
    (out_a, seen_a), (out_f, seen_f) = by_array, by_floats
    assert len(seen_a) == len(seen_f)
    for (xa, _, _), (xf, _, _) in zip(seen_a, seen_f):
        assert same_bits(xa, xf)
    if isinstance(out_a, np.ndarray):
        assert isinstance(out_f, np.ndarray) and out_a.tobytes() == out_f.tobytes()
    else:
        assert out_a == out_f  # both gave up (None), or both raised NonFiniteError
    for out, seen in (by_array, by_floats):
        handed = []
        for i, (x, snapshot, y) in enumerate(seen):
            # x0 first, then each x_i in memory no earlier iterate or step result uses
            assert x is x0 if i == 0 else not any(np.shares_memory(x, a) for a in handed)
            assert same_bits(x, snapshot)  # never written after it was handed out
            handed += [x, y]
        if isinstance(out, np.ndarray):
            assert not any(np.shares_memory(out, a) for a in handed)
