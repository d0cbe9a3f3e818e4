import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import counting_objective
from fastgrad import (
    BudgetExhausted,
    CountingOracle,
    NonFiniteError,
    Objective,
    QuadraticProblem,
    SolverConfig,
    acgm,
    algm,
    as_vector,
    check_gradient,
    gen_logreg,
    norm2,
    ogmg_repeated,
    ugm,
)

vectors = arrays(
    np.float64,
    st.integers(1, 12),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def test_norm2_pythagorean():
    assert norm2(np.array([3.0, 4.0])) == pytest.approx(5.0, rel=1e-15)


def test_norm2_zero_vector():
    assert norm2(np.zeros(7)) == 0.0
    assert norm2(np.array([0.0, 1e-300])) > 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_norm2_rescales_without_warning(scale):
    # the squared sum over- or underflows; the rescaled norm is exact
    assert norm2(np.array([scale, scale])) == scale * np.sqrt(2.0)


def test_norm2_four_ones():
    assert norm2(np.ones(4)) == pytest.approx(2.0, rel=1e-15)


def dot_norm2(x):
    """norm2 as written on np.dot, whose overflow warning an errstate silenced: the reference."""
    with np.errstate(over="ignore"):
        s = float(np.sqrt(np.dot(x, x)))
    if 0.0 < s < math.inf:
        return s
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    z = x / scale
    return scale * float(np.sqrt(np.dot(z, z)))


@given(
    dim=st.sampled_from([*range(40), 100, 1000, 3000, 10_000]),
    seed=st.integers(0, 2**32 - 1),
    low=st.integers(-1100, 1024),
    span=st.integers(0, 2100),
    stride=st.sampled_from([1, 2, 3]),
)
@settings(max_examples=300, deadline=None)
def test_norm2_matches_the_dot_formula_bit_for_bit(dim, seed, low, span, stride):
    # entries from subnormals to overflowing squares, contiguous and strided; no warning fires
    rng = np.random.default_rng(seed)
    size = dim * stride
    x = np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(low, min(low + span, 1024) + 1, size))[::stride]
    assert norm2(x) == dot_norm2(x)


@given(vectors, st.floats(-1e3, 1e3, allow_nan=False))
def test_norm2_absolute_homogeneity(x, a):
    assert norm2(a * x) == pytest.approx(abs(a) * norm2(x), rel=1e-12, abs=1e-12)


@given(
    arrays(
        np.float64,
        st.tuples(st.just(2), st.integers(1, 12)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    )
)
def test_norm2_triangle_inequality(pair):
    x, y = pair
    lhs = norm2(x + y)
    rhs = norm2(x) + norm2(y)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


def test_as_vector_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        as_vector([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        as_vector([np.inf])


def test_as_vector_rejects_matrices():
    with pytest.raises(ValueError):
        as_vector(np.ones((2, 2)))


def test_as_vector_promotes_a_scalar():
    assert np.array_equal(as_vector(3.0), np.array([3.0]))


def test_oracle_counts_each_evaluation():
    obj, calls = counting_objective([2.0, 0.5])
    oracle = CountingOracle(obj)
    x = np.array([1.0, -1.0])
    oracle.value(x)
    oracle.value(x)
    oracle.gradient(x)
    assert (oracle.value_calls, oracle.grad_calls) == (2, 1)
    assert (calls["value"], calls["grad"]) == (2, 1)


def test_oracle_gradient_past_cap_raises_without_evaluating():
    # the drivers reserve first; this backstop is what direct API callers reach
    obj, calls = counting_objective([2.0, 0.5])
    oracle = CountingOracle(obj)
    oracle.max_grad_calls = 2
    x = np.array([1.0, -1.0])
    oracle.gradient(x)
    oracle.gradient(x)
    with pytest.raises(BudgetExhausted, match="all 2 gradients spent"):
        oracle.gradient(x)
    assert (oracle.grad_calls, calls["grad"]) == (2, 2)


def test_oracle_aborts_on_non_finite_value():
    obj = Objective(dim=1, value=lambda x: float("nan"), gradient=lambda x: np.zeros(1))
    oracle = CountingOracle(obj)
    with pytest.raises(NonFiniteError):
        oracle.value(np.zeros(1))


def test_oracle_aborts_on_non_finite_gradient():
    obj = Objective(dim=1, value=lambda x: 0.0, gradient=lambda x: np.array([np.inf]))
    oracle = CountingOracle(obj)
    with pytest.raises(NonFiniteError):
        oracle.gradient(np.zeros(1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("dim", [1, 2, 3000])
def test_oracle_rejects_one_non_finite_gradient_entry(dim, where, bad):
    g = np.ones(dim)
    g[{"first": 0, "middle": dim // 2, "last": dim - 1}[where]] = bad
    oracle = CountingOracle(Objective(dim=dim, value=lambda x: 0.0, gradient=lambda x: g))
    with pytest.raises(NonFiniteError):
        oracle.gradient(np.zeros(dim))


@pytest.mark.parametrize("dim", [1, 2, 3000])
def test_oracle_accepts_huge_finite_gradient_without_warning(dim):
    # a squared-norm test would overflow here; the finiteness check must not
    g = np.full(dim, 1e308)
    oracle = CountingOracle(Objective(dim=dim, value=lambda x: 0.0, gradient=lambda x: g))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.gradient(np.zeros(dim)) is g


@pytest.mark.parametrize("driver", ["acgm", "algm", "ugm", "repeated"])
def test_trace_counters_equal_true_evaluations(driver):
    # an instrumented objective counts independently of the oracle
    obj, calls = counting_objective([1000.0, 0.1])
    oracle = CountingOracle(obj)
    x0 = np.array([1.0, 1.0])
    g0 = norm2(obj.gradient(x0))
    calls["grad"] -= 1  # the sizing evaluation above is not solver work
    cfg = SolverConfig(epsilon=g0 / 2**10, L0=1000.0)
    if driver == "acgm":
        result = acgm(oracle, x0, 1000.0, cfg)
    elif driver == "algm":
        result = algm(oracle, x0, cfg)
    elif driver == "ugm":
        result = ugm(oracle, x0, cfg)
    else:
        result = ogmg_repeated(oracle, x0, 1000.0, 0.1, cfg.epsilon)
    assert result.converged
    assert oracle.value_calls == calls["value"]
    assert oracle.grad_calls == calls["grad"]
    last = result.trace.events[-1]
    assert (last.value_calls, last.grad_calls) == (calls["value"], calls["grad"])


def test_trace_counters_monotone():
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    oracle = CountingOracle(p.objective())
    x0 = np.array([1.0, 1.0])
    cfg = SolverConfig(epsilon=1e-4, L0=1000.0)
    result = algm(oracle, x0, cfg)
    events = result.trace.events
    for prev, cur in zip(events, events[1:]):
        assert cur.value_calls >= prev.value_calls
        assert cur.grad_calls >= prev.grad_calls


def test_check_gradient_quadratic():
    p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
    obj = p.objective()
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.normal(size=2) * 3
        assert check_gradient(obj, x) <= 1e-6


def test_check_gradient_exact_for_affine():
    # differences are exact for affine f; evaluate where rounding noise in
    # f itself stays below the 1e-10 budget
    c = np.array([2.0, -3.0, 0.5])
    obj = Objective(dim=3, value=lambda x: float(np.dot(c, x)), gradient=lambda x: c)
    assert check_gradient(obj, np.zeros(3)) <= 1e-10
    assert check_gradient(obj, np.array([0.01, 0.02, -0.01])) <= 1e-10


def test_check_gradient_logreg():
    p = gen_logreg(30, 10, 1.0, seed=3)
    obj = p.objective()
    rng = np.random.default_rng(11)
    for _ in range(5):
        assert check_gradient(obj, rng.normal(size=10)) <= 1e-5


def test_check_gradient_rejects_non_finite_values():
    obj = Objective(dim=1, value=lambda x: float("inf"), gradient=lambda x: np.zeros(1))
    with pytest.raises(NonFiniteError):
        check_gradient(obj, np.zeros(1))


def test_check_gradient_rejects_wrong_gradient_shape():
    obj = Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.zeros(3))
    with pytest.raises(ValueError, match=r"gradient shape \(3,\) does not match x \(2,\)"):
        check_gradient(obj, np.zeros(2))
