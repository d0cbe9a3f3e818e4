"""Fixed-budget accelerated gradient method tuned for the final gradient norm.

``ogmg_run`` executes a prescribed number N of steps with momentum
coefficients derived from a backward recurrence; it needs no function
values. ``ogmgl_run`` wraps the same iteration with an on-the-fly
smoothness estimate validated by a sufficient-decrease test.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import CountingOracle, NonFiniteError, Vector, _all_finite, _positive, norm2, start_vector

# Callback signatures:
#   iterate probe: (x_i, grad_at_x_i) before each step
#   restart callback: (x_bad, grad_norm, f_at_x_bad, L_after_doubling)
#   step probe: (i, f_x, grad_sq, f_y, L_current) after each accepted step
#   gradient step: (i, x_i) -> y_{i+1}, or None to abandon the pass
IterateProbe = Callable[[Vector, Vector], None]
RestartCallback = Callable[[Vector, float, float, float], None]
StepProbe = Callable[[int, float, float, float, float], None]
GradientStep = Callable[[int, Vector], Optional[Vector]]

_VECTOR_MIN = 14  # below this many entries the momentum update on Python floats is faster


class RunawayLipschitzError(RuntimeError):
    """The smoothness estimate doubled past any plausible value, or steps g/L vanish against x.

    Indicates a non-smooth objective, an inconsistent value/gradient pair, or
    an L far too large for the iterate's scale.
    """


class StalledIterate(RunawayLipschitzError):
    """At estimate L the steps g/L vanish against x, so no step moves x.

    Carries x, its gradient norm grad_norm and L. Below the value test's precision an
    x that already meets the target is converged, not stuck: the restart loop of the
    adaptive drivers, and nothing else, ends such a run converged at x.
    """

    def __init__(self, what: str, x: Vector, grad_norm: float, L: float, cause: str):
        super().__init__(what, x, grad_norm, L, cause)  # args rebuild it, so it pickles
        self.x, self.grad_norm, self.L = x, grad_norm, L

    def __str__(self) -> str:
        what, _, grad_norm, L, cause = self.args
        return f"{what} (gradient norm {grad_norm:.3e}, L {L:.3e}){cause}"


@dataclass(frozen=True)
class Schedule:
    """Momentum coefficients for a fixed budget of N gradient steps."""

    theta: np.ndarray  # N+1 entries, theta[N] == 1, non-increasing
    beta_coef: np.ndarray  # N entries
    gamma_coef: np.ndarray  # N entries, each in (0, 1]


@lru_cache(maxsize=256)
def make_schedule(N: int) -> Schedule:
    """Coefficient schedule for budget N (deterministic, cached per N).

    theta is built backward from theta[N] = 1:

        theta[i] = (1 + sqrt(1 + 4*theta[i+1]**2)) / 2   for 1 <= i < N
        theta[0] = (1 + sqrt(1 + 8*theta[1]**2)) / 2

    so theta[i]**2 - theta[i] = theta[i+1]**2 holds exactly along the way
    (with an extra factor 2 at i = 0). The step coefficients are

        beta[i]  = (theta[i] - 1) * (2*theta[i+1] - 1)
                   / (theta[i] * (2*theta[i] - 1))
        gamma[i] = (2*theta[i+1] - 1) / (2*theta[i] - 1)
    """
    if N < 1:
        raise ValueError(f"step budget must be >= 1, got {N}")
    t = [1.0] * (N + 1)  # Python floats: numpy scalars cost more than the arithmetic
    for i in range(N - 1, 0, -1):
        t[i] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t[i + 1] ** 2))
    t[0] = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * t[1] ** 2))
    theta = np.array(t)
    head, tail = theta[:-1], theta[1:]
    beta = (head - 1.0) * (2.0 * tail - 1.0) / (head * (2.0 * head - 1.0))
    gamma = (2.0 * tail - 1.0) / (2.0 * head - 1.0)
    for arr in (theta, beta, gamma):
        arr.setflags(write=False)
    return Schedule(theta=theta, beta_coef=beta, gamma_coef=gamma)


def halving_budget(L: float, mu: float) -> int:
    """Steps guaranteeing the gradient norm at least halves: ceil(2*sqrt(2*L/mu)).

    The ratio L/mu is taken before it is doubled, so that an L near the top of
    the float range does not overflow 2*L. A ratio that overflows gives the
    largest finite float, a step count no gradient budget can reserve."""
    _positive("L", L)
    _positive("mu", mu)
    return max(1, math.ceil(min(2.0 * math.sqrt(2.0 * (L / mu)), sys.float_info.max)))


def _momentum_pass(x0: Vector, N: int, gradient_step: GradientStep) -> Optional[Vector]:
    """N steps of the accelerated recurrence from x0, or None if a step gives up.

    gradient_step(i, x_i) returns the gradient point y_{i+1}; the momentum
    update x_{i+1} = y_{i+1} + beta_i (y_{i+1} - y_i) + gamma_i (y_{i+1} - x_i)
    happens here. Finiteness is checked once, on the returned iterate: as
    gamma_i > 0, an infinite iterate becomes NaN within one step (y - x is
    inf - inf) and NaN persists through the recurrence. The oracle rejects
    non-finite values and gradients at every call.

    Below _VECTOR_MIN entries x_{i+1} is a fresh array of Python floats, each
    ((y' - y_i) * beta_i + y') + ((y' - x_i) * gamma_i), y' = y_{i+1}: the array path's
    operations in order, one IEEE rounding each, the same bits without numpy's dispatch.
    """
    sched = make_schedule(N)
    beta, gamma = sched.beta_coef.tolist(), sched.gamma_coef.tolist()
    x = y = x0
    xs = ys = x0.tolist() if x0.size < _VECTOR_MIN else None
    for i in range(N):
        y_next = gradient_step(i, x)
        if y_next is None:
            return None
        if xs is not None:
            b, c, ns = beta[i], gamma[i], y_next.tolist()
            xs = [((n - v) * b + n) + ((n - u) * c) for n, v, u in zip(ns, ys, xs)]
            x, ys = np.array(xs), ns
            continue
        # the update above, same operation order, on fresh arrays: callers may hold x, y, y_next
        d = y_next - y
        d *= beta[i]
        d += y_next
        e = y_next - x
        e *= gamma[i]
        d += e
        x, y = d, y_next
    if not _all_finite(x):
        raise NonFiniteError(f"iterate became non-finite during a pass of {N} steps")
    return x


def ogmg_run(
    oracle: CountingOracle,
    x0: Vector,
    L: float,
    N: int,
    iterate_probe: Optional[IterateProbe] = None,
) -> Vector:
    """Run exactly N accelerated steps from x0 with step size 1/L.

    Performs exactly N gradient evaluations and no value evaluations; the
    returned point is the one carrying the final-gradient-norm guarantee.
    iterate_probe, when given, sees each iterate and its gradient before the
    step (any value evaluations it triggers are the caller's). Raises
    BudgetExhausted, before any step, unless N + 1 gradients fit the budget:
    the N steps and the one that judges the returned point.
    """
    _positive("L", L)
    inv_L = 1.0 / L

    def step(_i: int, x: Vector) -> Vector:
        g = oracle.gradient(x)
        if iterate_probe is not None:
            iterate_probe(x, g)
        return x - inv_L * g

    x0 = start_vector(oracle, x0)
    oracle.reserve(N + 1)
    return _momentum_pass(x0, N, step)


@dataclass(frozen=True)
class OgmglOutcome:
    """Result of one smoothness-adaptive run.

    L_end is at least L_in/2 (the entry halving is the only decrease) and
    L_end / (L_in/2) is an exact power of two; inner_restarts counts the
    doublings.
    """

    x_final: Vector
    L_end: float
    inner_restarts: int


def _doubled(L: float, L_ref: float) -> float:
    """2L, or RunawayLipschitzError once 2L / L_ref > 2**60 (a ratio that cannot overflow)."""
    L = 2.0 * L
    if L / L_ref > 2.0**60:
        raise RunawayLipschitzError(
            f"smoothness estimate {L:.3e} exceeded {L_ref:.3e} * 2**60; "
            "oracle looks non-smooth or inconsistent"
        )
    return L


def _decrease_step(
    oracle: CountingOracle, x: Vector, f_x: float, g: Vector, g_sq: float, L: float, L_first: float
) -> Optional[tuple[Vector, float]]:
    """(y, f(y)) for y = x - g/L if f(y) <= f(x) - g_sq/(2L), else None; g_sq is |g|**2,
    or inf where that overflows, and the decrease g_sq/(2L) is then taken as |g|/(2L) * |g|.

    Below the test's precision, |g| of about sqrt(2*L*ulp(f)), rounding fails it until
    g/L vanishes against x and it passes with y == x: an accepted non-step. It
    certifies no decrease and would repeat to the end of the budget, so it raises
    StalledIterate. L_first is the caller's first trial estimate; a non-step there,
    before any doubling, means the estimate was too large for x from the start."""
    y = x - g / L
    f_y = oracle.value(y)
    drop = g_sq / (2.0 * L) if g_sq < math.inf else (g_norm := norm2(g)) / (2.0 * L) * g_norm
    if f_y > f_x - drop:
        return None
    if f_y >= f_x and g_sq > 0.0 and np.array_equal(y, x):
        cause = (
            " before any doubling of L: its steps g/L vanish against x, so L looks far too large"
            if L == L_first
            else ": inconsistent value oracle, or a target below the value test's precision of "
            "about sqrt(2*L*ulp(f))"
        )
        what = f"accepted step at grad_calls={oracle.grad_calls} left the iterate unchanged"
        raise StalledIterate(what, x, norm2(g), L, cause)
    return y, f_y


def _check_moved(x: Vector, g: float, x_new: Vector, g_new: float, L: float) -> None:
    """StalledIterate at x if a pass from x (gradient norm g) at L returned x bit for bit:
    its steps g/L vanished against x, and at that L no later pass moves it either. The
    norms are compared first and the arrays only on a tie, as in _decrease_step."""
    if g_new == g and np.array_equal(x_new, x):
        cause = ": its steps g/L vanish against x, so L looks far too large"
        raise StalledIterate("a pass returned its start point", x, g, L, cause)


def ogmgl_run(
    oracle: CountingOracle,
    x0: Vector,
    L_in: float,
    N: int,
    *,
    on_restart: Optional[RestartCallback] = None,
    step_probe: Optional[StepProbe] = None,
) -> OgmglOutcome:
    """Budget-N accelerated run that tunes the smoothness estimate on the fly.

    The estimate starts at L_in/2. Each trial step y = x - g/L must pass
    _decrease_step's test f(y) <= f(x) - |g|**2 / (2*L), the one ugm uses,
    or L doubles and the whole pass restarts from x0 with the same budget
    (and the same schedule, which depends only on N). A single pass costs at
    most N gradient and 2N value calls, counted per call, not per product:
    the logistic objective computes X @ w once for each step's f(x), grad f(x)
    pair. A pass starts only if N + 1 gradients fit the oracle's budget (else
    BudgetExhausted): its N steps plus the one that judges its final point.
    Past L_in * 2**60, _doubled raises RunawayLipschitzError. An accepted step
    that leaves the iterate unchanged raises StalledIterate, which carries that
    iterate: whether it is converged is the caller's call.
    """
    _positive("L_in", L_in)
    x0 = start_vector(oracle, x0)
    L_hat = L_in / 2.0
    restarts = 0

    def step(i: int, x: Vector) -> Optional[Vector]:
        nonlocal L_hat, restarts
        f_x = oracle.value(x)
        g = oracle.gradient(x)
        g_sq = float(np.vdot(g, g))  # the same sum as g.dot(g), but no overflow warning
        accepted = _decrease_step(oracle, x, f_x, g, g_sq, L_hat, L_in / 2.0)
        if accepted is None:
            restarts += 1
            L_hat = _doubled(L_hat, L_in)
            if on_restart is not None:
                on_restart(x, norm2(g), f_x, L_hat)
            return None
        y_next, f_y = accepted
        if step_probe is not None:
            step_probe(i, f_x, g_sq, f_y, L_hat)
        return y_next

    while True:
        oracle.reserve(N + 1)
        x = _momentum_pass(x0, N, step)
        if x is not None:
            return OgmglOutcome(x_final=x, L_end=L_hat, inner_restarts=restarts)
