"""Outer restart drivers built on the fixed-budget method.

``acgm`` adapts the strong-convexity estimate by restarts with a
halve-the-gradient acceptance test; ``algm`` additionally adapts the
smoothness estimate by delegating to the sufficient-decrease variant;
``ugm`` is the plain universal-step gradient baseline and
``ogmg_repeated`` the fixed-parameter repetition baseline.
"""

from __future__ import annotations

import logging
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    BudgetExhausted,
    CountingOracle,
    EventKind,
    RunTrace,
    TraceEvent,
    Vector,
    norm2,
    start_vector,
)
from .ogmg import (
    RunawayLipschitzError,
    _check_moved,
    _decrease_step,
    _doubled,
    halving_budget,
    ogmg_run,
    ogmgl_run,
)

log = logging.getLogger(__name__)

_BETA = 4.0  # estimate update factor, optimal for the worst case
_MU_FLOOR_RATIO = 1e-30  # the working mu never drops below this fraction of mu0
_MAX_RETRIES_PER_STEP = 60  # failed halving tests before an outer step is forced


class DivergenceError(RuntimeError):
    """The gradient norm exploded relative to its starting value."""


@dataclass
class SolverConfig:
    """Shared driver configuration.

    epsilon is the target gradient norm. mu0 defaults to L0, the choice that
    makes the strong-convexity adaptation monotone; it is clamped to L0 with
    a warning if set higher. _MAX_RETRIES_PER_STEP and the working-mu
    floor _MU_FLOOR_RATIO * mu0 bound the retry loop on objectives where the
    halving test never passes. The oracle owns the gradient budget.
    """

    epsilon: float
    L0: float
    mu0: Optional[float] = None

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (math.isfinite(self.L0) and self.L0 > 0.0):
            raise ValueError(f"L0 must be positive, got {self.L0}")
        if self.mu0 is None:
            self.mu0 = self.L0
        if not (math.isfinite(self.mu0) and self.mu0 > 0.0):
            raise ValueError(f"mu0 must be positive, got {self.mu0}")
        if self.mu0 > self.L0:
            warnings.warn(
                f"mu0={self.mu0} exceeds L0={self.L0}; clamping mu0 to L0",
                stacklevel=3,  # past the generated __init__ to its caller
            )
            self.mu0 = self.L0


class DriverResult:
    """Record of one driver run, which the driver fills in as it goes.

    event() appends a trace row, reading the counters from the oracle, and
    keeps best_point, the point of minimal observed gradient norm over all
    trace events (the smoothness-adaptive method converges non-monotonically).
    accepted_points counts the accepted outer points, the start included;
    rejected attempts appear in the trace as retry events. finish() sets
    converged. Apart from the trace rows, a run keeps O(dim) memory.
    """

    def __init__(self, oracle: CountingOracle):
        self._oracle = oracle
        self.trace = RunTrace()
        self.accepted_points = 0
        self.converged = False
        self.best_point: Optional[Vector] = None
        self.best_grad_norm = math.inf

    def event(
        self,
        kind: EventKind,
        x: Vector,
        grad_norm: float,
        f_value: Optional[float] = None,
        mu_estimate: Optional[float] = None,
        L_estimate: Optional[float] = None,
    ) -> None:
        self.trace.events.append(
            TraceEvent(
                kind=kind,
                value_calls=self._oracle.value_calls,
                grad_calls=self._oracle.grad_calls,
                grad_norm=float(grad_norm),
                f_value=f_value,
                mu_estimate=mu_estimate,
                L_estimate=L_estimate,
            )
        )
        if grad_norm < self.best_grad_norm:
            self.best_grad_norm = grad_norm
            self.best_point = x

    def finish(self, converged: bool) -> DriverResult:
        assert self.best_point is not None
        self.converged = converged
        return self


def _adaptive_restarts(
    oracle: CountingOracle,
    x0: Vector,
    L: float,
    cfg: SolverConfig,
    run_pass: Callable[[Vector, float, float, int], tuple[Vector, float]],
    res: DriverResult,
) -> DriverResult:
    """Shared outer loop: multiply mu by _BETA, run a pass of N =
    halving_budget(L, mu) steps, demand a halved gradient norm; on failure
    divide mu by _BETA and retry, adopting a strictly better rejected point as
    the new restart point. run_pass(x_ref, L, mu, N) returns the candidate and
    the L after the pass; mu moves with L, so L/mu (hence N) is kept, and is
    clamped to the largest finite float where it grows. The run ends
    unconverged at the first pass that does not fit the gradient budget, and
    aborts at a rejected pass that returns its start point, unless an earlier
    attempt adopted that point and it meets epsilon: then the run ends there."""
    x_ref = start_vector(oracle, x0)
    g_ref = norm2(oracle.gradient(x_ref))
    res.accepted_points += 1
    if g_ref > cfg.epsilon:
        res.event(EventKind.OUTER_STEP, x_ref, g_ref, mu_estimate=cfg.mu0, L_estimate=L)

    mu_prev = cfg.mu0
    mu_floor = _MU_FLOOR_RATIO * cfg.mu0
    while True:
        if g_ref <= cfg.epsilon:
            res.event(EventKind.TERMINATED, x_ref, g_ref, mu_estimate=mu_prev, L_estimate=L)
            return res.finish(True)
        mu_work = min(_BETA * mu_prev, sys.float_info.max)
        retries = 0
        step_start = x_ref
        while True:  # attempts within one outer step
            try:
                cand, L_new = run_pass(x_ref, L, mu_work, halving_budget(L, mu_work))
                g_cand = norm2(oracle.gradient(cand))
            except BudgetExhausted:
                return res.finish(False)
            mu_work = min(mu_work * (L_new / L), sys.float_info.max)  # keep L/mu unchanged
            L = L_new
            if g_cand <= 0.5 * g_ref:
                res.accepted_points += 1
                res.event(EventKind.OUTER_STEP, cand, g_cand, mu_estimate=mu_work, L_estimate=L)
                x_ref, g_ref = cand, g_cand
                mu_prev = mu_work
                break
            try:
                _check_moved(x_ref, g_ref, cand, g_cand, L)
            except RunawayLipschitzError:
                if g_ref > cfg.epsilon:
                    raise
                res.accepted_points += 1  # adopted by an earlier attempt; the outer check terminates on it
                break
            res.event(EventKind.RETRY, cand, g_cand, mu_estimate=mu_work, L_estimate=L)
            mu_work /= _BETA
            if g_cand < g_ref:
                x_ref, g_ref = cand, g_cand  # adopt the improved restart point
            retries += 1
            if retries >= _MAX_RETRIES_PER_STEP or mu_work < mu_floor:
                log.warning(
                    "halving test failed %d times (working mu %.3e); accepting the "
                    "best point of this step and moving on",
                    retries,
                    mu_work,
                )
                mu_prev = max(mu_work, mu_floor)
                if x_ref is not step_start:
                    res.accepted_points += 1
                break


def acgm(oracle: CountingOracle, x0: Vector, L: float, cfg: SolverConfig) -> DriverResult:
    """Restart method adaptive in the strong-convexity estimate.

    L is trusted as a valid smoothness constant; each pass is one run of the
    fixed-budget method with step size 1/L.
    """
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be positive, got {L}")

    def run_pass(x_ref: Vector, L: float, _mu: float, n: int) -> tuple[Vector, float]:
        return ogmg_run(oracle, x_ref, L, n), L

    return _adaptive_restarts(oracle, x0, L, cfg, run_pass, DriverResult(oracle))


def algm(oracle: CountingOracle, x0: Vector, cfg: SolverConfig) -> DriverResult:
    """Restart method adaptive in both the strong-convexity and smoothness estimates.

    Each pass is one run of the sufficient-decrease variant, starting from
    the current smoothness estimate. Its returned estimate is carried forward
    even when the halving test rejects the candidate. Inner estimate
    doublings surface in the trace as inner_restart events.
    """
    res = DriverResult(oracle)

    def run_pass(x_ref: Vector, L: float, mu: float, n: int) -> tuple[Vector, float]:
        def on_restart(x_bad: Vector, g_norm: float, f_bad: float, L_new: float) -> None:
            res.event(
                EventKind.INNER_RESTART,
                x_bad,
                g_norm,
                f_value=f_bad,
                mu_estimate=mu,
                L_estimate=L_new,
            )

        out = ogmgl_run(oracle, x_ref, L, n, on_restart=on_restart, target=cfg.epsilon)
        return out.x_final, out.L_end

    return _adaptive_restarts(oracle, x0, cfg.L0, cfg, run_pass, res)


def ugm(oracle: CountingOracle, x0: Vector, cfg: SolverConfig) -> DriverResult:
    """Universal-step gradient baseline.

    Each step halves the smoothness estimate, then doubles it at the same x
    until the plain gradient step x - g/L passes the sufficient-decrease test
    f(x') <= f(x) - |g|**2/(2L) of ogmg._decrease_step; the runaway limit of
    _doubled is L0 * 2**60, run-wide. Accepted values are reused, so the
    per-probe cost is a single value evaluation. No step is taken whose
    point the gradient budget cannot evaluate.
    """
    x = start_vector(oracle, x0)
    res = DriverResult(oracle)
    f_x = None  # the start value is evaluated only once the start is known not to stop
    L_cur = cfg.L0
    while True:
        g_vec = oracle.gradient(x)
        g = norm2(g_vec)
        res.accepted_points += 1
        if g <= cfg.epsilon:
            res.event(EventKind.TERMINATED, x, g, f_value=f_x, L_estimate=L_cur)
            return res.finish(True)
        if f_x is None:
            f_x = oracle.value(x)
        res.event(EventKind.OUTER_STEP, x, g, f_value=f_x, L_estimate=L_cur)
        try:
            oracle.reserve(1)
        except BudgetExhausted:
            return res.finish(False)
        L_first = L_cur = L_cur / 2.0
        while (step := _decrease_step(oracle, x, f_x, g_vec, g * g, L_cur, L_first)) is None:
            L_cur = _doubled(L_cur, cfg.L0)
        x, f_x = step


def ogmg_repeated(
    oracle: CountingOracle,
    x0: Vector,
    L: float,
    mu: float,
    epsilon: float,
) -> DriverResult:
    """Repeat the fixed-budget method with constant L and mu until the target.

    The per-repetition budget is halving_budget(L, mu). Underestimating L
    can make the iteration diverge; a gradient norm 1e6 times the starting
    one aborts with a diagnostic, and so does a repetition that returns its
    start point. The run ends unconverged at the first repetition that does
    not fit the gradient budget.
    """
    n = halving_budget(L, mu)  # rejects non-finite and non-positive L and mu
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    x = start_vector(oracle, x0)
    res = DriverResult(oracle)
    g0 = g = norm2(oracle.gradient(x))
    while True:
        res.accepted_points += 1
        if g <= epsilon:
            res.event(EventKind.TERMINATED, x, g, mu_estimate=mu, L_estimate=L)
            return res.finish(True)
        res.event(EventKind.OUTER_STEP, x, g, mu_estimate=mu, L_estimate=L)
        try:
            x_next = ogmg_run(oracle, x, L, n)
            g_next = norm2(oracle.gradient(x_next))
        except BudgetExhausted:
            return res.finish(False)
        _check_moved(x, g, x_next, g_next, L)
        x, g = x_next, g_next
        if g > 1e6 * g0:
            raise DivergenceError(
                f"gradient norm grew from {g0:.3e} to {g:.3e}; "
                "the supplied smoothness constant looks too small"
            )
