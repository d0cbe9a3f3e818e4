"""Outer restart drivers built on the fixed-budget method.

``acgm`` adapts the strong-convexity estimate by restarts with a
halve-the-gradient acceptance test; ``algm`` additionally adapts the
smoothness estimate by delegating to the sufficient-decrease variant;
``ugm`` is the plain universal-step gradient baseline and
``ogmg_repeated`` the fixed-parameter repetition baseline.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from .core import (
    BudgetExhausted,
    CountingOracle,
    EventKind,
    NonFiniteError,
    RunTrace,
    TraceEvent,
    Vector,
    _positive,
    norm2,
    start_vector,
)
from .ogmg import (
    StalledIterate,
    _check_moved,
    _decrease_step,
    _doubled,
    halving_budget,
    ogmg_run,
    ogmgl_run,
)

_BETA = 4.0  # estimate update factor, optimal for the worst case
_MU_FLOOR_RATIO = 1e-30  # the working mu never drops below this fraction of mu0
_MAX_RETRIES_PER_STEP = 60  # failed halving tests before an outer step is forced


class DivergenceError(RuntimeError):
    """The gradient norm exploded relative to its starting value."""


@dataclass(frozen=True)
class SolverConfig:
    """Shared driver configuration, frozen and checked once: replace() re-checks.

    epsilon is the target gradient norm; L0 and mu0 are the curvature constants
    (estimates to adapt, or known). mu0 defaults to L0, the choice that makes the
    strong-convexity adaptation monotone; as mu <= L always, a mu0 above L0 is an
    error. _MAX_RETRIES_PER_STEP and the working-mu floor _MU_FLOOR_RATIO * mu0
    bound the retry loop on objectives where the halving test never passes.
    The oracle owns the gradient budget.
    """

    epsilon: float
    L0: float
    mu0: Optional[float] = None

    def __post_init__(self):
        _positive("epsilon", self.epsilon)
        _positive("L0", self.L0)
        if self.mu0 is None:
            object.__setattr__(self, "mu0", self.L0)
        _positive("mu0", self.mu0)
        if self.mu0 > self.L0:
            raise ValueError(f"mu0={self.mu0} exceeds L0={self.L0}")


class DriverResult:
    """Record of one driver run, which the driver fills in as it goes.

    event() appends a trace row, reading the counters from the oracle, and
    keeps best_point, the point of minimal observed gradient norm over all
    trace events (the smoothness-adaptive method converges non-monotonically).
    The trace is the one record of the run's points and outcome: accepted
    points are outer_step rows, rejected attempts retry rows, and converged
    is whether the last row is terminated. Apart from the trace rows, a run keeps O(dim) memory.
    """

    def __init__(self, oracle: CountingOracle):
        self._oracle = oracle
        self.trace = RunTrace()
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

    @property
    def converged(self) -> bool:
        return self.trace.events[-1].kind is EventKind.TERMINATED


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
    unconverged at the first pass that does not fit the gradient budget. A
    StalledIterate, from a step inside the pass or from a rejected pass that
    returns its start point, ends the run converged at the stalled point when
    that point meets epsilon, and aborts it otherwise."""
    x_ref = start_vector(oracle, x0)
    g_ref = norm2(oracle.gradient(x_ref))
    if g_ref > cfg.epsilon:
        res.event(EventKind.OUTER_STEP, x_ref, g_ref, mu_estimate=cfg.mu0, L_estimate=L)

    mu_prev = cfg.mu0
    mu_floor = _MU_FLOOR_RATIO * cfg.mu0
    while True:
        if g_ref <= cfg.epsilon:
            res.event(EventKind.TERMINATED, x_ref, g_ref, mu_estimate=mu_prev, L_estimate=L)
            return res
        mu_work = min(_BETA * mu_prev, sys.float_info.max)
        retries = 0
        while True:  # attempts within one outer step
            try:
                cand, L_new = run_pass(x_ref, L, mu_work, halving_budget(L, mu_work))
                g_cand = norm2(oracle.gradient(cand))
                mu_work = min(mu_work * (L_new / L), sys.float_info.max)  # keep L/mu unchanged
                L = L_new
                if g_cand <= 0.5 * g_ref:
                    res.event(EventKind.OUTER_STEP, cand, g_cand, mu_estimate=mu_work, L_estimate=L)
                    x_ref, g_ref = cand, g_cand
                    mu_prev = mu_work
                    break
                _check_moved(x_ref, g_ref, cand, g_cand, L)
            except BudgetExhausted:
                return res
            except StalledIterate as stall:
                if stall.grad_norm > cfg.epsilon:
                    raise
                res.event(EventKind.TERMINATED, stall.x, stall.grad_norm, mu_estimate=mu_prev, L_estimate=stall.L)
                return res
            res.event(EventKind.RETRY, cand, g_cand, mu_estimate=mu_work, L_estimate=L)
            mu_work /= _BETA
            if g_cand < g_ref:
                x_ref, g_ref = cand, g_cand  # adopt the improved restart point
            retries += 1
            if retries >= _MAX_RETRIES_PER_STEP or mu_work < mu_floor:
                import logging  # at its only use, so that runs without a forced accept never load it

                logging.getLogger(__name__).warning(
                    "halving test failed %d times (working mu %.3e); accepting the "
                    "best point of this step and moving on",
                    retries,
                    mu_work,
                )
                mu_prev = max(mu_work, mu_floor)
                break


def acgm(oracle: CountingOracle, x0: Vector, L: float, cfg: SolverConfig) -> DriverResult:
    """Restart method adaptive in the strong-convexity estimate.

    L is trusted as a valid smoothness constant; each pass is one run of the
    fixed-budget method with step size 1/L. A non-finite result after the start
    point re-raises NonFiniteError naming L as the likely cause.
    """
    _positive("L", L)

    def run_pass(x_ref: Vector, L: float, _mu: float, n: int) -> tuple[Vector, float]:
        return ogmg_run(oracle, x_ref, L, n), L

    res = DriverResult(oracle)
    try:
        return _adaptive_restarts(oracle, x0, L, cfg, run_pass, res)
    except NonFiniteError as exc:
        if not res.trace.events:  # the start point or its gradient failed, before any pass
            raise
        raise NonFiniteError(
            f"{exc}; acgm trusts L0 = {L!r} (--l0) as the smoothness constant, and a value below "
            "the true one, or a non-convex or non-smooth objective, makes its passes diverge"
        ) from None


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

        out = ogmgl_run(oracle, x_ref, L, n, on_restart=on_restart)
        return out.x_final, out.L_end

    return _adaptive_restarts(oracle, x0, cfg.L0, cfg, run_pass, res)


def ugm(oracle: CountingOracle, x0: Vector, cfg: SolverConfig) -> DriverResult:
    """Universal-step gradient baseline.

    Each step halves the smoothness estimate, then doubles it at the same x
    until the plain gradient step x - g/L passes the sufficient-decrease test
    f(x') <= f(x) - |g|**2/(2L) of ogmg._decrease_step; the runaway limit of
    _doubled is L0 * 2**60, run-wide, or the largest float. Accepted values
    are reused, so the per-probe cost is a single value evaluation. No step
    is taken whose point the gradient budget cannot evaluate.
    """
    x = start_vector(oracle, x0)
    res = DriverResult(oracle)
    f_x = None  # the start value is evaluated only once the start is known not to stop
    L_cur = cfg.L0
    while True:
        g_vec = oracle.gradient(x)
        g = norm2(g_vec)
        if g <= cfg.epsilon:
            res.event(EventKind.TERMINATED, x, g, f_value=f_x, L_estimate=L_cur)
            return res
        if f_x is None:
            f_x = oracle.value(x)
        res.event(EventKind.OUTER_STEP, x, g, f_value=f_x, L_estimate=L_cur)
        try:
            oracle.reserve(1)
        except BudgetExhausted:
            return res
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
    _positive("epsilon", epsilon)

    x = start_vector(oracle, x0)
    res = DriverResult(oracle)
    g0 = g = norm2(oracle.gradient(x))
    while True:
        if g <= epsilon:
            res.event(EventKind.TERMINATED, x, g, mu_estimate=mu, L_estimate=L)
            return res
        res.event(EventKind.OUTER_STEP, x, g, mu_estimate=mu, L_estimate=L)
        try:
            x_next = ogmg_run(oracle, x, L, n)
            g_next = norm2(oracle.gradient(x_next))
        except BudgetExhausted:
            return res
        _check_moved(x, g, x_next, g_next, L)
        x, g = x_next, g_next
        if g > 1e6 * g0:
            raise DivergenceError(
                f"gradient norm grew from {g0:.3e} to {g:.3e}; "
                "the supplied smoothness constant looks too small"
            )
