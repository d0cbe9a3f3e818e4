"""Vector arithmetic, objective/oracle abstractions, and gradient validation.

Everything downstream works on dense float64 vectors. start_vector checks a
point from outside a solver; oracles count every evaluation and check each
result at the boundary (a float value, a gradient of its point's shape, no
NaN/Inf), so runs abort with a diagnostic instead of propagating bad results.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]

_FD_STEP = 1e-6  # relative central-difference step of check_gradient
DEFAULT_MAX_GRAD_CALLS = 10_000_000


class NonFiniteError(RuntimeError):
    """An oracle evaluation or iterate produced NaN or infinity."""


class BudgetExhausted(Exception):
    """The gradient budget has no room for the requested evaluations.

    Not a RuntimeError: the drivers catch it and end the run unconverged."""


def _all_finite(a: np.ndarray) -> bool:
    """No NaN or inf in a: faster than np.all on small arrays, and cannot overflow like a dot."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def _positive(name: str, value: float) -> None:
    """Raise ValueError unless value, a curvature constant or a target, is finite and above zero."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def norm2(x: Vector) -> float:
    """Euclidean norm of x; rescales when the squared sum under- or overflows."""
    s = math.sqrt(np.vdot(x, x))  # vdot's BLAS sum runs no numpy error check: an overflow is inf, rescaled below
    if 0.0 < s < math.inf:
        return s
    scale = float(np.max(np.abs(x))) if x.size else 0.0
    if scale == 0.0 or not math.isfinite(scale):
        return scale
    z = x / scale
    return scale * math.sqrt(np.vdot(z, z))


@dataclass(frozen=True)
class Objective:
    """Black-box objective: a value and a gradient callable over R^dim.

    Analytic curvature constants stay on the problem that built the
    objective (``known_L``, ``known_mu``); solvers never require them.
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]


class CountingOracle:
    """Objective wrapper tallying value and gradient evaluations separately.

    Counters count calls: each value or gradient call adds exactly one to its
    counter, whatever the objective shares inside (the logistic objective
    computes X @ w once for a run of calls at the same point). Results are
    checked here, at the oracle boundary: a value float() rejects or a gradient
    without its point's shape raises ValueError, a non-finite one NonFiniteError.
    max_grad_calls is a hard cap: a gradient past it raises BudgetExhausted
    instead of being evaluated. Every driver makes at most 2 * grad_calls + 61
    value calls, so values need no cap of their own.
    """

    def __init__(self, inner: Objective):
        self.inner = inner
        self.value_calls = 0
        self.grad_calls = 0
        self.max_grad_calls = DEFAULT_MAX_GRAD_CALLS

    def reserve(self, n: int) -> None:
        """Raise BudgetExhausted unless n more gradient evaluations fit the cap."""
        if self.grad_calls + n > self.max_grad_calls:
            raise BudgetExhausted(f"{n} more gradients exceed the cap of {self.max_grad_calls}")

    def value(self, x: Vector) -> float:
        self.value_calls += 1
        v = self.inner.value(x)
        try:
            v = float(v)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"objective value {reprlib.repr(v)} is not a real number") from exc
        if not math.isfinite(v):
            raise NonFiniteError(
                f"objective value is non-finite ({v!r}) after "
                f"{self.value_calls} value evaluations"
            )
        return v

    def gradient(self, x: Vector) -> Vector:
        if self.grad_calls >= self.max_grad_calls:
            raise BudgetExhausted(f"all {self.max_grad_calls} gradients spent")
        self.grad_calls += 1
        g = self.inner.gradient(x)
        if getattr(g, "shape", None) != x.shape:
            shape = getattr(g, "shape", type(g).__name__)
            raise ValueError(f"gradient shape {shape} does not match x {x.shape}")
        if not _all_finite(g):
            raise NonFiniteError(
                f"gradient has non-finite components after "
                f"{self.grad_calls} gradient evaluations"
            )
        return g


def start_vector(oracle: CountingOracle, x0) -> Vector:
    """Private 1-D float64 copy of a point from outside the solver (a scalar becomes a 1-vector);
    rejects a matrix, then a non-finite component, then a dimension other than the objective's."""
    x = np.array(x0, dtype=np.float64, ndmin=1)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not _all_finite(x):
        raise NonFiniteError("vector has non-finite components")
    if x.size != oracle.inner.dim:
        raise ValueError(
            f"dimension mismatch: objective dim {oracle.inner.dim}, start point has {x.size}"
        )
    return x


class EventKind(Enum):
    OUTER_STEP = "outer_step"
    RETRY = "retry"
    INNER_RESTART = "inner_restart"
    TERMINATED = "terminated"


class TraceEvent(NamedTuple):
    """Snapshot of a run at one solver event.

    The fields are trace.csv's columns after event_index, in file order (kind
    is event_kind); the harness derives that file's header and rows from them.
    f_value, mu_estimate and L_estimate are None when the method had no such
    quantity at hand (values are never evaluated just to fill the trace).
    """

    kind: EventKind
    value_calls: int
    grad_calls: int
    grad_norm: float
    f_value: Optional[float]
    mu_estimate: Optional[float]
    L_estimate: Optional[float]


@dataclass
class RunTrace:
    """Ordered record of solver events, counters included."""

    events: list[TraceEvent] = field(default_factory=list)


def check_gradient(obj: Objective, x: Vector) -> float:
    """Worst-coordinate relative error of the analytic gradient.

    Compares obj.gradient against central finite differences with the
    per-coordinate step _FD_STEP*max(1, |x_i|). Errors are scaled by
    max(1, |analytic|, |difference|) so near-zero coordinates are judged
    absolutely. x passes start_vector and every evaluation a CountingOracle,
    so their dimension, shape, value and finiteness rules hold here too.
    """
    oracle = CountingOracle(obj)
    x = start_vector(oracle, x)
    g = oracle.gradient(x)
    worst = 0.0
    for i in range(x.size):
        step = _FD_STEP * max(1.0, abs(float(x[i])))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        diff = (oracle.value(xp) - oracle.value(xm)) / (2.0 * step)
        err = abs(float(g[i]) - diff) / max(1.0, abs(float(g[i])), abs(diff))
        worst = max(worst, err)
    return worst
