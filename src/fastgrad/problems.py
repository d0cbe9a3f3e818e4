"""Benchmark objective families: diagonal quadratics and regularized logistic regression.

Both families expose analytic curvature information where it exists: the
quadratic knows its smoothness and strong-convexity constants exactly, the
logistic loss certifies a strong-convexity lower bound through its
regularizer and estimates its smoothness constant from the Gram spectrum.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Objective, Vector, _positive
from .rng import SplitMix64

_POWER_ITER_SEED = 0x5EED
_POWER_ITER_TOL = 1e-6  # relative stability of the Rayleigh quotient
_POWER_ITER_MAX = 10_000


@dataclass(frozen=True)
class QuadraticProblem:
    """f(x) = 0.5 * sum_i diag_i * x_i**2 with strictly positive curvatures."""

    diag: Vector

    def __post_init__(self):
        diag = np.array(self.diag, dtype=np.float64, ndmin=1)
        if not (diag.size and np.all(np.isfinite(diag) & (diag > 0.0))):
            raise ValueError("needs at least one curvature, each finite and strictly positive")
        if diag.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {diag.shape}")
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.size

    @property
    def known_L(self) -> float:
        return float(self.diag.max())

    @property
    def known_mu(self) -> float:
        return float(self.diag.min())

    def objective(self) -> Objective:
        diag = self.diag
        return Objective(
            dim=self.dim,
            value=lambda x: 0.5 * float(diag.dot(x * x)),
            gradient=lambda x: diag * x,
        )


@dataclass(frozen=True)
class LogRegProblem:
    """L2-regularized logistic loss over +-1 labels.

    f(w) = sum_i log(1 + exp(-y_i * <x_i, w>)) + (reg/2) * |w|**2.

    The Hessian is reg*I plus a positive-semidefinite sum, so reg is a
    certified strong-convexity lower bound.
    """

    features: np.ndarray
    labels: np.ndarray
    reg: float

    def __post_init__(self):
        for name in ("features", "labels"):  # read-only views: the caller's arrays stay writable
            arr = np.asarray(getattr(self, name), dtype=np.float64).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.features.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must have one entry per feature row")
        # NaN propagates through min and max, and an infinity is one of them: no data-sized mask
        features = self.features
        if features.size and not (math.isfinite(features.min()) and math.isfinite(features.max())):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.abs(self.labels) == 1.0):
            raise ValueError("labels must all be +1 or -1")
        _positive("reg", self.reg)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def known_mu(self) -> float:
        return self.reg

    @cached_property
    def known_L(self) -> float:
        """Smoothness estimate, from below; the power iteration runs on first read only."""
        return lipschitz_upper_bound(self)

    def objective(self) -> Objective:
        """Value and gradient sharing the last point's margins (keyed on content):
        calls at one point compute X @ w once, with bit-identical results."""
        last_key, last_z = None, None

        def margins(w: Vector) -> np.ndarray:
            nonlocal last_key, last_z
            key = w.tobytes()
            if key != last_key:
                last_z = _margins(self, w)
                last_z.setflags(write=False)
                last_key = key
            return last_z

        return Objective(
            dim=self.dim,
            value=lambda w: _logreg_value(self, w, margins(w)),
            gradient=lambda w: _logreg_grad(self, w, margins(w)),
        )


def _margins(p: LogRegProblem, w: Vector) -> np.ndarray:
    return p.labels * (p.features @ w)


def _logreg_value(p: LogRegProblem, w: Vector, z: np.ndarray) -> float:
    # log(1 + exp(-z)) evaluated as logaddexp(0, -z): stable for |z| > 700
    return float(np.sum(np.logaddexp(0.0, -z)) + 0.5 * p.reg * np.dot(w, w))


def _logreg_grad(p: LogRegProblem, w: Vector, z: np.ndarray) -> Vector:
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0.0, e, 1.0) / (1.0 + e)  # sigma(-z) = 1 / (1 + exp(z)); exp(-|z|) never overflows
    return p.reg * w - p.features.T @ (p.labels * s)


def gen_logreg(n_samples: int, n_features: int, reg: float, seed: int) -> LogRegProblem:
    """Seeded synthetic instance: standard-normal features, uniform +-1 labels.

    The stream order is fixed: n_samples*n_features feature entries
    (row-major), then n_samples labels, all from one SplitMix64 stream, so a
    given (n_samples, n_features, seed) triple is reproducible bit-for-bit.
    """
    if n_samples < 1 or n_features < 1:
        raise ValueError("n_samples and n_features must be >= 1")
    stream = SplitMix64(seed)
    features = stream.normals(n_samples * n_features).reshape(n_samples, n_features)
    labels = stream.signs(n_samples)
    return LogRegProblem(features=features, labels=labels, reg=reg)


def load_logreg_csv(path: str, reg: float) -> LogRegProblem:
    """Load a dense CSV dataset: one sample per row, last column the +-1 label."""
    with warnings.catch_warnings():  # diagnosed below, so loadtxt need not warn first
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"CSV file {path} holds no data")
    if data.shape[1] < 2:
        raise ValueError("CSV needs at least one feature column plus the label column")
    return LogRegProblem(features=data[:, :-1], labels=data[:, -1], reg=reg)


def lipschitz_upper_bound(p: LogRegProblem) -> float:
    """Estimate of the smoothness bound reg + lambda_max(X^T X) / 4 via power iteration.

    The logistic curvature factor never exceeds 1/4 per sample, so the exact
    value bounds the largest Hessian eigenvalue everywhere. Power iteration
    runs on v -> X^T (X v) until the Rayleigh quotient is stable to
    _POWER_ITER_TOL (relative); a deterministic seeded start avoids
    adversarial alignments. A Rayleigh quotient never exceeds lambda_max, so
    the estimate lies below the bound, by a few 1e-5 relative on the
    benchmark instances: it is not a certified bound.
    """
    X = p.features
    v = SplitMix64(_POWER_ITER_SEED).normals(p.dim)
    v /= np.linalg.norm(v)  # the fixed seed's first variate is nonzero at every dim
    lam_prev = -1.0
    for _ in range(_POWER_ITER_MAX):
        w = X.T @ (X @ v)
        lam = float(np.dot(v, w))
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0:
            return p.reg  # the generic start maps to zero only for a zero Gram matrix
        v = w / wnorm
        if abs(lam - lam_prev) <= _POWER_ITER_TOL * max(abs(lam), 1e-300):
            return p.reg + 0.25 * lam
        lam_prev = lam
    raise RuntimeError(f"power iteration did not converge within {_POWER_ITER_MAX} iterations")
