"""The complexity claim on an instance where it bites: Nesterov's worst-case
strongly convex quadratic (Introductory Lectures on Convex Optimization, 2004,
section 2.1.4).

Its Hessian is (L - mu)/4 * T + mu * I with T = tridiag(-1, 2, -1), its linear
term -(L - mu)/4 * e1, and its dimension n = 20 sqrt(kappa) + 10 outgrows the
Krylov space a method can explore in O(sqrt(kappa)) gradients. Acceptance
criteria 4 and 5 state their budgets on 2-d quadratics; here they must hold at
kappa = 1e2, 1e3 and 1e4.
"""

import math

import numpy as np
import pytest

from fastgrad import CountingOracle, Objective, SolverConfig, acgm, algm, norm2, ugm

K = 20  # epsilon = |grad f(x0)| / 2**K, as in criteria 4 and 5
L = 1.0
KAPPAS = (1e2, 1e3, 1e4)


def chain(kappa: float) -> Objective:
    """The worst-case quadratic with smoothness L and strong convexity L / kappa; O(n) products."""
    mu = L / kappa
    c = (L - mu) / 4.0
    n = int(20.0 * math.sqrt(kappa)) + 10

    def hessian_times(x):
        y = (2.0 * c + mu) * x
        y[1:] -= c * x[:-1]
        y[:-1] -= c * x[1:]
        return y

    def gradient(x):
        g = hessian_times(x)
        g[0] -= c
        return g

    return Objective(dim=n, value=lambda x: 0.5 * float(x @ hessian_times(x)) - c * float(x[0]), gradient=gradient)


def solve(kappa, method, L0=L):
    """Gradient calls of one run from x0 = 0; asserts that it converged to a point meeting epsilon."""
    objective = chain(kappa)
    x0 = np.zeros(objective.dim)
    cfg = SolverConfig(epsilon=norm2(objective.gradient(x0)) / 2**K, L0=L0)
    oracle = CountingOracle(objective)
    if method == "acgm":
        result = acgm(oracle, x0, L, cfg)
    else:
        result = (algm if method == "algm" else ugm)(oracle, x0, cfg)
    assert result.converged, (kappa, method, L0)
    assert norm2(objective.gradient(result.best_point)) <= cfg.epsilon, (kappa, method, L0)
    return oracle.grad_calls


def test_the_chain_has_the_stated_constants():
    objective = chain(1e2)
    b = -objective.gradient(np.zeros(objective.dim))
    H = np.column_stack([objective.gradient(e) + b for e in np.eye(objective.dim)])
    eigenvalues = np.linalg.eigvalsh(H)
    assert L / 1e2 < eigenvalues[0] and eigenvalues[-1] < L
    x = np.linspace(-1.0, 1.0, objective.dim)
    assert objective.value(x) == pytest.approx(0.5 * x @ H @ x - b @ x, rel=1e-12)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_acgm_within_criterion_four(kappa):
    assert solve(kappa, "acgm") <= 8.0 * math.sqrt(2.0) * K * math.sqrt(kappa)


@pytest.mark.parametrize("L0", [L / 100.0, L, 100.0 * L], ids=["under", "exact", "over"])
@pytest.mark.parametrize("kappa", KAPPAS)
def test_algm_within_criterion_five(kappa, L0):
    bound = 8.0 * math.sqrt(2.0) * math.sqrt(kappa) * (3 * K + max(0.0, math.log2(L / L0)))
    assert solve(kappa, "algm", L0) <= bound


def test_acceleration_gains_more_as_kappa_grows():
    # ugm's gradients grow like kappa, acgm's like its root
    ratios = [solve(kappa, "ugm") / solve(kappa, "acgm") for kappa in KAPPAS]
    assert ratios[0] < ratios[1] < ratios[2]
