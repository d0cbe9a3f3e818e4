#!/usr/bin/env python3
"""Oracle-call scaling sweeps on two quadratic families.

Sweeps the stiff curvature at fixed soft curvature and vice versa, for both
adaptive methods. Each sweep writes one CSV with sqrt(L/mu) and total call
columns; total calls should grow linearly in sqrt(L/mu).

On a 2-dim quadratic the plain gradient method removes one coordinate per
adaptive step and never pays kappa = L/mu, so the methods are also compared on
the 64-dim spread family, curvatures geomspace(1, kappa, 64), at a fixed target
of 2**-20 times the start gradient norm. Each kappa writes one overlay CSV, and
each method's slope of log gradients in log sqrt(kappa) is printed: about 1 or less
for acgm, algm and the known-constants baseline ogmg_repeated (given the true
mu = 1), nearer 2 for ugm, which pays kappa.
"""

import argparse
from pathlib import Path

import numpy as np

from fastgrad import (
    ExperimentSpec,
    MethodSpec,
    QuadraticSpec,
    SolverConfig,
    StartSpec,
    SweepSpec,
    compare,
    run_sweep,
)

L_VALUES = (1e2, 1e3, 1e4, 1e5, 1e6)
MU_VALUES = (1e-2, 1e-1, 1.0)
SPREAD_METHODS = ("acgm", "algm", "ugm", "ogmg_repeated")
SPREAD_KAPPAS = (1e2, 1e3)
SPREAD_EPS_REL = 2.0**-20


def spread_family(out):
    """Compare SPREAD_METHODS at each of SPREAD_KAPPAS; print the overlay paths, then each method's slope."""
    grads = {method: [] for method in SPREAD_METHODS}
    for kappa in SPREAD_KAPPAS:
        specs = [
            ExperimentSpec(
                problem=QuadraticSpec(diag=tuple(np.geomspace(1.0, kappa, 64).tolist())),
                method=MethodSpec(name=method),
                config=SolverConfig(epsilon=1.0, L0=kappa, mu0=1.0 if method == "ogmg_repeated" else None),
                x0=StartSpec("gaussian", 7),
                output_dir=out / f"spread_{kappa:g}",
                eps_rel=SPREAD_EPS_REL,
            )
            for method in SPREAD_METHODS
        ]
        results, path = compare(specs)
        for method in SPREAD_METHODS:
            grads[method].append(results[method].trace.events[-1].grad_calls)
        print(f"spread kappa={kappa:g} -> {path}")
    for method, calls in grads.items():
        slope = np.polyfit(np.log(np.sqrt(SPREAD_KAPPAS)), np.log(calls), 1)[0]
        print(f"spread {method}: grad calls {calls}, slope {slope:.2f} in sqrt(kappa)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/scaling", type=Path)
    parser.add_argument("--eps-rel", default=2.0**-30, type=float, help="target of the 2-dim sweeps")
    parser.add_argument("--reps", default=1, type=int)
    args = parser.parse_args()

    for method in ("acgm", "algm"):
        for axis, values, diag in (
            ("L", L_VALUES, (100.0, 1.0)),
            ("mu", MU_VALUES, (1e5, 1.0)),
        ):
            base = ExperimentSpec(
                problem=QuadraticSpec(diag=diag),
                method=MethodSpec(name=method),
                config=SolverConfig(epsilon=1.0, L0=max(diag)),
                x0=StartSpec("gaussian", 7),
                output_dir=args.out / f"{method}_{axis}",
                eps_rel=args.eps_rel,
            )
            rows, path = run_sweep(
                SweepSpec(base=base, axis=axis, values=values, repetitions=args.reps)
            )
            calls = [r["total_grad_calls"] for r in rows]
            print(f"{method} over {axis}: grad calls {calls} -> {path}")
    spread_family(args.out)


if __name__ == "__main__":
    main()
