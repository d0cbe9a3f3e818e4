#!/usr/bin/env python3
"""Convergence traces for the adaptive methods on both test functions.

For each configuration this writes a trace CSV (gradient norm and estimate
columns per solver event) under --out, one directory per run. Plot
grad_norm against grad_calls, log scale on the norm axis.
"""

import argparse
from pathlib import Path

from fastgrad import (
    ExperimentSpec,
    LogRegSpec,
    MethodSpec,
    QuadraticSpec,
    SolverConfig,
    StartSpec,
    gen_logreg,
    lipschitz_upper_bound,
    run_experiment,
)

QUADRATIC = QuadraticSpec(diag=(1000.0, 0.1))
LOGREG = LogRegSpec(n_samples=110, n_features=100, reg=1.0, seed=42)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/convergence", type=Path)
    parser.add_argument("--eps-rel", default=2.0**-20, type=float)
    args = parser.parse_args()

    # the quadratic's constants are known exactly; the logistic instance gets
    # reg, a certified strong-convexity bound, and the power iteration's smoothness estimate
    L_logreg = lipschitz_upper_bound(gen_logreg(110, 100, 1.0, 42))
    runs = []
    for mu0_scale, tag in ((1.0, "mu0_eq_L"), (1e-2, "mu0_low"), (1e-4, "mu0_lower")):
        runs.append(("quadratic", "acgm", 1000.0, mu0_scale * 1000.0, tag))
        runs.append(("logreg", "acgm", L_logreg, mu0_scale * L_logreg, tag))
    for L0_scale, tag in ((100.0, "L0_high"), (1.0, "L0_exact"), (1e-2, "L0_low")):
        runs.append(("quadratic", "algm", L0_scale * 1000.0, None, tag))
        runs.append(("logreg", "algm", L0_scale * L_logreg, None, tag))

    for problem_name, method, l0, mu0, tag in runs:
        problem = QUADRATIC if problem_name == "quadratic" else LOGREG
        spec = ExperimentSpec(
            problem=problem,
            method=MethodSpec(name=method),
            config=SolverConfig(epsilon=1.0, L0=l0, mu0=mu0),
            x0=StartSpec("gaussian", 0),
            output_dir=args.out / f"{problem_name}_{method}_{tag}",
            eps_rel=args.eps_rel,
        )
        result, trace_path = run_experiment(spec)
        status = "converged" if result.converged else "exhausted"
        print(f"{problem_name:10s} {method:5s} {tag:10s} -> {status}, trace {trace_path}")


if __name__ == "__main__":
    main()
