#!/usr/bin/env python3
"""Head-to-head comparisons: adaptation versus fixed parameters.

Three experiments, each writing an overlay CSV (gradient norm against
cumulative gradient calls, one column pair per method):

1. exact strong-convexity constant: fixed repetition vs the mu-adaptive
   method on the ill-conditioned quadratic;
2. a 10x underestimated constant: same pair, adaptation pays off;
3. logistic regression with a 100x oversized smoothness constant: the
   mu-adaptive method vs the fully adaptive one.
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
    compare,
    gen_logreg,
    lipschitz_upper_bound,
)

QUADRATIC = QuadraticSpec(diag=(1000.0, 0.1))
LOGREG = LogRegSpec(n_samples=110, n_features=100, reg=1.0, seed=42)


def overlay(name, out, problem, eps_rel, entries):
    specs = [
        ExperimentSpec(
            problem=problem,
            method=method,
            config=cfg,
            x0=StartSpec("gaussian", 42),
            output_dir=out / name,
            eps_rel=eps_rel,
        )
        for method, cfg in entries
    ]
    results, path = compare(specs)
    print(f"{name}:")
    for label, result in results.items():
        last = result.trace.events[-1]
        total = last.grad_calls + last.value_calls
        print(f"  {label:28s} total oracle calls {total:6d} converged={result.converged}")
    print(f"  -> {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/comparisons", type=Path)
    args = parser.parse_args()

    overlay(
        "quadratic_exact_mu", args.out, QUADRATIC, 2.0**-24,
        [
            (MethodSpec("ogmg_repeated"), SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.1)),
            (MethodSpec("acgm"), SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.1)),
        ],
    )
    overlay(
        "quadratic_low_mu", args.out, QUADRATIC, 2.0**-20,
        [
            (MethodSpec("ogmg_repeated"), SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.01)),
            (MethodSpec("acgm"), SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.01)),
        ],
    )
    big_L = 100.0 * lipschitz_upper_bound(gen_logreg(110, 100, 1.0, 42))
    overlay(
        "logreg_oversized_L", args.out, LOGREG, 2.0**-20,
        [
            (MethodSpec("acgm"), SolverConfig(epsilon=1.0, L0=big_L)),
            (MethodSpec("algm"), SolverConfig(epsilon=1.0, L0=big_L)),
        ],
    )


if __name__ == "__main__":
    main()
