#!/usr/bin/env python3
"""Oracle-count panel: gradients and values of a fixed set of cases, as a markdown table.

Every algorithm change is judged on the same rows:
- quad-sweep's two reference sweeps, the command lines perfbench/workloads.py builds;
- the benchmark's logistic instance with algm at c * Lb, c = 1, 100, 1e4, where Lb
  is lipschitz_upper_bound's smoothness estimate (c = 100 is the logreg-algm workload);
- algm over L0 on quadratic:1,1 and quadratic:1000,0.1 from x0 = ones, the largest
  L0 of the first under a 1e5-gradient cap;
- the value-precision floor on logreg:60,40,0.01,3 (algm and ugm at the default
  L0 = 1, acgm at L0 = 41.3), and a target of 1e-300 on quadratic:1,2.5,
  where the working mu outgrows L;
- the 64-dim spread family (curvatures geomspace(1, kappa, 64)) and Nesterov's
  worst-case chain (tests/test_worst_case.py), all four methods, kappa = 1e2-1e4.

Each row gives the exit code (0 converged, 2 budget exhausted, 3 abort), the
gradient and value calls, and, where L and mu are known, the gradients over
the acceptance criterion's bound: 8 sqrt(2) K sqrt(L/mu) for acgm (criterion 4)
and 8 sqrt(2) sqrt(L/mu) (3K + max(0, log2(L/L0))) for algm (criterion 5), with
K = log2(|grad f(x0)| / epsilon); a sweep's bound sums its points'.

The logistic rows depend on the BLAS thread count. The committed COUNTS.md is
this script's output with it pinned to perfbench/expected.json's blas_threads:

    OPENBLAS_NUM_THREADS=2 OMP_NUM_THREADS=2 PYTHONPATH=src python3 scripts/count_panel.py > COUNTS.md
"""

import contextlib
import io
import logging
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from fastgrad import CountingOracle, QuadraticProblem, SolverConfig, bench, lipschitz_upper_bound, norm2
from fastgrad.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
from test_worst_case import chain  # noqa: E402  the builder the worst-case tests check
from workloads import EPS_REL_30, WORKLOADS  # noqa: E402  the benchmark's own constants, read only

LOGREG = "logreg:300,3000,0.001,42"
FLOOR = "logreg:60,40,0.01,3"
KAPPAS = (1e2, 1e3, 1e4)
TITLE = """# Oracle-count panel

The output of `scripts/count_panel.py`, whose docstring names the cases and the
bound column. `tests/test_count_panel.py` reruns it and compares: a change that
moves a count shows here as a diff, and names it."""
HEADER = ("method", "problem", "L0", "target", "exit", "gradients", "values", "gradients / bound")


def shown(target: str) -> str:
    """A target as typed, or as 2^k where it is a power of two."""
    mantissa, exponent = math.frexp(float(target))
    return f"2^{exponent - 1}" if mantissa == 0.5 else target


def bound(method, L, mu, K, L0):
    """The criterion-4 (acgm) or criterion-5 (algm) gradient bound; None for the other methods."""
    if method == "acgm":
        return 8.0 * math.sqrt(2.0) * K * math.sqrt(L / mu)
    if method == "algm":
        return 8.0 * math.sqrt(2.0) * math.sqrt(L / mu) * (3 * K + max(0.0, math.log2(L / L0)))
    return None


class Panel:
    def __init__(self, out: Path):
        self.out = out
        self.rows = []
        self.oracles = []

    def row(self, method, problem, l0, target, code, grads, values, limit=None):
        ratio = "" if limit is None else f"{grads / limit:.3f}"
        self.rows.append((method, problem, l0, target, str(code), str(grads), str(values), ratio))

    def cli(self, *argv):
        """Exit code of one command; the oracles it made are in self.oracles."""
        self.oracles.clear()
        out = self.out / str(len(self.rows))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([*argv, "--out", str(out)]), out

    def run(self, method, problem, l0, flag, target, *extra, known=None):
        """One `run`; known = (L, mu, |grad f(x0)|) gives the bound column."""
        args = ["--l0", l0] if l0 else []
        code, _ = self.cli("run", "--problem", problem, "--method", method, *args, flag, target, *extra)
        (oracle,) = self.oracles
        limit = None
        if known is not None:
            L, mu, g0 = known
            K = -math.log2(float(target)) if flag == "--eps-rel" else math.log2(g0 / float(target))
            limit = bound(method, L, mu, K, float(l0))
        self.row(method, problem, l0 or "1 (default)", f"{flag[2:]} {shown(target)}", code,
                 oracle.grad_calls, oracle.value_calls, limit)

    def sweep(self, argv):
        """One of quad-sweep's reference calls: an L-axis sweep of quadratic:L,1, each point at its true L."""
        code, out = self.cli(*argv)
        method, axis, reps, eps_rel = (argv[argv.index(flag) + 1] for flag in ("--method", "--values", "--reps", "--eps-rel"))
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        cells = [line.split(",") for line in lines]
        grads, values = (sum(int(c[i]) for c in cells) for i in (2, 3))
        K = -math.log2(float(eps_rel))
        limit = sum(bound(method, float(c[0]), 1.0, K, float(c[0])) for c in cells)
        self.row(method, f"quad-sweep: L = {axis} x {reps}", "L", f"eps-rel {shown(eps_rel)}", code, grads, values, limit)

    def library(self, method, name, objective, L, mu, x0, K):
        """A solve the command line cannot express; the exit code maps as the CLI maps it."""
        cfg = SolverConfig(epsilon=norm2(objective.gradient(x0)) / 2**K, L0=L, mu0=mu if method == "ogmg_repeated" else None)
        oracle = CountingOracle(objective)
        try:
            code = 0 if bench.METHODS[method].solve(oracle, x0, cfg, None).converged else 2
        except RuntimeError:
            code = 3
        self.row(method, name, repr(L), f"eps-rel 2^-{K}", code, oracle.grad_calls, oracle.value_calls,
                 bound(method, L, mu, K, L))

    def table(self) -> str:
        lines = [TITLE, "", "| " + " | ".join(HEADER) + " |", "|" + "---|" * len(HEADER)]
        lines += ["| " + " | ".join(row) + " |" for row in self.rows]
        return "\n".join(lines)


def main_panel(out: Path) -> str:
    panel = Panel(out)

    class Recorded(bench.CountingOracle):
        def __init__(self, inner):
            super().__init__(inner)
            panel.oracles.append(self)

    bench.CountingOracle = Recorded  # bench's one-run path looks it up at call time
    logging.getLogger("fastgrad.drivers").setLevel(logging.ERROR)  # the mu repro forces accepts

    quad_sweep = WORKLOADS["quad-sweep"]
    for argv in quad_sweep.setup(quad_sweep.reference):
        panel.sweep(argv)

    lb = lipschitz_upper_bound(bench.build_problem(bench.parse_problem(LOGREG)))
    for c in (1.0, 100.0, 1e4):
        panel.run("algm", LOGREG, repr(c * lb), "--eps-rel", EPS_REL_30, "--x0", "gaussian", "--seed", "42")

    for problem, l0s in (("quadratic:1,1", ("1", "1e3", "1e6", "1e10", "1e15")),
                         ("quadratic:1000,0.1", ("10", "1e3", "1e5", "1e8", "1e12"))):
        diag = [float(d) for d in problem.split(":")[1].split(",")]
        known = (max(diag), min(diag), math.hypot(*diag))
        for l0 in l0s:
            cap = ["--max-grad-calls", "100000"] if l0 == "1e15" else []
            panel.run("algm", problem, l0, "--eps-rel", "1e-6", "--x0", "ones", *cap, known=known)

    for eps in ("1e-10", "1e-12", "1e-13"):
        for method, l0 in (("algm", None), ("ugm", None), ("acgm", "41.3")):
            panel.run(method, FLOOR, l0, "--eps-rel", eps, "--x0", "gaussian", "--seed", "7")

    repro = (2.5, 1.0, math.hypot(1.0, 2.5))
    panel.run("algm", "quadratic:1,2.5", "3", "--eps", "1e-300", "--x0", "ones", known=repro)
    panel.run("acgm", "quadratic:1,2.5", "2.5", "--eps", "1e-300", "--x0", "ones", known=repro)

    for kappa in KAPPAS:
        objective = QuadraticProblem(diag=np.geomspace(1.0, kappa, 64)).objective()
        x0 = bench.make_start(bench.StartSpec("gaussian", 7), 64)
        for method in ("acgm", "algm", "ugm", "ogmg_repeated"):
            panel.library(method, f"spread-64 kappa = {kappa:g}", objective, kappa, 1.0, x0, 20)
    for kappa in KAPPAS:
        objective = chain(kappa)
        for method in ("acgm", "algm", "ugm", "ogmg_repeated"):
            panel.library(method, f"chain kappa = {kappa:g}", objective, 1.0, 1.0 / kappa, np.zeros(objective.dim), 20)

    return panel.table()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(main_panel(Path(tmp)))
