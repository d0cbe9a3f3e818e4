"""The benchmark's workloads: set-up phase, entry-call argv and output readers.

Every workload is a list of `fastgrad` command lines. The set-up phase makes
the same public set-up calls the program makes on entry (instance, objective,
start point, and the smoothness bound where `--l0` needs it) and returns the
argv of each entry call of one pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from fastgrad import bench
from fastgrad.problems import lipschitz_upper_bound

EPS_REL_30 = repr(2.0**-30)
EPS_REL_20 = repr(2.0**-20)

QUAD_VALUES = (1e2, 1e3, 1e4, 1e5, 1e6)
QUAD_REPS = 3
LOGREG_SHAPE = (300, 3000, 0.001)  # samples, features, reg: wide, so reg is the curvature floor


@dataclass(frozen=True)
class Inputs:
    """Seeds of one input set. `reference` is the set that is timed."""

    name: str
    start_seed: int
    instance_seed: Optional[int] = None


@dataclass(frozen=True)
class Solve:
    """One solver run as the program's outputs report it.

    final_grad_norm and epsilon are None for sweep rows, which do not carry
    them; the sweep's verification runs supply them.
    """

    label: str
    converged: bool
    grad_evals: int
    value_evals: int
    final_grad_norm: Optional[float] = None
    epsilon: Optional[float] = None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_run(out: Path, label: str) -> tuple[list[Solve], str]:
    """The solve of one `run` call and the sha256 of its trace.csv."""
    summary = json.loads((out / "summary.json").read_text())
    solve = Solve(
        label=label,
        converged=summary["converged"],
        grad_evals=summary["grad_calls"],
        value_evals=summary["value_calls"],
        final_grad_norm=summary["final_grad_norm"],
        epsilon=summary["epsilon"],
    )
    return [solve], sha256(out / "trace.csv")


def read_sweep(out: Path, label: str) -> tuple[list[Solve], str]:
    """One solve per sweep.csv row, and the sha256 of sweep.csv."""
    path = out / "sweep.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    solves = [
        Solve(
            label=f"{label} L={row['axis_value']} row={i}",
            converged=row["converged"] == "true",
            grad_evals=int(row["total_grad_calls"]),
            value_evals=int(row["total_value_calls"]),
        )
        for i, row in enumerate(rows)
    ]
    return solves, sha256(path)


class QuadSweep:
    """The L axis of the scaling sweep, once with acgm and once with algm."""

    name = "quad-sweep"
    methods = ("acgm", "algm")
    solves_per_call = len(QUAD_VALUES) * QUAD_REPS
    reference = Inputs("reference", start_seed=7)

    def inputs_for_seed(self, seed: int) -> Inputs:
        return Inputs(f"seed{seed}", start_seed=1000 + QUAD_REPS * seed)

    def setup(self, inputs: Inputs) -> list[list[str]]:
        for value in QUAD_VALUES:
            for rep in range(QUAD_REPS):
                problem = bench.build_problem(bench.QuadraticSpec(diag=(value, 1.0)))
                problem.objective()
                bench.make_start(bench.StartSpec("gaussian", inputs.start_seed + rep), problem.dim)
        values = ",".join(repr(v) for v in QUAD_VALUES)
        return [
            ["sweep", "--problem", "quadratic:100,1", "--method", method, "--l0", "100",
             "--axis", "L", "--values", values, "--reps", str(QUAD_REPS),
             "--eps-rel", EPS_REL_30, "--x0", "gaussian", "--seed", str(inputs.start_seed)]
            for method in self.methods
        ]

    read = staticmethod(read_sweep)

    def verification(self, inputs: Inputs) -> list[list[str]]:
        """One `run` per sweep row, in row order, with the row's own inputs.

        A sweep row carries no final gradient norm; the same solve through
        `run` does, and its counts must equal the row's.
        """
        return [
            ["run", "--problem", f"quadratic:{value!r},1", "--method", method,
             "--l0", repr(value), "--eps-rel", EPS_REL_30, "--x0", "gaussian",
             "--seed", str(inputs.start_seed + rep)]
            for method in self.methods
            for value in QUAD_VALUES
            for rep in range(QUAD_REPS)
        ]


class LogRegRun:
    """One `run` on the seeded logistic-regression instance."""

    solves_per_call = 1
    # The instance stays fixed: across instance seeds acgm's count jumps
    # between 7421 and 10271 gradients, which would swamp any timing bound.
    reference = Inputs("reference", start_seed=42, instance_seed=42)

    def __init__(self, name: str, method: str, l0_factor: float, eps_rel: str):
        self.name = name
        self.method = method
        self.l0_factor = l0_factor
        self.eps_rel = eps_rel

    def inputs_for_seed(self, seed: int) -> Inputs:
        return Inputs(f"seed{seed}", start_seed=1000 + seed, instance_seed=1000 + seed)

    def setup(self, inputs: Inputs) -> list[list[str]]:
        spec = bench.LogRegSpec(*LOGREG_SHAPE, seed=inputs.instance_seed)
        problem = bench.build_problem(spec)
        problem.objective()
        bench.make_start(bench.StartSpec("gaussian", inputs.start_seed), problem.dim)
        l0 = self.l0_factor * lipschitz_upper_bound(problem)
        return [
            ["run", "--problem", spec.label(), "--method", self.method, "--l0", repr(l0),
             "--eps-rel", self.eps_rel, "--x0", "gaussian", "--seed", str(inputs.start_seed)]
        ]

    read = staticmethod(read_run)

    def verification(self, inputs: Inputs) -> list[list[str]]:
        return []  # run outputs carry the final gradient norm already


WORKLOADS = {
    w.name: w
    for w in (
        QuadSweep(),
        LogRegRun("logreg-algm", "algm", 100.0, EPS_REL_30),
        LogRegRun("logreg-acgm", "acgm", 1.0, EPS_REL_20),
    )
}
