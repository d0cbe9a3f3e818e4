"""Multi-experiment commands: one-axis sweep grids and method comparisons.

Every solve goes through bench's one-run path. The names that perfbench and
the tests patch on bench (_execute, build_problem, _usable_cpus) are looked up
there at call time, so a patch reroutes these commands too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import bench
from .bench import METHODS, SWEEP_AXES, SWEEP_HEADER, ExperimentSpec, QuadraticSpec, StartSpec, _write_csv
from .drivers import DriverResult


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentSpec
    axis: str  # one of SWEEP_AXES; L (>= diag[1]) and mu (<= diag[0]) need a 2-dim quadratic base problem
    values: tuple[float, ...]  # finite, positive and strictly ascending
    repetitions: int = 1

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not values:
            raise ValueError("sweep needs at least one axis value")
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("axis values must be finite and strictly positive")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValueError("axis values must be sorted ascending without duplicates")
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {self.axis!r} (expected one of {SWEEP_AXES})")
        problem = self.base.problem
        if self.axis in ("L", "mu") and not (isinstance(problem, QuadraticSpec) and len(problem.diag) == 2):
            raise ValueError(f"axis {self.axis!r} sweeps need a 2-dim quadratic problem")
        if self.axis == "L" and values[0] < problem.diag[1]:
            raise ValueError(f"L-axis values must be at least the base's second curvature {problem.diag[1]!r}, or they sweep mu")
        if self.axis == "mu" and values[-1] > problem.diag[0]:
            raise ValueError(f"mu-axis values must be at most the base's first curvature {problem.diag[0]!r}, or they sweep L")
        if self.base.config.mu0 != self.base.config.L0:  # every axis re-derives or overwrites it
            raise ValueError("sweep sets mu0 per grid point; sweep it with --axis mu0")
        if self.axis == "mu0" and not METHODS[self.base.method.name].reads_mu0:
            raise ValueError(f"method {self.base.method.name} never reads mu0, so a mu0 sweep would repeat one solve")


def _sweep_point(base: ExperimentSpec, axis: str, value: float, rep: int) -> ExperimentSpec:
    """Build the grid-point experiment for one (axis value, repetition)."""
    problem = base.problem
    cfg = base.config
    if axis in ("L", "mu"):
        diag = (value, problem.diag[1]) if axis == "L" else (problem.diag[0], value)
        problem = QuadraticSpec(diag=diag)
        # the solver is granted the instance's true L, and its true mu where it trusts mu0 (else mu0 = L0)
        cfg = replace(cfg, L0=max(diag), mu0=min(diag) if METHODS[base.method.name].trusts_mu0 else None)
    elif axis == "mu0":
        cfg = replace(cfg, mu0=value)
    else:  # L0: SweepSpec rejects every other axis
        cfg = replace(cfg, L0=value, mu0=None)
    x0 = base.x0
    if x0.kind == "gaussian":
        x0 = StartSpec(kind="gaussian", seed=x0.seed + rep)
    return replace(base, problem=problem, config=cfg, x0=x0)


def _solve_claims(points: list[tuple], indices: Iterable[int]) -> tuple[list[tuple], Optional[tuple[int, Exception]]]:
    """Solve the (spec, problem) points at indices; after a failure, only those of lower index.

    Returns (index, grad_calls, value_calls, converged) per solved point, and
    (index, exception) of the lowest-indexed failure or None; any exception counts.
    """
    rows, failure = [], None
    for index in indices:
        if failure is None or index < failure[0]:
            try:
                result, oracle, _ = bench._execute(*points[index])
                rows.append((index, oracle.grad_calls, oracle.value_calls, result.converged))
            except Exception as exc:
                failure = (index, exc)
    return rows, failure


def _solve_grid(points: list[tuple], kappas: list[float], workers: int) -> list[tuple[int, int, bool]]:
    """(grad_calls, value_calls, converged) per (spec, problem) point, in grid order.

    This process and workers - 1 forked ones claim points one at a time from a
    claim file, largest kappa = L/mu first (Graham's LPT list schedule); the
    results do not depend on workers. A failure raises the lowest-indexed failing
    point's exception, as a serial run would. A worker that dies or sends no
    outcome, and rows that do not carry each point once, raise RuntimeError.
    """
    order = sorted(range(len(points)), key=kappas.__getitem__, reverse=True)
    if workers == 1:
        outcomes = [_solve_claims(points, order)]
    else:  # a module of its own, so that serial runs never load or compile it
        from .parallel import solve_claimed

        outcomes = solve_claimed(partial(_solve_claims, points), order, workers)
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    rows = sorted(row for rows, _ in outcomes for row in rows)
    if [row[0] for row in rows] != list(range(len(points))):
        raise RuntimeError(f"the sweep's {len(points)} points came back as {len(rows)} rows, not one each")
    return [row[1:] for row in rows]


def run_sweep(spec: SweepSpec) -> tuple[list[dict], Path]:
    """Run every grid point x repetition; write one summary row each.

    Every grid point is built, and each distinct problem generated, before
    any of them executes; replace() re-checks each point's spec.
    Points of the L and mu axes, each its own 2-d quadratic, are solved in
    parallel on up to one process per usable CPU. Rows are written in grid
    order and do not depend on the process count, so fixed seeds give
    bit-identical files.
    """
    grid = [
        (value, _sweep_point(spec.base, spec.axis, value, rep))
        for value in spec.values
        for rep in range(spec.repetitions)
    ]
    points = [point for _, point in grid]
    instances = {problem: bench.build_problem(problem) for problem in dict.fromkeys(point.problem for point in points)}
    built = [instances[point.problem] for point in points]
    # mu0/L0 points share one instance, whose large products OpenBLAS already threads
    workers = min(len(points), bench._usable_cpus()) if spec.axis in ("L", "mu") else 1
    kappas = [problem.known_L / problem.known_mu for problem in built]
    solved = _solve_grid(list(zip(points, built)), kappas, workers)
    header = SWEEP_HEADER.split(",")
    rows = [
        dict(zip(header, (value, float(np.sqrt(kappa)), *outcome)))
        for (value, _), kappa, outcome in zip(grid, kappas, solved, strict=True)
    ]
    path = Path(spec.base.output_dir) / "sweep.csv"
    _write_csv(path, header, (row.values() for row in rows))
    return rows, path


def compare(specs: list[ExperimentSpec]) -> tuple[dict[str, DriverResult], Path]:
    """Run several methods on one problem; write aligned overlay columns.

    Every spec must share the problem, start point and output directory. The CSV
    holds one grad_calls/grad_norm column pair per method, rows padded at the tail.
    """
    if not specs:
        raise ValueError("compare needs at least one experiment")
    first = specs[0]
    for other in specs[1:]:
        if other.problem != first.problem:
            raise ValueError("compare experiments must share the problem")
        if other.x0 != first.x0:
            raise ValueError("compare experiments must share the start point")
        if Path(other.output_dir) != Path(first.output_dir):
            raise ValueError("compare experiments must share the output directory")

    problem = bench.build_problem(first.problem)
    results: dict[str, DriverResult] = {}
    for spec in specs:
        result, _, _ = bench._execute(spec, problem)
        label = spec.method.label().replace(":", "_")
        while label in results:
            label += "+"
        results[label] = result

    path = Path(first.output_dir) / "compare.csv"
    columns = [
        [(ev.grad_calls, ev.grad_norm) for ev in result.trace.events]
        for result in results.values()
    ]
    rows = []
    for pairs in zip_longest(*columns, fillvalue=(None, None)):
        rows.append([value for pair in pairs for value in pair])
    header = [name for label in results for name in (f"{label}_grad_calls", f"{label}_grad_norm")]
    _write_csv(path, header, rows)
    return results, path
