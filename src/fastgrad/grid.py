"""Multi-experiment commands: one-axis sweep grids and method comparisons.

Every solve goes through bench's one-run path. The names that perfbench and
the tests patch on bench (_execute, build_problem) are looked up there at call
time, so a patch reroutes these commands too. A parallel sweep forks its workers
here; they claim points from a locked claim file. fcntl and signal are imported
at their only uses, so that run, compare and serial sweeps never load them.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Optional

from . import bench
from .bench import METHODS, ExperimentSpec, QuadraticSpec, StartSpec, _write_csv
from .drivers import DriverResult

SWEEP_AXES = ("L", "mu", "mu0", "L0")
SWEEP_HEADER = ("axis_value", "sqrt_L_over_mu", "total_grad_calls", "total_value_calls", "converged")


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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork, make a claim file or read its CPU set."""
    if not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
        return 1  # Windows has no fork, macOS no memfd or CPU set
    return len(os.sched_getaffinity(0))


def _claim_file(order: list[int]) -> int:
    """A memory file holding order at 4 bytes a point, read from its start; the caller closes it."""
    claims = os.memfd_create("fastgrad-sweep-claims")
    os.write(claims, b"".join(index.to_bytes(4, "little") for index in order))
    os.lseek(claims, 0, os.SEEK_SET)
    return claims


def _take(claims: int) -> Optional[int]:
    """The next point from a claim file the sweep's processes share; None once all are taken.

    Forked processes share the file's offset. The record lock makes each read
    hand out its entry once, and the kernel drops it if its holder dies."""
    import fcntl

    fcntl.lockf(claims, fcntl.LOCK_EX)
    try:
        entry = os.read(claims, 4)
    finally:
        fcntl.lockf(claims, fcntl.LOCK_UN)
    return int.from_bytes(entry, "little") if entry else None


def _fork_claimer(points: list[tuple], claims: int):
    """Fork a process that solves the points it claims and pickles the outcome into a pipe.

    Returns the child's pid and the pipe's read end. The child always leaves
    through os._exit: 0 once its outcome is sent, 1 if anything failed."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            sent = pickle.dumps(_solve_claims(points, iter(partial(_take, claims), None)))
            with open(write_end, "wb") as pipe:
                pipe.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _solve_claimed(points: list[tuple], order: list[int], workers: int) -> list[tuple]:
    """_solve_claims's outcomes over the indices this process and workers - 1 forked ones claim from order.

    A worker that dies or sends no outcome raises RuntimeError. On any
    exception, one raised by a signal handler too, no worker is left running."""
    import signal

    children = []  # (pid, read end of its pipe) of each child not yet reaped
    claims = _claim_file(order)
    try:
        for _ in range(workers - 1):
            children.append(_fork_claimer(points, claims))
        outcomes = [_solve_claims(points, iter(partial(_take, claims), None))]
        while children:
            pid, pipe = children[-1]
            with pipe:
                sent = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop()
            if code or not sent:
                raise RuntimeError(f"sweep worker {pid} ended with exit code {code} before sending its outcome")
            outcomes.append(pickle.loads(sent))
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(claims)
    return outcomes


def _solve_grid(points: list[tuple], kappas: list[float], workers: int) -> list[tuple[int, int, bool]]:
    """(grad_calls, value_calls, converged) per (spec, problem) point, in grid order.

    This process and workers - 1 forked ones claim points one at a time from a
    claim file, largest kappa = L/mu first (Graham's LPT list schedule); the
    results do not depend on workers. A failure raises the lowest-indexed failing
    point's exception, as a serial run would. A worker that dies or sends no
    outcome, and rows that do not carry each point once, raise RuntimeError.
    """
    order = sorted(range(len(points)), key=kappas.__getitem__, reverse=True)
    outcomes = [_solve_claims(points, order)] if workers == 1 else _solve_claimed(points, order, workers)
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
    workers = min(len(points), _usable_cpus()) if spec.axis in ("L", "mu") else 1
    kappas = [problem.known_L / problem.known_mu for problem in built]
    solved = _solve_grid(list(zip(points, built)), kappas, workers)
    rows = [
        dict(zip(SWEEP_HEADER, (value, math.sqrt(kappa), *outcome)))
        for (value, _), kappa, outcome in zip(grid, kappas, solved, strict=True)
    ]
    path = Path(spec.base.output_dir) / "sweep.csv"
    _write_csv(path, SWEEP_HEADER, (row.values() for row in rows))
    return rows, path


def compare(specs: list[ExperimentSpec]) -> tuple[dict[str, DriverResult], Path]:
    """Run several methods on one problem; write aligned overlay columns.

    The specs may differ only in method, L0 and mu0, so that every column pair
    counts gradients toward one target on one instance from one start. The CSV
    holds one grad_calls/grad_norm column pair per method, rows padded at the tail.
    """
    if not specs:
        raise ValueError("compare needs at least one experiment")
    shared = {(s.problem, s.x0, Path(s.output_dir), s.config.epsilon, s.eps_rel, s.max_grad_calls) for s in specs}
    if len(shared) > 1:
        raise ValueError("compare experiments may differ only in method, L0 and mu0")
    first = specs[0]

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
