"""Benchmark harness: configured runs, sweep grids, method comparisons.

Outputs are plain CSV plus a JSON summary per run; plotting is a thin
downstream step. Oracle calls are the portable complexity measure, wall
time is recorded for information only.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import DEFAULT_MAX_GRAD_CALLS, CountingOracle, EventKind, RunTrace, TraceEvent, Vector, norm2
from .drivers import DriverResult, SolverConfig, acgm, algm, ogmg_repeated, ugm
from .ogmg import ogmg_run
from .problems import QuadraticProblem, gen_logreg, load_logreg_csv
from .rng import SplitMix64

TRACE_HEADER = ",".join(("event_index", "event_kind", *TraceEvent._fields[1:]))
SWEEP_HEADER = "axis_value,sqrt_L_over_mu,total_grad_calls,total_value_calls,converged"

START_KINDS = ("zeros", "ones", "gaussian")
SWEEP_AXES = ("L", "mu", "mu0", "L0")
PROBLEM_FORMS = "quadratic:<diag,...> | logreg:<n,m,reg,seed> | logreg_csv:<path,reg>"

# One row per method. solve(oracle, x0, cfg, n) looks its driver up as a module global when called,
# so that patching bench.<driver> reroutes it. A constant the method trusts is the true one, not an estimate.
Method = namedtuple("Method", "solve takes_n trusts_L0 reads_mu0 trusts_mu0", defaults=(False,) * 4)
METHODS = {
    "ogmg": Method(lambda o, x0, cfg, n: _run_fixed_budget(o, x0, cfg.L0, n, cfg.epsilon), takes_n=True, trusts_L0=True),
    "ogmg_repeated": Method(lambda o, x0, cfg, n: ogmg_repeated(o, x0, cfg.L0, cfg.mu0, cfg.epsilon),
                            trusts_L0=True, reads_mu0=True, trusts_mu0=True),
    "acgm": Method(lambda o, x0, cfg, n: acgm(o, x0, cfg.L0, cfg), trusts_L0=True, reads_mu0=True),
    "algm": Method(lambda o, x0, cfg, n: algm(o, x0, cfg), reads_mu0=True),
    "ugm": Method(lambda o, x0, cfg, n: ugm(o, x0, cfg)),
}
METHOD_FORMS = " | ".join(name + ":<n>" * row.takes_n for name, row in METHODS.items())


@dataclass(frozen=True)
class QuadraticSpec:
    diag: tuple[float, ...]

    def label(self) -> str:
        return "quadratic:" + ",".join(repr(d) for d in self.diag)

    @classmethod
    def parse(cls, payload: str) -> QuadraticSpec:
        return cls(diag=tuple(float(part) for part in payload.split(",")))


@dataclass(frozen=True)
class LogRegSpec:
    n_samples: int
    n_features: int
    reg: float
    seed: int

    def label(self) -> str:
        return f"logreg:{self.n_samples},{self.n_features},{self.reg!r},{self.seed}"

    @classmethod
    def parse(cls, payload: str) -> LogRegSpec:
        n, m, reg, seed = payload.split(",")
        return cls(int(n), int(m), float(reg), int(seed))


@dataclass(frozen=True)
class LogRegCsvSpec:
    path: str
    reg: float

    def label(self) -> str:
        return f"logreg_csv:{self.path},{self.reg!r}"

    @classmethod
    def parse(cls, payload: str) -> LogRegCsvSpec:
        path, reg = payload.rsplit(",", 1)  # the path may hold commas, the reg cannot
        return cls(path, float(reg))


ProblemSpec = Union[QuadraticSpec, LogRegSpec, LogRegCsvSpec]


@dataclass(frozen=True)
class MethodSpec:
    """Which solver to run: a METHODS name, with n where its row takes one.
    The curvature constants live in the SolverConfig."""

    name: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r} (expected one of {tuple(METHODS)})")
        if self.n is not None and not METHODS[self.name].takes_n:
            takers = ", ".join(name for name, row in METHODS.items() if row.takes_n)
            raise ValueError(f"method {self.name} takes no n (only {takers} does)")
        if METHODS[self.name].takes_n and (self.n is None or self.n < 1):
            raise ValueError(f"method {self.name} requires a step budget n >= 1")

    def label(self) -> str:
        return self.name if self.n is None else f"{self.name}:{self.n!r}"

    @classmethod
    def parse(cls, name: str, payload: str) -> MethodSpec:
        if METHODS[name].takes_n:
            return cls(name, n=int(payload))
        if payload:
            flags = "--l0 and --mu0" if METHODS[name].reads_mu0 else "--l0"
            raise ValueError(f"method {name} takes no payload; its constants come from {flags}")
        return cls(name)


def _parse_label(text: str, kind: str, parsers: dict, forms: str):
    """Hand the payload of name:payload text to name's parser, the inverse of a label()."""
    name, _, payload = text.partition(":")
    if name not in parsers:
        raise ValueError(f"unknown {kind} {name!r}; expected {forms}")
    try:
        return parsers[name](payload)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse {kind} {text!r}: {exc}") from None


def parse_problem(text: str) -> ProblemSpec:
    parsers = {"quadratic": QuadraticSpec.parse, "logreg": LogRegSpec.parse, "logreg_csv": LogRegCsvSpec.parse}
    return _parse_label(text, "problem", parsers, PROBLEM_FORMS)


def parse_method(text: str) -> MethodSpec:
    parsers = {name: partial(MethodSpec.parse, name) for name in METHODS}
    return _parse_label(text, "method", parsers, METHOD_FORMS)


@dataclass(frozen=True)
class StartSpec:
    kind: str = "gaussian"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in START_KINDS:
            raise ValueError(f"unknown start kind {self.kind!r} (expected one of {START_KINDS})")

    def label(self) -> str:
        return f"{self.kind}:{self.seed}" if self.kind == "gaussian" else self.kind


@dataclass(frozen=True)
class ExperimentSpec:
    """One solve. Every spec type checks its own fields when it is built, so
    no command meets an invalid one."""

    problem: ProblemSpec
    method: MethodSpec
    config: SolverConfig
    x0: StartSpec = StartSpec()
    output_dir: Path = field(kw_only=True)  # required: every command writes its files there
    eps_rel: Optional[float] = None  # when set, epsilon = eps_rel * |grad f(x0)|
    max_grad_calls: int = DEFAULT_MAX_GRAD_CALLS  # hard cap, enforced by the oracle

    def __post_init__(self):
        reg = getattr(self.problem, "reg", 1.0)  # the quadratic family has no regularizer
        if not (math.isfinite(reg) and reg > 0):
            raise ValueError(f"reg must be finite and positive, got {reg}")
        if self.max_grad_calls < 1:
            raise ValueError(f"max_grad_calls must be >= 1, got {self.max_grad_calls}")
        if self.method.n is not None and self.method.n + 1 > self.max_grad_calls:
            raise ValueError(f"{self.method.label()} needs n + 1 gradients, over max_grad_calls {self.max_grad_calls}")
        if self.eps_rel is not None and not (math.isfinite(self.eps_rel) and self.eps_rel > 0):
            raise ValueError(f"eps_rel must be finite and positive, got {self.eps_rel}")


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


def build_problem(spec: ProblemSpec):
    if isinstance(spec, QuadraticSpec):
        return QuadraticProblem(diag=spec.diag)
    if isinstance(spec, LogRegSpec):
        return gen_logreg(spec.n_samples, spec.n_features, spec.reg, spec.seed)
    if isinstance(spec, LogRegCsvSpec):
        return load_logreg_csv(spec.path, spec.reg)
    raise ValueError(f"unknown problem spec: {spec!r}")


def make_start(spec: StartSpec, dim: int) -> Vector:
    if spec.kind == "zeros":
        return np.zeros(dim)
    if spec.kind == "ones":
        return np.ones(dim)
    return SplitMix64(spec.seed).normals(dim)  # gaussian: StartSpec rejects every other kind


def _resolve_epsilon(spec: ExperimentSpec, objective, x0: Vector) -> SolverConfig:
    """Turn a relative target into an absolute one using the start gradient.

    The product is clamped to the finite positive normal floats. The sizing
    evaluation runs on the raw objective, outside the counted oracle: it is
    experiment setup, not solver work.
    """
    if spec.eps_rel is None:
        return spec.config
    g0 = norm2(np.asarray(objective.gradient(x0), dtype=np.float64))
    eps = min(max(spec.eps_rel * g0, sys.float_info.min), sys.float_info.max)
    return replace(spec.config, epsilon=eps)


def _run_fixed_budget(oracle: CountingOracle, x0: Vector, L: float, n: int, epsilon: float) -> DriverResult:
    """Single fixed-budget run wrapped into a DriverResult.

    Records one event per iterate, the last one terminated if it meets epsilon; ogmg_run
    reserves the final verification gradient with its n steps, and the harness evaluates it itself.
    """
    result = DriverResult(oracle)

    def probe(x: Vector, g_vec: Vector) -> None:
        result.event(EventKind.OUTER_STEP, x, norm2(g_vec), L_estimate=L)

    x_final = ogmg_run(oracle, x0, L, n, iterate_probe=probe)
    g_final = norm2(oracle.gradient(x_final))
    kind = EventKind.TERMINATED if g_final <= epsilon else EventKind.OUTER_STEP
    result.event(kind, x_final, g_final, L_estimate=L)
    return result


def _execute(spec: ExperimentSpec, problem) -> tuple[DriverResult, CountingOracle, SolverConfig]:
    """Solve an experiment on problem, the instance built from spec.problem."""
    objective = problem.objective()
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = spec.max_grad_calls
    x0 = make_start(spec.x0, problem.dim)
    # the oracle or the pass check diagnoses every non-finite result; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        cfg = _resolve_epsilon(spec, objective, x0)
        result = METHODS[spec.method.name].solve(oracle, x0, cfg, spec.method.n)
    return result, oracle, cfg


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows, creating the file's directory; None is an empty cell, booleans are true/false."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    rows = ((idx, ev.kind.value, *ev[1:]) for idx, ev in enumerate(trace.events))
    _write_csv(path, TRACE_HEADER.split(","), rows)


def run_experiment(spec: ExperimentSpec) -> tuple[DriverResult, Path]:
    """Execute one configured run; write trace.csv and summary.json.

    Returns the result and the trace file path. The caller maps outcomes to
    exit codes: 0 converged, 2 budget exhausted (1 and 3 arise from
    invalid specs and oracle aborts respectively).
    """
    start_time = time.perf_counter()
    result, oracle, cfg = _execute(spec, build_problem(spec.problem))
    wall = time.perf_counter() - start_time

    trace_path = Path(spec.output_dir) / "trace.csv"
    write_trace_csv(result.trace, trace_path)
    summary = {
        "schema": "fastgrad-run-v2",
        "problem": spec.problem.label(),
        "method": spec.method.label(),
        "x0": spec.x0.label(),
        "epsilon": cfg.epsilon,
        "converged": result.converged,
        "grad_calls": oracle.grad_calls,
        "value_calls": oracle.value_calls,
        "final_grad_norm": result.trace.events[-1].grad_norm,
        "best_grad_norm": result.best_grad_norm,
        "events": len(result.trace.events),
        "wall_time_s": wall,
    }
    with open(trace_path.with_name("summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return result, trace_path


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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork, make a claim file or read its CPU set."""
    if not all(hasattr(os, name) for name in ("fork", "memfd_create", "sched_getaffinity")):
        return 1  # Windows has no fork, macOS no memfd or CPU set
    return len(os.sched_getaffinity(0))


def _solve_claims(points: list[tuple], indices: Iterable[int]) -> tuple[list[tuple], Optional[tuple[int, Exception]]]:
    """Solve the (spec, problem) points at indices; after a failure, only those of lower index.

    Returns (index, grad_calls, value_calls, converged) per solved point, and
    (index, exception) of the lowest-indexed failure or None; any exception counts.
    """
    rows, failure = [], None
    for index in indices:
        if failure is None or index < failure[0]:
            try:
                result, oracle, _ = _execute(*points[index])
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
    instances = {problem: build_problem(problem) for problem in dict.fromkeys(point.problem for point in points)}
    built = [instances[point.problem] for point in points]
    # mu0/L0 points share one instance, whose large products OpenBLAS already threads
    workers = min(len(points), _usable_cpus()) if spec.axis in ("L", "mu") else 1
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

    problem = build_problem(first.problem)
    results: dict[str, DriverResult] = {}
    for spec in specs:
        result, _, _ = _execute(spec, problem)
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
