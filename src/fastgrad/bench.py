"""Benchmark harness: configured runs, sweep grids, method comparisons.

Outputs are plain CSV plus a JSON summary per run; plotting is a thin
downstream step. Oracle calls are the portable complexity measure, wall
time is recorded for information only.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import DEFAULT_MAX_GRAD_CALLS, CountingOracle, EventKind, RunTrace, Vector, norm2
from .drivers import DriverResult, SolverConfig, acgm, algm, ogmg_repeated, ugm
from .ogmg import ogmg_run
from .problems import QuadraticProblem, gen_logreg, load_logreg_csv
from .rng import SplitMix64

TRACE_HEADER = (
    "event_index,event_kind,value_calls,grad_calls,grad_norm,"
    "f_value,mu_estimate,L_estimate"
)
SWEEP_HEADER = "axis_value,sqrt_L_over_mu,total_grad_calls,total_value_calls,converged"

METHODS = ("ogmg", "ogmg_repeated", "acgm", "algm", "ugm")
START_KINDS = ("zeros", "ones", "gaussian")
SWEEP_AXES = ("L", "mu", "mu0", "L0")


@dataclass(frozen=True)
class QuadraticSpec:
    diag: tuple[float, ...]

    def label(self) -> str:
        return "quadratic:" + ",".join(repr(d) for d in self.diag)


@dataclass(frozen=True)
class LogRegSpec:
    n_samples: int
    n_features: int
    reg: float
    seed: int

    def label(self) -> str:
        return f"logreg:{self.n_samples},{self.n_features},{self.reg!r},{self.seed}"


@dataclass(frozen=True)
class LogRegCsvSpec:
    path: str
    reg: float

    def label(self) -> str:
        return f"logreg_csv:{self.path},{self.reg!r}"


ProblemSpec = Union[QuadraticSpec, LogRegSpec, LogRegCsvSpec]


@dataclass(frozen=True)
class MethodSpec:
    """Which solver to run. ogmg needs n (and an explicit L0 in the config);
    ogmg_repeated needs its own L and mu; the adaptive methods need only the
    config seeds."""

    name: str
    n: Optional[int] = None
    L: Optional[float] = None
    mu: Optional[float] = None

    def label(self) -> str:
        if self.name == "ogmg":
            return f"ogmg:{self.n}"
        if self.name == "ogmg_repeated":
            return f"ogmg_repeated:{self.L!r},{self.mu!r}"
        return self.name


@dataclass(frozen=True)
class StartSpec:
    kind: str = "gaussian"
    seed: int = 0

    def label(self) -> str:
        return f"{self.kind}:{self.seed}" if self.kind == "gaussian" else self.kind


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemSpec
    method: MethodSpec
    config: SolverConfig
    x0: StartSpec = StartSpec()
    output_dir: Optional[Path] = None
    eps_rel: Optional[float] = None  # when set, epsilon = eps_rel * |grad f(x0)|
    trace_values: bool = False  # per-iterate value instrumentation (ogmg only)
    max_grad_calls: int = DEFAULT_MAX_GRAD_CALLS  # hard cap, enforced by the oracle


@dataclass(frozen=True)
class SweepSpec:
    base: ExperimentSpec
    axis: str  # one of SWEEP_AXES
    values: tuple[float, ...]
    repetitions: int = 1


def build_problem(spec: ProblemSpec):
    if isinstance(spec, QuadraticSpec):
        return QuadraticProblem(diag=np.array(spec.diag))
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
    if spec.kind == "gaussian":
        return SplitMix64(spec.seed).normals(dim)
    raise ValueError(f"unknown start kind: {spec.kind!r} (expected one of {START_KINDS})")


def validate_experiment(spec: ExperimentSpec) -> None:
    reg = getattr(spec.problem, "reg", 1.0)  # the quadratic family has no regularizer
    if not (math.isfinite(reg) and reg > 0):
        raise ValueError(f"reg must be finite and positive, got {reg}")
    if spec.method.name not in METHODS:
        raise ValueError(f"unknown method {spec.method.name!r} (expected one of {METHODS})")
    if spec.x0.kind not in START_KINDS:
        raise ValueError(f"unknown start kind {spec.x0.kind!r}")
    if spec.max_grad_calls < 1:
        raise ValueError(f"max_grad_calls must be >= 1, got {spec.max_grad_calls}")
    if spec.method.name == "ogmg":
        if spec.method.n is None or spec.method.n < 1:
            raise ValueError("method ogmg requires a step budget n >= 1")
        if spec.method.n + 1 > spec.max_grad_calls:
            raise ValueError(
                f"ogmg:{spec.method.n} needs n + 1 gradients, over max_grad_calls {spec.max_grad_calls}"
            )
    if spec.method.name == "ogmg_repeated":
        if spec.method.L is None or spec.method.mu is None:
            raise ValueError("method ogmg_repeated requires explicit L and mu")
        if not all(math.isfinite(v) and v > 0 for v in (spec.method.L, spec.method.mu)):
            raise ValueError("ogmg_repeated needs finite positive L and mu")
    if spec.trace_values and spec.method.name != "ogmg":
        raise ValueError("trace_values instrumentation is only supported for method ogmg")
    if spec.eps_rel is not None and not (math.isfinite(spec.eps_rel) and spec.eps_rel > 0):
        raise ValueError(f"eps_rel must be finite and positive, got {spec.eps_rel}")


def _resolve_epsilon(spec: ExperimentSpec, objective, x0: Vector) -> SolverConfig:
    """Turn a relative target into an absolute one using the start gradient.

    The sizing evaluation runs on the raw objective, outside the counted
    oracle: it is experiment setup, not solver work.
    """
    if spec.eps_rel is None:
        return spec.config
    g0 = norm2(np.asarray(objective.gradient(x0), dtype=np.float64))
    eps = max(spec.eps_rel * g0, float(np.finfo(np.float64).tiny))
    return replace(spec.config, epsilon=eps)


def _run_fixed_budget(
    oracle: CountingOracle,
    x0: Vector,
    L: float,
    n: int,
    epsilon: float,
    trace_values: bool,
) -> DriverResult:
    """Single fixed-budget run wrapped into a DriverResult.

    Records one event per iterate; ogmg_run reserves the final verification
    gradient with its n steps, and the harness evaluates it itself.
    """
    result = DriverResult(oracle, instrumented_values=trace_values)

    def probe(x: Vector, g_vec: Vector) -> None:
        g = norm2(g_vec)
        f_val = oracle.value(x) if trace_values else None
        result.event(EventKind.OUTER_STEP, x, g, f_value=f_val, L_estimate=L)

    x_final = ogmg_run(oracle, x0, L, n, iterate_probe=probe)
    g_final = norm2(oracle.gradient(x_final))
    f_final = oracle.value(x_final) if trace_values else None
    converged = g_final <= epsilon
    kind = EventKind.TERMINATED if converged else EventKind.OUTER_STEP
    result.accepted_points = 2  # x0 and x_final
    result.event(kind, x_final, g_final, f_value=f_final, L_estimate=L)
    return result.finish(converged)


def _execute(spec: ExperimentSpec, problem) -> tuple[DriverResult, CountingOracle, SolverConfig]:
    """Solve a validated experiment on problem, the instance built from spec.problem."""
    objective = problem.objective()
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = spec.max_grad_calls
    x0 = make_start(spec.x0, problem.dim)
    cfg = _resolve_epsilon(spec, objective, x0)
    m = spec.method
    if m.name == "ogmg":
        result = _run_fixed_budget(oracle, x0, cfg.L0, m.n, cfg.epsilon, spec.trace_values)
    elif m.name == "ogmg_repeated":
        result = ogmg_repeated(oracle, x0, m.L, m.mu, cfg.epsilon)
    elif m.name == "acgm":
        result = acgm(oracle, x0, cfg.L0, cfg)
    elif m.name == "algm":
        result = algm(oracle, x0, cfg)
    elif m.name == "ugm":
        result = ugm(oracle, x0, cfg)
    else:  # pragma: no cover - validate_experiment rejects these
        raise ValueError(f"unknown method {m.name!r}")
    return result, oracle, cfg


def _solve_all(specs: list[ExperimentSpec]) -> Iterator[tuple]:
    """Validate every spec, build each distinct problem once, then solve in order.

    Nothing is generated or solved until every spec is valid. Yields
    (problem, result, oracle, cfg) per spec, so a caller holds one result at a time.
    """
    for spec in specs:
        validate_experiment(spec)
    built = {}  # one instance per distinct problem; sweep points on the mu0/L0 axes share one
    for spec in specs:
        if spec.problem not in built:
            built[spec.problem] = build_problem(spec.problem)
    for spec in specs:
        problem = built[spec.problem]
        yield (problem, *_execute(spec, problem))


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows; None is an empty cell, booleans are true/false."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(value) for value in row])


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    rows = (
        [
            idx,
            ev.kind.value,
            ev.value_calls,
            ev.grad_calls,
            ev.grad_norm,
            ev.f_value,
            ev.mu_estimate,
            ev.L_estimate,
        ]
        for idx, ev in enumerate(trace.events)
    )
    _write_csv(path, TRACE_HEADER.split(","), rows)


def run_experiment(spec: ExperimentSpec) -> tuple[DriverResult, Path]:
    """Execute one configured run; write trace.csv and summary.json.

    Returns the result and the trace file path. The caller maps outcomes to
    exit codes: 0 converged, 2 budget exhausted (1 and 3 arise from
    validation errors and oracle aborts respectively).
    """
    if spec.output_dir is None:
        raise ValueError("run_experiment requires output_dir")

    start_time = time.perf_counter()
    _, result, oracle, cfg = next(_solve_all([spec]))
    wall = time.perf_counter() - start_time

    out = Path(spec.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    write_trace_csv(result.trace, trace_path)
    summary = {
        "schema": "fastgrad-run-v1",
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
        "accepted_points": result.accepted_points,
        "instrumented_values": result.trace.instrumented_values,
        "wall_time_s": wall,
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return result, trace_path


def _sweep_point(base: ExperimentSpec, axis: str, value: float, rep: int) -> ExperimentSpec:
    """Build the grid-point experiment for one (axis value, repetition)."""
    problem = base.problem
    cfg = base.config
    if axis in ("L", "mu"):
        if not isinstance(problem, QuadraticSpec) or len(problem.diag) != 2:
            raise ValueError(f"axis {axis!r} sweeps need a 2-dim quadratic problem")
        diag = (value, problem.diag[1]) if axis == "L" else (problem.diag[0], value)
        problem = QuadraticSpec(diag=diag)
        # the solver is granted the instance's true smoothness constant;
        # mu0 re-derives from it
        cfg = replace(cfg, L0=max(diag), mu0=None)
    elif axis == "mu0":
        cfg = replace(cfg, mu0=value)
    elif axis == "L0":
        cfg = replace(cfg, L0=value, mu0=None)
    else:
        raise ValueError(f"unknown sweep axis {axis!r} (expected one of {SWEEP_AXES})")
    x0 = base.x0
    if x0.kind == "gaussian":
        x0 = StartSpec(kind="gaussian", seed=x0.seed + rep)
    return replace(base, problem=problem, config=cfg, x0=x0)


def run_sweep(spec: SweepSpec) -> tuple[list[dict], Path]:
    """Run every grid point x repetition; write one summary row each.

    All grid points are validated before any of them executes, and rows are
    written in grid order, so fixed seeds give bit-identical files.
    """
    if spec.base.output_dir is None:
        raise ValueError("run_sweep requires output_dir on the base experiment")
    if spec.repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    values = tuple(float(v) for v in spec.values)
    if not values:
        raise ValueError("sweep needs at least one axis value")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError("axis values must be finite and strictly positive")
    if list(values) != sorted(values) or len(set(values)) != len(values):
        raise ValueError("axis values must be sorted ascending without duplicates")

    grid = [
        (value, _sweep_point(spec.base, spec.axis, value, rep))
        for value in values
        for rep in range(spec.repetitions)
    ]
    solves = _solve_all([point for _, point in grid])
    rows = []
    for (value, _), (problem, result, oracle, _) in zip(grid, solves):
        rows.append(
            {
                "axis_value": value,
                "sqrt_L_over_mu": float(np.sqrt(problem.known_L / problem.known_mu)),
                "total_grad_calls": oracle.grad_calls,
                "total_value_calls": oracle.value_calls,
                "converged": result.converged,
            }
        )
    out = Path(spec.base.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    header = SWEEP_HEADER.split(",")
    _write_csv(path, header, ([row[name] for name in header] for row in rows))
    return rows, path


def compare(specs: list[ExperimentSpec]) -> tuple[dict[str, DriverResult], Path]:
    """Run several methods on one problem; write aligned overlay columns.

    Every spec must share the problem and start point. The CSV holds one
    grad_calls/grad_norm column pair per method, rows padded at the tail.
    """
    if not specs:
        raise ValueError("compare needs at least one experiment")
    first = specs[0]
    if first.output_dir is None:
        raise ValueError("compare requires output_dir on the first experiment")
    for other in specs[1:]:
        if other.problem != first.problem:
            raise ValueError("compare experiments must share the problem")
        if other.x0 != first.x0:
            raise ValueError("compare experiments must share the start point")

    results: dict[str, DriverResult] = {}
    for spec, (_, result, _, _) in zip(specs, _solve_all(specs)):
        label = spec.method.label().replace(":", "_").replace(",", "_")
        while label in results:
            label += "+"
        results[label] = result

    out = Path(first.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "compare.csv"
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
