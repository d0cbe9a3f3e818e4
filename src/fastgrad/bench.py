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
import time
from dataclasses import dataclass, replace
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import DEFAULT_MAX_GRAD_CALLS, CountingOracle, EventKind, RunTrace, TraceEvent, Vector, norm2
from .drivers import DriverResult, SolverConfig, acgm, algm, ogmg_repeated, ugm
from .ogmg import ogmg_run
from .problems import QuadraticProblem, gen_logreg, load_logreg_csv
from .rng import SplitMix64

TRACE_HEADER = ",".join(("event_index", "event_kind", *TraceEvent._fields[1:]))
SWEEP_HEADER = "axis_value,sqrt_L_over_mu,total_grad_calls,total_value_calls,converged"

METHODS = ("ogmg", "ogmg_repeated", "acgm", "algm", "ugm")
START_KINDS = ("zeros", "ones", "gaussian")
SWEEP_AXES = ("L", "mu", "mu0", "L0")
PROBLEM_FORMS = "quadratic:<diag,...> | logreg:<n,m,reg,seed> | logreg_csv:<path,reg>"
METHOD_FORMS = "ogmg:<n> | ogmg_repeated:<L,mu> | acgm | algm | ugm"


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

    @classmethod
    def parse(cls, name: str, payload: str) -> MethodSpec:
        if name == "ogmg":
            return cls(name, n=int(payload))
        if name == "ogmg_repeated":
            L, mu = payload.split(",")
            return cls(name, L=float(L), mu=float(mu))
        if payload:
            raise ValueError(f"method {name} takes no payload")
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
    result = DriverResult(oracle)

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
    else:  # ugm: validate_experiment rejects every other name
        result = ugm(oracle, x0, cfg)
    return result, oracle, cfg


def _build_all(specs: list[ExperimentSpec]) -> list:
    """Validate every spec, then build each distinct problem once; the instance per spec.

    Nothing is generated until every spec is valid.
    """
    for spec in specs:
        validate_experiment(spec)
    built = {}  # one instance per distinct problem; sweep points on the mu0/L0 axes share one
    for spec in specs:
        if spec.problem not in built:
            built[spec.problem] = build_problem(spec.problem)
    return [built[spec.problem] for spec in specs]


def _solve_all(specs: list[ExperimentSpec]) -> Iterator[tuple]:
    """Build every problem as _build_all does, then solve in order.

    Yields (problem, result, oracle, cfg) per spec, so a caller holds one result at a time.
    """
    for spec, problem in zip(specs, _build_all(specs)):
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
    rows = ((idx, ev.kind.value, *ev[1:]) for idx, ev in enumerate(trace.events))
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
        "instrumented_values": spec.trace_values,
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


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork or read its CPU set."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1  # Windows has no fork start method, macOS no CPU set
    return len(os.sched_getaffinity(0))


def _solve_share(share: list[tuple]) -> tuple[list[tuple], Optional[tuple[int, Exception]]]:
    """Solve (index, spec, problem) points in order, stopping at the first failure.

    Returns (index, grad_calls, value_calls, converged) per solved point, and
    (index, exception) of the failure or None. Any exception counts, so the
    caller can raise the one a serial run would have raised.
    """
    rows = []
    for index, spec, problem in share:
        try:
            result, oracle, _ = _execute(spec, problem)
        except Exception as exc:
            return rows, (index, exc)
        rows.append((index, oracle.grad_calls, oracle.value_calls, result.converged))
    return rows, None


def _solve_grid(points: list[tuple], costs: list[float], workers: int) -> list[tuple[int, int, bool]]:
    """(grad_calls, value_calls, converged) per (spec, problem) point, in grid order.

    Points are dealt round-robin by descending cost (ties by grid index) into
    one share per worker, each solved in grid order; this process solves the
    first share and forked workers the others, from copies of their points.
    The results do not depend on workers. A failure raises the exception of
    the lowest-indexed failing point, as a serial run would; a worker that
    dies raises BrokenProcessPool, a RuntimeError.
    """
    by_cost = sorted(range(len(points)), key=lambda i: (-costs[i], i))
    shares = [[(i, *points[i]) for i in sorted(by_cost[k::workers])] for k in range(workers)]
    if workers == 1:
        outcomes = [_solve_share(shares[0])]
    else:  # imported here, so that serial runs never pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_solve_share, share) for share in shares[1:]]
            outcomes = [_solve_share(shares[0])] + [future.result() for future in futures]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return [row[1:] for row in sorted(row for rows, _ in outcomes for row in rows)]


def run_sweep(spec: SweepSpec) -> tuple[list[dict], Path]:
    """Run every grid point x repetition; write one summary row each.

    All grid points are validated and built before any of them executes.
    Points of the L and mu axes, each its own 2-d quadratic, are solved in
    parallel on up to one process per usable CPU. Rows are written in grid
    order and do not depend on the process count, so fixed seeds give
    bit-identical files.
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
    if spec.axis == "mu0" and values[-1] > spec.base.config.L0:
        raise ValueError(f"mu0 axis values must not exceed L0 = {spec.base.config.L0!r}, to which mu0 is clamped")

    grid = [
        (value, _sweep_point(spec.base, spec.axis, value, rep))
        for value in values
        for rep in range(spec.repetitions)
    ]
    points = [point for _, point in grid]
    built = _build_all(points)
    ratios = [float(np.sqrt(problem.known_L / problem.known_mu)) for problem in built]
    # mu0/L0 points share one instance, whose large products OpenBLAS already threads
    workers = min(len(points), _usable_cpus()) if spec.axis in ("L", "mu") else 1
    solved = _solve_grid(list(zip(points, built)), ratios, workers)
    rows = [
        {
            "axis_value": value,
            "sqrt_L_over_mu": ratio,
            "total_grad_calls": grad_calls,
            "total_value_calls": value_calls,
            "converged": converged,
        }
        for (value, _), ratio, (grad_calls, value_calls, converged) in zip(grid, ratios, solved)
    ]
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
