"""Benchmark harness: experiment specs and one configured run (grid holds sweep and compare).

Outputs are plain CSV plus a JSON summary per run. Oracle calls are the
portable complexity measure, wall time is recorded for information only.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .core import DEFAULT_MAX_GRAD_CALLS, CountingOracle, EventKind, RunTrace, TraceEvent, Vector, _positive, norm2
from .drivers import DriverResult, SolverConfig, acgm, algm, ogmg_repeated, ugm
from .ogmg import ogmg_run
from .problems import QuadraticProblem, gen_logreg, load_logreg_csv
from .rng import SplitMix64

TRACE_HEADER = ("event_index", "event_kind", *TraceEvent._fields[1:])

START_KINDS = ("zeros", "ones", "gaussian")
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
        if self.kind != "gaussian":  # only the gaussian start reads its seed, so equal starts compare equal
            object.__setattr__(self, "seed", 0)

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
        _positive("reg", getattr(self.problem, "reg", 1.0))  # the quadratic family has no regularizer
        if self.max_grad_calls < 1:
            raise ValueError(f"max_grad_calls must be >= 1, got {self.max_grad_calls}")
        if self.method.n is not None and self.method.n + 1 > self.max_grad_calls:
            raise ValueError(f"{self.method.label()} needs n + 1 gradients, over max_grad_calls {self.max_grad_calls}")
        if self.eps_rel is not None:
            _positive("eps_rel", self.eps_rel)


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
    """Solve an experiment on problem, the instance built from spec.problem.

    A relative target becomes eps_rel * |grad f(x0)|, clamped to the finite
    positive normal floats. That gradient is set-up, not solver work: it is
    evaluated on the raw objective, outside the counted oracle.
    """
    objective = problem.objective()
    oracle = CountingOracle(objective)
    oracle.max_grad_calls = spec.max_grad_calls
    x0 = make_start(spec.x0, problem.dim)
    cfg = spec.config
    # the oracle or the pass check diagnoses every non-finite result; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.eps_rel is not None:
            eps = spec.eps_rel * norm2(np.asarray(objective.gradient(x0), dtype=np.float64))
            cfg = replace(cfg, epsilon=min(max(eps, sys.float_info.min), sys.float_info.max))
        result = METHODS[spec.method.name].solve(oracle, x0, cfg, spec.method.n)
    return result, oracle, cfg


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows, creating the file's directory; None is an empty cell, booleans are true/false."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([str(value).lower() if isinstance(value, bool) else value for value in row] for row in rows)


def write_trace_csv(trace: RunTrace, path: Path) -> None:
    rows = ((idx, ev.kind.value, *ev[1:]) for idx, ev in enumerate(trace.events))
    _write_csv(path, TRACE_HEADER, rows)


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
    trace_path.with_name("summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result, trace_path

