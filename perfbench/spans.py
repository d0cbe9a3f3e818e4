"""Span recorder for the traced run, and the per-layer metrics derived from it.

Each layer is wrapped where its caller looks the name up (a module global or
a class attribute), only while a traced pass runs, so the program's sources
stay untouched. Spans (name, start, end, parent) live in flat arrays during
the pass and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import weakref
from array import array
from time import perf_counter
from typing import Callable, Optional

import numpy as np

from fastgrad import bench, drivers, ogmg, problems, rng
from fastgrad.core import EventKind

ENTRY = "cli.main"
DRIVER = "drivers.solve"
ATTEMPTS = ("ogmg.ogmg_run", "ogmg.ogmgl_run")

LAYER_UNITS = {
    "rng.normals_s": "s",
    "rng.variates": "count",
    "problems.build_s": "s",
    "problems.builds": "count",
    "problems.lipschitz_s": "s",
    "problems.lipschitz_calls": "count",
    "problems.value_s": "s",
    "problems.grad_s": "s",
    "core.check_s": "s",
    "ogmg.ogmg_run.calls": "count",
    "ogmg.ogmg_run.steps": "count",
    "ogmg.ogmg_run.self_s": "s",
    "ogmg.ogmg_run.self_us_per_step": "us",
    "ogmg.ogmgl_run.calls": "count",
    "ogmg.ogmgl_run.inner_restarts": "count",
    "ogmg.ogmgl_run.pass_yield": "ratio",
    "ogmg.ogmgl_run.self_s": "s",
    "ogmg.make_schedule.misses": "count",
    "ogmg.schedule_cache_bytes": "bytes",
    "drivers.solve_s": "s",
    "drivers.self_s": "s",
    "drivers.attempts": "count",
    "drivers.accept_ratio": "ratio",
    "bench.make_start_s": "s",
    "bench.write_trace_s": "s",
    "bench.bytes_out": "bytes",
    "bench.self_s": "s",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Collects spans and the counts observed at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._schedules: dict[int, weakref.ref] = {}

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, name: str, fn: Callable, on_return: Optional[Callable] = None) -> Callable:
        """fn wrapped so each call records a span; on_return(args, kwargs, result) runs after it."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def note_schedule(self, _args, _kwargs, sched) -> None:
        """A schedule object not handed out before in this pass is a cache miss."""
        ref = self._schedules.get(id(sched))
        if ref is None or ref() is not sched:
            self.add("ogmg.make_schedule.misses", 1)
            self._schedules[id(sched)] = weakref.ref(sched)

    def live_schedule_bytes(self) -> int:
        """Bytes of the schedules still alive once the pass returned: the cache's."""
        gc.collect()
        live = (ref() for ref in self._schedules.values())
        return sum(s.theta.nbytes + s.beta_coef.nbytes + s.gamma_coef.nbytes for s in live if s is not None)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _patches(t: Tracer) -> list[tuple[object, str, object]]:
    base_oracle = bench.CountingOracle

    class TracedOracle(base_oracle):
        """The counting oracle with its boundary and its objective callables traced."""

        def __init__(self, inner):
            super().__init__(
                dataclasses.replace(
                    inner,
                    value=t.span("problems.value", inner.value),
                    gradient=t.span("problems.grad", inner.gradient),
                )
            )

        value = t.span("core.value", base_oracle.value)
        gradient = t.span("core.gradient", base_oracle.gradient)

    def accepted(_args, _kwargs, result):
        outer = sum(ev.kind is EventKind.OUTER_STEP for ev in result.trace.events)
        t.add("drivers.accepted", outer - 1)  # the first outer_step row is the start point

    def steps(args, kwargs, _result):
        t.add("ogmg.ogmg_run.steps", _arg(args, kwargs, 3, "N"))

    def restarts(_args, _kwargs, outcome):
        t.add("ogmg.ogmgl_run.inner_restarts", outcome.inner_restarts)

    def variates(args, kwargs, _result):
        t.add("rng.variates", _arg(args, kwargs, 1, "count"))

    patches = [
        (bench, "CountingOracle", TracedOracle),
        (bench, "build_problem", t.span("problems.build", bench.build_problem)),
        (bench, "make_start", t.span("bench.make_start", bench.make_start)),
        (bench, "write_trace_csv", t.span("bench.write_trace", bench.write_trace_csv)),
        (bench, "ogmg_run", t.span("ogmg.ogmg_run", bench.ogmg_run, steps)),
        (drivers, "ogmg_run", t.span("ogmg.ogmg_run", drivers.ogmg_run, steps)),
        (drivers, "ogmgl_run", t.span("ogmg.ogmgl_run", drivers.ogmgl_run, restarts)),
        (ogmg, "make_schedule", t.span("ogmg.make_schedule", ogmg.make_schedule, t.note_schedule)),
        (problems, "lipschitz_upper_bound", t.span("problems.lipschitz", problems.lipschitz_upper_bound)),
        (rng.SplitMix64, "normals", t.span("rng.normals", rng.SplitMix64.normals, variates)),
    ]
    for driver in ("acgm", "algm", "ugm", "ogmg_repeated"):
        patches.append((bench, driver, t.span(DRIVER, getattr(bench, driver), accepted)))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the program's layer boundaries through tracer while the block runs."""
    patches = _patches(tracer)
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, traced in patches:
            setattr(obj, attr, traced)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def layer_metrics(t: Tracer, bytes_out: int) -> dict[str, float]:
    """Per-layer figures of one traced pass. Self time is a span's duration
    minus the part of it its child spans cover."""
    name_id = np.frombuffer(t.name_id, dtype=np.int32)
    parent = np.frombuffer(t.parent, dtype=np.int64)
    dur = np.frombuffer(t.end) - np.frombuffer(t.start)
    covered = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(covered, parent[nested], dur[nested])
    self_time = dur - covered

    def pick(name: str) -> np.ndarray:
        if name not in t._ids:
            return np.zeros(len(dur), dtype=bool)
        return name_id == t._ids[name]

    def total(name: str) -> float:
        return float(dur[pick(name)].sum())

    def own(name: str) -> float:
        return float(self_time[pick(name)].sum())

    def calls(name: str) -> int:
        return int(pick(name).sum())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    in_driver = nested & pick(DRIVER)[np.where(nested, parent, 0)]
    attempts = int(sum((pick(name) & in_driver).sum() for name in ATTEMPTS))
    steps = t.counts.get("ogmg.ogmg_run.steps", 0)
    gl_calls = calls("ogmg.ogmgl_run")
    restarts = t.counts.get("ogmg.ogmgl_run.inner_restarts", 0)
    return {
        "rng.normals_s": total("rng.normals"),
        "rng.variates": t.counts.get("rng.variates", 0),
        "problems.build_s": total("problems.build"),
        "problems.builds": calls("problems.build"),
        "problems.lipschitz_s": total("problems.lipschitz"),
        "problems.lipschitz_calls": calls("problems.lipschitz"),
        "problems.value_s": total("problems.value"),
        "problems.grad_s": total("problems.grad"),
        "core.check_s": own("core.value") + own("core.gradient"),
        "ogmg.ogmg_run.calls": calls("ogmg.ogmg_run"),
        "ogmg.ogmg_run.steps": steps,
        "ogmg.ogmg_run.self_s": own("ogmg.ogmg_run"),
        "ogmg.ogmg_run.self_us_per_step": ratio(own("ogmg.ogmg_run") * 1e6, steps),
        "ogmg.ogmgl_run.calls": gl_calls,
        "ogmg.ogmgl_run.inner_restarts": restarts,
        "ogmg.ogmgl_run.pass_yield": ratio(gl_calls, gl_calls + restarts),
        "ogmg.ogmgl_run.self_s": own("ogmg.ogmgl_run"),
        "ogmg.make_schedule.misses": t.counts.get("ogmg.make_schedule.misses", 0),
        "ogmg.schedule_cache_bytes": t.live_schedule_bytes(),
        "drivers.solve_s": total(DRIVER),
        "drivers.self_s": own(DRIVER),
        "drivers.attempts": attempts,
        "drivers.accept_ratio": ratio(t.counts.get("drivers.accepted", 0), attempts),
        "bench.make_start_s": total("bench.make_start"),
        "bench.write_trace_s": total("bench.write_trace"),
        "bench.bytes_out": bytes_out,
        "bench.self_s": own(ENTRY),
    }
