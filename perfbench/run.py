#!/usr/bin/env python3
"""Fixed-input benchmark for fastgrad.

Run from the repository root:

    python3 perfbench/run.py --workload quad-sweep --seed 0 --seconds 10 --trace 0

Each workload goes through the command-line entry point
`fastgrad.cli.main(argv)` in this process, one solve at a time (a closed
loop with one client). A run does, in order:

1. the first set-up and the first pass of the process, on inputs generated
   from `--seed`: untimed, checked like every other solve, and reported
   apart as `cold_setup_s` / `cold_wall_s`;
2. with `--trace 0`: passes on the fixed reference inputs for `--seconds`,
   each after a set-up sample, giving the end-to-end metrics; with
   `--trace 1`: alternating untraced and traced reference passes for
   `--seconds`, giving the per-layer metrics.

Every solve goes through a correctness gate (exit code, convergence, final
gradient norm within epsilon; on the reference inputs also the recorded
oracle counts and output sha256). Failures are logged to stderr and counted.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
run's context (versions, thread count, sample counts, tail percentile).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN_SAMPLES = 3
SETUP_BATCH_S = 0.1

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "grad_evals": "count",
    "oracle_evals": "count",
    "peak_rss_mb": "MB",
    "solved_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def pin_blas_threads(count: int) -> None:
    """Fix the BLAS pool size; only effective before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(count)


def platform_info(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
    }
    # The loaded OpenBLAS reports its live pool size and the kernel it chose;
    # output digests depend on both.
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            threads = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                info["blas_threads_live"] = threads()
                info["blas_config"] = config().decode()
    return info


class Checker:
    """The correctness gate. Every solve the run makes goes through it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._first_digest: dict[tuple, str] = {}

    def _fail(self, where: str, solves: int, reason: str) -> None:
        self.failed += solves
        print(f"FAIL {where}: {reason}", file=sys.stderr)

    def check_call(self, where, key, code, out, read, n_solves, expect=None):
        """Check one entry call; return its solves, or None if it produced none.

        expect, when given, holds the recorded grad_evals / value_evals totals
        and optionally the output sha256. key names the inputs: every pass on
        the same inputs in one run must reproduce the first pass's output.
        """
        self.attempted += n_solves
        if code != 0:
            self._fail(where, n_solves, f"exit code {code}")
            return None
        solves, digest = read(out, where)
        reasons = []
        if len(solves) != n_solves:
            reasons.append(f"{len(solves)} solves reported, {n_solves} expected")
        if expect is not None:
            grad = sum(s.grad_evals for s in solves)
            value = sum(s.value_evals for s in solves)
            if (grad, value) != (expect["grad_evals"], expect["value_evals"]):
                reasons.append(
                    f"grad/value evals {grad}/{value}, recorded "
                    f"{expect['grad_evals']}/{expect['value_evals']}"
                )
            if "sha256" in expect and digest != expect["sha256"]:
                reasons.append(f"output sha256 {digest}, recorded {expect['sha256']}")
        if self._first_digest.setdefault(key, digest) != digest:
            reasons.append("output differs from this run's first pass on the same inputs")
        if reasons:
            self._fail(where, n_solves, "; ".join(reasons))
            return solves
        for s in solves:
            if not s.converged:
                self._fail(s.label, 1, "not converged")
            elif s.final_grad_norm is not None and not s.final_grad_norm <= s.epsilon:
                self._fail(s.label, 1, f"final_grad_norm {s.final_grad_norm!r} > epsilon {s.epsilon!r}")
        return solves


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload, expected, out_root: Path):
        from fastgrad import cli, ogmg

        self.wl = workload
        self.expected = expected
        self.out_root = out_root
        self.entry = cli.main
        self.clear_schedules = getattr(ogmg.make_schedule, "cache_clear", lambda: None)
        self.checker = Checker()

    def run_calls(self, argvs, out: Path, entry=None):
        """Run each argv through the entry point, every call starting from an
        empty schedule cache as a fresh command would. Returns the summed
        entry time and (exit code, output dir) per call."""
        entry = entry or self.entry
        wall = 0.0
        calls = []
        for i, argv in enumerate(argvs):
            call_out = out / f"call{i}"
            shutil.rmtree(call_out, ignore_errors=True)
            self.clear_schedules()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    t0 = time.perf_counter()
                    code = entry(argv + ["--out", str(call_out)])
                    wall += time.perf_counter() - t0
            except Exception:  # a crash is a failed solve, not the end of the run
                traceback.print_exc()
                code = "uncaught exception"
            calls.append((code, call_out))
        return wall, calls

    def check_pass(self, inputs, tag, calls, expected=None):
        """Gate every call of one pass, against the recorded outputs per call
        when given; return all its solves in order, or None if a call
        produced none."""
        solves = []
        for i, (code, out) in enumerate(calls):
            got = self.checker.check_call(
                f"{self.wl.name} {inputs.name} {tag} call {i}", (inputs.name, i), code, out,
                self.wl.read, self.wl.solves_per_call, expected[i] if expected else None,
            )
            solves = None if got is None or solves is None else solves + got
        return solves

    def solve_and_check(self, inputs, argvs, tag):
        """An untimed pass on inputs with no recorded outputs: solve, gate, and
        cross-check through verification runs."""
        wall, calls = self.run_calls(argvs, self.out_root / inputs.name)
        solves = self.check_pass(inputs, tag, calls)
        checks = self.wl.verification(inputs)
        if solves is not None and checks:
            from workloads import read_run

            _, vcalls = self.run_calls(checks, self.out_root / f"{inputs.name}-verify")
            for i, ((code, out), row) in enumerate(zip(vcalls, solves)):
                self.checker.check_call(
                    f"{self.wl.name} {inputs.name} verify {i} ({row.label})",
                    (inputs.name, "verify", i), code, out, read_run, 1,
                    {"grad_evals": row.grad_evals, "value_evals": row.value_evals},
                )
        return wall

    def timed_pass(self, argvs, tag, entry=None):
        ref = self.wl.reference
        wall, calls = self.run_calls(argvs, self.out_root / ref.name, entry)
        return wall, self.check_pass(ref, tag, calls, self.expected)

    def setup_samples(self):
        """Time the set-up phase at least once and for at least SETUP_BATCH_S."""
        samples = []
        began = time.perf_counter()
        while not samples or time.perf_counter() - began < SETUP_BATCH_S:
            t0 = time.perf_counter()
            self.wl.setup(self.wl.reference)
            samples.append(time.perf_counter() - t0)
        return samples

    def end_to_end(self, argvs, seconds, info):
        # Set-up samples are interleaved with the passes so both spread over
        # the same stretch of time; the machine's speed drifts over seconds.
        setup, samples, solves = [], [], None
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            setup += self.setup_samples()
            wall, solves = self.timed_pass(argvs, f"timed {len(samples)}")
            samples.append(wall)
        while len(setup) < SETUP_MIN_SAMPLES:
            setup += self.setup_samples()
        solves = solves or []
        grad = sum(s.grad_evals for s in solves)
        value = sum(s.value_evals for s in solves)
        ordered = sorted(samples)
        info.update(
            wall_samples=len(samples),
            wall_samples_s=samples,
            setup_samples=len(setup),
            value_evals=value,
            # the highest percentile with at least ten samples beyond it
            wall_tail_percentile=100.0 * (len(ordered) - 10) / len(ordered) if len(ordered) > 10 else None,
            wall_tail_s=ordered[-11] if len(ordered) > 10 else None,
        )
        checker = self.checker
        return {
            "wall_s": statistics.median(samples),
            "setup_s": statistics.median(setup),
            "grad_evals": grad,
            "oracle_evals": grad + value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solved_frac": (checker.attempted - checker.failed) / max(checker.attempted, 1),
        }, E2E_UNITS

    def per_layer(self, argvs, seconds, info):
        import spans

        plain, traced, layers = [], [], []
        tracer = None
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            plain.append(self.timed_pass(argvs, f"untraced {len(plain)}")[0])
            tracer = spans.Tracer()
            with spans.installed(tracer):
                wall, _ = self.timed_pass(
                    argvs, f"traced {len(traced)}", tracer.span(spans.ENTRY, self.entry)
                )
            traced.append(wall)
            out = self.out_root / self.wl.reference.name
            bytes_out = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            layers.append(spans.layer_metrics(tracer, bytes_out))
        tracer.save(self.out_root / "spans.npz")
        info.update(traced_passes=len(traced), untraced_passes=len(plain), spans=len(tracer.start))
        metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        # adjacent passes share the machine's speed drift, so compare them pairwise
        metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
        return metrics, spans.LAYER_UNITS


def main(argv=None) -> int:
    args = parse_args(argv)
    # the CLI reads this override on every call; the recorded counts assume the default budget
    os.environ.pop("FASTGRAD_MAX_GRAD_CALLS", None)
    recorded = json.loads((HERE / "expected.json").read_text())
    pin_blas_threads(recorded["blas_threads"])
    if not (SRC / "fastgrad" / "__init__.py").is_file():
        print(f"error: fastgrad sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fastgrad

    if Path(fastgrad.__file__).resolve().parent != (SRC / "fastgrad").resolve():
        print(f"error: imported fastgrad from {fastgrad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    out_root = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace}
    info.update(platform_info(recorded["blas_threads"]))
    bench = Bench(wl, recorded["workloads"][wl.name], out_root)

    # The first set-up and pass of the process solve the seeded inputs; they
    # double as the warm-up and never enter a sample.
    seeded = wl.inputs_for_seed(args.seed)
    t0 = time.perf_counter()
    seeded_argvs = wl.setup(seeded)
    info["cold_setup_s"] = time.perf_counter() - t0
    info["cold_wall_s"] = bench.solve_and_check(seeded, seeded_argvs, "cold")

    ref_argvs = wl.setup(wl.reference)
    measure = bench.per_layer if args.trace else bench.end_to_end
    values, units = measure(ref_argvs, args.seconds, info)
    checker = bench.checker
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    (out_root / "result.json").write_text(json.dumps({"info": info, **result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
