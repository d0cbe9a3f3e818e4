import csv
import json
import math
import os
import re
import signal
import sys
import time
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastgrad import (
    CountingOracle,
    EventKind,
    ExperimentSpec,
    LogRegCsvSpec,
    MethodSpec,
    QuadraticProblem,
    QuadraticSpec,
    LogRegSpec,
    SolverConfig,
    SplitMix64,
    StartSpec,
    SweepSpec,
    TraceEvent,
    compare,
    lipschitz_upper_bound,
    norm2,
    ogmg_repeated,
    run_experiment,
    run_sweep,
)
from fastgrad import bench, grid, problems
from fastgrad.bench import (
    METHOD_FORMS,
    METHODS,
    PROBLEM_FORMS,
    START_KINDS,
    TRACE_HEADER,
    build_problem,
    make_start,
    parse_method,
    parse_problem,
)
from fastgrad.cli import main
from fastgrad.grid import SWEEP_AXES
from fastgrad.ogmg import StalledIterate

ILL = QuadraticSpec(diag=(1000.0, 0.1))
# each method as a CLI form: a method that takes n gets a step budget
METHOD_LABELS = [f"{name}:60" if row.takes_n else name for name, row in METHODS.items()]


def spec(tmp_path, method=MethodSpec(name="acgm"), problem=ILL, **kwargs):
    defaults = dict(
        problem=problem,
        method=method,
        config=SolverConfig(epsilon=1.0, L0=1000.0),
        x0=StartSpec("gaussian", 7),
        output_dir=tmp_path / "run",
        eps_rel=2.0**-20,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


def trace_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def optional_float(cell):
    return float(cell) if cell else None


class TestRunExperiment:
    def test_writes_trace_and_summary(self, tmp_path):
        result, trace_path = run_experiment(spec(tmp_path))
        assert result.converged
        assert trace_path.read_text().splitlines()[0] == ",".join(TRACE_HEADER)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["method"] == "acgm"
        assert summary["grad_calls"] == result.trace.events[-1].grad_calls
        assert summary["final_grad_norm"] == result.trace.events[-1].grad_norm
        assert summary["wall_time_s"] >= 0.0

    def test_trace_round_trips_losslessly(self, tmp_path):
        result, trace_path = run_experiment(spec(tmp_path, method=MethodSpec(name="algm")))
        rows = trace_rows(trace_path)
        assert len(rows) == len(result.trace.events)
        for idx, (row, ev) in enumerate(zip(rows, result.trace.events)):
            assert int(row["event_index"]) == idx
            assert EventKind(row["event_kind"]) == ev.kind
            assert int(row["value_calls"]) == ev.value_calls
            assert int(row["grad_calls"]) == ev.grad_calls
            assert float(row["grad_norm"]) == ev.grad_norm
            assert optional_float(row["f_value"]) == ev.f_value
            assert optional_float(row["mu_estimate"]) == ev.mu_estimate
            assert optional_float(row["L_estimate"]) == ev.L_estimate

    def test_final_row_matches_result(self, tmp_path):
        result, trace_path = run_experiment(spec(tmp_path))
        last = trace_rows(trace_path)[-1]
        assert EventKind(last["event_kind"]) == EventKind.TERMINATED
        assert float(last["grad_norm"]) <= json.loads((tmp_path / "run" / "summary.json").read_text())["epsilon"]

    def test_eps_rel_resolution(self, tmp_path):
        result, _ = run_experiment(spec(tmp_path))
        p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
        g0 = norm2(p.objective().gradient(make_start(StartSpec("gaussian", 7), 2)))
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["epsilon"] == pytest.approx(g0 * 2.0**-20, rel=1e-15)

    def test_pre_satisfied_target_single_terminated_event(self, tmp_path):
        s = spec(tmp_path, x0=StartSpec("zeros"), eps_rel=None)
        result, _ = run_experiment(s)
        assert result.converged
        assert len(result.trace.events) == 1
        assert result.trace.events[0].kind == EventKind.TERMINATED

    def test_overflowing_relative_target_is_capped(self, tmp_path):
        # eps_rel * |grad f(x0)| = 1e600 is capped at the largest float, which the start meets
        s = spec(tmp_path, method=MethodSpec(name="ugm"), problem=QuadraticSpec(diag=(1e300, 1.0)),
                 x0=StartSpec("ones"), eps_rel=1e300)
        result, _ = run_experiment(s)
        assert result.converged
        assert [ev.kind for ev in result.trace.events] == [EventKind.TERMINATED]
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["epsilon"] == sys.float_info.max

    def test_repeated_method_trace_halves_per_event(self, tmp_path):
        s = spec(
            tmp_path,
            method=MethodSpec(name="ogmg_repeated"),
            config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.1),
            eps_rel=2.0**-20,
        )
        result, trace_path = run_experiment(s)
        assert result.converged
        norms = [float(row["grad_norm"]) for row in trace_rows(trace_path)]
        assert all(b <= 0.5 * a for a, b in zip(norms, norms[1:]))

    def test_fixed_budget_method_traces_every_iterate(self, tmp_path):
        s = spec(tmp_path, method=MethodSpec(name="ogmg", n=25), eps_rel=1e-12)
        result, _ = run_experiment(s)
        assert len(result.trace.events) == 26  # one per iterate plus the final point
        assert result.trace.events[-1].grad_calls == 26  # n plus the verification call

    def test_ogmg_repeated_runs_at_the_config_constants(self, tmp_path):
        # the known-constants baseline takes L from L0 and mu from mu0, as its driver call would
        s = spec(tmp_path, method=MethodSpec(name="ogmg_repeated"), config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.1))
        result, _ = run_experiment(s)
        x0 = make_start(s.x0, 2)
        objective = QuadraticProblem(diag=ILL.diag).objective()
        epsilon = json.loads((tmp_path / "run" / "summary.json").read_text())["epsilon"]
        expected = ogmg_repeated(CountingOracle(objective), x0, 1000.0, 0.1, epsilon)
        assert result.trace.events == expected.trace.events
        assert {(ev.L_estimate, ev.mu_estimate) for ev in result.trace.events} == {(1000.0, 0.1)}

    def test_start_modes(self):
        assert np.array_equal(make_start(StartSpec("zeros"), 3), np.zeros(3))
        assert np.array_equal(make_start(StartSpec("ones"), 3), np.ones(3))
        gauss = make_start(StartSpec("gaussian", 5), 3)
        assert np.array_equal(gauss, SplitMix64(5).normals(3))

    def test_build_problem_rejects_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown problem spec"):
            build_problem("quadratic:1,1")


class TestSweep:
    def base(self, tmp_path, **kwargs):
        return spec(tmp_path, problem=QuadraticSpec(diag=(100.0, 1.0)),
                    config=SolverConfig(epsilon=1.0, L0=100.0), **kwargs)

    def test_rows_and_file(self, tmp_path):
        rows, path = run_sweep(SweepSpec(base=self.base(tmp_path), axis="L", values=(100.0, 400.0)))
        assert len(rows) == 2
        assert rows[0]["sqrt_L_over_mu"] == pytest.approx(10.0)
        assert rows[1]["sqrt_L_over_mu"] == pytest.approx(20.0)
        assert all(r["converged"] for r in rows)
        header = path.read_text().splitlines()[0]
        assert header == "axis_value,sqrt_L_over_mu,total_grad_calls,total_value_calls,converged"

    def test_bit_identical_re_runs(self, tmp_path):
        s = SweepSpec(base=self.base(tmp_path), axis="L", values=(100.0, 400.0), repetitions=2)
        _, path1 = run_sweep(s)
        first = path1.read_bytes()
        _, path2 = run_sweep(s)
        assert path2.read_bytes() == first

    def test_degenerate_sweep_matches_run(self, tmp_path):
        base = self.base(tmp_path)
        rows, _ = run_sweep(SweepSpec(base=base, axis="L", values=(100.0,)))
        result, _ = run_experiment(base)
        summary = json.loads((base.output_dir / "summary.json").read_text())
        assert rows[0]["total_grad_calls"] == summary["grad_calls"]
        assert rows[0]["total_value_calls"] == summary["value_calls"]
        assert rows[0]["converged"] == summary["converged"]

    def test_baseline_sweeps_at_the_true_mu(self, tmp_path):
        # the known-constants baseline is granted each point's true mu, as every method its true L;
        # at mu = L the last row took 17833 gradients
        base = self.base(tmp_path, method=MethodSpec("ogmg_repeated"), x0=StartSpec("gaussian", 0), eps_rel=1e-6)
        rows, _ = run_sweep(SweepSpec(base=base, axis="L", values=(100.0, 400.0, 1600.0, 6400.0)))
        run_experiment(replace(base, problem=QuadraticSpec(diag=(6400.0, 1.0)),
                               config=SolverConfig(epsilon=1.0, L0=6400.0, mu0=1.0)))
        summary = json.loads((base.output_dir / "summary.json").read_text())
        assert rows[-1]["total_grad_calls"] == summary["grad_calls"] == 685

    def test_mu0_axis_varies_config_only(self, tmp_path):
        rows, _ = run_sweep(
            SweepSpec(base=self.base(tmp_path), axis="mu0", values=(1.0, 100.0))
        )
        assert rows[0]["sqrt_L_over_mu"] == rows[1]["sqrt_L_over_mu"]

    @pytest.mark.parametrize(
        "axis,values,reps,message",
        [  # explicit ids keep the names the cases had before the axis argument
            pytest.param("L", (400.0, 100.0), 1, "ascending", id="values0-ascending"),
            pytest.param("L", (100.0, 100.0), 1, "ascending", id="values1-ascending"),
            pytest.param("L", (-1.0, 2.0), 1, "positive", id="values2-positive"),
            pytest.param("L", (), 1, "at least one", id="values3-at least one"),
            pytest.param("mu", (math.nan,), 1, "positive", id="mu-nan-positive"),
            pytest.param("mu0", (1.0, 1000.0), 1, "L0", id="mu0-above-L0"),
            pytest.param("beta", (1.0,), 1, "unknown sweep axis", id="unknown-axis"),
            pytest.param("L", (100.0,), 0, "repetitions must be >= 1", id="zero-repetitions"),
            # past the fixed curvature, an L axis would sweep mu and a mu axis L
            pytest.param("L", (0.5, 100.0), 1, "at least the base's second curvature 1.0", id="L-below-second-curvature"),
            pytest.param("mu", (1.0, 200.0), 1, "at most the base's first curvature 100.0", id="mu-above-first-curvature"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, axis, values, reps, message):
        with pytest.raises(ValueError, match=message):
            run_sweep(SweepSpec(base=self.base(tmp_path), axis=axis, values=values, repetitions=reps))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("axis", SWEEP_AXES)
    def test_base_mu0_apart_from_L0_is_rejected(self, tmp_path, axis):
        # every axis re-derives or overwrites mu0 per grid point, so the base's would be dropped
        base = replace(self.base(tmp_path), config=SolverConfig(epsilon=1.0, L0=100.0, mu0=0.5))
        with pytest.raises(ValueError, match="--axis mu0"):
            SweepSpec(base=base, axis=axis, values=(1.0, 2.0))

    def test_each_point_bounds_smoothness_once(self, tmp_path, monkeypatch):
        calls = []
        bound = problems.lipschitz_upper_bound
        monkeypatch.setattr(problems, "lipschitz_upper_bound", lambda p: calls.append(p) or bound(p))
        base = spec(tmp_path, method=MethodSpec(name="algm"), problem=LogRegSpec(30, 20, 1.0, 5),
                    eps_rel=2.0**-10)
        rows, _ = run_sweep(SweepSpec(base=base, axis="L0", values=(10.0, 100.0, 1000.0)))
        assert len(rows) == 3
        assert len(calls) == 1  # the three points share one instance, and it caches its bound

    def test_shared_instance_generated_once(self, tmp_path, monkeypatch):
        calls = []
        gen = bench.gen_logreg
        monkeypatch.setattr(bench, "gen_logreg", lambda *a: calls.append(a) or gen(*a))
        base = spec(tmp_path, method=MethodSpec(name="algm"), problem=LogRegSpec(110, 100, 1.0, 42),
                    eps_rel=2.0**-10)
        rows, _ = run_sweep(SweepSpec(base=base, axis="L0", values=(10.0, 100.0, 1000.0)))
        assert calls == [(110, 100, 1.0, 42)]
        p = gen(110, 100, 1.0, 42)
        assert {r["sqrt_L_over_mu"] for r in rows} == {float(np.sqrt(lipschitz_upper_bound(p) / 1.0))}

    @pytest.mark.parametrize("axis,values", [("L", (1.0, 100.0)), ("mu", (1.0, 100.0))], ids=["L", "mu"])
    def test_axis_value_at_the_fixed_curvature_is_valid(self, tmp_path, axis, values):
        # the bound of test_invalid_values_rejected's past-the-curvature cases is itself a point with L = mu
        assert SweepSpec(base=self.base(tmp_path), axis=axis, values=values).values == values

    def test_non_quadratic_L_axis_aborts_before_running(self, tmp_path):
        base = spec(tmp_path, problem=LogRegSpec(10, 5, 1.0, 3))
        with pytest.raises(ValueError, match="2-dim quadratic"):
            run_sweep(SweepSpec(base=base, axis="L", values=(10.0,)))
        assert not (tmp_path / "run" / "sweep.csv").exists()


class TestParallelSweep:
    """L- and mu-axis sweep points are solved in one process per usable CPU."""

    VALUES = ("100", "400", "1600", "6400")

    def sweep(self, tmp_path, monkeypatch, cpus, method="acgm", axis="L", values=VALUES, reps=1, x0="gaussian"):
        monkeypatch.setattr(grid, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"{method}-{axis}-{cpus}"
        argv = [
            "sweep", "--problem", "quadratic:100,1", "--method", method, "--l0", "100",
            "--eps-rel", "1e-6", "--x0", x0, "--axis", axis, "--values", ",".join(values),
            "--reps", str(reps), "--out", str(out),
        ]
        return main(argv), out / "sweep.csv"

    def test_one_cpu_without_a_cpu_set(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert grid._usable_cpus() == 1

    def test_one_cpu_without_memfd(self, monkeypatch):
        monkeypatch.delattr(os, "memfd_create")
        assert grid._usable_cpus() == 1

    @pytest.mark.parametrize("axis,values", [("L", VALUES), ("mu", ("0.25", "1", "4", "16"))])
    @pytest.mark.parametrize("method", ["acgm", "algm", "ugm", "ogmg_repeated"])
    def test_worker_count_cannot_change_results(self, tmp_path, monkeypatch, method, axis, values):
        files = []
        for cpus in (1, 2, 3):
            code, path = self.sweep(tmp_path, monkeypatch, cpus, method, axis, values, reps=2)
            assert code == 0
            files.append(path.read_bytes())
        assert files[1] == files[0] and files[2] == files[0]
        assert len(files[0].splitlines()) == 1 + 2 * len(values)

    @pytest.mark.parametrize("axis,values", [("L", VALUES), ("mu", ("0.25", "1", "4", "16"))])
    def test_points_are_claimed_costliest_first(self, tmp_path, monkeypatch, axis, values):
        # largest L/mu first: descending values on the L axis, ascending on the mu axis
        claimed, execute = [], bench._execute

        def recording(spec, problem):
            claimed.append(spec.problem.diag[0 if axis == "L" else 1])
            return execute(spec, problem)

        monkeypatch.setattr(bench, "_execute", recording)
        assert self.sweep(tmp_path, monkeypatch, 1, axis=axis, values=values, reps=2)[0] == 0
        ordered = [float(v) for v in (reversed(values) if axis == "L" else values) for _ in range(2)]
        assert claimed == ordered

    def test_shared_counter_hands_out_each_point_once_in_order(self):
        # two claimers drawing on one fresh claim file, as this process and a worker do
        order = [3, 1, 2, 0]
        claims = grid._claim_file(order)
        try:
            first, second = (iter(partial(grid._take, claims), None) for _ in range(2))
            assert [next(first), next(second), next(second), next(first)] == order
            assert list(first) == list(second) == []
        finally:
            os.close(claims)

    def test_every_point_is_solved_once(self, tmp_path, monkeypatch):
        log, execute = tmp_path / "solves.log", bench._execute

        def logged(spec, problem):
            with open(log, "a") as fh:  # one short append per solve, from whichever process
                fh.write(f"{os.getpid()} {spec.problem.diag[0]!r} {spec.x0.seed}\n")
            return execute(spec, problem)

        monkeypatch.setattr(bench, "_execute", logged)
        points = sorted(f"{float(v)!r} {seed}" for v in self.VALUES for seed in (0, 1))
        for cpus in (1, 2, 3):
            log.write_text("")
            assert self.sweep(tmp_path, monkeypatch, cpus, reps=2)[0] == 0
            pids, solved = zip(*(line.split(" ", 1) for line in log.read_text().splitlines()))
            assert sorted(solved) == points
            assert str(os.getpid()) in pids and len(set(pids)) <= cpus  # this process claims too

    def test_a_point_claimed_twice_aborts_without_output(self, tmp_path, monkeypatch, capsys):
        # each process hands its first claim out a second time, so the rows repeat a point
        handed, take = [], grid._take

        def twice(claims):
            handed.append(handed[0] if len(handed) == 1 else take(claims))
            return handed[-1]

        monkeypatch.setattr(grid, "_take", twice)
        code, path = self.sweep(tmp_path, monkeypatch, 2)
        assert code == 3
        assert "not one each" in capsys.readouterr().err
        assert not path.exists()

    def test_lowest_indexed_failure_is_raised(self, tmp_path, monkeypatch, capsys):
        # points are claimed largest L first, so at every CPU count the failure at
        # 6400 is met first, yet the sweep raises that of the lower-indexed 400
        acgm = bench.acgm

        def aborting(oracle, x0, L, cfg):
            if L in (400.0, 6400.0):
                raise RuntimeError(f"chosen point L={L!r}")
            return acgm(oracle, x0, L, cfg)

        monkeypatch.setattr(bench, "acgm", aborting)
        for cpus in (1, 2, 3):
            code, path = self.sweep(tmp_path, monkeypatch, cpus)
            assert code == 3
            assert capsys.readouterr().err == "aborted: chosen point L=400.0\n"
            assert not path.exists()

    def test_worker_stall_reaches_the_caller(self, tmp_path, monkeypatch, capsys):
        # forked workers stall at every point they claim, and this process's solves wait, so
        # that a worker surely claims one; the StalledIterate it raises must unpickle in this
        # process, or the sweep fails with a traceback
        parent, acgm = os.getpid(), bench.acgm

        def stalling(oracle, x0, L, cfg):
            if os.getpid() != parent:
                raise StalledIterate("a pass returned its start point", x0, math.sqrt(2.0), 1e20, "")
            time.sleep(0.2)
            return acgm(oracle, x0, L, cfg)

        monkeypatch.setattr(bench, "acgm", stalling)
        for cpus in (2, 3):
            code, path = self.sweep(tmp_path, monkeypatch, cpus)
            assert code == 3
            assert capsys.readouterr().err == "aborted: a pass returned its start point (gradient norm 1.414e+00, L 1.000e+20)\n"
            assert not path.exists()

    def test_dead_worker_aborts_without_output(self, tmp_path, monkeypatch, capsys):
        # a worker dies at the first point it claims, whichever that is; this
        # process's solves wait, so that the worker surely claims one
        parent, acgm = os.getpid(), bench.acgm

        def dying(oracle, x0, L, cfg):
            if os.getpid() != parent:
                os._exit(1)
            time.sleep(0.2)
            return acgm(oracle, x0, L, cfg)

        def on_deadline(_signum, _frame):
            raise TimeoutError("the sweep did not return after its worker died")

        monkeypatch.setattr(bench, "acgm", dying)
        previous = signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(60)
        try:
            code, path = self.sweep(tmp_path, monkeypatch, 2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code == 3
        assert capsys.readouterr().err.startswith("aborted:")
        assert not path.exists()

    def test_unpicklable_worker_failure_aborts_without_output(self, tmp_path, monkeypatch, capsys):
        # the worker's exception holds a lambda, so it cannot be sent back; the sweep
        # must still end in one diagnosed abort, not an uncaught pickling traceback
        parent, acgm = os.getpid(), bench.acgm

        class Unpicklable(RuntimeError):
            def __init__(self):
                super().__init__("a worker failure that cannot be pickled")
                self.hook = lambda: None

        def failing(oracle, x0, L, cfg):
            if os.getpid() != parent:
                raise Unpicklable()
            time.sleep(0.2)
            return acgm(oracle, x0, L, cfg)

        monkeypatch.setattr(bench, "acgm", failing)
        code, path = self.sweep(tmp_path, monkeypatch, 2)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("aborted:") and err.count("\n") == 1
        assert not path.exists()

    def test_interrupted_caller_leaves_no_worker_running(self, tmp_path, monkeypatch):
        # a signal handler raises while this process waits on a worker that is still solving
        parent, acgm = os.getpid(), bench.acgm

        class Interrupted(Exception):
            pass

        def slow_worker(oracle, x0, L, cfg):
            time.sleep(30 if os.getpid() != parent else 0.1)
            return acgm(oracle, x0, L, cfg)

        def interrupt(_signum, _frame):
            raise Interrupted()

        monkeypatch.setattr(bench, "acgm", slow_worker)
        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            with pytest.raises(Interrupted):
                self.sweep(tmp_path, monkeypatch, 2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
@pytest.mark.parametrize(
    "invalid,message",
    [  # each case builds its fields in the test, where the spec types raise
        (lambda: dict(method=MethodSpec(name="ogmg")), "step budget"),
        (lambda: dict(eps_rel=math.nan), "eps_rel"),
        (lambda: dict(max_grad_calls=0), "max_grad_calls must be >= 1"),
        (lambda: dict(method=MethodSpec(name="ogmg", n=5), max_grad_calls=5),
         r"ogmg:5 needs n \+ 1 gradients, over max_grad_calls 5"),
        # the known-constants baseline's L and mu are the config's L0 and mu0, which it checks
        (lambda: dict(method=MethodSpec(name="ogmg_repeated"), config=SolverConfig(epsilon=1.0, L0=math.inf)),
         "L0 must be positive"),
        (lambda: dict(method=MethodSpec(name="ogmg_repeated"), config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=math.nan)),
         "mu0 must be positive"),
        (lambda: dict(method=MethodSpec(name="ogmg_repeated"), config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=2000.0)),
         r"mu0=2000\.0 exceeds L0=1000\.0"),
        (lambda: dict(method=MethodSpec(name="newton")), "unknown method 'newton'"),
        (lambda: dict(x0=StartSpec("uniform")), "unknown start kind 'uniform'"),
    ],
    ids=["ogmg-without-n", "nan-eps-rel", "zero-budget", "ogmg-over-budget", "repeated-inf-L", "repeated-nan-mu",
         "repeated-mu-over-L", "unknown-method", "unknown-start"],
)
def test_invalid_spec_aborts_before_anything_runs(tmp_path, monkeypatch, command, invalid, message):
    calls = []
    monkeypatch.setattr(bench, "gen_logreg", lambda *a: calls.append(a))
    problem = LogRegSpec(30, 20, 1.0, 5)
    valid = spec(tmp_path, problem=problem)
    with pytest.raises(ValueError, match=message):
        invalid = spec(tmp_path, problem=problem, **invalid())
        if command == "run":
            run_experiment(invalid)
        elif command == "sweep":
            run_sweep(SweepSpec(base=invalid, axis="L0", values=(10.0, 100.0)))
        else:
            compare([valid, invalid])
    assert calls == []
    assert not (tmp_path / "run").exists()


def mostly_positive(low, high):
    """None, an invalid constant, or (most often) a log-uniform value in [10**low, 10**high]."""
    invalid = st.none() | st.sampled_from([0.0, -1.0, math.inf, math.nan])
    return st.one_of(invalid, *[st.floats(low, high).map(lambda e: 10.0**e)] * 3)


@st.composite
def method_fields(draw):
    """A method name with n: most often n only where that method takes it, else any."""
    name = draw(st.sampled_from((*METHODS, "newton")))
    n = draw(st.none() | st.integers(-1, 400))
    if draw(st.sampled_from([True] * 7 + [False])):
        n = n if name == "ogmg" else None
    return name, n


@given(
    fields=method_fields(),
    mu0=mostly_positive(-3, 4),
    kind=st.sampled_from(START_KINDS + ("uniform",)),
    eps_rel=mostly_positive(-12, 0),
    max_grad_calls=st.integers(0, 300),
)
@settings(max_examples=300, deadline=None)
def test_a_spec_that_builds_runs_without_value_error(tmp_path_factory, fields, mu0, kind, eps_rel, max_grad_calls):
    # a spec either fails where it is built, or the run meets no invalid field:
    # it converges, stops at the cap, or aborts with a RuntimeError
    try:
        experiment = ExperimentSpec(
            problem=ILL,
            method=MethodSpec(*fields),
            config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=mu0),
            x0=StartSpec(kind, 7),
            output_dir=tmp_path_factory.getbasetemp() / "built-spec",
            eps_rel=eps_rel,
            max_grad_calls=max_grad_calls,
        )
    except ValueError:
        return
    try:
        run_experiment(experiment)
    except RuntimeError:
        pass


# log-uniform magnitudes over most of the float range
log_floats = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
problem_specs = st.one_of(
    st.builds(QuadraticSpec, st.lists(log_floats, min_size=1, max_size=6).map(tuple)),
    st.builds(LogRegSpec, st.integers(1, 10**6), st.integers(1, 10**6), log_floats, st.integers(0, 2**64 - 1)),
    st.builds(LogRegCsvSpec, st.text(), log_floats),
)
FIELDLESS = [name for name in METHODS if name != "ogmg"]
method_specs = st.one_of(
    st.builds(MethodSpec, st.just("ogmg"), n=st.integers(1, 10**9)),
    st.sampled_from([MethodSpec(name) for name in FIELDLESS]),
)


class TestFormats:
    @given(problem_specs)
    @example(LogRegCsvSpec("runs,v2:a/data,1.csv", 0.01))
    @settings(max_examples=500, deadline=None)
    def test_problem_label_round_trips(self, problem):
        assert parse_problem(problem.label()) == problem

    @given(method_specs)
    @settings(max_examples=500, deadline=None)
    def test_method_label_round_trips(self, method):
        assert parse_method(method.label()) == method

    @given(st.sampled_from(FIELDLESS), st.integers(1, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_a_field_the_method_ignores_is_rejected(self, name, n):
        # the label would drop the field, so parsing it back would give another spec
        with pytest.raises(ValueError, match=f"method {name} takes no n \\(only ogmg does\\)"):
            MethodSpec(name, n=n)

    def test_each_method_row_states_its_premise(self):
        # OGM-G needs L (and the repetition mu), ACGM trusts L and adapts mu, ALGM and UGM adapt L
        flags = {name: (row.takes_n, row.trusts_L0, row.reads_mu0, row.trusts_mu0) for name, row in METHODS.items()}
        assert flags == {
            "ogmg": (True, True, False, False),
            "ogmg_repeated": (False, True, True, True),
            "acgm": (False, True, True, False),
            "algm": (False, False, True, False),
            "ugm": (False, False, False, False),
        }
        assert METHOD_FORMS == "ogmg:<n> | ogmg_repeated | acgm | algm | ugm"

    def test_unknown_names_list_the_grammar(self):
        with pytest.raises(ValueError, match=re.escape(PROBLEM_FORMS)):
            parse_problem("bogus:1")
        with pytest.raises(ValueError, match=re.escape(METHOD_FORMS)):
            parse_method("nope")

    def test_trace_columns_are_trace_event_fields(self):
        assert TRACE_HEADER[2:] == TraceEvent._fields[1:]


class TestCompare:
    def test_two_methods_aligned_columns(self, tmp_path):
        specs = [
            spec(tmp_path, method=MethodSpec(name="acgm")),
            spec(tmp_path, method=MethodSpec(name="algm")),
        ]
        results, path = compare(specs)
        assert set(results) == {"acgm", "algm"}
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["acgm_grad_calls", "acgm_grad_norm", "algm_grad_calls", "algm_grad_norm"]

    def test_shared_instance_generated_once(self, tmp_path, monkeypatch):
        calls = []
        gen = bench.gen_logreg
        monkeypatch.setattr(bench, "gen_logreg", lambda *a: calls.append(a) or gen(*a))
        specs = [
            spec(tmp_path, method=MethodSpec(name=name), problem=LogRegSpec(30, 20, 1.0, 5),
                 config=SolverConfig(epsilon=1.0, L0=100.0), eps_rel=2.0**-10)
            for name in ("acgm", "algm")
        ]
        compare(specs)
        assert calls == [(30, 20, 1.0, 5)]

    def test_mismatched_problems_rejected(self, tmp_path):
        specs = [
            spec(tmp_path),
            spec(tmp_path, problem=QuadraticSpec(diag=(10.0, 1.0))),
        ]
        with pytest.raises(ValueError, match="may differ only in method, L0 and mu0"):
            compare(specs)

    def test_mismatched_starts_rejected(self, tmp_path):
        specs = [spec(tmp_path), spec(tmp_path, x0=StartSpec("ones"))]
        with pytest.raises(ValueError, match="may differ only in method, L0 and mu0"):
            compare(specs)

    def test_mismatched_output_dirs_rejected(self, tmp_path):
        # only the first directory would get compare.csv, and the others would never be created
        specs = [
            spec(tmp_path, output_dir=tmp_path / "a"),
            spec(tmp_path, method=MethodSpec(name="ugm"), output_dir=tmp_path / "b"),
        ]
        with pytest.raises(ValueError, match="may differ only in method, L0 and mu0"):
            compare(specs)
        assert not (tmp_path / "a").exists()
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize(
        "first,second",
        [
            (dict(eps_rel=1e-2, max_grad_calls=50), dict(eps_rel=1e-9, max_grad_calls=50)),
            # without eps_rel, the config's epsilon is the target itself
            (dict(eps_rel=None), dict(eps_rel=None, config=SolverConfig(epsilon=1e-3, L0=1000.0))),
            (dict(), dict(max_grad_calls=50)),
        ],
        ids=["eps_rel", "epsilon", "max_grad_calls"],
    )
    def test_mismatched_targets_or_caps_rejected(self, tmp_path, monkeypatch, first, second):
        # gradient-call axes toward different targets, or under different caps, do not overlay
        built = []
        monkeypatch.setattr(bench, "build_problem", built.append)
        specs = [spec(tmp_path, **first), spec(tmp_path, method=MethodSpec(name="algm"), **second)]
        with pytest.raises(ValueError, match="may differ only in method, L0 and mu0"):
            compare(specs)
        assert built == []
        assert not (tmp_path / "run").exists()

    def test_methods_and_constants_may_differ(self, tmp_path):
        specs = [
            spec(tmp_path, config=SolverConfig(epsilon=1.0, L0=1000.0, mu0=0.1)),
            spec(tmp_path, method=MethodSpec(name="algm"), config=SolverConfig(epsilon=1.0, L0=10.0)),
        ]
        results, _ = compare(specs)
        assert set(results) == {"acgm", "algm"}

    def test_seeds_of_seedless_starts_compare_equal(self, tmp_path):
        # only the gaussian start reads its seed: ones with seed 5 is the ones start
        assert StartSpec("ones", 5) == StartSpec("ones")
        assert StartSpec("zeros", 3).label() == "zeros"
        specs = [
            spec(tmp_path, x0=StartSpec("ones", 5)),
            spec(tmp_path, method=MethodSpec(name="algm"), x0=StartSpec("ones")),
        ]
        results, _ = compare(specs)
        assert set(results) == {"acgm", "algm"}

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one experiment"):
            compare([])

    def test_single_spec_degenerates_to_run(self, tmp_path):
        results, _ = compare([spec(tmp_path)])
        result, _ = run_experiment(spec(tmp_path))
        assert results["acgm"].trace.events == result.trace.events


class TestCli:
    def test_run_converged_exit_zero(self, tmp_path, capsys):
        code = main([
            "run", "--problem", "quadratic:1000,0.1", "--method", "acgm",
            "--l0", "1000", "--eps-rel", "1e-6", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_empty_logreg_csv_is_one_error_line(self, tmp_path, capsys):
        # loadtxt warns on a file with no data, which would fail this test before the error line
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("")
        code = main(["run", "--problem", f"logreg_csv:{csv_path},1", "--method", "algm", "--eps-rel", "1e-3",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: CSV file {csv_path} holds no data\n"

    def test_budget_exhaustion_exit_two(self, tmp_path):
        code = main([
            "run", "--problem", "quadratic:1000,0.1", "--method", "acgm",
            "--l0", "1000", "--eps-rel", "1e-9", "--max-grad-calls", "20",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--problem", "bogus:1", "--method", "acgm", "--l0", "1", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "nope", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "ogmg:5", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "acgm", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "acgm", "--eps", "1", "--eps-rel", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--unknown-flag", "1"],
            ["run", "--problem", "quadratic:nan,1", "--method", "acgm", "--l0", "1", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:inf,1", "--method", "acgm", "--l0", "1", "--eps", "1", "--out", "x"],
            ["sweep", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100", "--eps", "1",
             "--axis", "mu", "--values", "nan", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "ugm", "--eps", "1",
             "--max-grad-calls", "0", "--out", "x"],
            # the fixed-budget run uses n + 1 gradients
            ["run", "--problem", "quadratic:1,1", "--method", "ogmg:5", "--l0", "1", "--eps", "1",
             "--max-grad-calls", "5", "--out", "x"],
            # an unreadable file is an invalid spec, not a crash
            ["run", "--problem", "logreg_csv:missing.csv,1", "--method", "algm", "--eps-rel", "1e-3",
             "--out", "x"],
            ["run", "--problem", "quadratic:1,x", "--method", "acgm", "--l0", "1", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "ogmg:abc", "--l0", "1", "--eps", "1", "--out", "x"],
            ["run", "--problem", "quadratic:1,1", "--method", "acgm:5", "--l0", "1", "--eps", "1", "--out", "x"],
            ["compare", "--problem", "quadratic:1,1", "--l0", "1", "--eps", "1", "--spec", "acgm;beta=2",
             "--out", "x"],
            # a field given twice would let the last copy win silently
            ["compare", "--problem", "quadratic:1000,0.1", "--l0", "1000", "--eps-rel", "1e-6",
             "--spec", "acgm;l0=1000;l0=5", "--out", "x"],
            # mu <= L for every smooth, strongly convex objective
            ["run", "--problem", "quadratic:1000,0.1", "--method", "ogmg_repeated", "--l0", "1000",
             "--mu0", "2000", "--eps-rel", "1e-6", "--out", "x"],
            # the known-constants baseline trusts --l0 as the true L, so it gets no default
            ["run", "--problem", "quadratic:1000,0.1", "--method", "ogmg_repeated", "--mu0", "0.1",
             "--eps-rel", "1e-6", "--out", "x"],
            ["compare", "--problem", "quadratic:1000,0.1", "--l0", "1000", "--eps-rel", "1e-6",
             "--spec", "ogmg_repeated;mu0=2000", "--out", "x"],
        ],
    )
    def test_invalid_specs_exit_one(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--method", "acgm", "--l0", "1e300", "--mu0", "1e-10"],
            ["run", "--method", "algm", "--l0", "1e300", "--mu0", "1e-300"],
            ["run", "--method", "ogmg_repeated", "--l0", "1e308", "--mu0", "1e-308"],
            ["compare", "--spec", "acgm;l0=1e300;mu0=1e-10"],
        ],
        ids=["acgm", "algm", "ogmg_repeated", "compare"],
    )
    def test_unrepresentable_ratio_exhausts_budget(self, tmp_path, capsys, argv):
        # 2L/mu overflows: a pass too long for any gradient budget, not a crash
        code = main([*argv, "--problem", "quadratic:1,1", "--eps", "1e-3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_oracle_abort_exit_three(self, tmp_path):
        code = main([
            "run", "--problem", "quadratic:1e300", "--method", "ugm",
            "--l0", "1", "--eps", "1e-8", "--x0", "ones", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("l0,grads", [("50", 1229), ("10", 587), ("1", 317)])
    def test_acgm_divergence_names_the_trusted_l0(self, tmp_path, capsys, l0, grads):
        # L = 100 here: acgm steps at 1/L0 for an L0 below it, so its passes diverge
        code = main([
            "run", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", l0, "--eps-rel", "1e-6",
            "--x0", "gaussian", "--seed", "3", "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"aborted: gradient has non-finite components after {grads} gradient evaluations; ")
        assert f"acgm trusts L0 = {float(l0)!r} (--l0) as the smoothness constant" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "method",
        [["acgm", "--l0", "1e17"], ["acgm", "--l0", "5e307"], ["algm", "--l0", "5e307"],
         ["ogmg_repeated", "--l0", "1e17", "--mu0", "1e16"]],
        ids=["acgm", "acgm-5e307", "algm-5e307", "ogmg_repeated"],
    )
    def test_pass_returning_its_start_exit_three(self, tmp_path, capsys, method):
        # the steps g/L vanish against x = ones: a pass returns its start point, or algm's
        # first trial step is an accepted non-step
        code = main([
            "run", "--problem", "quadratic:1,1", "--x0", "ones", "--eps-rel", "1e-6",
            "--max-grad-calls", "100000", "--method", *method, "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("aborted:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "method,problem,l0,exit_code,grads",
        [("ugm", "1,1", "1e17", 3, 1), ("algm", "1,1", "1e17", 3, 2), ("ugm", "1,1", "1e15", 0, None),
         ("algm", "1,1", "1e15", 0, None), ("ugm", "1e200", "1e217", 3, 1), ("algm", "1e200", "1e217", 3, 2)],
        ids=["ugm-1e17", "algm-1e17", "ugm-1e15", "algm-1e15", "ugm-1e217", "algm-1e217"],
    )
    def test_large_l0_diagnosed_as_too_large(self, tmp_path, capsys, method, problem, l0, exit_code, grads):
        # at 1e17 the first trial step, at L0/2, vanishes against x = ones before L ever doubled;
        # at 1e217 it does so where |g|**2 = 1e400 overflows, and the report still gives |g|
        code = main([
            "run", "--problem", f"quadratic:{problem}", "--x0", "ones", "--eps-rel", "1e-6",
            "--l0", l0, "--method", method, "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == exit_code
        if exit_code == 3:
            grad_norm = math.hypot(*map(float, problem.split(",")))  # |g| at x = ones
            assert err.startswith(f"aborted: accepted step at grad_calls={grads} left the iterate unchanged "
                                  f"(gradient norm {grad_norm:.3e}, L {float(l0) / 2:.3e})")
            assert "before any doubling of L" in err and "L looks far too large" in err
            assert "precision" not in err

    @pytest.mark.parametrize("method", ["ugm", "algm", "acgm"])
    def test_gradient_whose_square_overflows_converges(self, tmp_path, method):
        # |g| = 1e200 at the start: |g|**2 overflows, so the decrease test must not square it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "run", "--problem", "quadratic:1e200,1", "--method", method, "--l0", "1e200",
                "--x0", "ones", "--eps-rel", "1e-6", "--out", str(tmp_path / "o"),
            ])
        assert code == 0
        rows = trace_rows(tmp_path / "o" / "trace.csv")
        assert rows[0]["grad_norm"] == "1e+200"
        assert all(math.isfinite(float(row["grad_norm"])) for row in rows)
        if method == "algm":  # its first trial, at L0/2, fails the test at the start
            assert rows[1]["event_kind"] == "inner_restart" and rows[1]["grad_norm"] == "1e+200"

    @pytest.mark.parametrize("method,problem,start,l0", [
        ("acgm", "quadratic:1e308,1e308", "gaussian", "1e308"),
        ("algm", "quadratic:1e308,5e307", "ones", "1.7e308"),
        ("ugm", "quadratic:1e308", "ones", "9e307"),
        ("algm", "quadratic:1e308", "ones", "9e307"),
    ])
    def test_curvature_whose_double_overflows_converges(self, tmp_path, method, problem, start, l0):
        # 2 * L overflows for L >= 2**1023. The halving budget must not overflow with it, or
        # the first pass asks for about 1.8e308 steps and the run ends budget-exhausted; nor
        # the decrease test's drop, or the test accepts an L0 of 9e307 below the curvature
        # 1e308. The doubling from 9e307 stops at the largest float.
        code = main([
            "run", "--problem", problem, "--method", method, "--l0", l0,
            "--x0", start, "--eps-rel", "1e-10", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        curvature = max(float(c) for c in problem.partition(":")[2].split(","))
        assert float(trace_rows(tmp_path / "o" / "trace.csv")[-1]["L_estimate"]) >= curvature

    @pytest.mark.parametrize("method", ["ogmg:3", "acgm", "algm", "ugm"])
    def test_non_finite_iterate_exit_three(self, tmp_path, capsys, method):
        # step size 1e200 on curvature 1e200 overflows the first iterate; the run ends in a
        # diagnosed abort with no numpy warning, which the test suite's filter makes an error
        code = main([
            "run", "--problem", "quadratic:1e200,1", "--method", method, "--l0", "1e-200",
            "--x0", "ones", "--eps", "1e-8", "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("aborted:")
        assert not (tmp_path / "o").exists()

    # the value-decrease test resolves |g| here only to about 1e-7, some 3e-9 of the start's
    TIGHT_LOGREG = ["run", "--problem", "logreg:60,40,0.01,3", "--x0", "gaussian", "--seed", "7"]

    @pytest.mark.parametrize("method,most_grads", [("algm", 1200), ("ugm", 2200)])
    def test_target_below_value_precision_exit_three(self, tmp_path, capsys, method, most_grads):
        # an accepted step that leaves the iterate unchanged ends the run, whatever the cap
        code = main([*self.TIGHT_LOGREG, "--method", method, "--eps-rel", "1e-10", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("aborted:")
        assert int(re.search(r"grad_calls=(\d+)", err).group(1)) <= most_grads
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "seed,eps,l0",
        [(1, "3e-7", "1"), (1, "3e-7", "100"), (2, "3e-7", "100"), (3, "3e-7", "1"),
         (3, "3e-7", "100"), (4, "1e-6", "100"), (5, "3e-7", "1"), (8, "3e-7", "1")],
    )
    def test_algm_stops_where_a_rejected_pass_meets_the_target(self, tmp_path, seed, eps, l0):
        # each run stalls below the value test's precision at an iterate that meets eps,
        # and ends there without a gradient to judge it
        grads, values = {
            (1, "3e-7", "1"): (1262, 2476), (1, "3e-7", "100"): (1110, 2164),
            (2, "3e-7", "100"): (896, 1722), (3, "3e-7", "1"): (1151, 2244),
            (3, "3e-7", "100"): (1081, 2116), (4, "1e-6", "100"): (1075, 2108),
            (5, "3e-7", "1"): (882, 1710), (8, "3e-7", "1"): (745, 1440),
        }[seed, eps, l0]
        out = tmp_path / "o"
        code = main([
            "run", "--problem", f"logreg:60,40,0.01,{seed}", "--method", "algm", "--l0", l0,
            "--eps", eps, "--x0", "gaussian", "--seed", str(seed), "--max-grad-calls", "20000",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_grad_norm"] <= summary["epsilon"]
        assert (summary["grad_calls"], summary["value_calls"]) == (grads, values)
        assert summary["value_calls"] <= 2 * summary["grad_calls"] + 61

    @pytest.mark.parametrize(
        "method,eps_rel,grads",
        [(["ugm"], "2.2e-9", 1585), (["acgm", "--l0", "41.3"], "1e-10", 2184)],
        ids=["ugm", "acgm"],
    )
    def test_target_near_value_precision_converges(self, tmp_path, method, eps_rel, grads):
        # ugm accepts three steps here that do not lower f but move x; acgm judges by gradients only
        out = tmp_path / "o"
        assert main([*self.TIGHT_LOGREG, "--method", *method, "--eps-rel", eps_rel, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["grad_calls"] == grads
        assert summary["final_grad_norm"] <= summary["epsilon"]

    @pytest.mark.parametrize("axis,values", [("L", "100,400"), ("mu", "1,2"), ("mu0", "1,2"), ("L0", "100,400")])
    def test_sweep_rejects_mu0(self, tmp_path, capsys, axis, values):
        # every axis re-derives or overwrites mu0 per grid point, so --mu0 would be ignored
        code = main([
            "sweep", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100",
            "--eps-rel", "1e-5", "--mu0", "0.5", "--axis", axis, "--values", values,
            "--out", str(tmp_path / "s"),
        ])
        assert code == 1
        assert "--axis mu0" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "problem,axis,values,bound",
        [
            ("quadratic:1,100", "L", "10,20,400", "second curvature 100.0"),
            ("quadratic:100,1", "mu", "0.5,50,200", "first curvature 100.0"),
        ],
        ids=["L", "mu"],
    )
    def test_sweep_past_the_fixed_curvature_exits_one(self, tmp_path, capsys, problem, axis, values, bound):
        code = main([
            "sweep", "--problem", problem, "--method", "acgm", "--l0", "100", "--axis", axis,
            "--values", values, "--eps-rel", "1e-6", "--out", str(tmp_path / "s"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and bound in err
        assert not (tmp_path / "s").exists()

    def test_sweep_runs_with_mu0_equal_to_l0(self, tmp_path):
        # mu0 = L0 is the default, which every axis keeps or overwrites alike
        common = ["sweep", "--problem", "quadratic:100,1", "--method", "acgm", "--l0", "100",
                  "--eps-rel", "1e-5", "--axis", "L", "--values", "100,400"]
        assert main([*common, "--mu0", "100", "--out", str(tmp_path / "set")]) == 0
        assert main([*common, "--out", str(tmp_path / "default")]) == 0
        assert (tmp_path / "set" / "sweep.csv").read_bytes() == (tmp_path / "default" / "sweep.csv").read_bytes()

    def test_mu0_above_l0_is_invalid_for_every_command(self, tmp_path, capsys):
        common = ["--problem", "quadratic:100,1", "--l0", "100", "--eps-rel", "1e-5"]
        argvs = [
            ["run", *common, "--method", "acgm", "--mu0", "1000"],
            ["compare", *common, "--mu0", "1000", "--spec", "acgm"],
            ["compare", *common, "--spec", "acgm;mu0=1000"],
            ["sweep", *common, "--method", "acgm", "--axis", "mu0", "--values", "1,1000"],
        ]
        for i, argv in enumerate(argvs):
            assert main([*argv, "--out", str(tmp_path / str(i))]) == 1
            assert capsys.readouterr().err == "error: mu0=1000.0 exceeds L0=100.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", METHOD_LABELS)
    def test_a_mu0_the_method_never_reads_is_invalid(self, tmp_path, capsys, method):
        # ugm and the fixed-budget run ignore mu0, so a given one would be dropped; the others take it
        name = method.partition(":")[0]
        common = ["--problem", "quadratic:100,1", "--l0", "100", "--eps-rel", "1e-5"]
        argvs = [
            ["run", *common, "--method", method, "--mu0", "0.5"],
            ["compare", *common, "--mu0", "0.5", "--spec", method],
            ["compare", *common, "--spec", f"{method};mu0=0.5"],
            ["sweep", *common, "--method", method, "--mu0", "0.5", "--axis", "L", "--values", "100,400"],
        ]
        for i, argv in enumerate(argvs):
            code = main([*argv, "--out", str(tmp_path / str(i))])
            err = capsys.readouterr().err
            if METHODS[name].reads_mu0:
                assert "never reads mu0" not in err
            else:
                assert code == 1
                assert err == f"error: method {name} never reads mu0; give --mu0 or mu0= only to ogmg_repeated, acgm, algm\n"
        if not METHODS[name].reads_mu0:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", METHOD_LABELS)
    def test_mu0_sweep_of_a_method_that_never_reads_it_is_invalid(self, tmp_path, capsys, method):
        # each row would repeat one solve
        name = method.partition(":")[0]
        code = main([
            "sweep", "--problem", "quadratic:100,1", "--method", method, "--l0", "100", "--eps-rel", "1e-5",
            "--axis", "mu0", "--values", "0.01,0.1,1", "--out", str(tmp_path / "s"),
        ])
        if METHODS[name].reads_mu0:
            assert code == 0
            return
        assert code == 1
        assert capsys.readouterr().err == f"error: method {name} never reads mu0, so a mu0 sweep would repeat one solve\n"
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "label",
        # the README's two-field form reads as the baseline's L and mu, which come from --l0 and --mu0
        [pytest.param(f"{name}:40", id=name) for name in METHODS]
        + [pytest.param("ogmg_repeated:1000,0.1", id="ogmg_repeated-two-fields")],
    )
    def test_only_a_method_that_takes_n_takes_a_payload(self, tmp_path, capsys, command, label):
        name = label.partition(":")[0]
        common = ["--problem", "quadratic:1000,0.1", "--l0", "1000", "--seed", "7", "--eps-rel", "0.5"]
        flag = "--method" if command == "run" else "--spec"
        code = main([command, *common, flag, label, "--out", str(tmp_path / "o")])
        if METHODS[name].takes_n:
            assert code == 0
            return
        flags = "--l0 and --mu0" if METHODS[name].reads_mu0 else "--l0"
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot parse method '{label}': method {name} takes no payload; its constants come from {flags}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("method", METHOD_LABELS)
    def test_only_a_method_that_trusts_l0_requires_it(self, tmp_path, capsys, command, method):
        # the others adapt an estimate of L that starts at 1.0; compare checks every spec
        # before it runs any, so a spec that lacks --l0 after a ugm spec still writes nothing
        name = method.partition(":")[0]
        specs = ["--method", method] if command == "run" else ["--spec", "ugm", "--spec", method]
        code = main([
            command, "--problem", "quadratic:1000.0,0.1", "--seed", "7", "--eps-rel", "0.5",
            *specs, "--out", str(tmp_path / "o"),
        ])
        if not METHODS[name].trusts_L0:
            assert code == 0
            return
        assert code == 1
        assert capsys.readouterr().err == f"error: method {name} requires an explicit --l0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_acgm_requires_l0(self, tmp_path, capsys, command):
        # acgm trusts L0 as the true smoothness constant, so it gets no default
        method = ["--method", "acgm"] if command == "run" else ["--spec", "ugm", "--spec", "acgm"]
        code = main([
            command, "--problem", "quadratic:1000.0,0.1", "--seed", "7", "--eps-rel", "1e-6",
            *method, "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "requires an explicit --l0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "problem",
        ["logreg:30,20,-1.0,5", "logreg:30,20,nan,5", "logreg_csv:{csv},-1.0"],
        ids=["negative", "nan", "csv-negative"],
    )
    def test_invalid_reg_exits_before_any_data(self, tmp_path, monkeypatch, capsys, problem):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("1.0,2.0,1\n-1.0,0.5,-1\n")
        calls = []
        monkeypatch.setattr(bench, "gen_logreg", lambda *a: calls.append(a))
        monkeypatch.setattr(bench, "load_logreg_csv", lambda *a: calls.append(a))
        code = main([
            "run", "--problem", problem.format(csv=csv_path), "--method", "algm",
            "--eps-rel", "1e-3", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "reg must be positive and finite" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_instance_too_large_to_allocate_exits_one(self, tmp_path, capsys):
        # 1e16 draws take 71.1 PiB, past any address space, so the first allocation fails
        # at once; a size that could be partly allocated would take the machine's memory
        code = main([
            "run", "--problem", "logreg:100000000,100000000,0.1,1", "--method", "ugm",
            "--eps-rel", "1e-3", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_fixed_budget_fits_its_cap_exactly(self, tmp_path):
        code = main([
            "run", "--problem", "quadratic:1000,0.1", "--method", "ogmg:5", "--l0", "1000",
            "--eps", "1e-30", "--max-grad-calls", "6", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert json.loads((tmp_path / "o" / "summary.json").read_text())["grad_calls"] == 6

    def test_sweep_command(self, tmp_path):
        code = main([
            "sweep", "--problem", "quadratic:100,1", "--method", "acgm",
            "--l0", "100", "--eps-rel", "1e-5", "--axis", "L",
            "--values", "100,400", "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        assert (tmp_path / "s" / "sweep.csv").exists()

    def test_compare_command(self, tmp_path):
        code = main([
            "compare", "--problem", "quadratic:1000,0.1", "--eps-rel", "1e-5",
            "--x0", "gaussian", "--seed", "3", "--out", str(tmp_path / "c"),
            "--spec", "acgm;l0=1000", "--spec", "algm;l0=1000",
        ])
        assert code == 0
        assert (tmp_path / "c" / "compare.csv").exists()

    def test_compare_same_method_twice_keeps_both_columns(self, tmp_path):
        code = main([
            "compare", "--problem", "quadratic:1000,0.1", "--eps-rel", "1e-5", "--l0", "1000",
            "--out", str(tmp_path / "c"), "--spec", "acgm", "--spec", "acgm",
        ])
        assert code == 0
        header = (tmp_path / "c" / "compare.csv").read_text().splitlines()[0].split(",")
        assert header == ["acgm_grad_calls", "acgm_grad_norm", "acgm+_grad_calls", "acgm+_grad_norm"]

    def test_logreg_csv_run_matches_generated_instance(self, tmp_path):
        p = problems.gen_logreg(60, 40, 0.01, 3)
        csv_path = tmp_path / "data.csv"
        np.savetxt(csv_path, np.hstack([p.features, p.labels[:, None]]), delimiter=",", fmt="%.17g")
        args = ["--method", "algm", "--l0", "100", "--eps-rel", "1e-6", "--x0", "gaussian", "--seed", "7"]
        for name, problem in (("csv", f"logreg_csv:{csv_path},0.01"), ("gen", "logreg:60,40,0.01,3")):
            assert main(["run", "--problem", problem, *args, "--out", str(tmp_path / name)]) == 0
        trace = (tmp_path / "csv" / "trace.csv").read_bytes()
        assert trace == (tmp_path / "gen" / "trace.csv").read_bytes()
        summary = json.loads((tmp_path / "csv" / "summary.json").read_text())
        assert summary["problem"] == f"logreg_csv:{csv_path},0.01"

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
