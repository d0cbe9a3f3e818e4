import csv
import json
import math
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastgrad import (
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
    run_experiment,
    run_sweep,
)
from fastgrad import bench, problems
from fastgrad.bench import (
    METHOD_FORMS,
    PROBLEM_FORMS,
    TRACE_HEADER,
    make_start,
    parse_method,
    parse_problem,
)
from fastgrad.cli import main

ILL = QuadraticSpec(diag=(1000.0, 0.1))


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
        assert trace_path.read_text().splitlines()[0] == TRACE_HEADER
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

    def test_repeated_method_trace_halves_per_event(self, tmp_path):
        s = spec(
            tmp_path,
            method=MethodSpec(name="ogmg_repeated", L=1000.0, mu=0.1),
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

    def test_trace_values_instrumentation(self, tmp_path):
        s = spec(tmp_path, method=MethodSpec(name="ogmg", n=10), eps_rel=1e-12, trace_values=True)
        result, _ = run_experiment(s)
        assert json.loads((s.output_dir / "summary.json").read_text())["instrumented_values"] is True
        assert result.trace.events[-1].value_calls == 11
        assert all(e.f_value is not None for e in result.trace.events)

    def test_trace_values_rejected_for_adaptive_methods(self, tmp_path):
        with pytest.raises(ValueError, match="trace_values"):
            run_experiment(spec(tmp_path, trace_values=True))

    def test_ogmg_repeated_requires_payload(self, tmp_path):
        with pytest.raises(ValueError, match="explicit L and mu"):
            run_experiment(spec(tmp_path, method=MethodSpec(name="ogmg_repeated")))

    def test_start_modes(self):
        assert np.array_equal(make_start(StartSpec("zeros"), 3), np.zeros(3))
        assert np.array_equal(make_start(StartSpec("ones"), 3), np.ones(3))
        gauss = make_start(StartSpec("gaussian", 5), 3)
        assert np.array_equal(gauss, SplitMix64(5).normals(3))


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

    def test_mu0_axis_varies_config_only(self, tmp_path):
        rows, _ = run_sweep(
            SweepSpec(base=self.base(tmp_path), axis="mu0", values=(1.0, 100.0))
        )
        assert rows[0]["sqrt_L_over_mu"] == rows[1]["sqrt_L_over_mu"]

    @pytest.mark.parametrize(
        "axis,values,message",
        [  # explicit ids keep the names the cases had before the axis argument
            pytest.param("L", (400.0, 100.0), "ascending", id="values0-ascending"),
            pytest.param("L", (100.0, 100.0), "ascending", id="values1-ascending"),
            pytest.param("L", (-1.0, 2.0), "positive", id="values2-positive"),
            pytest.param("L", (), "at least one", id="values3-at least one"),
            pytest.param("mu", (math.nan,), "positive", id="mu-nan-positive"),
            pytest.param("mu0", (1.0, 1000.0), "L0", id="mu0-above-L0"),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, axis, values, message):
        with pytest.raises(ValueError, match=message):
            run_sweep(SweepSpec(base=self.base(tmp_path), axis=axis, values=values))
        assert not (tmp_path / "run").exists()

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

    def test_non_quadratic_L_axis_aborts_before_running(self, tmp_path):
        base = spec(tmp_path, problem=LogRegSpec(10, 5, 1.0, 3))
        with pytest.raises(ValueError, match="2-dim quadratic"):
            run_sweep(SweepSpec(base=base, axis="L", values=(10.0,)))
        assert not (tmp_path / "run" / "sweep.csv").exists()


class TestParallelSweep:
    """L- and mu-axis sweep points are solved in one process per usable CPU."""

    VALUES = ("100", "400", "1600", "6400")

    def sweep(self, tmp_path, monkeypatch, cpus, method="acgm", axis="L", values=VALUES, reps=1):
        monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"{method}-{axis}-{cpus}"
        argv = [
            "sweep", "--problem", "quadratic:100,1", "--method", method, "--l0", "100",
            "--eps-rel", "1e-6", "--axis", axis, "--values", ",".join(values),
            "--reps", str(reps), "--out", str(out),
        ]
        return main(argv), out / "sweep.csv"

    @pytest.mark.parametrize("axis,values", [("L", VALUES), ("mu", ("0.25", "1", "4", "16"))])
    @pytest.mark.parametrize("method", ["acgm", "algm", "ugm", "ogmg_repeated:6400,0.25"])
    def test_worker_count_cannot_change_results(self, tmp_path, monkeypatch, method, axis, values):
        files = []
        for cpus in (1, 2, 3):
            code, path = self.sweep(tmp_path, monkeypatch, cpus, method, axis, values, reps=2)
            assert code == 0
            files.append(path.read_bytes())
        assert files[1] == files[0] and files[2] == files[0]
        assert len(files[0].splitlines()) == 1 + 2 * len(values)

    def test_lowest_indexed_failure_is_raised(self, tmp_path, monkeypatch, capsys):
        # with 3 workers this process solves the 100 and 6400 points and fails at 6400,
        # while a worker fails at 400, the failure a serial run meets first
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

    def test_dead_worker_aborts_without_output(self, tmp_path, monkeypatch, capsys):
        parent, acgm = os.getpid(), bench.acgm

        def dying(oracle, x0, L, cfg):
            if os.getpid() != parent and L == 1600.0:  # the second point of the worker's share
                os._exit(1)
            return acgm(oracle, x0, L, cfg)

        def on_deadline(_signum, _frame):
            for child in multiprocessing.active_children():
                child.kill()  # so that the pool's shutdown cannot wait on a hung worker
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


@pytest.mark.parametrize("command", ["run", "sweep", "compare"])
@pytest.mark.parametrize(
    "invalid,message",
    [
        (dict(method=MethodSpec(name="ogmg")), "step budget"),
        (dict(eps_rel=math.nan), "eps_rel"),
        (dict(max_grad_calls=0), "max_grad_calls must be >= 1"),
        (dict(method=MethodSpec(name="ogmg", n=5), max_grad_calls=5), r"ogmg:5 needs n \+ 1 gradients, over max_grad_calls 5"),
        (dict(method=MethodSpec(name="ogmg_repeated", L=math.inf, mu=1.0)), "finite positive L and mu"),
        (dict(method=MethodSpec(name="ogmg_repeated", L=1000.0, mu=math.nan)), "finite positive L and mu"),
    ],
    ids=["ogmg-without-n", "nan-eps-rel", "zero-budget", "ogmg-over-budget", "repeated-inf-L", "repeated-nan-mu"],
)
def test_invalid_spec_aborts_before_anything_runs(tmp_path, monkeypatch, command, invalid, message):
    calls = []
    monkeypatch.setattr(bench, "gen_logreg", lambda *a: calls.append(a))
    problem = LogRegSpec(30, 20, 1.0, 5)
    valid = spec(tmp_path, problem=problem)
    invalid = spec(tmp_path, problem=problem, **invalid)
    with pytest.raises(ValueError, match=message):
        if command == "run":
            run_experiment(invalid)
        elif command == "sweep":
            run_sweep(SweepSpec(base=invalid, axis="L0", values=(10.0, 100.0)))
        else:
            compare([valid, invalid])
    assert calls == []
    assert not (tmp_path / "run").exists()


# log-uniform magnitudes over most of the float range
log_floats = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
problem_specs = st.one_of(
    st.builds(QuadraticSpec, st.lists(log_floats, min_size=1, max_size=6).map(tuple)),
    st.builds(LogRegSpec, st.integers(1, 10**6), st.integers(1, 10**6), log_floats, st.integers(0, 2**64 - 1)),
    st.builds(LogRegCsvSpec, st.text(), log_floats),
)
method_specs = st.one_of(
    st.builds(MethodSpec, st.just("ogmg"), n=st.integers(1, 10**9)),
    st.builds(MethodSpec, st.just("ogmg_repeated"), L=log_floats, mu=log_floats),
    st.sampled_from([MethodSpec(name) for name in ("acgm", "algm", "ugm")]),
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

    def test_unknown_names_list_the_grammar(self):
        with pytest.raises(ValueError, match=re.escape(PROBLEM_FORMS)):
            parse_problem("bogus:1")
        with pytest.raises(ValueError, match=re.escape(METHOD_FORMS)):
            parse_method("nope")

    def test_trace_columns_are_trace_event_fields(self):
        assert TRACE_HEADER.split(",")[2:] == list(TraceEvent._fields[1:])


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
        with pytest.raises(ValueError, match="share the problem"):
            compare(specs)

    def test_mismatched_starts_rejected(self, tmp_path):
        specs = [spec(tmp_path), spec(tmp_path, x0=StartSpec("ones"))]
        with pytest.raises(ValueError, match="share the start"):
            compare(specs)

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
            ["run", "--method", "ogmg_repeated:1e308,1e-308"],
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
        with np.errstate(over="ignore"):
            code = main([
                "run", "--problem", "quadratic:1e300", "--method", "ugm",
                "--l0", "1", "--eps", "1e-8", "--x0", "ones", "--out", str(tmp_path / "o"),
            ])
        assert code == 3
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "method",
        [["acgm", "--l0", "1e17"], ["acgm", "--l0", "5e307"], ["algm", "--l0", "5e307"],
         ["ogmg_repeated:1e17,1e16"]],
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
        "method,l0,exit_code,grads",
        [("ugm", "1e17", 3, 1), ("algm", "1e17", 3, 2), ("ugm", "1e15", 0, None), ("algm", "1e15", 0, None)],
        ids=["ugm-1e17", "algm-1e17", "ugm-1e15", "algm-1e15"],
    )
    def test_large_l0_diagnosed_as_too_large(self, tmp_path, capsys, method, l0, exit_code, grads):
        # at 1e17 the first trial step, at L0/2, vanishes against x = ones before L ever doubled
        code = main([
            "run", "--problem", "quadratic:1,1", "--x0", "ones", "--eps-rel", "1e-6",
            "--l0", l0, "--method", method, "--out", str(tmp_path / "o"),
        ])
        err = capsys.readouterr().err
        assert code == exit_code
        if exit_code == 3:
            assert err.startswith(f"aborted: accepted step at grad_calls={grads} left the iterate unchanged")
            assert "before any doubling of L" in err and "L looks far too large" in err
            assert "precision" not in err

    @pytest.mark.parametrize("method", ["ogmg:3", "acgm", "algm"])
    def test_non_finite_iterate_exit_three(self, tmp_path, method):
        # step size 1e200 on curvature 1e200 overflows the first iterate
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "run", "--problem", "quadratic:1e200,1", "--method", method, "--l0", "1e-200",
                "--x0", "ones", "--eps", "1e-8", "--out", str(tmp_path / "o"),
            ])
        assert code == 3
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
        # each run reaches a restart point that meets eps and a pass from it that cannot move
        out = tmp_path / "o"
        code = main([
            "run", "--problem", f"logreg:60,40,0.01,{seed}", "--method", "algm", "--l0", l0,
            "--eps", eps, "--x0", "gaussian", "--seed", str(seed), "--max-grad-calls", "20000",
            "--out", str(out),
        ])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["final_grad_norm"] <= summary["epsilon"]
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
        assert "reg must be finite and positive" in capsys.readouterr().err
        assert calls == []
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
