import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest

from fastgrad import (
    CountingOracle,
    DivergenceError,
    EventKind,
    NonFiniteError,
    Objective,
    QuadraticProblem,
    SolverConfig,
    SplitMix64,
    acgm,
    algm,
    gen_logreg,
    lipschitz_upper_bound,
    norm2,
    ogmg_repeated,
    ogmg_run,
    ogmgl_run,
    ugm,
)
from fastgrad import drivers
from fastgrad.ogmg import RunawayLipschitzError, StalledIterate, _doubled

ILL = QuadraticProblem(diag=np.array([1000.0, 0.1]))


def ill_run(mu0=None, kexp=20, x0=None, driver="acgm", L=1000.0, max_grad_calls=None):
    obj = ILL.objective()
    x0 = np.array([1.0, 1.0]) if x0 is None else x0
    g0 = norm2(obj.gradient(x0))
    cfg = SolverConfig(epsilon=g0 / 2**kexp, L0=L, mu0=mu0)
    oracle = CountingOracle(obj)
    if max_grad_calls is not None:
        oracle.max_grad_calls = max_grad_calls
    if driver == "acgm":
        result = acgm(oracle, x0, L, cfg)
    elif driver == "algm":
        result = algm(oracle, x0, cfg)
    else:
        result = ugm(oracle, x0, cfg)
    return result, oracle, cfg


ENTRY_POINTS = {
    "ogmg_run": lambda oracle, x0: ogmg_run(oracle, x0, 2.0, 3),
    "ogmgl_run": lambda oracle, x0: ogmgl_run(oracle, x0, 2.0, 3),
    "acgm": lambda oracle, x0: acgm(oracle, x0, 2.0, SolverConfig(epsilon=1e-6, L0=2.0)),
    "algm": lambda oracle, x0: algm(oracle, x0, SolverConfig(epsilon=1e-6, L0=2.0)),
    "ugm": lambda oracle, x0: ugm(oracle, x0, SolverConfig(epsilon=1e-6, L0=2.0)),
    "ogmg_repeated": lambda oracle, x0: ogmg_repeated(oracle, x0, 2.0, 2.0, 1e-6),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_wrong_size_start(entry):
    # a 3-vector would broadcast against the 1-d curvature and "converge"
    oracle = CountingOracle(QuadraticProblem(diag=np.array([2.0])).objective())
    with pytest.raises(ValueError, match="dimension mismatch"):
        ENTRY_POINTS[entry](oracle, np.ones(3))
    assert oracle.grad_calls == oracle.value_calls == 0


@pytest.mark.parametrize(
    "entry,message",
    [
        (lambda oracle, x0: acgm(oracle, x0, 0.0, SolverConfig(epsilon=1e-6, L0=2.0)), "L must be positive"),
        (lambda oracle, x0: ogmg_repeated(oracle, x0, 2.0, 2.0, 0.0), "epsilon must be positive"),
    ],
    ids=["acgm-zero-L", "ogmg_repeated-zero-epsilon"],
)
def test_entry_points_reject_non_positive_constants(entry, message):
    oracle = CountingOracle(QuadraticProblem(diag=np.array([2.0])).objective())
    with pytest.raises(ValueError, match=message):
        entry(oracle, np.ones(1))
    assert oracle.grad_calls == oracle.value_calls == 0


def outer_norms(result):
    return [e.grad_norm for e in result.trace.events if e.kind == EventKind.OUTER_STEP]


class TestSolverConfig:
    def test_mu0_defaults_to_L0(self):
        cfg = SolverConfig(epsilon=1.0, L0=10.0)
        assert cfg.mu0 == 10.0

    def test_mu0_above_L0_raises(self):
        with pytest.raises(ValueError, match=r"mu0=100\.0 exceeds L0=10\.0"):
            SolverConfig(epsilon=1.0, L0=10.0, mu0=100.0)
        assert SolverConfig(epsilon=1.0, L0=10.0, mu0=10.0).mu0 == 10.0

    def test_is_frozen_and_replace_rechecks(self):
        cfg = SolverConfig(epsilon=1.0, L0=10.0)
        for name, value in (("epsilon", -1.0), ("mu0", 5000.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)
        assert (cfg.epsilon, cfg.L0, cfg.mu0) == (1.0, 10.0, 10.0)
        with pytest.raises(ValueError, match=r"mu0=5000\.0 exceeds L0=10\.0"):
            dataclasses.replace(cfg, mu0=5000.0)
        assert dataclasses.replace(cfg, L0=20.0, mu0=None).mu0 == 20.0

    def test_tiny_L0_constructs(self):
        # mu0 = L0 = 1e-300 is valid; any floor derived from it would underflow
        cfg = SolverConfig(epsilon=1.0, L0=1e-300)
        assert cfg.mu0 == 1e-300

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epsilon": 0.0, "L0": 1.0},
            {"epsilon": 1.0, "L0": -1.0},
            {"epsilon": 1.0, "L0": 1.0, "mu0": -2.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestAcgm:
    def test_immediate_stop_at_solution(self):
        oracle = CountingOracle(ILL.objective())
        cfg = SolverConfig(epsilon=1e-6, L0=1000.0)
        result = acgm(oracle, np.zeros(2), 1000.0, cfg)
        assert result.converged
        assert oracle.grad_calls == 1 and oracle.value_calls == 0
        assert len(result.trace.events) == 1
        assert result.trace.events[0].kind == EventKind.TERMINATED

    def test_converges_with_monotone_accepted_steps(self):
        result, oracle, cfg = ill_run()
        assert result.converged
        norms = outer_norms(result)
        assert all(b <= 0.5 * a for a, b in zip(norms, norms[1:]))
        assert result.trace.events[-1].grad_norm <= cfg.epsilon

    def test_accepted_steps_bounded_by_K(self):
        result, _, cfg = ill_run(kexp=20)
        # each accepted step at least halves, so at most K accepted moves after the start row
        assert len(outer_norms(result)) - 1 <= 20

    def test_retry_mu_sequence_is_geometric(self):
        result, _, cfg = ill_run(mu0=1000.0)
        beta = drivers._BETA
        mu_accepted = cfg.mu0
        step_mus = []
        for event in result.trace.events[1:]:
            if event.kind == EventKind.RETRY:
                step_mus.append(event.mu_estimate)
            elif event.kind == EventKind.OUTER_STEP:
                step_mus.append(event.mu_estimate)
                expected = beta * mu_accepted
                for m, mu in enumerate(step_mus):
                    assert mu == expected / beta**m  # exact for beta = 4
                mu_accepted = event.mu_estimate
                step_mus = []

    def test_underestimated_mu0_costs_more(self):
        x0 = SplitMix64(1).normals(2)
        exact, o_exact, _ = ill_run(mu0=0.1, x0=x0)
        low, o_low, _ = ill_run(mu0=0.01, x0=x0)
        assert exact.converged and low.converged
        assert o_low.grad_calls > o_exact.grad_calls

    def test_budget_exhaustion_reports_not_converged(self):
        result, oracle, _ = ill_run(max_grad_calls=40)
        assert not result.converged
        assert oracle.grad_calls <= 40
        assert result.trace.events[-1].kind != EventKind.TERMINATED
        assert result.best_grad_norm < math.inf

    def test_best_point_attains_event_minimum(self):
        result, _, _ = ill_run(mu0=0.01)
        obj = ILL.objective()
        event_min = min(e.grad_norm for e in result.trace.events)
        assert result.best_grad_norm == event_min
        assert norm2(obj.gradient(result.best_point)) == pytest.approx(event_min, rel=1e-12)
        assert result.converged and result.best_grad_norm <= result.trace.events[-1].grad_norm

    def test_forced_accept_on_retry_cap(self, caplog, monkeypatch):
        # constant-gradient objective: the halving test can never pass
        monkeypatch.setattr(drivers, "_MAX_RETRIES_PER_STEP", 3)
        c = np.array([3.0, 4.0])
        flat = Objective(dim=2, value=lambda x: float(np.dot(c, x)), gradient=lambda x: c)
        oracle = CountingOracle(flat)
        oracle.max_grad_calls = 200
        cfg = SolverConfig(epsilon=1e-3, L0=1.0)
        with caplog.at_level(logging.WARNING, logger="fastgrad.drivers"):
            result = acgm(oracle, np.zeros(2), 1.0, cfg)
        assert not result.converged
        assert oracle.grad_calls <= 200
        assert any("accepting the best point" in r.message for r in caplog.records)

    def test_forced_accept_adopts_each_improving_retry(self, caplog, monkeypatch):
        # every pass improves on its start without halving it: each retry is
        # adopted as the restart point and then force-accepted, which its retry row records
        monkeypatch.setattr(drivers, "_MAX_RETRIES_PER_STEP", 1)
        oracle = CountingOracle(ILL.objective())
        oracle.max_grad_calls = 200
        cfg = SolverConfig(epsilon=1e-6, L0=1000.0)
        with caplog.at_level(logging.WARNING, logger="fastgrad.drivers"):
            result = acgm(oracle, SplitMix64(7).normals(2), 1000.0, cfg)
        kinds = [ev.kind for ev in result.trace.events]
        assert kinds.count(EventKind.OUTER_STEP) == 2
        assert kinds.count(EventKind.RETRY) == 98
        assert sum("accepting the best point" in r.message for r in caplog.records) == 98

    def test_non_finite_start_gradient_is_not_blamed_on_L(self):
        # no pass has run, so the abort keeps the oracle's own message
        broken = Objective(dim=2, value=lambda x: 0.0, gradient=lambda x: np.array([np.inf, 0.0]))
        with pytest.raises(NonFiniteError) as raised:
            acgm(CountingOracle(broken), np.ones(2), 1.0, SolverConfig(epsilon=1e-6, L0=1.0))
        assert str(raised.value) == "gradient has non-finite components after 1 gradient evaluations"


class TestUgm:
    def test_hand_simulated_parabola(self):
        p = QuadraticProblem(diag=np.array([1.0]))
        oracle = CountingOracle(p.objective())
        result = ugm(oracle, np.array([4.0]), SolverConfig(epsilon=1e-12, L0=1.0))
        assert result.converged
        assert result.best_point[0] == 0.0
        assert oracle.value_calls == 3
        assert oracle.grad_calls == 2

    def test_immediate_stop_at_minimizer(self):
        oracle = CountingOracle(ILL.objective())
        result = ugm(oracle, np.zeros(2), SolverConfig(epsilon=1e-9, L0=7.0))
        assert result.converged
        assert oracle.grad_calls == 1 and oracle.value_calls == 0

    def test_accepted_values_strictly_decrease(self):
        result, _, _ = ill_run(driver="ugm", kexp=12, L=8000.0)
        assert result.converged
        values = [e.f_value for e in result.trace.events if e.f_value is not None]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestAlgm:
    def test_immediate_stop_zero_inner_calls(self):
        oracle = CountingOracle(ILL.objective())
        result = algm(oracle, np.zeros(2), SolverConfig(epsilon=1e-9, L0=123.0))
        assert result.converged
        assert [ev.kind for ev in result.trace.events] == [EventKind.TERMINATED]
        assert oracle.grad_calls == 1 and oracle.value_calls == 0

    def test_forced_accept_at_the_default_retry_cap(self, caplog):
        # from ones with L0 = 3 and epsilon = 1e-300, four outer steps fail the halving
        # test as often as the default cap allows, and the run still converges
        oracle = CountingOracle(QuadraticProblem(diag=np.array([1.0, 2.5])).objective())
        with caplog.at_level(logging.WARNING, logger="fastgrad.drivers"):
            result = algm(oracle, np.ones(2), SolverConfig(epsilon=1e-300, L0=3.0))
        assert result.converged
        assert (oracle.grad_calls, oracle.value_calls) == (5008, 8868)
        assert oracle.value_calls <= 2 * oracle.grad_calls + 61
        forced = [r.message for r in caplog.records if "accepting the best point" in r.message]
        assert len(forced) == 4
        assert all(message.startswith("halving test failed 60 times") for message in forced)

    def test_converges_from_overestimate_and_brackets_L(self):
        result, oracle, _ = ill_run(driver="algm", L=1e6)
        assert result.converged
        estimates = [e.L_estimate for e in result.trace.events if e.L_estimate is not None]
        assert 500.0 <= estimates[-1] <= 2000.0

    def test_converges_from_underestimate(self):
        result, _, _ = ill_run(driver="algm", L=1.0)
        assert result.converged

    def test_mu_rescaling_preserves_ratio(self):
        result, _, cfg = ill_run(driver="algm", L=1e5)
        mu_acc, L_acc = cfg.mu0, cfg.L0
        first_attempt = True
        for event in result.trace.events[1:]:
            if event.kind == EventKind.INNER_RESTART:
                continue
            if event.kind == EventKind.TERMINATED:
                break
            if first_attempt:
                got = event.L_estimate / event.mu_estimate
                want = L_acc / (drivers._BETA * mu_acc)
                assert got == pytest.approx(want, rel=1e-12)
            first_attempt = event.kind == EventKind.OUTER_STEP
            if event.kind == EventKind.OUTER_STEP:
                mu_acc, L_acc = event.mu_estimate, event.L_estimate

    def test_logreg_converges_without_supplied_constant(self):
        p = gen_logreg(110, 100, 1.0, seed=5)
        obj = p.objective()
        x0 = SplitMix64(2).normals(p.dim)
        g0 = norm2(obj.gradient(x0))
        oracle = CountingOracle(obj)
        result = algm(oracle, x0, SolverConfig(epsilon=g0 / 2**20, L0=1.0))
        assert result.converged
        ratio = math.sqrt(lipschitz_upper_bound(p) / p.known_mu)
        K = 20
        assert oracle.grad_calls <= 8 * math.sqrt(2) * ratio * (3 * K + math.log2(lipschitz_upper_bound(p) / 1.0))
        assert oracle.value_calls <= 2 * oracle.grad_calls


# f(0) = 2 with gradient -1, f = 1 with gradient 1e-30 elsewhere: from x0 = 0 at
# L_in = 2 the first step of a pass moves, and the second, at x near 1.8,
# cannot, as g/L vanishes against x
def _cliff_gradient(x):
    return np.full(1, -1.0 if x[0] == 0.0 else 1e-30)


CLIFF = Objective(dim=1, value=lambda x: 2.0 if x[0] == 0.0 else 1.0, gradient=_cliff_gradient)

# gradient norms of the scripted points: the first candidate does not halve the
# start's norm but improves on it, so it is adopted; it meets epsilon = 1
SCRIPTED_NORMS = {0.0: 1.5, 1.0: 0.9}
SCRIPTED = Objective(dim=1, value=lambda x: 0.0, gradient=lambda x: np.full(1, SCRIPTED_NORMS[x[0]]))


class TestAdaptiveRestartStalls:
    """_adaptive_restarts alone turns a StalledIterate that meets epsilon into convergence."""

    def test_stall_inside_a_pass_at_epsilon_terminates_without_judging(self):
        oracle = CountingOracle(CLIFF)
        result = algm(oracle, np.zeros(1), SolverConfig(epsilon=1e-30, L0=2.0))
        assert result.converged
        assert [ev.kind for ev in result.trace.events] == [EventKind.OUTER_STEP, EventKind.TERMINATED]
        end = result.trace.events[-1]
        assert (end.grad_norm, end.mu_estimate, end.L_estimate) == (1e-30, 2.0, 1.0)
        # the start, then the pass's two steps, and no gradient that judges the stall
        assert (oracle.grad_calls, oracle.value_calls) == (end.grad_calls, end.value_calls) == (3, 4)
        assert result.best_point[0] != 0.0

    def test_stall_inside_a_pass_above_epsilon_aborts(self):
        oracle = CountingOracle(CLIFF)
        with pytest.raises(StalledIterate, match="left the iterate unchanged"):
            algm(oracle, np.zeros(1), SolverConfig(epsilon=9e-31, L0=2.0))

    def scripted(self, epsilon, second_pass):
        """Run the restart loop on a first pass that returns x = 1, then on second_pass."""
        oracle = CountingOracle(SCRIPTED)
        passes = iter([lambda x_ref, L: (np.ones(1), 4.0), second_pass])

        def run_pass(x_ref, L, mu, n):
            return next(passes)(x_ref, L)

        cfg = SolverConfig(epsilon=epsilon, L0=2.0)
        result = drivers._adaptive_restarts(oracle, np.zeros(1), 2.0, cfg, run_pass, drivers.DriverResult(oracle))
        return result, oracle

    def test_adopted_start_point_at_epsilon_returned_by_a_pass_terminates(self):
        # an acgm pass whose steps vanish returns its start point bit for bit
        result, oracle = self.scripted(1.0, lambda x_ref, L: (x_ref, 8.0))
        kinds = [ev.kind for ev in result.trace.events]
        assert kinds == [EventKind.OUTER_STEP, EventKind.RETRY, EventKind.TERMINATED]
        end = result.trace.events[-1]
        assert result.converged
        assert (end.grad_norm, end.mu_estimate, end.L_estimate) == (0.9, 2.0, 8.0)
        assert oracle.grad_calls == end.grad_calls == 3

    def test_adopted_start_point_above_epsilon_returned_by_a_pass_aborts(self):
        with pytest.raises(StalledIterate, match="returned its start point"):
            self.scripted(0.5, lambda x_ref, L: (x_ref, 8.0))

    def test_runaway_estimate_aborts_at_a_restart_point_that_meets_epsilon(self):
        def runs_away(x_ref, L):
            _doubled(2.0**60, 1.0)

        with pytest.raises(RunawayLipschitzError, match="exceeded") as info:
            self.scripted(1.0, runs_away)
        assert not isinstance(info.value, StalledIterate)


class TestRepeated:
    def test_each_repetition_at_least_halves(self):
        obj = ILL.objective()
        x0 = np.array([1.0, 1.0])
        g0 = norm2(obj.gradient(x0))
        oracle = CountingOracle(obj)
        result = ogmg_repeated(oracle, x0, 1000.0, 0.1, g0 / 2**20)
        assert result.converged
        norms = [e.grad_norm for e in result.trace.events]
        assert all(b <= 0.5 * a for a, b in zip(norms, norms[1:]))

    def test_divergence_aborts_with_diagnostic(self):
        oracle = CountingOracle(ILL.objective())
        with pytest.raises(DivergenceError):
            ogmg_repeated(oracle, np.array([1.0, 1.0]), 10.0, 0.1, 1e-8)

    def test_budget_guard(self):
        oracle = CountingOracle(ILL.objective())
        oracle.max_grad_calls = 300
        result = ogmg_repeated(oracle, np.array([1.0, 1.0]), 1000.0, 0.1, 1e-14)
        assert not result.converged
        assert oracle.grad_calls <= 300

    def test_immediate_stop(self):
        oracle = CountingOracle(ILL.objective())
        result = ogmg_repeated(oracle, np.zeros(2), 1000.0, 0.1, 1e-6)
        assert result.converged and len(result.trace.events) == 1


MEMORY_DRIVERS = {
    "ugm": ugm,
    "acgm": lambda oracle, x0, cfg: acgm(oracle, x0, cfg.L0, cfg),
    "algm": algm,
    "ogmg_repeated": lambda oracle, x0, cfg: ogmg_repeated(oracle, x0, cfg.L0, 1.0, cfg.epsilon),
}


@pytest.mark.parametrize("driver", sorted(MEMORY_DRIVERS))
def test_memory_does_not_grow_with_steps(driver):
    # 2000 gradients on dim 1000: keeping every accepted ugm point would take 16 MB
    oracle = CountingOracle(QuadraticProblem(diag=np.geomspace(1.0, 1e4, 1000)).objective())
    oracle.max_grad_calls = 2000
    cfg = SolverConfig(epsilon=1e-12, L0=1e4)
    x0 = np.ones(1000)
    tracemalloc.start()
    try:
        result = MEMORY_DRIVERS[driver](oracle, x0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the run spends its budget, short of it by at most the attempt it does not start
    assert not result.converged and 1900 < oracle.grad_calls <= 2000
    assert peak < 2_000_000
