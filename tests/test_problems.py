import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastgrad import (
    CountingOracle,
    LogRegProblem,
    QuadraticProblem,
    SolverConfig,
    SplitMix64,
    algm,
    check_gradient,
    gen_logreg,
    lipschitz_upper_bound,
    load_logreg_csv,
    ogmgl_run,
)
from fastgrad import problems
from fastgrad.rng import _BLOCK, _VECTOR_MIN


def reference_normals(stream, count):
    """Box-Muller on consecutive u64() pairs, one draw at a time, as rng.py documents."""
    out = []
    while len(out) < count:
        u1 = ((stream.u64() >> 11) + 1) * 2.0**-53
        u2 = (stream.u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        out += [r * math.cos(angle), r * math.sin(angle)]
    return np.array(out[:count], dtype=np.float64)


def reference_signs(stream, count):
    return np.array([-1.0 if stream.u64() >> 63 else 1.0 for _ in range(count)], dtype=np.float64)


def value_grad(problem, x):
    """Value and gradient through the problem's one evaluation path, objective()."""
    obj = problem.objective()
    return obj.value(x), obj.gradient(x)


class TestQuadratic:
    def test_ill_conditioned_instance(self):
        p = QuadraticProblem(diag=np.array([1000.0, 0.1]))
        value, grad = value_grad(p, np.array([1.0, 1.0]))
        assert value == pytest.approx(500.05, rel=1e-15)
        assert np.allclose(grad, [1000.0, 0.1], rtol=1e-15)
        assert p.known_L == 1000.0 and p.known_mu == 0.1

    def test_minimizer(self):
        p = QuadraticProblem(diag=np.array([3.0, 7.0, 0.2]))
        value, grad = value_grad(p, np.zeros(3))
        assert value == 0.0
        assert np.array_equal(grad, np.zeros(3))

    def test_one_dim(self):
        p = QuadraticProblem(diag=np.array([2.0]))
        value, grad = value_grad(p, np.array([3.0]))
        assert value == 9.0
        assert grad[0] == 6.0

    def test_rejects_non_positive_curvature(self):
        with pytest.raises(ValueError):
            QuadraticProblem(diag=np.array([1.0, 0.0]))

    def test_rejects_an_empty_curvature_vector(self):
        # known_L would meet numpy's zero-size reduction error, and a solve would "converge" in 0 dimensions
        with pytest.raises(ValueError, match="at least one curvature"):
            QuadraticProblem(diag=[])

    def test_rejects_matrix_curvature(self):
        with pytest.raises(ValueError, match="1-D vector"):
            QuadraticProblem(diag=np.ones((2, 2)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_strong_convexity_sandwich(self, seed):
        # mu/2 |x - x*|^2 <= f(x) - f* <= |grad f(x)|^2 / (2 mu)
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 8))
        diag = 10.0 ** rng.uniform(-1.0, 2.0, size=dim)
        p = QuadraticProblem(diag=diag)
        x = rng.normal(size=dim) * 4.0
        value, grad = value_grad(p, x)
        mu = p.known_mu
        lower = 0.5 * mu * float(np.dot(x, x))
        upper = float(np.dot(grad, grad)) / (2.0 * mu)
        assert lower <= value * (1 + 1e-12)
        assert value <= upper * (1 + 1e-12)


# a CSV loader's array: two feature columns, then the label column
CSV_DATA_WITH_NAN = np.array([[1.0, np.nan, 1.0], [2.0, 3.0, -1.0]])


class TestLogReg:
    def test_zero_weights_identity(self):
        p = gen_logreg(40, 7, reg=1.0, seed=9)
        w = np.zeros(7)
        value, grad = value_grad(p, w)
        assert value == pytest.approx(40 * math.log(2.0), rel=1e-14)
        expected = -0.5 * (p.features.T @ p.labels)
        assert np.allclose(grad, expected, rtol=1e-12, atol=1e-12)

    def test_single_sample(self):
        p = LogRegProblem(features=np.array([[1.0]]), labels=np.array([1.0]), reg=1.0)
        value, grad = value_grad(p, np.zeros(1))
        assert value == pytest.approx(math.log(2.0), rel=1e-14)
        assert grad[0] == pytest.approx(-0.5, rel=1e-14)

    def test_gradient_matches_finite_differences(self):
        p = gen_logreg(25, 10, reg=1.0, seed=17)
        obj = p.objective()
        rng = np.random.default_rng(23)
        for _ in range(5):
            assert check_gradient(obj, rng.normal(size=10)) <= 1e-5

    def test_overflow_safe_far_from_origin(self):
        p = gen_logreg(10, 4, reg=1.0, seed=1)
        value, grad = value_grad(p, np.full(4, 500.0))
        assert math.isfinite(value)
        assert np.all(np.isfinite(grad))

    def test_convexity_spot_check(self):
        p = gen_logreg(30, 6, reg=1.0, seed=13)
        f = p.objective().value
        rng = np.random.default_rng(29)
        for _ in range(1000):
            x = rng.normal(size=6) * 2
            y = rng.normal(size=6) * 2
            lam = rng.uniform()
            mid = lam * x + (1 - lam) * y
            assert f(mid) <= lam * f(x) + (1 - lam) * f(y) + 1e-9

    def test_strong_convexity_certificate(self):
        # f(w) - reg/2 |w|^2 stays convex, certifying mu >= reg
        p = gen_logreg(30, 6, reg=1.0, seed=31)
        rng = np.random.default_rng(37)
        f = p.objective().value

        def centered(w):
            return f(w) - 0.5 * p.reg * float(np.dot(w, w))

        for _ in range(1000):
            x = rng.normal(size=6) * 2
            y = rng.normal(size=6) * 2
            lam = rng.uniform()
            mid = lam * x + (1 - lam) * y
            assert centered(mid) <= lam * centered(x) + (1 - lam) * centered(y) + 1e-9

    def test_labels_and_finiteness(self):
        p = gen_logreg(50, 8, reg=0.5, seed=101)
        assert set(np.unique(p.labels)) <= {-1.0, 1.0}
        assert np.all(np.isfinite(p.features))

    def test_rejects_invalid_labels(self):
        with pytest.raises(ValueError, match="labels"):
            LogRegProblem(features=np.ones((2, 2)), labels=np.array([1.0, 0.5]), reg=1.0)

    def test_rejects_non_positive_reg(self):
        with pytest.raises(ValueError, match="reg"):
            LogRegProblem(features=np.ones((1, 1)), labels=np.array([1.0]), reg=0.0)

    @pytest.mark.parametrize(
        "features,labels,message",
        [
            (np.ones(2), np.ones(2), "2-D matrix"),
            (np.ones((2, 2)), np.ones(3), "one entry per feature row"),
            (np.array([[1.0, np.inf]]), np.ones(1), "non-finite"),
            (np.array([[1.0, 2.0], [3.0, np.nan]]), np.ones(2), "non-finite"),
            (np.array([[-np.inf, 2.0], [3.0, 4.0]]), np.ones(2), "non-finite"),
            # the CSV loader's strided view: the NaN is a feature, the label column is finite
            (CSV_DATA_WITH_NAN[:, :-1], CSV_DATA_WITH_NAN[:, -1], "non-finite"),
        ],
        ids=["vector-features", "label-count", "infinite-feature", "nan-last", "minus-inf-first", "nan-in-csv-view"],
    )
    def test_rejects_malformed_data(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            LogRegProblem(features=features, labels=labels, reg=1.0)

    @pytest.mark.parametrize(
        "features",
        [np.full((3, 3), 1.7e308), np.ones((0, 3)), np.ones((3, 0))],
        ids=["near-float-max", "zero-rows", "zero-columns"],
    )
    def test_accepts_finite_features(self, features):
        # the finiteness check must neither overflow on huge entries nor reduce an empty matrix
        p = LogRegProblem(features=features, labels=np.ones(features.shape[0]), reg=1.0)
        assert p.features.shape == features.shape

    def test_validation_allocates_nothing_data_sized(self):
        # a bool mask of the 300x3000 matrix alone would take 879 KiB
        features, labels = np.full((300, 3000), 0.5), np.ones(300)
        tracemalloc.start()
        try:
            LogRegProblem(features=features, labels=labels, reg=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 1024

    def test_is_frozen_over_read_only_views(self):
        features, labels = np.ones((2, 3)), np.array([1.0, -1.0])
        p = LogRegProblem(features=features, labels=labels, reg=1.0)
        for name, value in [("reg", 100.0), ("features", 2 * features), ("labels", -labels)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, name, value)
        with pytest.raises(ValueError, match="read-only"):
            p.features[0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            p.labels[0] = -1.0
        # views, not copies: the caller's arrays are shared and stay writable
        assert np.shares_memory(p.features, features) and np.shares_memory(p.labels, labels)
        assert features.flags.writeable and labels.flags.writeable


def two_branch_logreg_grad(p, w, z):
    """Reference gradient: both branches of sigma(-z) evaluated in full, then the
    negated product plus reg * w."""
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0.0, e / (1.0 + e), 1.0 / (1.0 + e))
    return -(p.features.T @ (p.labels * s)) + p.reg * w


@given(
    st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from([0.0, -0.0, -800.0, 745.0, 800.0])),
                 min_size=n, max_size=n),
        st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n),
    )),
    st.integers(1, 4),
    st.floats(1e-3, 10.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_gradient_is_bit_identical_to_the_two_branch_form(margins_labels, dim, reg, seed):
    # z is passed as given, not derived from w: the gradient's arithmetic is checked at
    # every margin, including those whose sigmoid is exactly 0 and signed-zero sums
    margins, labels = margins_labels
    rng = np.random.default_rng(seed)
    features = rng.choice([0.0, -0.0, 1.0, -2.5, 0.3], size=(len(labels), dim))
    w = rng.choice([0.0, -0.0, 1.5, -1e-3], size=dim)
    p = LogRegProblem(features=features, labels=np.array(labels), reg=reg)
    z = np.array(margins)
    got, want = problems._logreg_grad(p, w, z), two_branch_logreg_grad(p, w, z)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.fixture
def products(monkeypatch):
    """Counts the forward products X @ w the logistic objectives compute."""
    calls = []
    inner = problems._margins

    def counted(p, w):
        calls.append(1)
        return inner(p, w)

    monkeypatch.setattr(problems, "_margins", counted)
    return calls


class TestMarginCache:
    P = gen_logreg(20, 6, reg=0.5, seed=11)

    def test_value_then_gradient_at_one_point_share_the_product(self, products):
        obj = self.P.objective()
        x = np.linspace(-1.0, 1.0, 6)
        obj.value(x)
        obj.gradient(x.copy())
        assert len(products) == 1

    def test_different_points_each_compute(self, products):
        obj = self.P.objective()
        x = np.linspace(-1.0, 1.0, 6)
        obj.value(x)
        obj.gradient(x + 1.0)
        assert len(products) == 2

    def test_in_place_mutation_recomputes(self, products):
        obj = self.P.objective()
        x = np.linspace(-1.0, 1.0, 6)
        obj.value(x)
        x[0] += 0.25
        grad = obj.gradient(x)
        assert len(products) == 2
        assert np.array_equal(grad, self.P.objective().gradient(x))

    def test_results_equal_uncached_evaluation(self):
        obj = self.P.objective()
        rng = np.random.default_rng(41)
        points = [rng.normal(size=6) for _ in range(3)]
        for i, kind in [(0, "value"), (0, "gradient"), (0, "gradient"), (1, "gradient"),
                        (1, "value"), (0, "value"), (2, "value"), (2, "value"), (1, "gradient")]:
            x = points[i].copy()
            got = getattr(obj, kind)(x)
            assert np.array_equal(got, getattr(self.P.objective(), kind)(x))

    def test_objectives_do_not_share_a_cache(self, products):
        a, b = self.P.objective(), self.P.objective()
        x = np.linspace(-1.0, 1.0, 6)
        a.value(x)
        b.value(x)
        a.gradient(x)
        assert len(products) == 2

    def test_algm_run_computes_fewer_products_than_calls(self, products):
        p = gen_logreg(60, 40, 0.01, seed=3)
        oracle = CountingOracle(p.objective())
        oracle.max_grad_calls = 10_000  # wrong gradients stop here, not after 10^7
        x0 = SplitMix64(3).normals(p.dim)
        result = algm(oracle, x0, SolverConfig(epsilon=1e-6, L0=1.0))
        assert result.converged
        assert len(products) < oracle.value_calls + oracle.grad_calls


class TestGeneration:
    def test_deterministic_bit_for_bit(self):
        a = gen_logreg(10, 5, reg=1.0, seed=42)
        b = gen_logreg(10, 5, reg=1.0, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_benchmark_instance_digest(self):
        # recorded from the per-draw generator before block generation existed
        p = gen_logreg(300, 3000, 0.001, 42)
        digest = hashlib.sha256(p.features.tobytes() + p.labels.tobytes()).hexdigest()
        assert digest == "11c09c0da6340641d2c65dee35668f68d9133e6a431aa6b635e5d5993832232c"

    @pytest.mark.parametrize(
        "count",
        [0, 1, 2, 3, _VECTOR_MIN - 1, _VECTOR_MIN, _VECTOR_MIN + 1,
         _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7],
    )
    def test_streams_match_per_draw_reference(self, count):
        for draw, reference in (("normals", reference_normals), ("signs", reference_signs)):
            stream, ref = SplitMix64(2024), SplitMix64(2024)
            got = getattr(stream, draw)(count)
            assert np.array_equal(got.view(np.uint64), reference(ref, count).view(np.uint64))
            assert stream._state == ref._state

    @given(st.integers(0, 2**64 - 1), st.integers(_VECTOR_MIN, 2 * _BLOCK + 3))
    @settings(max_examples=40, deadline=None)
    def test_block_normals_match_libm_reference(self, seed, count):
        # the block path takes log, cos and sin from numpy; this fails if numpy's
        # float64 cos/sin, or its log through a reversed stride, ever stop
        # agreeing with math's, bit for bit
        stream, ref = SplitMix64(seed), SplitMix64(seed)
        got = stream.normals(count)
        assert np.array_equal(got.view(np.uint64), reference_normals(ref, count).view(np.uint64))
        assert stream._state == ref._state

    def test_reversed_stride_log_is_libm(self):
        # the block path's log relies on numpy dispatching a negative-stride
        # input to its scalar loop, which calls libm's log as math.log does
        z = SplitMix64(42)._u64_block(2**21)
        radius = ((z[0::2] >> 11) + 1).astype(np.float64) * 2.0**-53
        u = np.concatenate([radius, [1.0, 2.0**-53]])
        got = np.log(u[::-1])[::-1]
        want = np.array([math.log(v) for v in u.tolist()])
        differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
        assert differ.size == 0, (
            f"numpy's reversed-stride log no longer calls libm ({differ.size} of {u.size} "
            f"values differ, first u = {u[differ[0]]!r}); go back to per-element math.log "
            "in SplitMix64.normals"
        )

    def test_interleaved_calls_match_per_draw_reference(self):
        stream, ref = SplitMix64(99), SplitMix64(99)
        for draw, reference, count in (
            ("normals", reference_normals, _VECTOR_MIN + 1),
            ("signs", reference_signs, 5),
            ("normals", reference_normals, _BLOCK + 1),
            ("signs", reference_signs, _BLOCK + 3),
            ("normals", reference_normals, 3),
        ):
            got = getattr(stream, draw)(count)
            assert np.array_equal(got.view(np.uint64), reference(ref, count).view(np.uint64))
            assert stream._state == ref._state

    def test_zero_normals_leave_state(self):
        stream = SplitMix64(5)
        before = stream._state
        assert stream.normals(0).size == 0
        assert stream._state == before

    def test_different_seeds_differ(self):
        a = gen_logreg(10, 5, reg=1.0, seed=42)
        b = gen_logreg(10, 5, reg=1.0, seed=43)
        assert not np.array_equal(a.features, b.features)

    def test_rejects_empty_shapes(self):
        with pytest.raises(ValueError):
            gen_logreg(0, 5, reg=1.0, seed=1)

    def test_stream_statistics_plausible(self):
        draws = SplitMix64(7).normals(20_000)
        assert abs(float(np.mean(draws))) < 0.05
        assert abs(float(np.std(draws)) - 1.0) < 0.05

    def test_sign_stream(self):
        signs = SplitMix64(11).signs(500)
        assert set(np.unique(signs)) == {-1.0, 1.0}
        assert 150 < int(np.sum(signs == 1.0)) < 350


class TestCsvImport:
    def test_round_trip(self, tmp_path):
        p = gen_logreg(12, 4, reg=2.0, seed=77)
        path = tmp_path / "data.csv"
        rows = np.hstack([p.features, p.labels[:, None]])
        np.savetxt(path, rows, delimiter=",")
        loaded = load_logreg_csv(str(path), reg=2.0)
        assert np.allclose(loaded.features, p.features, rtol=1e-12)
        assert np.array_equal(loaded.labels, p.labels)

    def test_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0.7\n")
        with pytest.raises(ValueError, match="labels"):
            load_logreg_csv(str(path), reg=1.0)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "thin.csv"
        path.write_text("1.0\n-1.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_logreg_csv(str(path), reg=1.0)


class TestLipschitzBound:
    @pytest.mark.parametrize("dim", [1, 2, 31, 32, 33, 3000])
    def test_power_iteration_start_is_nonzero(self, dim):
        # both normals paths start with this variate, so the start never has norm zero
        v = SplitMix64(problems._POWER_ITER_SEED).normals(dim)
        assert v[0] == -1.2669898075097232

    def test_bound_computed_on_first_read_only(self, monkeypatch):
        calls = []
        bound = lipschitz_upper_bound
        monkeypatch.setattr(problems, "lipschitz_upper_bound", lambda p: calls.append(p) or bound(p))
        p = gen_logreg(30, 20, reg=1.0, seed=5)
        p.objective()
        assert calls == []
        assert p.known_L == p.known_L == bound(p)
        assert len(calls) == 1

    def test_zero_features_bound_is_reg(self):
        p = LogRegProblem(features=np.zeros((2, 3)), labels=np.array([1.0, -1.0]), reg=0.5)
        assert lipschitz_upper_bound(p) == 0.5

    def test_unstable_quotient_raises(self, monkeypatch):
        monkeypatch.setattr(problems, "_POWER_ITER_MAX", 1)
        p = LogRegProblem(features=np.eye(2), labels=np.array([1.0, -1.0]), reg=1.0)
        with pytest.raises(RuntimeError, match="did not converge within 1 iterations"):
            lipschitz_upper_bound(p)

    def test_identity_features(self):
        p = LogRegProblem(features=np.eye(2), labels=np.array([1.0, -1.0]), reg=1.0)
        assert lipschitz_upper_bound(p) == pytest.approx(1.25, rel=1e-6)

    def test_rank_one_row(self):
        # lambda_max of the Gram matrix for a single row is its squared norm
        p = LogRegProblem(
            features=np.array([[3.0, 4.0]]), labels=np.array([1.0]), reg=1e-12
        )
        assert lipschitz_upper_bound(p) == pytest.approx(6.25, rel=1e-6)

    def test_matches_dense_eigensolver(self):
        p = gen_logreg(60, 40, reg=1.0, seed=55)
        lam = float(np.linalg.eigvalsh(p.features.T @ p.features).max())
        assert lipschitz_upper_bound(p) == pytest.approx(1.0 + 0.25 * lam, rel=1e-3)

    @pytest.mark.parametrize("shape", [(300, 3000, 0.001, 42), (110, 100, 1.0, 42), (60, 40, 0.01, 3)])
    def test_estimate_is_near_the_dense_value(self, shape):
        """The power iteration's Rayleigh quotient lies below reg + lambda_max / 4, by up to
        2.6e-5 relative on these instances. ROADMAP item 15 will make it a bound, at or above
        the dense value; until then it is an estimate within 1e-4 of it."""
        p = gen_logreg(*shape)
        X = p.features
        gram = X @ X.T if X.shape[0] < X.shape[1] else X.T @ X  # the smaller Gram matrix, same top eigenvalue
        dense = p.reg + 0.25 * float(np.linalg.eigvalsh(gram).max())
        assert lipschitz_upper_bound(p) == pytest.approx(dense, rel=1e-4)

    def test_desk_instance_brackets_adaptive_estimate(self):
        p = gen_logreg(110, 100, reg=1.0, seed=42)
        bound = lipschitz_upper_bound(p)
        oracle = CountingOracle(p.objective())
        x0 = SplitMix64(4).normals(p.dim)
        out = ogmgl_run(oracle, x0, 1.0, 10)
        assert out.L_end <= 2.0 * bound
