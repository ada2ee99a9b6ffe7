import tracemalloc
import warnings

import numpy as np
import pytest

from riskratio import (
    Dataset,
    bootstrap_rr,
    build_design_matrix,
    coefficient_rr,
    ee_jacobian,
    ee_score,
    fit_robust_poisson,
    generate,
    parse_spec,
    sandwich_covariance,
)
from riskratio import design, eecore, inference, logbin
from riskratio.errors import (
    DegenerateColumn,
    NoFiniteSolution,
    NonConvergence,
    Overflow,
    RiskRatioError,
    SingularBread,
    SingularJacobian,
)
from riskratio.design import column_ranges
from riskratio.rng import stream
from riskratio.eecore import MAX_HALVINGS
from riskratio.logbin import feasible_start, logbin_hessian
from riskratio.simlab import get_scenario

from oracles import fit_irls, poisson_loglik, sandwich_covariance_lz

# Raw stacked robust-Poisson fits: one FitResult or exception per design.
poisson_stack = inference.FIT_METHODS["robust-poisson"].fit_stack

# ee_jacobian calls of TestCallCounts.test_warm_bootstrap_resamples
WARM_JACOBIANS = 594

# fixed 8-row dataset used by the grid-refinement oracle and the
# standardization tests
EIGHT_ROWS = {
    "y": np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
    "A": np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
    "L": np.array([0.2, -1.1, 0.5, 1.3, -0.4, 0.0, -0.7, 0.9]),
}


def two_by_two(events_exposed=30, n_exposed=100, events_unexposed=20, n_unexposed=100):
    y = np.r_[
        np.ones(events_exposed), np.zeros(n_exposed - events_exposed),
        np.ones(events_unexposed), np.zeros(n_unexposed - events_unexposed),
    ]
    a = np.r_[np.ones(n_exposed), np.zeros(n_unexposed)]
    return Dataset(y=y, columns={"A": a})


def grid_solve_2d(X, y, span=4.0, rounds=30):
    """Oracle: iterative grid refinement of the score-norm minimum."""
    center = np.array([np.log(max(y.mean(), 0.05)), 0.0])
    width = span
    for _ in range(rounds):
        b0 = np.linspace(center[0] - width, center[0] + width, 21)
        b1 = np.linspace(center[1] - width, center[1] + width, 21)
        best, best_norm = None, np.inf
        for u in b0:
            for v in b1:
                s = X.T @ (y - np.exp(X @ np.array([u, v])))
                norm = np.max(np.abs(s))
                if norm < best_norm:
                    best, best_norm = np.array([u, v]), norm
        center, width = best, width / 5.0
    return center


class TestFit:
    def test_intercept_only_log_mean(self):
        y = np.r_[np.ones(25), np.zeros(75)]
        fit = fit_robust_poisson(np.ones((100, 1)), y)
        np.testing.assert_allclose(fit.beta[0], np.log(0.25), atol=1e-10)

    def test_saturated_2x2(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        np.testing.assert_allclose(fit.beta[1], np.log(1.5), atol=1e-8)
        # fitted means equal stratum proportions
        np.testing.assert_allclose(
            np.unique(fit.mu_hat), [0.2, 0.3], atol=1e-8
        )

    def test_eight_row_grid_oracle(self):
        X = np.column_stack([np.ones(8), EIGHT_ROWS["L"]])
        y = EIGHT_ROWS["y"]
        oracle = grid_solve_2d(X, y)
        fit = fit_robust_poisson(X, y)
        np.testing.assert_allclose(fit.beta, oracle, atol=1e-6)

    def test_newton_irls_equivalence(self):
        rng = stream(31, 0)
        for r in range(20):
            n = 300
            l = rng.standard_normal(n)
            a = (rng.random(n) < 0.5).astype(float)
            y = (rng.random(n) < np.exp(-1.5 + 0.4 * a + 0.3 * l)).astype(float)
            X = np.column_stack([np.ones(n), a, l])
            newton = fit_robust_poisson(X, y)
            irls = fit_irls(X, y)
            np.testing.assert_allclose(newton.beta, irls.beta, atol=1e-8)

    def test_reparameterization_equivariance(self):
        rng = stream(31, 1)
        n = 500
        l = rng.standard_normal(n)
        a = (rng.random(n) < 0.5).astype(float)
        y = (rng.random(n) < np.exp(-1.4 + 0.3 * a + 0.2 * l)).astype(float)
        X = np.column_stack([np.ones(n), a, l])
        Xs = X.copy()
        Xs[:, 2] *= 4.0
        fit = fit_robust_poisson(X, y)
        fit_s = fit_robust_poisson(Xs, y)
        np.testing.assert_allclose(fit_s.beta[2], fit.beta[2] / 4.0, atol=1e-8)
        np.testing.assert_allclose(fit_s.beta[1], fit.beta[1], atol=1e-8)
        np.testing.assert_allclose(fit_s.mu_hat, fit.mu_hat, atol=1e-8)

    def test_score_orthogonality_at_convergence(self):
        rng = stream(31, 2)
        n = 400
        l = rng.standard_normal(n)
        a = (rng.random(n) < 0.4).astype(float)
        y = (rng.random(n) < np.exp(-1.3 + 0.2 * a + 0.3 * l)).astype(float)
        X = np.column_stack([np.ones(n), a, l])
        fit = fit_robust_poisson(X, y)
        resid = y - fit.mu_hat
        assert np.max(np.abs(X.T @ resid)) < 1e-8 * n
        np.testing.assert_allclose(y.sum(), fit.mu_hat.sum(), atol=1e-8 * n)

    def test_estimating_function_unbiased_at_truth(self):
        # valid log-linear DGP, all means <= 1
        rng = stream(31, 3)
        n = 10_000
        l = (rng.random(n) < 0.5).astype(float)
        a = (rng.random(n) < 0.55).astype(float)
        beta_true = np.array([-1.5, 0.3, 0.9])
        X = np.column_stack([np.ones(n), a, l])
        p = np.exp(X @ beta_true)
        assert np.all(p <= 1.0)
        y = (rng.random(n) < p).astype(float)
        m = X * (y - p)[:, None]
        mean = m.mean(axis=0)
        mcse = m.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean) < 4.0 * mcse)

    def test_degenerate_outcome(self):
        fit = fit_robust_poisson(np.ones((20, 1)), np.ones(20))
        np.testing.assert_allclose(fit.beta[0], 0.0)
        np.testing.assert_allclose(fit.cov_sandwich, 0.0)
        with pytest.raises(NoFiniteSolution):
            fit_robust_poisson(np.ones((20, 1)), np.zeros(20))

    def test_singular_jacobian(self):
        rng = stream(31, 4)
        x = rng.standard_normal(50)
        X = np.column_stack([np.ones(50), x, x])  # exactly collinear
        y = (rng.random(50) < 0.3).astype(float)
        with pytest.raises(SingularJacobian):
            fit_robust_poisson(X, y)


def stratum_sample(n=200, seed=0):
    """Intercept, binary A and continuous L, with a 0/1 outcome y."""
    rng = stream(34, seed)
    a = (rng.random(n) < 0.5).astype(float)
    l = rng.standard_normal(n)
    y = (rng.random(n) < 0.3).astype(float)
    return np.column_stack([np.ones(n), a, l]), a, y


class TestNoFiniteSolution:
    @pytest.mark.parametrize("case, message", [
        ("no events where A=1", "wherever A != 0"),
        ("no events where A=0", "wherever A != 1"),
        ("no events at all", "the outcome is 0 on every row"),
    ])
    def test_raises_before_iterating(self, monkeypatch, case, message):
        X, a, y = stratum_sample()
        if case == "no events where A=1":
            y = y * (1 - a)
        elif case == "no events where A=0":
            y = y * a
        else:
            y = np.zeros_like(y)
        dm = build_design_matrix(
            Dataset(y=y, columns={"A": a, "L": X[:, 2]}), parse_spec("1 + A + L")
        )
        jacobians = []
        monkeypatch.setattr(eecore, "ee_jacobian",
                            lambda *args, **kw: jacobians.append(1))
        with pytest.raises(NoFiniteSolution, match=message):
            fit_robust_poisson(dm, y)
        assert jacobians == []

    def test_negative_indicator_column(self):
        X, a, y = stratum_sample()
        X[:, 1] = -a
        with pytest.raises(NoFiniteSolution, match="column 1 != 0"):
            fit_robust_poisson(X, y * (1 - a))


class TestCallCounts:
    """``bench/tracer.py`` derives iterations per fit and step halvings from
    the calls of ``ee_score`` and ``ee_jacobian``: one Jacobian per
    iteration plus the final one, one score per step-halving candidate plus
    the initial one, overflowing candidates included."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = {"ee_score": [], "ee_jacobian": []}

        def counted(name):
            inner = getattr(eecore, name)

            def wrapper(X, y, beta, mu=None):
                overflow = bool(np.any(X @ beta > eecore.ETA_MAX))
                try:
                    result = inner(X, y, beta, mu=mu)
                except Overflow:
                    calls[name].append("overflow")
                    raise
                assert not overflow
                calls[name].append("ok")
                return result

            monkeypatch.setattr(eecore, name, wrapper)

        counted("ee_score")
        counted("ee_jacobian")
        return calls

    def test_plain_fit(self, monkeypatch):
        X, _, y = stratum_sample()
        calls = self.count_calls(monkeypatch)
        fit = fit_robust_poisson(X, y)
        assert len(calls["ee_jacobian"]) == fit.iterations + 1
        assert len(calls["ee_score"]) == fit.iterations + 1  # no halving

    def test_overflowing_candidates_count(self, monkeypatch):
        # An intercept start of -8 puts the first full Newton step far
        # beyond ETA_MAX, so it is halved, overflowing candidates first.
        X, _, y = stratum_sample()
        reference = fit_robust_poisson(X, y)
        start = np.array([-8.0, 0.0, 0.0])
        monkeypatch.setattr(eecore, "_initial_beta", lambda X, y: start.copy())
        calls = self.count_calls(monkeypatch)
        fit = fit_robust_poisson(X, y)
        assert len(calls["ee_jacobian"]) == fit.iterations + 1
        assert calls["ee_score"].count("overflow") >= 1
        halvings = len(calls["ee_score"]) - len(calls["ee_jacobian"])
        assert halvings >= calls["ee_score"].count("overflow")
        np.testing.assert_allclose(fit.beta, reference.beta, rtol=0, atol=1e-10)

    def test_non_converging_fit(self, monkeypatch):
        # No A = 1, L1 = 1 events and no A = 0, L1 = 0 rows: the score
        # vanishes only along A + L1 - 1 -> -inf, which the column checks
        # do not see.  One Jacobian per iteration, none after the last.
        data = generate(get_scenario("figure-demo"), 15, rng=stream(99, 1129))
        design = build_design_matrix(data, parse_spec("1 + A + L1"), "A")
        calls = self.count_calls(monkeypatch)
        with pytest.raises(NonConvergence):
            fit_robust_poisson(design, data.y)
        assert len(calls["ee_jacobian"]) == eecore.MAX_ITER

    def test_warm_bootstrap_resamples(self, monkeypatch):
        # ``fit --boot`` starts each robust-Poisson resample from the
        # full-sample estimate: fewer Jacobians than the same bootstrap from
        # ``_initial_beta``, and exactly this many.
        data = generate(get_scenario("moderate"), 2000, rng=stream(5, 0))
        design = build_design_matrix(
            data, parse_spec(get_scenario("moderate").rich_spec), "A")
        fit = fit_robust_poisson(design, data.y)
        calls = self.count_calls(monkeypatch)

        def jacobians(fitter):
            calls["ee_jacobian"].clear()
            boot = bootstrap_rr(fitter, design, lambda f, dm: coefficient_rr(f, 1),
                                fit, B=100, seed=0)
            assert boot.extra == {"failed_resamples": 0}
            return len(calls["ee_jacobian"])

        cold = jacobians(lambda dm: fit_robust_poisson(dm, dm.data.y))
        warm = jacobians(lambda dm: inference.FIT_METHODS["robust-poisson"].fit(
            dm, dm.data.y, start=fit.beta))
        assert warm < cold
        assert warm == WARM_JACOBIANS


class TestStart:
    """Newton from a caller's start: p finite coefficients whose linear
    predictor stays below ETA_MAX, or an error before iterating."""

    @pytest.mark.parametrize("start", [np.zeros(2), np.zeros(4), np.zeros((1, 3)),
                                       0.0])
    def test_wrong_shape_raises(self, start):
        X, _, y = stratum_sample()
        with pytest.raises(ValueError, match="start must be 3 finite coefficients"):
            fit_robust_poisson(X, y, start=start)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_raises(self, value):
        X, _, y = stratum_sample()
        with pytest.raises(ValueError, match="start must be 3 finite coefficients"):
            fit_robust_poisson(X, y, start=np.array([0.0, value, 0.0]))

    @pytest.mark.parametrize("start", [[701.0, 0.0, 0.0], [0.0, 800.0, 0.0]])
    def test_overflowing_start_raises_before_iterating(self, monkeypatch, start):
        # Above ETA_MAX on every row, or on the rows with A = 1.
        X, _, y = stratum_sample()
        calls = TestCallCounts.count_calls(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow, match="linear predictor overflow at the start"):
                fit_robust_poisson(X, y, start=np.array(start))
        assert calls == {"ee_score": [], "ee_jacobian": []}

    def test_start_is_not_changed(self):
        X, _, y = stratum_sample()
        start = np.array([-1.0, 0.2, 0.1])
        fit = fit_robust_poisson(X, y, start=start)
        assert start.tolist() == [-1.0, 0.2, 0.1]
        assert fit.beta is not start

    def test_from_the_estimate(self):
        X, _, y = stratum_sample()
        cold = fit_robust_poisson(X, y)
        warm = fit_robust_poisson(X, y, start=cold.beta)
        assert warm.iterations < cold.iterations
        np.testing.assert_allclose(warm.beta, cold.beta, rtol=1e-12)
        np.testing.assert_allclose(warm.cov_sandwich, cold.cov_sandwich, rtol=1e-10)

    @pytest.mark.parametrize("start_n", [None, 100, 1000])
    def test_no_finite_root_still_fails_to_converge(self, start_n):
        # TestCallCounts.test_non_converging_fit's data: no finite root, and
        # a direction the column checks do not see.  Started as a resample
        # would be, from the estimate of a larger sample of the process, or
        # from _initial_beta given as the start, with the cold fit's error.
        spec = parse_spec("1 + A + L1")
        data = generate(get_scenario("figure-demo"), 15, rng=stream(99, 1129))
        design = build_design_matrix(data, spec, "A")
        if start_n is None:
            start = eecore._initial_beta(np.array([design.column_ranges]),
                                         data.y[None, :, None])[0]
        else:
            sample = generate(get_scenario("figure-demo"), start_n, rng=stream(99, 0))
            start = fit_robust_poisson(build_design_matrix(sample, spec, "A"), sample.y).beta
        with pytest.raises(NonConvergence) as warm:
            fit_robust_poisson(design, data.y, start=start)
        if start_n is None:
            with pytest.raises(NonConvergence) as cold:
                fit_robust_poisson(design, data.y)
            assert str(warm.value) == str(cold.value)


class TestScoreJacobian:
    def test_score_at_zero_intercept_only(self):
        y = np.r_[np.ones(7), np.zeros(3)]
        X = np.ones((10, 1))
        np.testing.assert_allclose(ee_score(X, y, np.zeros(1)), [7 - 10])

    def test_jacobian_matches_finite_differences(self):
        rng = stream(41, 0)
        for _ in range(10):
            n, p = 60, 3
            X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
            y = (rng.random(n) < 0.4).astype(float)
            beta = rng.normal(scale=0.3, size=p)
            beta[0] = -1.0
            jac = ee_jacobian(X, y, beta)
            fd = np.empty((p, p))
            for j in range(p):
                h = 1e-5 * (1.0 + abs(beta[j]))
                bp, bm = beta.copy(), beta.copy()
                bp[j] += h
                bm[j] -= h
                fd[:, j] = (ee_score(X, y, bp) - ee_score(X, y, bm)) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-6 * n)

    def test_score_small_at_solution(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"))
        fit = fit_robust_poisson(dm, data.y)
        assert np.max(np.abs(ee_score(dm.X, data.y, fit.beta))) < 1e-8 * data.n


class TestPoissonLoglik:
    def test_all_zero_outcome(self):
        assert poisson_loglik(np.ones((10, 1)), np.zeros(10), np.zeros(1)) == -10.0

    def test_gradient_equals_score(self):
        rng = stream(41, 1)
        n = 80
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = (rng.random(n) < 0.35).astype(float)
        beta = np.array([-0.8, 0.25])
        score = ee_score(X, y, beta)
        grad = np.empty(2)
        for j in range(2):
            h = 1e-6
            bp, bm = beta.copy(), beta.copy()
            bp[j] += h
            bm[j] -= h
            grad[j] = (poisson_loglik(X, y, bp) - poisson_loglik(X, y, bm)) / (2 * h)
        np.testing.assert_allclose(grad, score, rtol=1e-6, atol=1e-4)


class TestSandwich:
    def test_intercept_only_closed_form(self):
        y = np.r_[np.ones(25), np.zeros(75)]
        X = np.ones((100, 1))
        fit = fit_robust_poisson(X, y)
        expected = np.sum((y - y.mean()) ** 2) / (100 * y.mean()) ** 2
        np.testing.assert_allclose(fit.cov_sandwich[0, 0], expected, rtol=1e-10)

    def test_2x2_closed_form_se(self):
        # delta-method SE of log of a ratio of independent binomial proportions:
        # var(log p1hat - log p0hat) = (1-p1)/(n1 p1) + (1-p0)/(n0 p0)
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"))
        fit = fit_robust_poisson(dm, data.y)
        se_closed = np.sqrt((1 - 0.3) / (100 * 0.3) + (1 - 0.2) / (100 * 0.2))
        np.testing.assert_allclose(np.sqrt(fit.cov_sandwich[1, 1]), se_closed, atol=1e-8)

    def test_assembly_equivalence(self):
        rng = stream(41, 2)
        for _ in range(20):
            n = 200
            l = rng.standard_normal(n)
            a = (rng.random(n) < 0.5).astype(float)
            y = (rng.random(n) < np.exp(-1.5 + 0.3 * a + 0.2 * l)).astype(float)
            X = np.column_stack([np.ones(n), a, l])
            fit = fit_robust_poisson(X, y)
            direct = sandwich_covariance(X, y, fit.beta)
            lz = sandwich_covariance_lz(X, y, fit.beta)
            np.testing.assert_allclose(direct, lz, atol=1e-10)

    def test_singular_bread_raises(self):
        # a zero column gives the bread a zero row and column
        X = np.column_stack([np.ones(4), np.zeros(4)])
        with pytest.raises(SingularBread, match="bread matrix not invertible"):
            sandwich_covariance(X, np.array([1.0, 0.0, 1.0, 0.0]), np.array([-0.5, 0.0]))

    def test_symmetric_psd(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"))
        fit = fit_robust_poisson(dm, data.y)
        cov = fit.cov_sandwich
        np.testing.assert_array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) > -1e-12)


class TestBitIdentity:
    """The fit's shortcuts give the matrices of the plain formulas, bit for
    bit: the sandwich's bread is the negated final Jacobian, and the
    no-finite-root check reads a design's kept column ranges."""

    @pytest.mark.parametrize("n, p", [(1000, 4), (1000, 9), (5000, 9)])
    def test_jacobian_equals_negated_operand_product(self, n, p):
        rng = stream(35, p)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))])
        beta = rng.standard_normal(p) * 0.1
        mu = np.exp(X @ beta)
        expected = -(X.T * mu) @ X
        assert ee_jacobian(X, None, beta, mu=mu).tobytes() == expected.tobytes()

    def test_sandwich_with_jacobian_equals_without(self):
        X, _, y = stratum_sample(n=500)
        beta = fit_robust_poisson(X, y).beta
        plain = sandwich_covariance(X, y, beta)
        given = sandwich_covariance(X, y, beta, jac=ee_jacobian(X, y, beta))
        assert given.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("case", ["fits", "no events where A=1",
                                      "no events where A=0", "no events"])
    def test_finite_solution_check_on_design_and_array(self, case):
        X, a, y = stratum_sample()
        y = {"fits": y, "no events where A=1": y * (1 - a),
             "no events where A=0": y * a, "no events": 0 * y}[case]
        dm = build_design_matrix(
            Dataset(y=y, columns={"A": a, "L": X[:, 2]}), parse_spec("1 + A + L")
        )

        def verdict(ranges):
            lo, hi = ranges
            failed = eecore._no_finite_solution(
                dm.X[None], y[None, :, None], lo[None], hi[None], [dm.labels])
            assert set(failed) <= {0}
            return str(failed[0]) if failed else None

        assert verdict(dm.column_ranges) == verdict(column_ranges(dm.X))
        assert (verdict(dm.column_ranges) is None) == (case == "fits")


class TestLayout:
    """A bare row-major array is fitted in the column-major layout of a
    built design, with the same result up to rounding."""

    @pytest.mark.parametrize("spec", ["1 + A + L", "1 + A + rcs(L,4) + A:L"])
    def test_row_major_array_fits_like_the_design(self, spec):
        X, a, y = stratum_sample(n=2000, seed=3)
        dm = build_design_matrix(
            Dataset(y=y, columns={"A": a, "L": X[:, 2]}), parse_spec(spec))
        assert dm.X.flags.f_contiguous
        on_design = fit_robust_poisson(dm, y)
        on_array = fit_robust_poisson(np.ascontiguousarray(dm.X), y)
        assert (on_array.iterations, on_array.n_mu_gt1) == (
            on_design.iterations, on_design.n_mu_gt1)
        np.testing.assert_allclose(on_array.beta, on_design.beta, rtol=1e-12)
        np.testing.assert_allclose(on_array.cov_sandwich, on_design.cov_sandwich,
                                   rtol=1e-12)


def fit_outcome(fit):
    """A fit, or the exception it raised, as comparable bytes and values."""
    if isinstance(fit, Exception):
        return ("raised", type(fit).__name__, str(fit))
    return ("fit", fit.beta.tobytes(), fit.cov_sandwich.tobytes(),
            fit.mu_hat.tobytes(), fit.iterations, fit.max_abs_score,
            fit.condition_estimate, fit.n_mu_gt1)


def solo_outcome(design, y):
    try:
        return fit_outcome(fit_robust_poisson(design, y))
    except (RiskRatioError, np.linalg.LinAlgError) as exc:
        return fit_outcome(exc)


def stack_cases():
    """(design, y) pairs of several shapes: n=1000 `moderate` and `complex`
    draws under both specifications; `figure-demo` samples of n = 10, 15
    and 25 with no finite root, a singular Jacobian, no convergence, or a
    step halving; a collinear array beside the rich designs; p > n."""
    cases = []
    for name in ("moderate", "complex"):
        scenario = get_scenario(name)
        for spec in (scenario.simple_spec, scenario.rich_spec):
            for r in range(3):
                data = generate(scenario, 1000, rng=stream(37, r))
                cases.append((build_design_matrix(data, parse_spec(spec), "A"), data.y))
    collinear = np.array(cases[3][0].X)
    collinear[:, 8] = collinear[:, 7]
    cases.insert(4, (collinear, cases[3][1]))
    demo = get_scenario("figure-demo")
    for n, keys in ((10, (0, 3, 21, 81, 627)), (15, (1, 4, 123)), (25, (10, 5, 1506))):
        for r in keys:
            data = generate(demo, n, rng=stream(0, (7 << 32) | r))
            cases.append((build_design_matrix(data, parse_spec(demo.simple_spec), "A"),
                          data.y))
    cases.append((np.ones((3, 5)), np.array([1.0, 0.0, 1.0])))
    return cases


class TestStack:
    """Each design of a stack is fitted as it is alone, bit for bit: the
    same FitResult fields, or the same exception type and message."""

    @staticmethod
    def halvings(monkeypatch, design, y):
        """Step halvings of a one-design fit: candidates beyond one per
        iteration."""
        calls = []
        for name in ("ee_score", "ee_jacobian"):
            inner = getattr(eecore, name)
            monkeypatch.setattr(eecore, name, lambda *a, _f=inner, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        try:
            fit_robust_poisson(design, y)
        except RiskRatioError:
            pass
        finally:
            monkeypatch.undo()
        return calls.count("ee_score") - calls.count("ee_jacobian")

    def test_mixed_stack_equals_solo_fits(self, monkeypatch):
        cases = stack_cases()
        fits = poisson_stack([d for d, _ in cases], [y for _, y in cases])
        solo = [solo_outcome(d, y) for d, y in cases]
        assert [fit_outcome(f) for f in fits] == solo
        kinds = {o[0] if o[0] == "fit" else o[1] for o in solo}
        assert kinds == {"fit", "NoFiniteSolution", "SingularJacobian",
                         "NonConvergence", "DataError"}
        assert solo[4][1] == "SingularJacobian"     # the collinear array
        assert self.halvings(monkeypatch, *cases[-4]) > 0   # n = 15, r = 4

    def test_ill_conditioned_row_among_converging_rows(self, monkeypatch):
        # Scaling L by 1e-6 leaves the Newton loop converging, but the
        # final Jacobian's cond(-J) is about 1.3e12, above COND_MAX.  That
        # row converges in the same iteration as two ordinary ones and is
        # finished with them: it gets SingularJacobian, they get fits.
        cases = [stratum_sample(n=400, seed=seed)[::2] for seed in range(4)]
        scaled = cases[0][0].copy()
        scaled[:, 2] *= 1e-6
        cases.insert(1, (scaled, cases[0][1]))
        finished = []
        inner = eecore._converged

        def recorded(rows, *args):
            out = inner(rows, *args)
            finished.append([type(out[r]).__name__ for r in rows])
            return out

        monkeypatch.setattr(eecore, "_converged", recorded)
        fits = poisson_stack(*zip(*cases))
        assert ["FitResult", "SingularJacobian", "FitResult"] in finished
        monkeypatch.undo()
        solo = [solo_outcome(d, y) for d, y in cases]
        assert [fit_outcome(f) for f in fits] == solo
        assert solo[1][1] == "SingularJacobian"
        assert [o[0] for o in solo] == ["fit", "raised", "fit", "fit", "fit"]

    def test_failed_solve_is_a_singular_jacobian(self):
        # A zero column makes every Jacobian exactly singular, so the first
        # Newton solve raises; alone or in a stack, the design gets
        # SingularJacobian with an infinite condition estimate.
        cases = []
        for seed in range(3):
            X, _, y = stratum_sample(seed=seed)
            extra = np.zeros(len(y)) if seed == 1 else stratum_sample(seed=seed + 10)[0][:, 2]
            cases.append((np.column_stack([X, extra]), y))
        fits = poisson_stack(*zip(*cases))
        solo = [solo_outcome(d, y) for d, y in cases]
        assert [fit_outcome(f) for f in fits] == solo
        assert [o[0] for o in solo] == ["fit", "raised", "fit"]
        assert solo[1][1:] == ("SingularJacobian", "estimating-equation Jacobian "
                               "is numerically singular (condition estimate inf)")

    def test_overflowing_and_exhausted_steps(self, monkeypatch):
        # From an intercept of -8 the first full steps overflow and are
        # halved; from -600 the Jacobian is about 1e-258, the steps about
        # 1e260, and every halving still overflows.  The halved rows are
        # fitted as a part of their stack, gathered from it.
        scenario = get_scenario("moderate")
        cases = []
        for r in range(4):
            data = generate(scenario, 1000, rng=stream(38, r))
            cases.append((build_design_matrix(
                data, parse_spec(scenario.rich_spec), "A"), data.y))
        starts = {cases[1][1].tobytes(): -8.0, cases[2][1].tobytes(): -600.0}
        default = eecore._initial_beta

        def start(ranges, y):
            beta = default(ranges, y)
            for b, outcome in enumerate(y):
                beta[b, 0] = starts.get(outcome.tobytes(), beta[b, 0])
            return beta

        monkeypatch.setattr(eecore, "_initial_beta", start)
        overflows = []
        score = eecore.ee_score

        def counted(X, y, beta, mu=None):
            try:
                return score(X, y, beta, mu=mu)
            except Overflow:
                overflows.append(len(X))
                raise

        monkeypatch.setattr(eecore, "ee_score", counted)
        fits = poisson_stack(*zip(*cases))
        assert overflows[0] == 2 and len(overflows) == MAX_HALVINGS + 1
        solo = [solo_outcome(d, y) for d, y in cases]
        assert [fit_outcome(f) for f in fits] == solo
        assert [o[0] for o in solo] == ["fit", "fit", "raised", "fit"]
        assert solo[2][1:] == ("Overflow", "step halving exhausted without progress")
        monkeypatch.setattr(eecore, "_initial_beta", default)
        np.testing.assert_allclose(fits[1].beta, fit_robust_poisson(*cases[1]).beta,
                                   rtol=0, atol=1e-10)


def unblocked_gram(X, w, *rhs):
    """Oracle: the weighted products (X.T * w) @ X and (X.T * w) @ v as
    formed before row blocks, from one n x p temporary X.T * w."""
    xtw = eecore._t(X) * (w if w.ndim == 1 else eecore._t(w))
    return (xtw @ X, *(xtw @ v for v in rhs)) if rhs else xtw @ X


def gram_kernels():
    """Every use of ``eecore._gram``, each as a function returning the
    arrays it decides: robust Poisson's on `moderate` designs and the
    log-binomial ones on `simple` designs, all n=1000.  The sandwich
    passes the rounding of its bread through the bread's inverse, so it
    runs on the simple spec, whose bread has a condition number of about
    8 (the rich spec's is about 7e3)."""
    scenario = get_scenario("moderate")
    data = generate(scenario, 1000, rng=stream(39, 0))
    y = data.y
    X, Xsimple = (build_design_matrix(data, parse_spec(spec), "A").X
                  for spec in (scenario.rich_spec, scenario.simple_spec))
    beta, beta_simple = (fit_robust_poisson(x, y).beta for x in (X, Xsimple))
    simple = [generate("simple", 1000, rng=stream(39, r)) for r in (1, 2)]
    Xs = [build_design_matrix(d, parse_spec(get_scenario("simple").rich_spec), "A").X
          for d in simple]
    ys = [d.y for d in simple]
    start = feasible_start(Xs[0], ys[0])
    stack = eecore._t(np.stack([x.T for x in Xs]))
    col = np.stack(ys)[:, :, None]
    eta = stack @ np.stack([feasible_start(x, y1) for x, y1 in zip(Xs, ys)])[:, :, None]

    def ml():
        fit = logbin._ml(Xs[0], None, ys[0])
        return fit.beta, fit.cov_sandwich, np.array([fit.iterations, fit.converged])

    return {
        "ee_jacobian": lambda: (ee_jacobian(X, y, beta),),
        "sandwich_covariance": lambda: (sandwich_covariance(Xsimple, y, beta_simple),),
        "logbin_hessian": lambda: (logbin_hessian(Xs[0], ys[0], start),),
        "_newton_system": lambda: logbin._newton_system(
            stack, col, 1 - col, eta, -np.expm1(eta), np.array([1e-2, 1e-6])[:, None, None]),
        "_ml": ml,
    }


class TestRowBlocks:
    """Every product sum_i w_i x_i x_i' runs over row blocks of the design:
    as the unblocked expression bit for bit for n <= one block, and to
    rounding over several blocks."""

    @pytest.mark.parametrize("name", ["ee_jacobian", "sandwich_covariance",
                                      "logbin_hessian", "_newton_system", "_ml"])
    def test_kernel_equals_unblocked_expression(self, monkeypatch, name):
        kernel = gram_kernels()[name]
        monkeypatch.setattr(eecore, "_gram", unblocked_gram)
        monkeypatch.setattr(logbin, "_gram", unblocked_gram)
        reference = kernel()
        monkeypatch.undo()
        assert [a.tobytes() for a in kernel()] == [a.tobytes() for a in reference]
        monkeypatch.setattr(design, "BLOCK_ROWS", 128)
        blocked = kernel()
        assert [a.tobytes() for a in blocked] != [a.tobytes() for a in reference]
        for got, expected in zip(blocked, reference):
            # normwise: an entry near 0 carries the rounding of the largest
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    def test_gram_over_blocks_and_right_hand_sides(self, monkeypatch):
        # 1000 rows in blocks of 128: seven full blocks and one of 104.
        monkeypatch.setattr(design, "BLOCK_ROWS", 128)
        rng = stream(39, 3)
        X = np.asfortranarray(rng.standard_normal((1000, 6)))
        w, z = rng.random(1000), rng.standard_normal(1000)
        got, expected = eecore._gram(X, w, z), unblocked_gram(X, w, z)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-13)
        np.testing.assert_allclose(eecore._gram(X, w), expected[0], rtol=1e-13)

    def test_stack_equals_solo_fits_in_row_blocks(self, monkeypatch):
        # 256-row blocks: the n=1000 designs are fitted in four blocks, the
        # figure-demo ones in one.
        monkeypatch.setattr(design, "BLOCK_ROWS", 256)
        cases = stack_cases()
        fits = poisson_stack([d for d, _ in cases], [y for _, y in cases])
        assert [fit_outcome(f) for f in fits] == [solo_outcome(d, y) for d, y in cases]

    @pytest.mark.parametrize("n, groups", [(100, [2, 2, 2, 1]), (300, [1] * 14)])
    def test_stack_gram_equals_each_designs_own(self, monkeypatch, n, groups):
        # 256-row blocks: seven 100-row designs in groups of 2, 2, 2 and 1;
        # seven 300-row designs one at a time, in blocks of 256 and 44 rows.
        monkeypatch.setattr(design, "BLOCK_ROWS", 256)
        assert [d.stop - d.start if d.stop <= 7 else 7 - d.start
                for d, _ in design.stack_blocks(7, n)] == groups
        rng = stream(39, 4)
        X = eecore._t(rng.standard_normal((7, 5, n)))
        w = rng.random((7, n, 1))
        stack = eecore._gram(X, w)
        for b in range(7):
            assert stack[b].tobytes() == eecore._gram(X[b], w[b, :, 0]).tobytes()


def built_block(B=6, n=200, flat=()):
    """B `moderate` rich-spec designs built as one stack, with their
    outcomes; the datasets in ``flat`` are all unexposed, so their designs
    fill their slices of the stack and fail with ``DegenerateColumn``."""
    scenario = get_scenario("moderate")
    datas = [generate(scenario, n, rng=stream(41, r)) for r in range(B)]
    datas = [d.with_column("A", np.zeros(n)) if r in flat else d
             for r, d in enumerate(datas)]
    designs = design.build_design_stack(datas, parse_spec(scenario.rich_spec), "A")
    return designs, [d.y for d in datas]


class TestBuiltStack:
    """A block built as one stack is fitted in place: ``_in_stacks`` hands
    the fitter a view of the block's stack, not a copy."""

    @staticmethod
    def stacks_seen(monkeypatch, designs, ys):
        seen = []
        inner = eecore._fit_stack

        def spy(members, Xt, *args, **kwargs):
            seen.append(Xt)
            return inner(members, Xt, *args, **kwargs)

        monkeypatch.setattr(eecore, "_fit_stack", spy)
        fits = eecore._in_stacks(eecore._fit_stack, designs, ys)
        monkeypatch.undo()
        assert [fit_outcome(f) for f in fits] == [
            solo_outcome(d, y) for d, y in zip(designs, ys)]
        return seen

    def test_consecutive_designs_are_a_view(self, monkeypatch):
        designs, ys = built_block()
        for part in (slice(0, 6), slice(2, 5)):
            (Xt,) = self.stacks_seen(monkeypatch, designs[part], ys[part])
            base = designs[0].X.base
            assert Xt.base is base and np.shares_memory(Xt, designs[part.start].X)
            assert Xt.tobytes() == np.stack([d.X.T for d in designs[part]]).tobytes()

    def test_a_degenerate_design_breaks_the_run(self, monkeypatch):
        designs, ys = built_block(flat=(2,))
        assert isinstance(designs[2], DegenerateColumn)
        kept = [k for k in range(6) if k != 2]
        (Xt,) = self.stacks_seen(monkeypatch, [designs[k] for k in kept],
                                 [ys[k] for k in kept])
        assert not np.shares_memory(Xt, designs[0].X)
        (Xt,) = self.stacks_seen(monkeypatch, designs[3:], ys[3:])
        assert np.shares_memory(Xt, designs[3].X)

    @pytest.mark.parametrize("method", sorted(inference.FIT_METHODS))
    def test_read_only_block(self, method):
        designs, ys = built_block()
        writable = inference.fit_each(method, designs, ys)
        designs[0].X.base.flags.writeable = False
        for d in designs:
            d.X.flags.writeable = False
        read_only = inference.fit_each(method, designs, ys)
        assert [fit_bits(f) for f in read_only] == [fit_bits(f) for f in writable]


def fit_bits(fit):
    """A fit of any method, or its exception, as comparable values."""
    if isinstance(fit, Exception):
        return type(fit).__name__, str(fit)
    return (fit.beta.tobytes(), fit.cov_sandwich.tobytes(), fit.iterations,
            fit.converged, fit.on_boundary, fit.failure_reason)


class TestMemory:
    def test_fit_and_standardization_form_no_n_by_p_temporary(self):
        # Robust Poisson's products and the standardization run a row block
        # at a time, so neither allocates as much as X itself.
        scenario = get_scenario("moderate")
        data = generate(scenario, 100_000, rng=stream(36, 1))
        dm = build_design_matrix(data, parse_spec(scenario.rich_spec), "A")
        peaks = []
        tracemalloc.start()
        try:
            fit = fit_robust_poisson(dm, data.y)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            inference.marginal_rr(fit, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(peaks) < dm.X.nbytes

    def test_one_design_is_not_copied(self):
        # The fit's own temporaries (one p x n product at a time) stay
        # below half of X; a copy of X into a stack would not.
        rng = stream(36, 0)
        n = 200_000
        X = np.asfortranarray(np.column_stack(
            [np.ones(n), (rng.random(n) < 0.5) * 1.0, 0.3 * rng.standard_normal((n, 7))]))
        y = (rng.random(n) < 0.3) * 1.0
        tracemalloc.start()
        try:
            fit_robust_poisson(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes
