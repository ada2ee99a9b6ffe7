import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from riskratio import (
    FIT_METHODS,
    Categorical,
    Dataset,
    FitResult,
    Intercept,
    Interaction,
    Main,
    bootstrap_rr,
    build_design_matrix,
    coefficient_rr,
    fit_logbin_barrier,
    fit_logbin_ml,
    fit_robust_poisson,
    generate,
    marginal_rr,
    parse_spec,
)
from riskratio import design as design_module, eecore, inference, logbin
from riskratio.design import build_design_stack, column_ranges, realize
from riskratio.errors import (
    DataError, FitFailed, NonFiniteStandardization, RiskRatioError, SingularJacobian,
    TooManyFailures,
)
from riskratio.rng import stream
from riskratio.simlab import get_scenario

from oracles import bootstrap_rebuild
from test_eecore import EIGHT_ROWS, two_by_two


def standardized_means(fit, data, a):
    """Mean fitted risk with the exposure forced to level a, plus the
    gradient of its log w.r.t. beta: ``_standardized_stack`` of one fit."""
    (means, grads, over), = inference._standardized_stack(
        [fit.design], fit.beta[None, :, None], [data], (a,))
    assert not over[0]
    return means[0], grads[0]


def eight_row_dataset():
    return Dataset(
        y=EIGHT_ROWS["y"],
        columns={"A": EIGHT_ROWS["A"], "L": EIGHT_ROWS["L"]},
    )


class TestNormalQuantile:
    # standard normal quantiles at 0.5 + level/2, correctly rounded
    @pytest.mark.parametrize("level, quantile", [
        (0.90, 1.6448536269514726),
        (0.95, 1.9599639845400543),
        (0.99, 2.575829303548901),
    ])
    def test_z(self, level, quantile):
        from riskratio.inference import _z

        np.testing.assert_allclose(_z(level), quantile, rtol=1e-15, atol=0)


class TestCoefficientRR:
    def test_2x2_closed_form(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        est = coefficient_rr(fit, 1)
        np.testing.assert_allclose(est.rr, 1.5, atol=1e-8)
        se_closed = np.sqrt(0.7 / 30 + 0.8 / 20)
        np.testing.assert_allclose(est.se_log_rr, se_closed, atol=1e-8)
        assert est.ci_low < est.rr < est.ci_high

    def test_null_coefficient(self):
        data = two_by_two(25, 100, 25, 100)
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        est = coefficient_rr(fit, 1)
        np.testing.assert_allclose(est.rr, 1.0, atol=1e-8)
        z = 1.959963984540054
        np.testing.assert_allclose(est.ci_low, np.exp(-z * est.se_log_rr), atol=1e-10)
        np.testing.assert_allclose(est.ci_high, np.exp(z * est.se_log_rr), atol=1e-10)

    def test_multilevel_exposure_shape(self):
        rng = stream(61, 0)
        n = 500
        levels = rng.integers(1, 6, size=n).astype(float)
        y = (rng.random(n) < 0.3).astype(float)
        data = Dataset(y=y, columns={"A": levels})
        dm = build_design_matrix(
            data, [Intercept(), Categorical("A", reference=1.0)], exposure="A"
        )
        fit = fit_robust_poisson(dm, data.y)
        estimates = [coefficient_rr(fit, j) for j in dm.exposure_cols]
        assert len(estimates) == 4
        for est in estimates:
            assert est.ci_low < est.rr < est.ci_high

    def test_variance_rounded_below_zero_gives_nan_interval(self):
        # Every L1=1 row has y=1, so the residuals there are exactly 0 and
        # the A variance is 0 up to rounding; here it rounds to -3.5e-34.
        data = generate("figure-demo", 10, rng=stream(0, 41))
        dm = build_design_matrix(data, parse_spec("1 + A + L1"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        assert fit.cov_sandwich[1, 1] < 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = coefficient_rr(fit, 1)
        assert np.isfinite(est.rr)
        assert np.isnan(est.se_log_rr)
        assert np.isnan(est.ci_low) and np.isnan(est.ci_high)


class TestMarginalRR:
    def test_no_interaction_equals_coefficient(self):
        data = generate("simple", 500, rng=stream(61, 1))
        dm = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        coef = coefficient_rr(fit, dm.exposure_cols[0])
        marg = marginal_rr(fit, data)
        np.testing.assert_allclose(marg.log_rr, coef.log_rr, atol=1e-12)

    def test_null_effect(self):
        data = two_by_two(25, 100, 25, 100)
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        np.testing.assert_allclose(marginal_rr(fit, data).rr, 1.0, atol=1e-8)

    def test_interaction_brute_force_oracle(self):
        data = eight_row_dataset()
        spec = [Intercept(), Main("A"), Main("L"), Interaction(Main("A"), Main("L"))]
        dm = build_design_matrix(data, spec, exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        est = marginal_rr(fit, data)
        # oracle: explicit per-row standardization
        b = fit.beta
        num = den = 0.0
        for i in range(data.n):
            li = data.column("L")[i]
            num += np.exp(b[0] + b[1] * 1.0 + b[2] * li + b[3] * 1.0 * li)
            den += np.exp(b[0] + b[1] * 0.0 + b[2] * li + b[3] * 0.0 * li)
        np.testing.assert_allclose(est.log_rr, np.log(num / den), atol=1e-12)

    def test_delta_gradient_matches_finite_differences(self):
        data = eight_row_dataset()
        spec = [Intercept(), Main("A"), Main("L"), Interaction(Main("A"), Main("L"))]
        dm = build_design_matrix(data, spec, exposure="A")
        fit = fit_robust_poisson(dm, data.y)

        def log_rr_at(beta):
            Xa1 = np.column_stack([
                np.ones(8), np.ones(8), data.column("L"), data.column("L")])
            Xa0 = np.column_stack([
                np.ones(8), np.zeros(8), data.column("L"), np.zeros(8)])
            return np.log(np.exp(Xa1 @ beta).sum()) - np.log(np.exp(Xa0 @ beta).sum())

        fd = np.empty(4)
        for j in range(4):
            h = 1e-6
            bp, bm = fit.beta.copy(), fit.beta.copy()
            bp[j] += h
            bm[j] -= h
            fd[j] = (log_rr_at(bp) - log_rr_at(bm)) / (2 * h)
        # recover the implied gradient from the delta-method variance by
        # re-deriving it the same way marginal_rr does
        _, g1 = standardized_means(fit, data, 1.0)
        _, g0 = standardized_means(fit, data, 0.0)
        np.testing.assert_allclose(g1 - g0, fd, rtol=1e-5, atol=1e-8)


class TestStandardizedMeans:
    """The exposure-column rebuild equals a full realize() bit for bit."""

    @staticmethod
    def _sample(r, n=400):
        rng = stream(62, r)
        return Dataset(
            y=(rng.random(n) < 0.3).astype(float),
            columns={"A": rng.integers(0, 3, size=n).astype(float),
                     "L1": rng.standard_normal(n),
                     "L2": rng.standard_normal(n)},
        )

    @staticmethod
    def _reference(design, beta, data, a):
        Xa = realize(design, data.with_column(design.exposure, np.full(data.n, a)))
        mu = np.exp(Xa @ beta)
        total = mu.sum()
        return total / data.n, (Xa.T @ mu) / total

    SPECS = [
        "1 + A + L1 + L2",
        "1 + A + L1 + A:L1",
        "1 + A + rcs(L1,4) + L2",
        "1 + cat(A,ref=1) + rcs(L1,4) + L2",
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_equals_realize(self, spec, monkeypatch):
        data, other = self._sample(0), self._sample(1)
        design = build_design_matrix(data, parse_spec(spec), exposure="A")
        beta = 0.1 * stream(62, 9).standard_normal(design.p)
        fit = SimpleNamespace(beta=beta, design=design)
        cases = [(d, a) for d in (data, other) for a in (0.0, 1.0, 2.0)]
        expected = [self._reference(design, beta, d, a) for d, a in cases]
        realized = []
        monkeypatch.setattr(inference, "realize",
                            lambda *args: realized.append(1) or realize(*args))
        for (d, a), (m_ref, g_ref) in zip(cases, expected):
            m, g = standardized_means(fit, d, a)
            assert m == m_ref and g.tobytes() == g_ref.tobytes()
        # Only the other sample, of the same size, goes through realize().
        assert len(realized) == 3

    @pytest.mark.parametrize("spec", SPECS)
    def test_sample_without_the_exposure_column(self, spec):
        # The exposure is forced on every row, so a sample need not have its
        # column: without it, the same bits as the same sample with it.
        data, other = self._sample(0), self._sample(1)
        design = build_design_matrix(data, parse_spec(spec), exposure="A")
        fit = fit_robust_poisson(design, data.y)
        bare = Dataset(y=other.y, columns={k: v for k, v in other.columns.items()
                                           if k != "A"})
        assert marginal_rr(fit, bare) == marginal_rr(fit, other)


    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("sample", ["own", "other", "without the exposure column"])
    def test_row_blocks_match_one_block(self, spec, sample, monkeypatch):
        # 400 rows in blocks of 64: six full blocks and one of 16.
        data, other = self._sample(0), self._sample(1)
        design = build_design_matrix(data, parse_spec(spec), exposure="A")
        fit = fit_robust_poisson(design, data.y)
        target = {"own": data, "other": other,
                  "without the exposure column": Dataset(
                      y=other.y, columns={k: v for k, v in other.columns.items()
                                          if k != "A"})}[sample]
        whole = marginal_rr(fit, target)
        monkeypatch.setattr(design_module, "BLOCK_ROWS", 64)
        assert len(design_module.row_blocks(target.n)) == 7
        blocked = marginal_rr(fit, target)
        for field in ("rr", "se_log_rr", "ci_low", "ci_high"):
            np.testing.assert_allclose(getattr(blocked, field), getattr(whole, field),
                                       rtol=1e-13, err_msg=field)


class TestFitMethods:
    @staticmethod
    def complex_design(key):
        data = generate("complex", 1000, rng=stream(*key))
        terms = parse_spec(get_scenario("complex").simple_spec)
        return build_design_matrix(data, terms, exposure="A"), data.y

    def test_unusable_logbin_fit_raises(self):
        dm, y = self.complex_design((81, 0))
        with pytest.raises(FitFailed) as info:
            FIT_METHODS["logbin-ml"].fit(dm, y)
        assert str(info.value) == (
            "logbin-ml failed: infeasible iterate (iterations=1, on_boundary=True)"
        )

    def test_boundary_fit_is_flagged(self):
        dm, y = self.complex_design((703, 0))
        lb = fit_logbin_barrier(dm, y)
        assert lb.converged and lb.on_boundary
        fit = FIT_METHODS["logbin-ab"].fit(dm, y)
        assert fit.on_boundary and fit.design is dm
        np.testing.assert_array_equal(fit.beta, lb.beta)
        np.testing.assert_array_equal(fit.cov_sandwich, lb.cov_sandwich)
        assert fit.mu_hat is None and fit.n_mu_gt1 is None
        assert not FIT_METHODS["robust-poisson"].fit(dm, y).on_boundary

    @pytest.mark.parametrize("method, attr", [
        ("robust-poisson", "fit_robust_poisson"),
        ("logbin-ml", "fit_logbin_ml"),
        ("logbin-ab", "fit_logbin_barrier"),
    ])
    def test_entries_call_the_module_attribute(self, method, attr, monkeypatch):
        # A wrapper installed on the module after import must be the one
        # that runs, as for the benchmark's tracer.
        dm, y = self.complex_design((703, 0))
        calls = []
        inner = getattr(inference, attr)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(inference, attr, counted)
        try:
            FIT_METHODS[method].fit(dm, y)
        except FitFailed:
            pass
        assert len(calls) == 1
        # logbin-ml fits a stack design by design through the same attribute;
        # the stacked loops of the others do not call the one-design fitter.
        calls.clear()
        FIT_METHODS[method].fit_stack([dm, dm, dm], [y, y, y])
        assert len(calls) == (3 if method == "logbin-ml" else 0)

    @pytest.mark.parametrize("method, attr", [
        ("robust-poisson", "fit_robust_poisson"),
        ("logbin-ml", "fit_logbin_ml"),
        ("logbin-ab", "fit_logbin_barrier"),
    ])
    def test_entries_return_the_fitters_own_result(self, method, attr, monkeypatch):
        data = generate("simple", 1000, rng=stream(700, 0))
        dm = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        returned = []
        inner = getattr(inference, attr)

        def recorded(*args):
            returned.append(inner(*args))
            return returned[-1]

        monkeypatch.setattr(inference, attr, recorded)
        fit = FIT_METHODS[method].fit(dm, data.y)
        assert isinstance(fit, FitResult) and fit is returned[0]
        assert fit.converged and fit.design is dm
        assert fit.variance == ("sandwich" if method == "robust-poisson" else "model")


class TestInputContract:
    """The three methods take their input through one front end
    (``eecore._in_stacks``): the same input is accepted or refused in the
    same way by the one-design fitter, its ``FIT_METHODS`` record's ``fit``
    and ``fit_each``."""

    METHODS = [("robust-poisson", fit_robust_poisson), ("logbin-ml", fit_logbin_ml),
               ("logbin-ab", fit_logbin_barrier)]

    @staticmethod
    def sample():
        data = generate("simple", 200, rng=stream(709, 0))
        return build_design_matrix(data, parse_spec("1 + A + L1 + L2"), "A").X, data.y

    @pytest.mark.parametrize("method, fitter", METHODS)
    def test_bad_input_raises_one_value_error(self, method, fitter):
        X, y = self.sample()
        nan_x, inf_y = X.copy(), y.copy()
        nan_x[5, 2], inf_y[7] = np.nan, np.inf
        finite = "design matrix and outcome must be finite"
        cases = [(nan_x, y, finite), (X, inf_y, finite),
                 (X, y[:-1], "design of shape (200, 4) and outcome of shape (199,) "
                             "do not match: need n x p and n")]
        for bad_x, bad_y, text in cases:
            for call in (lambda: fitter(bad_x, bad_y),
                         lambda: FIT_METHODS[method].fit(bad_x, bad_y),
                         lambda: inference.fit_each(method, [X, bad_x], [y, bad_y])):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError) as info:
                        call()
                assert str(info.value) == text

    @pytest.mark.parametrize("method, fitter", METHODS)
    def test_more_parameters_than_rows_is_a_data_error(self, method, fitter,
                                                       monkeypatch):
        X, y = self.sample()
        text = "p=4 parameters with only n=3 observations"
        good, wide = inference.fit_each(method, [X, X[:3]], [y, y[:3]])
        assert good.converged and isinstance(wide, DataError) and str(wide) == text
        starts = []
        monkeypatch.setattr(logbin, "feasible_start", lambda *a: starts.append(a))
        for call in (fitter, FIT_METHODS[method].fit):
            with pytest.raises(DataError) as info:
                call(X[:3], y[:3])
            assert str(info.value) == text
        entries = inference.fit_each(method, [X[:3], X[1:4]], [y[:3], y[1:4]])
        assert [(type(e), str(e)) for e in entries] == [(DataError, text)] * 2
        assert starts == []


class TestBootstrap:
    @staticmethod
    def _fitter(data):
        dm = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        return fit_robust_poisson(dm, data.y)

    @staticmethod
    def _estimand(fit, data):
        return coefficient_rr(fit, fit.design.exposure_cols[0])

    def test_deterministic_given_seed(self):
        data = generate("simple", 300, rng=stream(61, 2))
        fit = self._fitter(data)
        a = bootstrap_rr(self._fitter, data, self._estimand, fit, B=100, seed=9)
        b = bootstrap_rr(self._fitter, data, self._estimand, fit, B=100, seed=9)
        assert (a.ci_low, a.ci_high, a.se_log_rr) == (b.ci_low, b.ci_high, b.se_log_rr)

    def test_too_many_failed_resamples(self):
        # L2 is 1 on one case only: about 37% of resamples miss that row,
        # and their rebuilt design has a constant L2 column.
        data = generate("simple", 50, rng=stream(61, 3))
        l2 = np.zeros(50)
        l2[np.flatnonzero(data.y == 1)[0]] = 1.0
        data = data.with_column("L2", l2)
        with pytest.raises(TooManyFailures, match="/100 bootstrap resamples"):
            bootstrap_rr(self._fitter, data, self._estimand, self._fitter(data),
                         B=100, seed=1)

    def test_bootstrap_se_close_to_sandwich(self):
        data = generate("simple", 2000, rng=stream(61, 4))
        fit = self._fitter(data)
        sand_se = coefficient_rr(fit, fit.design.exposure_cols[0]).se_log_rr
        boot = bootstrap_rr(self._fitter, data, self._estimand, fit, B=500, seed=3)
        assert abs(boot.se_log_rr - sand_se) / sand_se < 0.10

    def test_small_B_rejected(self):
        data = generate("simple", 100, rng=stream(61, 5))
        with pytest.raises(ValueError):
            bootstrap_rr(self._fitter, data, self._estimand, self._fitter(data),
                         B=50, seed=0)

    def test_programming_error_propagates(self):
        data = generate("simple", 100, rng=stream(61, 6))
        fit = self._fitter(data)

        def broken(d):
            raise TypeError("bug in the fitter")

        with pytest.raises(TypeError):
            bootstrap_rr(broken, data, self._estimand, fit, B=100, seed=0)

        calls = []

        def broken_on_resamples(d):
            calls.append(d)
            if len(calls) > 1:
                raise TypeError("bug in the fitter")
            return self._fitter(d)

        with pytest.raises(TypeError):
            bootstrap_rr(broken_on_resamples, data, self._estimand, fit, B=100, seed=0)


class TestDesignBootstrap:
    """``bootstrap_rr`` over a built design resamples rows of its matrix;
    the result must be that of rebuilding the design on every resample."""

    @staticmethod
    def _fitter(design):
        return fit_robust_poisson(design, design.data.y)

    @staticmethod
    def _estimand(fit, design):
        return coefficient_rr(fit, design.exposure_cols[0])

    def test_equals_rebuild_per_resample(self):
        # B is 1 on two cases and two non-cases: resamples that miss B, or
        # hold only its non-cases, fail on both paths.
        data = generate("moderate", 300, rng=stream(62, 0))
        rows = np.r_[np.flatnonzero(data.y == 1)[:2], np.flatnonzero(data.y == 0)[:2]]
        b = np.zeros(data.n)
        b[rows] = 1.0
        data = data.with_column("B", b)
        design = build_design_matrix(
            data, parse_spec("1 + A + rcs(L1,4) + L1:L2 + cat(B,ref=0)"), "A")
        missing_b = sum(not np.isin(stream(4, i).integers(0, 300, size=300), rows).any()
                        for i in range(100))
        assert missing_b >= 1

        boot = bootstrap_rr(self._fitter, design, self._estimand,
                            self._fitter(design), B=100, seed=4)
        ref = bootstrap_rebuild(self._fitter, design, self._estimand, B=100, seed=4)
        assert ref.failed_resamples > missing_b
        assert boot.extra["failed_resamples"] == ref.failed_resamples
        assert (boot.log_rr, boot.ci_low, boot.ci_high, boot.se_log_rr) == (
            ref.log_rr, ref.ci_low, ref.ci_high, ref.se_log_rr)


class TestBootstrapGivenFit:
    """The caller's full-sample fit gives the point estimate: the fitter
    runs once per resample only, and the result is the rebuild oracle's,
    which refits the full sample, bit for bit."""

    def test_no_point_refit(self):
        data = generate("moderate", 400, rng=stream(63, 0))
        design = build_design_matrix(
            data, parse_spec("1 + A + rcs(L1,4) + L2"), exposure="A")
        calls = []

        def fitter(dm):
            calls.append(dm)
            return fit_robust_poisson(dm, dm.data.y)

        def estimand(fit, dm):
            return coefficient_rr(fit, design.exposure_cols[0])

        fit = fit_robust_poisson(design, data.y)
        given = bootstrap_rr(fitter, design, estimand, fit, B=100, seed=5)
        assert len(calls) == 100 and all(dm is not design for dm in calls)
        ref = bootstrap_rebuild(fitter, design, estimand, B=100, seed=5)
        assert given.extra == {"failed_resamples": ref.failed_resamples}
        assert (given.log_rr, given.ci_low, given.ci_high, given.se_log_rr) == (
            ref.log_rr, ref.ci_low, ref.ci_high, ref.se_log_rr)


def sparse_b_design():
    """The data of ``test_cli.py``'s ``test_failed_resamples_are_reported``:
    B is 1 on 15 rows, 3 of them events, so a resample that draws none of
    those 3 has no finite solution."""
    rng = stream(83, 0)
    n = 300
    y = (rng.random(n) < 0.3).astype(float)
    b = np.zeros(n)
    b[np.flatnonzero(y == 1)[:3]] = 1.0
    b[np.flatnonzero(y == 0)[:12]] = 1.0
    data = Dataset(y=y, columns={"A": (rng.random(n) < 0.5).astype(float),
                                 "L": rng.standard_normal(n), "B": b})
    return build_design_matrix(data, parse_spec("1 + A + L + B"), exposure="A")


def moderate_rich_design():
    data = generate("moderate", 1000, rng=stream(64, 0))
    return build_design_matrix(data, parse_spec(get_scenario("moderate").rich_spec), "A")


class TestWarmStart:
    """Robust Poisson's record is ``warm``: its ``fit`` takes ``start=``,
    and ``fit --boot`` starts each resample from the full-sample estimate.
    Per resample, that gives the same failures (class and message) as a fit
    from ``_initial_beta``, and the same log-RR to within 1e-12 relative."""

    @pytest.mark.parametrize("make, B, failures", [
        (sparse_b_design, 100, True), (moderate_rich_design, 200, False)])
    def test_start_changes_no_verdict(self, make, B, failures):
        design = make()
        fit = fit_robust_poisson(design, design.data.y)
        warm = FIT_METHODS["robust-poisson"].fit
        failed = 0
        for b in range(B):
            resample = design.take(stream(0, b).integers(0, design.n, size=design.n))
            cold_fit = eecore._captured(fit_robust_poisson, resample, resample.data.y)
            warm_fit = eecore._captured(lambda: warm(resample, resample.data.y,
                                                     start=fit.beta))
            if isinstance(cold_fit, Exception):
                failed += 1
                assert type(warm_fit) is type(cold_fit)
                assert str(warm_fit) == str(cold_fit)
            else:
                np.testing.assert_allclose(warm_fit.beta[1], cold_fit.beta[1],
                                           rtol=1e-12, atol=0)
        assert (failed > 0) == failures

    def test_logbin_resamples_start_as_before(self):
        # Only robust Poisson takes a start; a log-binomial resample is fitted
        # as any data are, from the fitter's own start.
        assert [m for m, record in FIT_METHODS.items() if record.warm] == ["robust-poisson"]
        data = generate("simple", 1000, rng=stream(700, 0))
        design = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        resample = design.take(stream(0, 0).integers(0, design.n, size=design.n))
        for method, fitter in (("logbin-ml", fit_logbin_ml), ("logbin-ab", fit_logbin_barrier)):
            fit = FIT_METHODS[method].fit(design, design.data.y)
            with pytest.raises(TypeError):
                FIT_METHODS[method].fit(resample, resample.data.y, start=fit.beta)
            given = FIT_METHODS[method].fit(resample, resample.data.y)
            alone = fitter(resample, resample.data.y)
            assert given.beta.tobytes() == alone.beta.tobytes()
            assert given.iterations == alone.iterations

    def test_calls_the_module_attribute(self, monkeypatch):
        # As every entry does: a wrapper installed after import runs.
        design = moderate_rich_design()
        fit = fit_robust_poisson(design, design.data.y)
        calls = []
        inner = inference.fit_robust_poisson

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return inner(*args, **kwargs)

        monkeypatch.setattr(inference, "fit_robust_poisson", counted)
        FIT_METHODS["robust-poisson"].fit(design, design.data.y, start=fit.beta)
        assert len(calls) == 1 and calls[0]["start"] is fit.beta


def sparse_design(rare_rows=3, exposed_events=3, twin_rows=0):
    """60 rows: A alternates 0/1, L is normal and B, unless ``rare_rows``
    is 0, is 1 on that many unexposed events, so a resample that draws
    none of them has a constant B.  A = 1 has ``exposed_events`` events,
    so a resample without them has no finite root.  With ``twin_rows``,
    A2 equals A except on that many exposed events, where it is 0: a
    resample without them has two equal columns, and an exactly singular
    Jacobian."""
    rng = stream(91, 0)
    n = 60
    a = (np.arange(n) % 2) * 1.0
    y = np.zeros(n)
    y[np.flatnonzero(a == 1)[:exposed_events]] = 1.0
    y[np.flatnonzero(a == 0)[:12]] = 1.0
    columns = {"A": a, "L": rng.standard_normal(n)}
    spec = "1 + A + L"
    if rare_rows:
        columns["B"] = np.zeros(n)
        columns["B"][np.flatnonzero(a == 0)[:rare_rows]] = 1.0
        spec += " + B"
    if twin_rows:
        columns["A2"] = a.copy()
        columns["A2"][np.flatnonzero(a == 1)[:twin_rows]] = 0.0
        spec += " + A2"
    return build_design_matrix(Dataset(y=y, columns=columns), parse_spec(spec), "A")


class TestWeightedResamples:
    """Robust Poisson's ``warm`` path fits each resample as the design's
    rows with frequency weights, in groups over its one ``X``.  Each
    resample gets the verdict of its gathered fit from the same start,
    ``fit(design.take(idx), ..., start=)``, and a log-RR within 1e-12 of
    it; a condition estimate of a singular Jacobian is rounding, so only
    its class is compared."""

    @staticmethod
    def outcomes(design, B=100, seed=0):
        record = FIT_METHODS["robust-poisson"]
        fit = record.fit(design, design.data.y)
        draws = [stream(seed, b).integers(0, design.n, size=design.n) for b in range(B)]
        weighted = list(record.warm(design, fit.beta, iter(draws)))
        gathered = [eecore._captured(lambda: record.fit(
            design.take(idx), design.data.y[idx], start=fit.beta)) for idx in draws]
        for w, g in zip(weighted, gathered):
            if isinstance(g, Exception):
                assert type(w) is type(g)
                if not isinstance(g, SingularJacobian):
                    assert str(w) == str(g)
            else:
                assert isinstance(w, FitResult) and w.design is None
                np.testing.assert_allclose(w.beta[1], g.beta[1], rtol=1e-12, atol=0)
        return sorted({type(g).__name__ for g in gathered})

    def test_verdicts_and_estimates_per_resample(self):
        assert self.outcomes(sparse_design()) == [
            "DegenerateColumn", "FitResult", "NoFiniteSolution"]

    def test_ranges_found_beyond_the_kept_rows(self, monkeypatch):
        # With one kept row per column end most resamples lack it, and
        # their ranges are reduced over all their rows.
        monkeypatch.setattr(eecore, "RANGE_ROWS", 1)
        assert self.outcomes(sparse_design()) == [
            "DegenerateColumn", "FitResult", "NoFiniteSolution"]
        X = sparse_design().X
        support = stream(92, 0).random((40, X.shape[0])) < 0.5
        for rows in (1, 3, 60):
            monkeypatch.setattr(eecore, "RANGE_ROWS", rows)
            lo, hi = eecore._supported_ranges(X, support, *eecore._range_rows(X))
            for b, held in enumerate(support):
                assert [lo[b].tolist(), hi[b].tolist()] == [
                    r.tolist() for r in column_ranges(X[held])]

    def test_failed_group_solve_falls_back_per_row(self, monkeypatch):
        # The group's solve raises for the resamples without A2's rows,
        # and is repeated row by row: they get SingularJacobian, the others
        # their fits.
        fallbacks = []
        inner = eecore._by_row

        def spy(fn, like, *stacks):
            value, errors = inner(fn, like, *stacks)
            if errors and len(like) > len(errors):
                fallbacks.append(len(errors))
            return value, errors

        monkeypatch.setattr(eecore, "_by_row", spy)
        design = sparse_design(rare_rows=0, exposed_events=8, twin_rows=2)
        assert "SingularJacobian" in self.outcomes(design)
        assert fallbacks

    def test_row_blocks(self, monkeypatch):
        # Above one row block, Z is formed a block at a time.
        design = sparse_design()
        monkeypatch.setattr(design_module, "BLOCK_ROWS", 16)
        assert self.outcomes(design) == ["DegenerateColumn", "FitResult", "NoFiniteSolution"]

    @pytest.mark.parametrize("rare_rows", [3, 1])
    def test_bootstrap_equals_own_fitter(self, rare_rows):
        # With B on one row, 37% of resamples miss it: more than 20% fail
        # on both paths, with the same count.
        design = sparse_design(rare_rows=rare_rows)
        fit = fit_robust_poisson(design, design.data.y)
        estimand = lambda f, dm: coefficient_rr(f, 1)   # noqa: E731
        own = eecore._captured(bootstrap_rr, lambda dm: fit_robust_poisson(
            dm, dm.data.y, start=fit.beta), design, estimand, fit, 200, 3)
        weighted = eecore._captured(
            bootstrap_rr, FIT_METHODS["robust-poisson"], design, estimand, fit, 200, 3)
        if rare_rows == 1:
            assert isinstance(own, TooManyFailures)
            assert (type(weighted), str(weighted)) == (type(own), str(own))
            return
        assert 0 < own.extra["failed_resamples"] == weighted.extra["failed_resamples"]
        for field in ("log_rr", "se_log_rr", "ci_low", "ci_high"):
            np.testing.assert_allclose(getattr(weighted, field), getattr(own, field),
                                       rtol=1e-12, err_msg=field)


def _estimate_bits(est):
    """The numbers of an estimate as bytes, or the error's class and text."""
    if isinstance(est, Exception):
        return type(est), str(est)
    return (est.estimand, est.method, np.array(
        [est.log_rr, est.se_log_rr, est.rr, est.ci_low, est.ci_high]).tobytes())


class TestMarginalRRStack:
    """Stacked standardization equals one-fit ``marginal_rr`` bit for bit."""

    SPECS = {"simple": get_scenario("moderate").simple_spec,
             "rich": get_scenario("moderate").rich_spec,
             "exposure interaction": "1 + A + rcs(L1,4) + L2 + A:rcs(L2,3)"}

    def _block(self, seed, spec, n=300, size=12):
        datas = [generate("moderate", n, rng=stream(seed, k)) for k in range(size)]
        designs = build_design_stack(datas, parse_spec(self.SPECS[spec]), "A")
        fits = inference.fit_each("robust-poisson", designs, [d.y for d in datas])
        assert not any(isinstance(f, Exception) for f in fits)
        return fits, datas

    @pytest.mark.parametrize("spec", ["simple", "rich", "exposure interaction"])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_equals_one_fit(self, seed, spec):
        fits, datas = self._block(seed, spec)
        # one pair standardized over another sample of the same size
        datas_used = datas[:5] + [datas[6]] + datas[6:]
        stacked = inference.marginal_rr_stack(fits, datas_used, 1.0, 0.0, level=0.9)
        alone = [marginal_rr(f, d, 1.0, 0.0, level=0.9)
                 for f, d in zip(fits, datas_used)]
        assert [_estimate_bits(e) for e in stacked] == [_estimate_bits(e) for e in alone]
        # and the one-fit formulas with plain vectors give the same bits
        for est, fit, data in zip(stacked, fits, datas_used):
            m1, g1 = standardized_means(fit, data, 1.0)
            m0, g0 = standardized_means(fit, data, 0.0)
            g = g1 - g0
            assert est.log_rr == float(np.log(m1) - np.log(m0))
            assert est.se_log_rr == float(np.sqrt(g @ fit.cov_sandwich @ g))

    def test_missing_covariate_fails_alone(self):
        fits, datas = self._block(45, "simple", size=4)
        d = datas[2]
        datas[2] = Dataset(y=d.y, columns={k: v for k, v in d.columns.items() if k != "L2"})
        stacked = inference.marginal_rr_stack(fits, datas)
        with pytest.raises(RiskRatioError) as alone:
            marginal_rr(fits[2], datas[2])
        assert type(stacked[2]) is type(alone.value)
        assert str(stacked[2]) == str(alone.value)
        assert "L2" in str(alone.value)
        others = [0, 1, 3]
        assert [_estimate_bits(stacked[k]) for k in others] == [
            _estimate_bits(marginal_rr(fits[k], datas[k])) for k in others]

    def test_unconverged_fit_fails_alone(self):
        # An unconverged log-binomial fit is refused by every estimand, not
        # reported at its feasible start (RR 1.0); the other entries of its
        # stack keep their bits.
        data = generate("moderate", 1000, seed=0)
        design = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        failed = fit_logbin_ml(design, data.y)
        assert (failed.converged, failed.failure_reason) == (False, "infeasible iterate")
        message = "fit failed: infeasible iterate (iterations=1, on_boundary=True)"
        for estimand in (lambda: coefficient_rr(failed, design.exposure_cols[0]),
                         lambda: marginal_rr(failed, data)):
            with pytest.raises(FitFailed) as alone:
                estimand()
            assert str(alone.value) == message
        fits, datas = self._block(46, "simple", size=4)
        before = inference.marginal_rr_stack(fits, datas)
        stacked = inference.marginal_rr_stack(
            fits[:2] + [failed] + fits[2:], datas[:2] + [data] + datas[2:])
        assert isinstance(stacked[2], FitFailed) and str(stacked[2]) == message
        assert [_estimate_bits(e) for e in stacked[:2] + stacked[3:]] == [
            _estimate_bits(e) for e in before]

    def test_fit_without_a_design_is_refused(self):
        data = eight_row_dataset()
        fit = fit_robust_poisson(np.column_stack([np.ones(8), data.column("A")]), data.y)
        assert fit.design is None
        with pytest.raises(ValueError, match="no design/exposure"):
            inference.marginal_rr_stack([fit], [data])

    def test_overflowing_row_fails_alone(self):
        fits, datas = self._block(44, "rich")
        beta = fits[3].beta.copy()
        beta[fits[3].design.exposure_cols[0]] = 1000.0
        fits[3] = dataclasses.replace(fits[3], beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = inference.marginal_rr_stack(fits, datas)
        assert isinstance(stacked[3], NonFiniteStandardization)
        with pytest.raises(NonFiniteStandardization) as alone:
            marginal_rr(fits[3], datas[3])
        assert str(stacked[3]) == str(alone.value)
        others = [k for k in range(len(fits)) if k != 3]
        assert [_estimate_bits(stacked[k]) for k in others] == [
            _estimate_bits(marginal_rr(fits[k], datas[k])) for k in others]
