import hashlib
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest

from riskratio import (
    build_design_matrix,
    fit_logbin_barrier,
    fit_logbin_ml,
    fit_robust_poisson,
    generate,
    logbin_gradient,
    logbin_hessian,
    logbin_loglik,
    parse_spec,
)
from riskratio import design, eecore, logbin
from riskratio.errors import FitFailed, InfeasiblePoint, NoFeasibleStart, RiskRatioError
from riskratio.inference import FIT_METHODS, _usable, fit_each
from riskratio.logbin import feasible_start, fit_logbin_barrier_stack
from riskratio.rng import stream
from riskratio.simlab import STACK_ROWS, get_scenario

from oracles import barrier_reference
from test_eecore import two_by_two


def simple_sample(r, n=1000):
    return generate("simple", n, rng=stream(700, r))


class TestLoglik:
    def test_intercept_only_stationary_at_log_mean(self):
        y = np.r_[np.ones(30), np.zeros(70)]
        X = np.ones((100, 1))
        beta = np.array([np.log(0.3)])
        np.testing.assert_allclose(logbin_gradient(X, y, beta), 0.0, atol=1e-10)

    def test_infeasible_point_raises(self):
        X = np.ones((5, 1))
        with pytest.raises(InfeasiblePoint):
            logbin_loglik(X, np.zeros(5), np.array([0.1]))

    def test_hessian_matches_finite_differences(self):
        rng = stream(51, 0)
        for _ in range(10):
            n = 80
            X = np.column_stack([np.ones(n), rng.standard_normal(n)])
            y = (rng.random(n) < 0.4).astype(float)
            beta = np.array([-1.5, 0.2])
            assert np.max(X @ beta) < 0
            hess = logbin_hessian(X, y, beta)
            fd = np.empty((2, 2))
            for j in range(2):
                h = 1e-6
                bp, bm = beta.copy(), beta.copy()
                bp[j] += h
                bm[j] -= h
                fd[:, j] = (
                    logbin_gradient(X, y, bp) - logbin_gradient(X, y, bm)
                ) / (2 * h)
            np.testing.assert_allclose(hess, fd, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("fitter", [fit_logbin_ml, fit_logbin_barrier])
def test_non_finite_input_rejected(fitter):
    X = np.column_stack([np.ones(6), [0, 1, 0, 1, 0, 1.0]])
    y = np.array([1, 0, np.nan, 1, 0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        fitter(X, y)
    X[0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        fitter(X, np.nan_to_num(y))


@pytest.mark.parametrize("fitter", [fit_logbin_ml, fit_logbin_barrier])
def test_row_major_array_fits_like_the_design(fitter):
    # A bare array is fitted in the column-major layout of a built design,
    # so a row-major copy of the design gives the same fit bit for bit.
    data = generate("moderate", 1000, rng=stream(707, 0))
    dm = build_design_matrix(
        data, parse_spec(get_scenario("moderate").rich_spec), exposure="A")
    on_design = fitter(dm, data.y)
    on_array = fitter(np.ascontiguousarray(dm.X), data.y)
    assert (on_array.converged, on_array.iterations) == (
        on_design.converged, on_design.iterations)
    assert on_array.beta.tobytes() == on_design.beta.tobytes()


def test_barrier_iterate_matches_public_functions_bit_for_bit():
    # The barrier loop builds its Newton system and objective from the
    # arrays it keeps of an iterate (``_iterate``); the gradient and
    # objective must be the very numbers of the public functions.  The
    # Hessian is one product with one weight per observation: bit for bit
    # that expression, and the public Hessian less the barrier's
    # t (X.T / eta**2) @ X up to rounding.
    rng = stream(52, 0)
    terms = parse_spec(get_scenario("moderate").rich_spec)
    for r in range(10):
        data = generate("moderate", 500, rng=stream(706, r))
        X = build_design_matrix(data, terms, exposure="A").X
        y = data.y
        beta = feasible_start(X, y) + rng.normal(scale=1e-3, size=X.shape[1])
        eta = X @ beta
        assert np.max(eta) < 0
        t = 10.0 ** rng.uniform(-8, 0)
        # The design as a stack of one with column vectors, as in the loop.
        stack, col = eecore._t(X.T[None]), y[None, :, None]
        eta1, s, loglik, logbar = logbin._iterate(col, 1 - col, stack @ beta[None, :, None])
        assert eta1[0, :, 0].tobytes() == eta.tobytes()
        grad, hess = logbin._newton_system(stack, col, 1 - col, eta1, s, t)
        grad, hess = grad[0, :, 0], hess[0]
        np.testing.assert_array_equal(
            grad, logbin_gradient(X, y, beta) + t * (X.T @ (1.0 / eta)))
        q = np.exp(eta) / -np.expm1(eta)
        inv = 1.0 / eta
        np.testing.assert_array_equal(
            hess, (X.T * ((1 - y) * q * (-1 - q) - t * inv * inv)) @ X)
        np.testing.assert_allclose(
            hess, logbin_hessian(X, y, beta) - t * ((X.T * (1.0 / eta**2)) @ X),
            rtol=1e-13)
        assert (loglik + t * logbar)[0] == (
            logbin_loglik(X, y, beta) + t * np.sum(np.log(-eta)))


class TestMlFitter:
    def test_programming_error_in_hessian_propagates(self, monkeypatch):
        from riskratio import logbin

        def broken(X, y, beta):
            raise TypeError("broken hessian")

        monkeypatch.setattr(logbin, "logbin_hessian", broken)
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        with pytest.raises(TypeError, match="broken hessian"):
            fit_logbin_ml(dm, data.y)

    def test_non_finite_hessian_gives_no_covariance(self, monkeypatch):
        # the inverse of this matrix is finite, so only a check of the
        # Hessian itself can refuse it
        from riskratio import logbin

        monkeypatch.setattr(logbin, "logbin_hessian",
                            lambda X, y, beta: np.array([[-np.inf, -1.0], [-1.0, -1.0]]))
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_logbin_ml(dm, data.y)
        assert fit.cov_sandwich is None
        assert not fit.converged
        assert fit.failure_reason == "non-finite covariance"

    def test_singular_weighted_least_squares(self):
        # A repeated column makes X'WX singular: Cholesky refuses it on the
        # first iteration, and the fit ends at the feasible start.
        rng = stream(708, 0)
        a = (rng.random(200) < 0.5) * 1.0
        l = rng.standard_normal(200)
        y = (rng.random(200) < 0.3) * 1.0
        X = np.column_stack([np.ones(200), a, l, l])
        fit = fit_logbin_ml(X, y)
        assert (fit.converged, fit.failure_reason, fit.iterations) == (
            False, "singular weighted least squares", 1)
        assert fit.beta.tobytes() == feasible_start(X, y).tobytes()
        with pytest.raises(FitFailed, match="logbin-ml failed: singular weighted"):
            FIT_METHODS["logbin-ml"](X, y)

    def test_iteration_cap(self, monkeypatch):
        data = simple_sample(0)
        dm = build_design_matrix(data, parse_spec("1 + A + L1 + L2"), exposure="A")
        assert fit_logbin_ml(dm, data.y).iterations > 1
        monkeypatch.setattr(logbin, "MAX_ITER", 1)
        fit = fit_logbin_ml(dm, data.y)
        assert (fit.converged, fit.failure_reason, fit.iterations) == (
            False, "iteration cap", 1)
        assert np.max(dm.X @ fit.beta) < 0

    def test_saturated_2x2_matches_robust_poisson(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        ml = fit_logbin_ml(dm, data.y)
        rp = fit_robust_poisson(dm, data.y)
        assert ml.converged and not ml.on_boundary
        np.testing.assert_allclose(ml.beta[1], np.log(1.5), atol=1e-8)
        np.testing.assert_allclose(ml.beta, rp.beta, atol=1e-8)

    def test_simple_scenario_converges(self):
        terms = parse_spec(get_scenario("simple").simple_spec)
        converged = 0
        for r in range(50):
            data = simple_sample(r)
            dm = build_design_matrix(data, terms, exposure="A")
            fit = fit_logbin_ml(dm, data.y)
            if fit.converged and not fit.on_boundary:
                converged += 1
        assert converged >= 48  # > 95%

    def test_moderate_scenario_mostly_fails(self):
        terms = parse_spec(get_scenario("moderate").simple_spec)
        failed = 0
        for r in range(50):
            data = generate("moderate", 1000, rng=stream(701, r))
            dm = build_design_matrix(data, terms, exposure="A")
            fit = fit_logbin_ml(dm, data.y)
            if not fit.converged or fit.on_boundary or fit.cov_sandwich is None:
                failed += 1
        assert failed > 25

    def test_feasibility_of_reported_fit(self):
        for r in range(10):
            data = generate("complex", 500, rng=stream(702, r))
            dm = build_design_matrix(
                data, parse_spec(get_scenario("complex").simple_spec), exposure="A"
            )
            fit = fit_logbin_ml(dm, data.y)
            assert np.all(np.exp(dm.X @ fit.beta) <= 1.0 + 1e-10)


class TestBarrierFitter:
    def test_intercept_only(self):
        y = np.r_[np.ones(30), np.zeros(70)]
        fit = fit_logbin_barrier(np.ones((100, 1)), y)
        np.testing.assert_allclose(fit.beta[0], np.log(0.3), atol=1e-6)

    def test_agrees_with_ml_on_simple_scenario(self):
        terms = parse_spec(get_scenario("simple").simple_spec)
        checked = 0
        for r in range(50):
            data = simple_sample(r)
            dm = build_design_matrix(data, terms, exposure="A")
            ml = fit_logbin_ml(dm, data.y)
            if not ml.converged or ml.on_boundary:
                continue
            ab = fit_logbin_barrier(dm, data.y)
            np.testing.assert_allclose(ab.beta, ml.beta, atol=1e-4)
            assert abs(ab.loglik - ml.loglik) < 1e-6
            checked += 1
        assert checked >= 45

    def test_boundary_optimum(self):
        # engineered so the unconstrained optimum is infeasible: a complex-
        # scenario sample where the robust Poisson fit has means > 1
        for r in range(20):
            data = generate("complex", 1000, rng=stream(703, r))
            dm = build_design_matrix(
                data, parse_spec(get_scenario("complex").simple_spec), exposure="A"
            )
            rp = fit_robust_poisson(dm, data.y)
            if rp.n_mu_gt1 == 0:
                continue
            ab = fit_logbin_barrier(dm, data.y)
            assert ab.on_boundary
            assert np.all(np.exp(dm.X @ ab.beta) <= 1.0 + 1e-10)
            return
        pytest.fail("no sample with infeasible unconstrained optimum found")

    def test_strict_feasibility(self):
        for r in range(5):
            data = generate("moderate", 800, rng=stream(704, r))
            dm = build_design_matrix(
                data, parse_spec(get_scenario("moderate").simple_spec), exposure="A"
            )
            ab = fit_logbin_barrier(dm, data.y)
            assert np.max(dm.X @ ab.beta) <= 1e-10


class TestFinish:
    """``_finish`` on the points no fitter hands it."""

    def test_non_finite_inverse_is_no_covariance(self):
        # At eta = -720 the information is 3 q(1 + q) with q about 2e-313,
        # finite, and its inverse overflows to inf.
        X, y = np.ones((3, 1)), np.zeros(3)
        fit = logbin._finish(X, y, np.array([-720.0]), True, False, 5, None, None)
        assert fit.cov_sandwich is None
        assert not fit.converged
        assert fit.failure_reason == "non-finite covariance"

    def test_infeasible_point_has_minus_infinite_loglik(self):
        fit = logbin._finish(np.ones((3, 1)), np.zeros(3), np.array([0.5]),
                             False, True, 5, "infeasible iterate", None)
        assert fit.loglik == -np.inf


def test_feasible_start_with_more_columns_than_rows():
    # No intercept column, so the start comes from a robust-Poisson fit,
    # which cannot be made with p > n.
    X = stream(705, 0).standard_normal((2, 3))
    with pytest.raises(NoFeasibleStart):
        feasible_start(X, np.array([1.0, 0.0]))


def fit_digest(fit):
    """sha256 of a fit's numbers and flags, or an exception's type and text."""
    if isinstance(fit, Exception):
        return f"{type(fit).__name__}: {fit}"
    h = hashlib.sha256(fit.beta.tobytes())
    h.update(b"no covariance" if fit.cov_sandwich is None else fit.cov_sandwich.tobytes())
    h.update(repr((fit.loglik, fit.iterations, fit.converged, fit.on_boundary,
                   fit.failure_reason)).encode())
    return h.hexdigest()


def outcome(fitter, *args):
    try:
        return fitter(*args)
    except (RiskRatioError, np.linalg.LinAlgError) as exc:
        return exc


def mixed_stack():
    """(name, X, y) of designs that take every branch of the barrier loop,
    in two shapes and more."""
    terms = parse_spec(get_scenario("moderate").simple_spec)
    cases = []
    for r in (0, 1, 8):
        data = generate("moderate", 300, rng=stream(710, r))
        cases.append((f"moderate {r}", build_design_matrix(data, terms, exposure="A").X, data.y))
    X, y = cases[2][1], cases[2][2]
    cases += [
        # no plain intercept column: the start is a robust-Poisson fit
        ("no intercept", np.column_stack([2 * X[:, 0], X[:, 1:]]), y),
        # an outcome of 0 or 2 is not concave: -H is not positive definite
        # (lstsq), and some halving rounds accept no step
        ("outcome 0 or 2", X, 2 * y),
        # a zero column: -H is singular on every iteration
        ("zero column", np.column_stack([X, np.zeros(len(y))]), y),
        # no intercept and a column of both signs: no feasible start
        ("one signed column", X[:, 2:3].copy(), y),
        ("all events", np.ones((40, 1)), np.ones(40)),
    ]
    terms = parse_spec(get_scenario("complex").simple_spec)
    for name, r in (("boundary optimum", 0), ("halved step", 3)):
        # the second design's loop takes a halving round
        data = generate("complex", 1000, rng=stream(703, r))
        cases.append((name, build_design_matrix(data, terms, exposure="A").X, data.y))
    return cases


class TestStack:
    """A stacked barrier fit equals the one-design fit bit for bit, and
    both equal the plain loop of ``oracles.barrier_reference``."""

    @pytest.mark.parametrize("capped", [False, True])
    def test_stack_equals_solo_and_reference(self, monkeypatch, capped):
        if capped:
            # stages of 3 Newton iterations: most stages reach the cap
            monkeypatch.setattr(logbin, "MAX_ITER", 3)
        cases = mixed_stack()
        stacked = fit_logbin_barrier_stack([X for _, X, _ in cases], [y for *_, y in cases])
        events, seen = Counter(), {}
        for (name, X, y), fit in zip(cases, stacked):
            solo = outcome(fit_logbin_barrier, X, y)
            reference = outcome(barrier_reference, X, y)
            if isinstance(reference, tuple):
                reference, counts = reference
                events += counts
            assert fit_digest(fit) == fit_digest(solo) == fit_digest(reference), name
            seen[name] = fit
        assert len({X.shape for _, X, _ in cases}) >= 3
        assert isinstance(seen["one signed column"], NoFeasibleStart)
        assert seen["no intercept"].converged
        assert seen["boundary optimum"].on_boundary
        if capped:
            assert events["stage_capped"]
        else:
            assert events["lstsq"] and events["no_step_accepted"] and events["halving"]
            assert events["centered"] and not events["stage_capped"]

    def test_stack_equals_solo_in_row_blocks(self, monkeypatch):
        # 128-row blocks: every design of 300 rows or more is fitted in
        # three blocks or more, alone and in its stack alike.
        monkeypatch.setattr(design, "BLOCK_ROWS", 128)
        cases = mixed_stack()
        stacked = fit_logbin_barrier_stack([X for _, X, _ in cases], [y for *_, y in cases])
        for (name, X, y), fit in zip(cases, stacked):
            assert fit_digest(fit) == fit_digest(outcome(fit_logbin_barrier, X, y)), name
        assert sum(X.shape[0] > 2 * 128 for _, X, _ in cases) >= 5

    def test_one_design_leaves_its_outcome_alone(self):
        # A stack of one reads the caller's y in place, not a copy of it.
        for name, X, y in mixed_stack():
            fixed = y.copy()
            fixed.flags.writeable = False
            assert fit_digest(outcome(fit_logbin_barrier, X, fixed)) == \
                fit_digest(outcome(fit_logbin_barrier, X, y)), name

    def test_fit_each_matches_the_method(self):
        cases = mixed_stack()
        fits = fit_each("logbin-ab", [X for _, X, _ in cases], [y for *_, y in cases])
        failed = 0
        for (name, X, y), fit in zip(cases, fits):
            alone = outcome(FIT_METHODS["logbin-ab"], X, y)
            assert type(fit) is type(alone), name
            assert fit_digest(fit) == fit_digest(alone), name
            failed += isinstance(fit, FitFailed)
        assert failed >= 2

    def test_fit_each_unconverged_fit_fails_with_usable_message(self):
        _, X, y = mixed_stack()[4]
        fit = fit_logbin_barrier(X, y)
        assert not fit.converged
        with pytest.raises(FitFailed) as expected:
            _usable("logbin-ab", fit)
        (got,) = fit_each("logbin-ab", [X], [y])
        assert isinstance(got, FitFailed)
        assert str(got) == str(expected.value)

    def test_fit_each_rejects_non_finite_input(self):
        _, X, y = mixed_stack()[0]
        bad = y.copy()
        bad[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_each("logbin-ab", [X, X], [y, bad])

    def test_failed_lstsq_leaves_the_stack_alone(self, monkeypatch):
        # The "outcome 0 or 2" design's -H is not positive definite, so its
        # Newton step comes from lstsq; made to raise for the 300 x 4 stack
        # it shares with four other designs, that design's entry is the
        # error and every other design fits as it does alone, unpatched.
        cases = mixed_stack()
        before = [fit_digest(outcome(fit_logbin_barrier, X, y)) for _, X, y in cases]
        real = np.linalg.lstsq

        def lstsq(a, b, rcond=None):
            if a.shape == (4, 4):
                raise np.linalg.LinAlgError("lstsq did not converge")
            return real(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        stacked = fit_logbin_barrier_stack([X for _, X, _ in cases], [y for *_, y in cases])
        for (name, X, y), fit, alone in zip(cases, stacked, before):
            if name == "outcome 0 or 2":
                assert isinstance(fit, np.linalg.LinAlgError)
                assert str(fit) == "lstsq did not converge"
                assert fit_digest(outcome(fit_logbin_barrier, X, y)) == fit_digest(fit)
            else:
                assert fit_digest(fit) == alone, name
        assert sum(X.shape == (300, 4) for _, X, _ in cases) == 5

    def test_infeasible_start_fails_only_its_row(self):
        # ``feasible_start`` never hands the loop such a start; another
        # start with some x_i'beta > 0 fails before the first step, and the
        # other design of the stack fits as it does alone.
        (_, X0, y0), (_, X1, y1) = mixed_stack()[:2]
        beta = np.stack([feasible_start(X0, y0), feasible_start(X1, y1)])
        beta[0, 0] = 0.5
        assert (X0 @ beta[0]).max() > 0
        out = logbin._barrier(np.stack([X0.T, X1.T]), np.stack([y0, y1])[:, :, None],
                              beta[:, :, None], [None, None])
        assert sorted(out) == [0, 1]
        assert isinstance(out[0], InfeasiblePoint)
        assert str(out[0]) == "some x_i'beta > 0"
        assert fit_digest(out[1]) == fit_digest(fit_logbin_barrier(X1, y1))


class TestSchedule:
    def test_five_stages_from_1_to_1e_8(self):
        stages = logbin._STAGE_T
        assert len(stages) == 5 and stages[0] == 1.0
        np.testing.assert_allclose(stages, 10.0 ** np.arange(0, -9, -2), rtol=1e-14)

    def test_iteration_count(self):
        # One moderate n = 1000 simple-spec fit: 37 Newton iterations with
        # nine stages of factor 0.1, 25 with five of factor 0.01 each
        # centered to the final tolerance, 18 with the first four ended on
        # the Newton decrement.
        data = generate("moderate", 1000, rng=stream(11, 0))
        dm = build_design_matrix(
            data, parse_spec(get_scenario("moderate").simple_spec), exposure="A")
        fit = fit_logbin_barrier(dm, data.y)
        assert (fit.iterations, fit.converged, fit.on_boundary) == (18, True, False)

    @pytest.mark.parametrize("scenario", ["simple", "moderate", "complex"])
    @pytest.mark.parametrize("spec", ["simple", "rich"])
    def test_decrement_keeps_the_fully_centered_fit(self, scenario, spec):
        # One study block of n = 1000 designs, fitted as a stack, against
        # the plain loop that centers every stage to the final tolerance:
        # the same verdicts, and beta and the covariance within 1e-12
        # normwise (entry by entry, covariances near zero at boundary fits
        # of the rich spec move by up to about 3e-10 relative), in fewer
        # Newton iterations.
        terms = parse_spec(getattr(get_scenario(scenario), f"{spec}_spec"))
        datas = [generate(scenario, 1000, rng=stream(720, r))
                 for r in range(STACK_ROWS // 1000)]
        Xs = [build_design_matrix(d, terms, exposure="A").X for d in datas]
        fits = fit_logbin_barrier_stack(Xs, [d.y for d in datas])
        taken = centered = 0
        for X, d, fit in zip(Xs, datas, fits):
            tight, _ = barrier_reference(X, d.y, tight=True)
            assert (fit.converged, fit.on_boundary, fit.failure_reason) == \
                (tight.converged, tight.on_boundary, tight.failure_reason)
            for got, want in ((fit.beta, tight.beta), (fit.cov_sandwich, tight.cov_sandwich)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            taken += fit.iterations
            centered += tight.iterations
        assert taken < 0.8 * centered


class TestStepSearch:
    """The barrier's acceptance test run through ``eecore._step_search``
    directly, on a stack of two intercept-and-exposure designs."""

    @staticmethod
    def search(Xt, y, beta, delta, t):
        """(iterate, step, rows without a step, objective before) of one
        search from a unit step, the iterate being (beta, eta, s, loglik,
        logbar, objective); nothing passed in changes."""
        eta, s, loglik, logbar = logbin._iterate(y, 1 - y, eecore._t(Xt) @ beta)
        before = loglik + t * logbar
        step = np.ones((len(Xt), 1, 1))
        accept = partial(logbin._objective_holds, y, 1 - y, before - 1e-12, t)
        iterate, stuck = eecore._step_search(
            Xt, (beta.copy(), eta, s, loglik, logbar, before.copy()), delta, step,
            np.arange(len(Xt)), accept)
        return iterate, step, stuck, before

    def test_infeasible_candidate_is_halved_until_feasible(self):
        datas = [generate("simple", 300, rng=stream(711, r)) for r in range(2)]
        Xt = np.stack([np.asfortranarray(np.column_stack(
            [np.ones(d.n), d.column("A")])).T for d in datas])
        y = np.stack([d.y for d in datas])[:, :, None]
        # Both start 2 below the intercept-only optimum; row 0's full step
        # crosses eta = 0, row 1's does not.
        beta = np.stack([[np.log(d.y.mean()) - 2.0, 0.0] for d in datas])[:, :, None]
        delta = np.array([[5.0, 0.0], [1.0, 0.0]])[:, :, None]
        t = np.full(2, 1e-2)
        full = (eecore._t(Xt) @ (beta + delta)).max(axis=(1, 2))
        assert full[0] >= 0 > full[1]

        with warnings.catch_warnings():
            # The infeasible candidate is left out, not taken to log(s < 0).
            warnings.simplefilter("error")
            iterate, step, stuck, before = self.search(Xt, y, beta, delta, t)
        new_beta, eta, *_, obj = iterate
        assert step.ravel().tolist() == [0.5, 1.0] and not stuck.size
        assert (eta.max(axis=(1, 2)) < 0).all() and (obj > before).all()
        np.testing.assert_array_equal(new_beta, beta + step * delta)
        for k in range(2):
            alone, alone_step, alone_stuck, _ = self.search(
                Xt[k:k + 1], y[k:k + 1], beta[k:k + 1], delta[k:k + 1], t[k:k + 1])
            assert len(alone) == len(iterate) == 6
            for a, b in zip(alone, iterate):
                assert a.tobytes() == b[k:k + 1].tobytes()
            assert alone_step.tobytes() == step[k:k + 1].tobytes()
            assert not alone_stuck.size


def test_both_starts_find_the_same_intercept():
    # Column 0 is 1 on the first row only; columns 1 and 2 are all ones,
    # and both starts put the intercept in the first of them.
    rng = stream(712, 0)
    n = 50
    first = np.r_[1.0, rng.standard_normal(n - 1)]
    X = np.column_stack([first, np.ones(n), np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < 0.3).astype(float)
    initial = eecore._initial_beta(np.array([design.column_ranges(X)]), y[None, :, None])[0]
    for start in (initial, feasible_start(X, y)):
        assert np.flatnonzero(start).tolist() == [1]
    assert feasible_start(X, y)[1] == np.log(y.mean())
