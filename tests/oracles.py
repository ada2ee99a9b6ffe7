"""Independent references the tests compare the package against."""

from collections import Counter
from types import SimpleNamespace

import numpy as np

from riskratio import logbin
from riskratio.design import build_design_matrix
from riskratio.design import DEFAULT_KNOT_QUANTILES
from riskratio.errors import InfeasiblePoint, NonIncreasingKnots, RiskRatioError
from riskratio.rng import stream


def fit_irls(X, y, max_iter=100, tol=1e-12):
    """Root of the robust-Poisson score equations by iteratively reweighted
    least squares: beta <- solve(X'WX, X'W z) with W = diag(mu) and working
    response z = eta + (y - mu)/mu, from the intercept-only start (the first
    column of X is the intercept).  Algebraically the Newton step, computed
    through a different linear system.  Returns an object with ``beta`` and
    ``iterations``.
    """
    beta = np.zeros(X.shape[1])
    beta[0] = np.log(y.mean())
    for iterations in range(1, max_iter + 1):
        eta = X @ beta
        mu = np.exp(eta)
        z = eta + (y - mu) / mu
        xtw = X.T * mu
        new = np.linalg.solve(xtw @ X, xtw @ z)
        step = np.max(np.abs(new - beta))
        beta = new
        if step < tol:
            return SimpleNamespace(beta=beta, iterations=iterations)
    raise AssertionError(f"IRLS did not converge in {max_iter} iterations")


def poisson_loglik(X, y, beta) -> float:
    """Poisson log-likelihood; for 0/1 outcomes the log(y!) term vanishes.

    The estimator does not rely on the Poisson distribution, but its score
    is this function's gradient.
    """
    eta = X @ beta
    return float(np.sum(y * eta - np.exp(eta)))


def sandwich_covariance_lz(X, y, beta) -> np.ndarray:
    """Sandwich assembled in the Liang-Zeger GEE form.

    Uses per-observation mean derivatives d_i = x_i mu_i and explicit
    1/mu_i working-variance factors: bread sum_i d_i mu_i^{-1} d_i',
    meat sum_i d_i mu_i^{-1} r_i^2 mu_i^{-1} d_i'.  Algebraically equal
    to ``sandwich_covariance``; an independent assembly for verification.
    """
    mu = np.exp(X @ beta)
    r = y - mu
    d = X * mu[:, None]
    bread = (d.T / mu) @ d
    meat = (d.T * (r**2 / mu**2)) @ d
    binv = np.linalg.inv(bread)
    cov = binv @ meat @ binv.T
    return (cov + cov.T) / 2.0


def default_knots_quantile(x, nknots):
    """Default spline knots the way NumPy places them: the distinct values
    of ``np.quantile`` of ``x`` (one vector) at the default quantiles; fewer
    than 3 raise ``NonIncreasingKnots``, as ``default_knots`` does."""
    knots = np.unique(np.quantile(np.asarray(x, dtype=float),
                                  DEFAULT_KNOT_QUANTILES[nknots]))
    if knots.size < 3:
        raise NonIncreasingKnots(knots)
    return knots


def bootstrap_rebuild(fitter, design, estimand, B, seed, level=0.95):
    """Percentile bootstrap that rebuilds the design on every resample.

    Each resample draws the same rows as ``bootstrap_rr`` (stream(seed, b)),
    resamples ``design.data`` and builds the design again from the frozen
    terms; ``fitter(design)`` and ``estimand(fit, design)`` then run on the
    rebuilt design.  A resample whose rebuild or fit raises counts as
    failed.  Returns ``log_rr`` (full sample), ``ci_low``, ``ci_high``,
    ``se_log_rr`` and ``failed_resamples``.
    """
    data = design.data
    point = estimand(fitter(design), design)
    log_rrs = []
    failed = 0
    for b in range(B):
        idx = stream(seed, b).integers(0, data.n, size=data.n)
        try:
            dm = build_design_matrix(data.take(idx), list(design.terms),
                                     design.exposure)
            log_rrs.append(estimand(fitter(dm), dm).log_rr)
        except (RiskRatioError, np.linalg.LinAlgError):
            failed += 1
    alpha = 1.0 - level
    lo, hi = np.quantile(log_rrs, [alpha / 2, 1 - alpha / 2])
    return SimpleNamespace(
        log_rr=point.log_rr, ci_low=float(np.exp(lo)), ci_high=float(np.exp(hi)),
        se_log_rr=float(np.std(log_rrs, ddof=1)), failed_resamples=failed,
    )


def barrier_reference(X, y, tight=False):
    """The log-barrier fit of one design as a plain loop, one Newton
    iteration at a time, with the formulas of ``logbin`` written out:
    (fit, events), where ``events`` counts the branches the loop took
    (``lstsq``, ``halving``, ``no_step_accepted``, ``tiny_step``,
    ``stage_capped``, ``centered``).  The start and the result are
    ``logbin``'s own (``feasible_start``, ``_finish``); the constants are
    read when called.  A stage before the last ends after a step taken
    where half the Newton decrement g'delta is at most ``CENTER_TOL``
    (``centered``), unless ``tight``: then every stage runs to the last
    stage's tests, the schedule of centering each stage fully.
    """
    X = np.asfortranarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = X.shape[0]
    ny = 1 - y
    events = Counter()

    def iterate(eta):
        s = -np.expm1(eta)
        return eta, s, float(np.sum(y * eta + ny * np.log(s))), np.sum(np.log(-eta))

    beta = logbin.feasible_start(X, y)
    eta = X @ beta
    if np.any(eta > 0):
        raise InfeasiblePoint("some x_i'beta > 0")
    eta, s, loglik, logbar = iterate(eta)
    total = 0
    stages = logbin._STAGE_T
    for k, t in enumerate(stages):
        last = k == len(stages) - 1
        for it in range(logbin.MAX_ITER):
            total += 1
            q = np.exp(eta) / s
            grad = X.T @ (y - ny * q) + t * (X.T @ (1.0 / eta))
            inv = 1.0 / eta
            hess = (X.T * (ny * q * (-1 - q) - t * inv * inv)) @ X
            try:
                np.linalg.cholesky(-hess)
                delta = np.linalg.solve(-hess, grad)
                decrement = float(grad @ delta)
            except np.linalg.LinAlgError:
                events["lstsq"] += 1
                delta = np.linalg.lstsq(-hess, grad, rcond=None)[0]
                decrement = np.inf
            d = X @ delta
            room = np.divide(0.0 - eta, d, out=np.full_like(eta, np.inf), where=d > 0)
            alpha = min(1.0, 0.99 * max(room.min(), 0.0))
            if alpha <= 1e-16:
                events["tiny_step"] += 1
                break
            obj = loglik + t * logbar
            for halving in range(logbin.MAX_HALVINGS + 1):
                candidate = beta + alpha * delta
                eta_c = X @ candidate
                if np.max(eta_c) < 0:
                    new = iterate(eta_c)
                    if new[2] + t * new[3] >= obj - 1e-12:
                        break
                alpha /= 2.0
            else:
                events["no_step_accepted"] += 1
                break
            if halving:
                events["halving"] += 1
            step = np.max(np.abs(alpha * delta))
            beta = candidate
            eta, s, loglik, logbar = new
            if step < 1e-12 or np.max(np.abs(grad)) < logbin.GRAD_TOL * n:
                break
            if decrement / 2 <= logbin.CENTER_TOL and not (tight or last):
                events["centered"] += 1
                break
        else:
            events["stage_capped"] += 1
    on_boundary = np.max(eta) > -logbin.BOUNDARY_EPS * 10
    grad = X.T @ (y - ny * (np.exp(eta) / s))
    converged = bool(np.max(np.abs(grad)) < 1e-4 * n or on_boundary)
    reason = None if converged else "barrier did not reach stationarity"
    return logbin._finish(X, y, beta, converged, on_boundary, total, reason, None), events
