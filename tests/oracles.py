"""Independent references the tests compare the package against."""

from types import SimpleNamespace

import numpy as np

from riskratio.design import build_design_matrix
from riskratio.errors import RiskRatioError
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
