"""Fitting by method name, and risk-ratio estimands and intervals.

``FIT_METHODS`` maps each method name to a fitter (design, y) ->
``FitResult``; the CLI fits through it, and the study runner through
``fit_each``, which fits many designs at once where the method can.  Two
estimands: the exponentiated coefficient (conditional RR from the
log-linear model) and the standardized marginal RR obtained by averaging
model-predicted risks over the estimation sample with the exposure forced
to each level (g-computation).  Intervals are Wald on the log scale, with
the delta method for the standardized estimand, plus a percentile
bootstrap cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .design import DesignMatrix, _term_block, _term_columns, realize
from .eecore import ETA_MAX, FitResult, fit_robust_poisson, fit_robust_poisson_stack
from .errors import (
    FitFailed,
    NonFiniteStandardization,
    RiskRatioError,
    TooManyFailures,
)
from .logbin import fit_logbin_barrier, fit_logbin_barrier_stack, fit_logbin_ml
from .rng import stream


@dataclass(frozen=True)
class RREstimate:
    estimand: str
    log_rr: float
    se_log_rr: float
    rr: float
    ci_low: float
    ci_high: float
    method: str
    level: float = 0.95
    extra: dict | None = None


def _usable(method: str, fit: FitResult) -> FitResult:
    """A log-binomial fit as its fitter returned it, if it converged (a fit
    without a covariance never has); any other fit raises ``FitFailed``."""
    if not fit.converged:
        raise FitFailed(
            f"{method} failed: {fit.failure_reason or 'non-convergence'} "
            f"(iterations={fit.iterations}, on_boundary={fit.on_boundary})"
        )
    return fit


# Each entry looks its fitter up when called, so a module attribute replaced
# after import (as bench/tracer.py does) is the one that runs.
FIT_METHODS = {
    "robust-poisson": lambda design, y: fit_robust_poisson(design, y),
    "logbin-ml": lambda design, y: _usable("logbin-ml", fit_logbin_ml(design, y)),
    "logbin-ab": lambda design, y: _usable("logbin-ab", fit_logbin_barrier(design, y)),
}
DEFAULT_METHOD = "robust-poisson"


def fit_each(method: str, designs, ys) -> list:
    """Fit each design with its outcome by method name.

    Returns, per design, its ``FitResult`` or the ``RiskRatioError`` or
    ``LinAlgError`` its fit raised; each entry is what
    ``FIT_METHODS[method](design, y)`` returns or raises, ``FitFailed``
    for an unconverged log-binomial fit included.  Robust Poisson and the
    log-barrier fit the designs as stacks (``fit_robust_poisson_stack``,
    ``fit_logbin_barrier_stack``); log-binomial ML fits them one by one.
    Non-finite input raises ``ValueError``, as the fitters do.
    """
    if method == "robust-poisson":
        return fit_robust_poisson_stack(designs, ys)
    if method == "logbin-ab":
        return [_usable_or_failure("logbin-ab", fit)
                for fit in fit_logbin_barrier_stack(designs, ys)]
    fits = []
    for design, y in zip(designs, ys):
        try:
            fits.append(FIT_METHODS[method](design, y))
        except (RiskRatioError, np.linalg.LinAlgError) as exc:
            fits.append(exc)
    return fits


def _usable_or_failure(method: str, fit):
    """``_usable(method, fit)``, or the ``FitFailed`` it raises; an
    exception in place of a fit as it is."""
    if isinstance(fit, Exception):
        return fit
    try:
        return _usable(method, fit)
    except FitFailed as exc:
        return exc


def _z(level: float) -> float:
    return NormalDist().inv_cdf(0.5 + level / 2.0)


def _wald(estimand: str, log_rr: float, var, method: str, level: float) -> RREstimate:
    """exp(log_rr) with the Wald interval exp(log_rr -/+ z sqrt(var)).

    A variance below zero, an exact zero lost to rounding, gives a NaN
    standard error and interval, which every caller treats as a failed fit.
    """
    se = float(np.sqrt(var)) if var >= 0 else np.nan
    z = _z(level)
    return RREstimate(
        estimand=estimand,
        log_rr=log_rr,
        se_log_rr=se,
        rr=float(np.exp(log_rr)),
        ci_low=float(np.exp(log_rr - z * se)),
        ci_high=float(np.exp(log_rr + z * se)),
        method=method,
        level=level,
    )


def coefficient_rr(fit: FitResult, j: int, level: float = 0.95) -> RREstimate:
    """RR = exp(beta_j) with a Wald interval on the log scale, from the
    fit's covariance; the method reads ``wald-sandwich`` or ``wald-model``
    after ``fit.variance``."""
    return _wald(f"coefficient[{j}]", float(fit.beta[j]), fit.cov_sandwich[j, j],
                 f"wald-{fit.variance}", level)


def _standardized_means(fit: FitResult, data: Dataset, a: float):
    """Mean fitted risk with the exposure forced to level a, plus the
    gradient of its log w.r.t. beta."""
    design = fit.design
    forced = data.with_column(design.exposure, np.full(data.n, a))
    if data is design.data:
        # Same sample: only the exposure terms' columns change, so rebuild
        # just those.  Gives realize()'s matrix bit for bit, in its
        # column-major layout.
        Xa = design.X.copy(order="K")
        blocks = [_term_block(t, forced)[0] for t in design.terms
                  if design.exposure in _term_columns(t)]
        if blocks:
            Xa[:, list(design.exposure_cols)] = np.column_stack(blocks)
    else:
        Xa = realize(design, forced)
    eta = Xa @ fit.beta
    if np.any(eta > ETA_MAX):
        raise NonFiniteStandardization("exp overflow during standardization")
    mu = np.exp(eta)
    total = mu.sum()
    grad = (Xa.T @ mu) / total
    return total / data.n, grad


def marginal_rr(
    fit: FitResult, data: Dataset, a1: float = 1.0, a0: float = 0.0,
    level: float = 0.95,
) -> RREstimate:
    """Standardized (marginal) RR with a delta-method interval from the
    fit's covariance.

    RR = mean_i exp(x_i(a1) beta) / mean_i exp(x_i(a0) beta), forcing the
    exposure to a1 / a0 while covariates keep their observed values.
    """
    if fit.design is None or fit.design.exposure is None:
        raise ValueError("fit carries no design/exposure; cannot standardize")
    m1, g1 = _standardized_means(fit, data, a1)
    m0, g0 = _standardized_means(fit, data, a0)
    log_rr = float(np.log(m1) - np.log(m0))
    g = g1 - g0
    return _wald(f"marginal[{a1:g} vs {a0:g}]", log_rr, g @ fit.cov_sandwich @ g,
                 "delta", level)


def bootstrap_rr(
    fitter, sample: Dataset | DesignMatrix, estimand, fit: FitResult,
    B: int = 1000, seed: int = 0, level: float = 0.95,
) -> RREstimate:
    """Nonparametric percentile bootstrap of any scalar RR estimand.

    ``sample`` is a ``Dataset`` or a built ``DesignMatrix``; each resample
    is ``sample.take(idx)``, for a design the rows of its matrix, equal to
    a rebuild from the resampled data.  ``fitter(sample) -> fit`` and
    ``estimand(fit, sample) -> RREstimate`` are re-run on each resample;
    one that raises, a design resample with a constant column included,
    counts as failed.  ``fit`` is the caller's ``fitter(sample)``: the
    point estimate is ``estimand(fit, sample)``, without a refit of the
    full sample.  Deterministic given ``seed``; resamples are aggregated
    in resample-index order.  More than 20% failed re-fits raises
    ``TooManyFailures``.
    """
    if B < 100:
        raise ValueError("B must be at least 100")
    point = estimand(fit, sample)
    log_rrs = np.full(B, np.nan)
    for b in range(B):
        idx = stream(seed, b).integers(0, sample.n, size=sample.n)
        try:
            resample = sample.take(idx)
            log_rrs[b] = estimand(fitter(resample), resample).log_rr
        except (RiskRatioError, np.linalg.LinAlgError):
            continue
    ok = np.isfinite(log_rrs)
    failed = int(B - ok.sum())
    if failed > 0.2 * B:
        raise TooManyFailures(failed, B)
    alpha = 1.0 - level
    lo, hi = np.quantile(log_rrs[ok], [alpha / 2, 1 - alpha / 2])
    return RREstimate(
        estimand=point.estimand,
        log_rr=point.log_rr,
        se_log_rr=float(np.std(log_rrs[ok], ddof=1)),
        rr=point.rr,
        ci_low=float(np.exp(lo)),
        ci_high=float(np.exp(hi)),
        method=f"bootstrap({B})",
        level=level,
        extra={"failed_resamples": failed},
    )
