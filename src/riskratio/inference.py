"""Fitting by method name, and risk-ratio estimands and intervals.

``FIT_METHODS`` holds one record per method name (``FitMethod``): its
one-design fitter, its stacked fitter and whether it takes a start.  The
CLI and the bootstrap fit through the record's ``fit``; the study runner
through ``fit_each``, which fits many designs at once through its
``fit_stack`` and turns each fit's raised error into an entry of its list
(``eecore._captured``).  Every method shares the input rules of
``eecore._in_stacks``.

Two estimands: the exponentiated coefficient (conditional RR from the
log-linear model) and the standardized marginal RR obtained by averaging
model-predicted risks over the estimation sample with the exposure forced
to each level (g-computation).  Intervals are Wald on the log scale, with
the delta method for the standardized estimand, plus a percentile
bootstrap cross-check.

``marginal_rr_stack`` standardizes many fits at once, as a study does for
a block of replications: fits whose designs share a shape are one
B x p x n stack, copied a row block at a time (``design.row_blocks``),
with the exposure terms rewritten per level, then one batched ``matmul``
each for the linear predictors and the gradients, and one for g' Sigma g.
Each batch runs the BLAS call one design makes, so every estimate equals
its one-fit value bit for bit; ``marginal_rr`` is the stack-of-one case.
For n <= one block the numbers are as before; above it, the blocks' sums
are added in row order.  A row whose linear predictor would overflow
exp() gets ``NonFiniteStandardization`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from statistics import NormalDist
from typing import Callable, NamedTuple

import numpy as np

from .data import Dataset
from .design import (
    DesignMatrix, force_exposure, realize, row_blocks, shape_key, stacked,
)
from .eecore import ETA_MAX, FitResult, _captured, _fit_stack, _in_stacks, fit_robust_poisson
from .errors import (
    FitFailed,
    NonFiniteStandardization,
    RiskRatioError,
    TooManyFailures,
)
from .logbin import _barrier_stack, fit_logbin_barrier, fit_logbin_ml
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
    """A fit as its fitter returned it, if it converged (a log-binomial fit
    without a covariance never has); an unconverged fit raises
    ``FitFailed``, and an exception in place of a fit is raised."""
    if isinstance(fit, Exception):
        raise fit
    if not fit.converged:
        raise FitFailed(
            f"{method} failed: {fit.failure_reason or 'non-convergence'} "
            f"(iterations={fit.iterations}, on_boundary={fit.on_boundary})"
        )
    return fit


class FitMethod(NamedTuple):
    """What the package knows of one fit method.

    ``fit(design, y)`` fits one design: a converged ``FitResult``, or it
    raises (``FitFailed`` for an unconverged log-binomial fit).
    ``fit_stack(designs, ys)`` fits many: one raw ``FitResult`` or
    exception per design, each what the method's one-design fitter returns
    or raises on it alone.  ``warm`` is True where ``fit`` takes
    ``start=``, p coefficients to start from (robust Poisson).  A design
    resample's rows are rows of the sample, so the sample's estimate is
    finite and below ``ETA_MAX`` on each of them, and each resample starts
    near its own root: fewer Newton iterations than from
    ``_initial_beta``, with the same estimates to within the convergence
    tolerances.  A resample without a finite root fails from either start.

    ``fit`` calls the method's one-design fitter rather than ``fit_stack``
    on a stack of one, and ``logbin-ml``'s ``fit_stack`` calls it per
    design.  Each looks the fitter up when called, so a module attribute
    replaced after import is the one that runs: bench/tracer.py counts
    one-design fits and their Newton iterations that way.
    """

    fit: Callable
    fit_stack: Callable
    warm: bool = False


FIT_METHODS = {
    "robust-poisson": FitMethod(
        lambda design, y, **start: fit_robust_poisson(design, y, **start),
        partial(_in_stacks, _fit_stack), warm=True),
    "logbin-ml": FitMethod(
        lambda design, y: _usable("logbin-ml", fit_logbin_ml(design, y)),
        lambda designs, ys: [_captured(fit_logbin_ml, design, y)
                             for design, y in zip(designs, ys)]),
    "logbin-ab": FitMethod(
        lambda design, y: _usable("logbin-ab", fit_logbin_barrier(design, y)),
        partial(_in_stacks, _barrier_stack)),
}
DEFAULT_METHOD = "robust-poisson"


def fit_each(method: str, designs, ys) -> list:
    """Fit each design with its outcome by method name.

    Returns, per design, its ``FitResult`` or the ``RiskRatioError`` or
    ``LinAlgError`` its fit raised; each entry is what
    ``FIT_METHODS[method].fit(design, y)`` returns or raises, ``FitFailed``
    for an unconverged log-binomial fit included, fitted through the
    method's ``fit_stack``.  Input that breaks the fitters' input rules
    raises ``ValueError``, as the fitters do (``eecore._in_stacks``).
    """
    return [_captured(_usable, method, f) for f in FIT_METHODS[method].fit_stack(designs, ys)]


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
    after ``fit.variance``.  An unconverged fit raises ``FitFailed``
    naming its ``failure_reason``."""
    _usable("fit", fit)
    return _wald(f"coefficient[{j}]", float(fit.beta[j]), fit.cov_sandwich[j, j],
                 f"wald-{fit.variance}", level)


def _standardized_stack(designs, betas, datas, levels) -> list:
    """Mean fitted risk with the exposure forced to each level a, plus the
    gradient of its log w.r.t. beta, for each design of a stack: per
    level, (means, gradients B x p, overflow flags).

    Either the designs share a ``shape_key`` and each is standardized over
    its own data, or there is one design with any data of its columns, the
    exposure's not needed.  The work runs a row block at a time
    (``design.row_blocks``): the block's stack is built once, a copy of the
    designs' rows or a ``realize`` on the other data's, and each level then
    rewrites only its exposure terms and adds the block's sum of exp(eta)
    and of S * exp(eta) to its totals.  ``betas`` is B x p x 1.  A row
    whose linear predictor would overflow exp() is flagged, and its numbers
    mean nothing.  For n <= one block the numbers are those of the whole
    stack bit for bit; above it, the blocks are summed in row order.
    """
    design, data = designs[0], datas[0]
    # a forced column is checked like any other (finite, of the data's size)
    forced = [data.with_column(design.exposure, np.full(data.n, a)) for a in levels]
    sums = [None] * len(levels)
    for rows in row_blocks(data.n):
        block = [d.rows(rows) for d in datas]
        S = (np.stack([d.X.T[:, rows] for d in designs]) if data is design.data
             else realize(design, forced[0].rows(rows)).T[None])
        for k, level in enumerate(forced):
            # Gives realize()'s matrix at this level bit for bit.
            force_exposure(S, designs, block, level.column(design.exposure)[rows])
            eta = S.swapaxes(1, 2) @ betas
            over = (eta > ETA_MAX).any(axis=(1, 2))
            if over.any():
                eta[over] = 0.0
            mu = np.exp(eta)
            part = (mu[:, :, 0].sum(axis=1), (S @ mu)[:, :, 0], over)
            if sums[k] is None:
                sums[k] = part
            else:
                total, weighted, flagged = sums[k]
                total += part[0]
                weighted += part[1]
                flagged |= part[2]
    return [(total / data.n, weighted / total[:, None], over)
            for total, weighted, over in sums]


def marginal_rr(
    fit: FitResult, data: Dataset, a1: float = 1.0, a0: float = 0.0,
    level: float = 0.95,
) -> RREstimate:
    """Standardized (marginal) RR with a delta-method interval from the
    fit's covariance.

    RR = mean_i exp(x_i(a1) beta) / mean_i exp(x_i(a0) beta), forcing the
    exposure to a1 / a0 while covariates keep their observed values.
    This is the one-fit case of ``marginal_rr_stack``: an unconverged fit
    raises ``FitFailed`` naming its ``failure_reason``.
    """
    (est,) = marginal_rr_stack([fit], [data], a1, a0, level)
    if isinstance(est, Exception):
        raise est
    return est


def marginal_rr_stack(fits, datas, a1: float = 1.0, a0: float = 0.0,
                      level: float = 0.95) -> list:
    """``marginal_rr`` of each (fit, data) pair, standardized as stacks.

    Fits whose designs share a ``shape_key`` and are standardized over the
    data they were built on form one stack: per row block, one copy of the
    designs' rows, and per exposure level a rewrite of its exposure terms,
    one batched product for the linear predictors and one for the
    gradients; then one batched g' Sigma g.  Any other pair is a stack of
    its own.  Returns one entry per pair, in order: its ``RREstimate``, or
    the ``RiskRatioError`` (``FitFailed`` for an unconverged fit,
    ``NonFiniteStandardization`` where exp() would overflow) that
    ``marginal_rr`` raises on it alone; bit for bit the one-fit values
    either way.  A fit without a design or exposure raises ``ValueError``.
    """
    if any(f.design is None or f.design.exposure is None for f in fits):
        raise ValueError("fit carries no design/exposure; cannot standardize")
    out = [None] * len(fits)
    stacks: dict = {}
    for i, (fit, data) in enumerate(zip(fits, datas)):
        if not fit.converged:
            out[i] = _captured(_usable, "fit", fit)
            continue
        key = shape_key(fit.design) if data is fit.design.data else i
        stacks.setdefault(key, []).append(i)
    for idx in stacks.values():
        fs, ds = [fits[i] for i in idx], [datas[i] for i in idx]
        designs = [f.design for f in fs]
        betas = stacked([f.beta for f in fs])[:, :, None]
        try:
            (m1, g1, over1), (m0, g0, over0) = _standardized_stack(
                designs, betas, ds, (a1, a0))
        except RiskRatioError as exc:
            for i in idx:
                out[i] = exc
            continue
        log_rr = (np.log(m1) - np.log(m0)).tolist()
        g = (g1 - g0)[:, None, :]
        var = (g @ stacked([f.cov_sandwich for f in fs]) @ g.swapaxes(1, 2))[:, 0, 0]
        for k, i in enumerate(idx):
            out[i] = (NonFiniteStandardization("exp overflow during standardization")
                      if over1[k] or over0[k] else
                      _wald(f"marginal[{a1:g} vs {a0:g}]", log_rr[k], var[k],
                            "delta", level))
    return out


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
    counts as failed.  ``fit`` is the caller's fit of the full sample:
    the point estimate is ``estimand(fit, sample)``, without a refit.
    ``fitter`` may start each resample's fit from ``fit``, as the CLI does
    where the method is ``warm`` (``FitMethod``); the resample estimates
    then agree with cold-started ones to within the fitter's convergence
    tolerances, in practice in the last bits.  Deterministic given
    ``seed``; resamples are aggregated in resample-index order.  More
    than 20% failed re-fits raises ``TooManyFailures``.
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
