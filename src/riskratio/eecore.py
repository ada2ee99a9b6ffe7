"""Semiparametric log-linear estimating equations and sandwich covariance.

Fits log E[Y|X] = X beta by solving sum_i x_i (y_i - exp(x_i beta)) = 0,
the score equations of a Poisson regression -- but no outcome
distribution is assumed.  The covariance is the sandwich B^{-1} W B^{-T}
with bread B = sum_i x_i x_i' mu_i and meat
W = sum_i x_i (y_i - mu_i)^2 x_i', which is valid under arbitrary
misspecification of the outcome distribution as long as the log-linear
mean model holds.

The Newton loop keeps one state per accepted iterate, its fitted means
mu = exp(X beta), and passes it to ``ee_jacobian``, ``ee_score`` and
``sandwich_covariance`` through their ``mu=`` argument.  Conditioning of
the Jacobian is checked where a Newton solve fails and once on the final
Jacobian, not on every iteration; that final Jacobian is the negated
bread, so the sandwich takes it through ``jac=`` instead of forming the
bread again.  Data without a finite root, such as an outcome that is 0 on
every row, are caught before iterating, from the column ranges a
``DesignMatrix`` keeps (``DesignMatrix.column_ranges``).

The score, Jacobian and sandwich products have the form ``X.T * w`` or
``X.T @ v``.  A built design's ``X`` is column-major (see ``design``), so
``X.T`` is contiguous and these products read contiguous memory;
``fit_robust_poisson`` converts a bare array to the same layout once
(``design.as_matrix``), so its Newton loop sees one layout whatever it is
given.

``FitResult`` is the result type of every fitter in the package, the
log-binomial ones in ``logbin`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import DesignMatrix, as_matrix, column_ranges
from .errors import (
    DataError,
    NoFiniteSolution,
    NonConvergence,
    Overflow,
    SingularBread,
    SingularJacobian,
)

# Linear predictors beyond this overflow exp(); iterates are step-halved
# away from this region rather than clamped.
ETA_MAX = 700.0

SCORE_TOL = 1e-8     # per-observation: converged when ||score||_inf < tol * n
STEP_TOL = 1e-10
MAX_ITER = 100
MAX_HALVINGS = 30
COND_MAX = 1e12


@dataclass
class FitResult:
    """A fitted log-linear risk model: coefficients, their covariance and
    diagnostics.  Every fitter returns one.

    ``cov_sandwich`` is the coefficient covariance of the kind named by
    ``variance``: the sandwich (``"sandwich"``, robust Poisson) or the
    model-based inverse information (``"model"``, log-binomial ML); it is
    None when that covariance could not be formed.  ``converged`` is False
    only on a log-binomial fit returned straight from its fitter, which
    then names the cause in ``failure_reason``: ``fit_robust_poisson``
    raises rather than return an unconverged fit, and ``FIT_METHODS``
    raises ``FitFailed`` for an unconverged log-binomial one.
    ``on_boundary`` marks a log-binomial optimum with some fitted risk at 1,
    and ``loglik`` is the log-binomial log-likelihood at ``beta``.  The
    fields from ``max_abs_score`` on are computed by ``fit_robust_poisson``
    alone; other fitters leave their defaults.
    """

    beta: np.ndarray
    cov_sandwich: np.ndarray | None
    converged: bool
    iterations: int
    variance: str = "sandwich"
    design: DesignMatrix | None = field(default=None, repr=False)
    on_boundary: bool = False
    loglik: float | None = None
    failure_reason: str | None = None
    max_abs_score: float | None = None
    mu_hat: np.ndarray | None = None
    n_mu_gt1: int | None = None
    condition_estimate: float | None = None


def _mu(X, beta):
    eta = X @ beta
    if (eta > ETA_MAX).any():
        raise Overflow("linear predictor overflow")
    return np.exp(eta)


def ee_score(X, y, beta, mu=None) -> np.ndarray:
    """Estimating function sum_i x_i (y_i - exp(x_i beta)).

    ``mu`` is exp(X beta) when the caller has it already.
    """
    mu = _mu(X, beta) if mu is None else mu
    return X.T @ (y - mu)


def ee_jacobian(X, y, beta, mu=None) -> np.ndarray:
    """Derivative of the score w.r.t. beta: -sum_i x_i x_i' exp(x_i beta).

    ``mu`` is exp(X beta) when the caller has it already.
    """
    mu = _mu(X, beta) if mu is None else mu
    return -((X.T * mu) @ X)


def _initial_beta(X, y):
    """Zeros except an intercept at log(max(ybar, 1/(2n)))."""
    n, p = X.shape
    beta = np.zeros(p)
    # Only a column that is 1 on the first row can be all ones.
    for j in np.flatnonzero(X[0] == 1.0):
        if np.all(X[:, j] == 1.0):
            beta[j] = np.log(max(y.mean(), 1.0 / (2 * n)))
            break
    return beta


def _check_finite_solution(X, y, labels=None, ranges=None):
    """Raise ``NoFiniteSolution`` when the score equations X'(y - mu) = 0
    have no finite root.

    A column c = X d that is >= 0 everywhere, > 0 somewhere and 0 on every
    row with y != 0 is a recession direction: along beta - s d the score's
    component d'X'(y - mu) = -c'mu stays negative, so no beta solves the
    equations.  An exposure stratum without events and an outcome without
    events are such cases.  Tried: c = x_j and c = -x_j for every column
    and, when X has an intercept, c = 1 - x_j.  ``ranges`` is X's column
    (min, max) when the caller has it already.
    """
    def name(j):
        return labels[j] if labels is not None else f"column {j}"

    events = y != 0
    n_events = np.count_nonzero(events)
    on_events = events.astype(float) @ X   # exact for one-signed columns
    lo, hi = column_ranges(X) if ranges is None else ranges
    one_signed = ((lo >= 0) & (hi > 0)) | ((hi <= 0) & (lo < 0))
    zero = np.flatnonzero(one_signed & (on_events == 0))
    if zero.size:
        j = zero[0]
        where = "on every row" if lo[j] == hi[j] else f"wherever {name(j)} != 0"
        raise NoFiniteSolution(f"no finite solution: the outcome is 0 {where}")
    if np.any((lo == 1) & (hi == 1)):
        for j in np.flatnonzero((hi <= 1) & (lo < 1) & (on_events == n_events)):
            if np.all(X[events, j] == 1):
                raise NoFiniteSolution(
                    f"no finite solution: the outcome is 0 wherever "
                    f"{name(j)} != 1"
                )


def _check_conditioning(jac) -> float:
    """cond(-J); raises ``SingularJacobian`` unless finite and <= COND_MAX."""
    cond = float(np.linalg.cond(-jac))
    if not np.isfinite(cond) or cond > COND_MAX:
        raise SingularJacobian(cond)
    return cond


def fit_robust_poisson(design: DesignMatrix | np.ndarray, y) -> FitResult:
    """Solve the log-linear estimating equations by damped Newton and
    attach the sandwich.

    ``design`` is a ``DesignMatrix`` or a bare n x p array, which is
    converted once to the column-major layout of a built design.
    A design with more columns than rows raises ``DataError``; data for
    which no finite root exists (see ``_check_finite_solution``), an
    outcome that is 0 on every row among them, raise ``NoFiniteSolution``
    before iterating.  A fit that does not converge raises
    ``NonConvergence``, so the result always has ``converged`` set.

    Each accepted iterate keeps its fitted means mu = exp(X beta), computed
    once for the step-halving score and reused by the next Jacobian and,
    at the solution, by ``mu_hat``, the final Jacobian and the sandwich,
    which takes its bread from that Jacobian.
    Conditioning, cond(-J), is checked only where a Newton solve fails
    (``LinAlgError`` or a non-finite step) and on the final Jacobian, whose
    value is ``condition_estimate``; above ``COND_MAX`` it raises
    ``SingularJacobian``.
    """
    if isinstance(design, DesignMatrix):
        X, dm = design.X, design
    else:
        X, dm = as_matrix(design), None
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if p > n:
        raise DataError(f"p={p} parameters with only n={n} observations")

    if dm is not None:
        _check_finite_solution(X, y, dm.labels, dm.column_ranges)
    else:
        _check_finite_solution(X, y)

    beta = _initial_beta(X, y)
    tol = SCORE_TOL * n
    iterations = 0
    converged = False
    mu = _mu(X, beta)
    score = ee_score(X, y, beta, mu=mu)

    for iterations in range(1, MAX_ITER + 1):
        jac = ee_jacobian(X, y, beta, mu=mu)
        try:
            delta = np.linalg.solve(-jac, score)
        except np.linalg.LinAlgError:
            raise SingularJacobian(float(np.linalg.cond(-jac))) from None
        if not np.isfinite(delta).all():
            _check_conditioning(jac)

        # Step halving: accept the first step that reduces ||score||_inf
        # (or keeps the linear predictor finite).  An overflowing candidate
        # still goes through ee_score, which raises Overflow for it.
        norm0 = np.abs(score).max()
        step = 1.0
        for _ in range(MAX_HALVINGS + 1):
            candidate = beta + step * delta
            eta = X @ candidate
            mu = None if (eta > ETA_MAX).any() else np.exp(eta)
            try:
                new_score = ee_score(X, y, candidate, mu=mu)
            except Overflow:
                step /= 2.0
                continue
            if np.abs(new_score).max() < norm0 or norm0 < tol:
                break
            step /= 2.0
        else:
            raise Overflow("step halving exhausted without progress")

        beta = candidate
        score = new_score
        if np.abs(score).max() < tol and np.abs(step * delta).max() < STEP_TOL:
            converged = True
            break

    max_abs_score = float(np.abs(score).max())
    if not converged:
        raise NonConvergence(iterations, max_abs_score)

    jac = ee_jacobian(X, y, beta, mu=mu)
    cond = _check_conditioning(jac)
    cov = sandwich_covariance(X, y, beta, mu=mu, jac=jac)
    return FitResult(
        beta=beta,
        cov_sandwich=cov,
        converged=True,
        iterations=iterations,
        max_abs_score=max_abs_score,
        mu_hat=mu,
        n_mu_gt1=int(np.sum(mu > 1.0)),
        condition_estimate=cond,
        design=dm,
    )


def sandwich_covariance(X, y, beta, mu=None, jac=None) -> np.ndarray:
    """Robust covariance B^{-1} W B^{-T} of the coefficient estimates.

    B = sum_i x_i x_i' mu_i (bread), W = sum_i x_i r_i^2 x_i' (meat) with
    residual r_i = y_i - mu_i.  Symmetrized after assembly.  ``mu`` is
    exp(X beta) and ``jac`` is ``ee_jacobian`` at beta when the caller has
    them already; the bread is then -jac, the same matrix bit for bit,
    since negation is exact.
    """
    X = X.X if isinstance(X, DesignMatrix) else np.asarray(X, float)
    mu = _mu(X, beta) if mu is None else mu
    r = y - mu
    bread = (X.T * mu) @ X if jac is None else -jac
    meat = (X.T * r**2) @ X
    try:
        binv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise SingularBread("bread matrix not invertible") from None
    cov = binv @ meat @ binv.T
    return (cov + cov.T) / 2.0

