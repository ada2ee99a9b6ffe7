"""Maximum likelihood for the log-binomial model (binomial, log link).

The log link requires exp(x_i beta) <= 1, i.e. x_i beta <= 0, for every
observation.  Two fitters are provided: plain Newton with step halving and
step truncation at the feasibility boundary (the classic approach, which
stalls when the optimum sits on the boundary), and a log-barrier method
that shrinks the barrier weight toward zero.  Both return an
``eecore.FitResult`` with ``variance="model"``: its ``cov_sandwich`` holds
the model-based inverse information, and ``loglik`` the log-likelihood.
Non-convergence is an expected outcome for this model, reported via the
``converged`` flag and ``failure_reason`` rather than an exception.
"""

from __future__ import annotations

import numpy as np

from .design import DesignMatrix, as_matrix
from .eecore import FitResult
from .errors import InfeasiblePoint, NoFeasibleStart, RiskRatioError
from . import eecore

ETA_CAP = -1e-10        # accepted iterates keep max_i x_i beta <= this
BOUNDARY_EPS = 1e-6     # max eta above -BOUNDARY_EPS counts as on-boundary
GRAD_TOL = 1e-8         # per-observation, like the estimating equations
MAX_ITER = 100
MAX_HALVINGS = 30

BARRIER_T_START = 1.0
BARRIER_T_STOP = 1e-8
BARRIER_T_FACTOR = 0.1


def _eta(X, beta):
    return X @ beta


def _check_feasible(eta):
    if np.any(eta > 0):
        raise InfeasiblePoint("some x_i'beta > 0")


def _loglik_eta(y, eta) -> float:
    """Log-likelihood at a feasible linear predictor eta (not checked)."""
    with np.errstate(divide="ignore"):
        log1mexp = np.where(eta < 0, np.log(-np.expm1(np.minimum(eta, -1e-300))), -np.inf)
    return float(np.sum(y * eta + (1 - y) * log1mexp))


def _q(eta):
    """e^eta / (1 - e^eta); d/d eta of log(1 - e^eta) is -q."""
    return np.exp(eta) / (-np.expm1(eta))


def _gradient_q(X, y, ny, q):
    # d/d eta: y - (1-y) e^eta / (1 - e^eta); ny is 1 - y
    return X.T @ (y - ny * q)


def _hessian_q(X, ny, q):
    h = ny * q * (1 + q)   # e^eta/(1-e^eta)^2 = q(1+q)
    return -(X.T * h) @ X


def logbin_loglik(X, y, beta) -> float:
    """sum_i [y_i eta_i + (1 - y_i) log(1 - exp(eta_i))], eta = X beta."""
    eta = _eta(X, beta)
    _check_feasible(eta)
    return _loglik_eta(y, eta)


def logbin_gradient(X, y, beta) -> np.ndarray:
    eta = _eta(X, beta)
    _check_feasible(eta)
    return _gradient_q(X, y, 1 - y, _q(eta))


def logbin_hessian(X, y, beta) -> np.ndarray:
    return _hessian_q(X, 1 - y, _q(_eta(X, beta)))


class _BarrierIterate:
    """What the barrier loop keeps of an accepted, strictly feasible beta:
    eta = X beta, the log-likelihood and the barrier sum(log(-eta)), each
    computed once and reused for every barrier weight t.

    ``ny`` is 1 - y, which the fit computes once.  Since every eta < 0,
    1 - e^eta is positive and the log-likelihood needs none of the guards
    of ``_loglik_eta``.
    """

    __slots__ = ("eta", "ny", "loglik", "logbar")

    def __init__(self, y, eta, ny):
        self.eta = eta
        self.ny = ny
        self.loglik = float(np.sum(y * eta + ny * np.log(-np.expm1(eta))))
        self.logbar = np.sum(np.log(-eta))

    def objective(self, t):
        """loglik + t * sum_i log(-x_i'beta)."""
        return self.loglik + t * self.logbar

    def newton_system(self, X, y, t):
        """Gradient and Hessian of the barrier objective, from one q."""
        eta = self.eta
        q = _q(eta)
        grad = _gradient_q(X, y, self.ny, q) + t * (X.T @ (1.0 / eta))
        hess = _hessian_q(X, self.ny, q) - t * ((X.T * (1.0 / eta**2)) @ X)
        return grad, hess


def _truncate_step(eta, direction_eta, cap=ETA_CAP, frac=1.0):
    """Largest step alpha <= 1 with eta + alpha*direction <= cap everywhere."""
    rising = direction_eta > 0
    room = np.divide(cap - eta, direction_eta, out=np.full_like(eta, np.inf),
                     where=rising)
    return min(1.0, frac * max(room.min(), 0.0))


def feasible_start(X, y) -> np.ndarray:
    """Strictly feasible beta: intercept at log(ybar), or a boundary-shifted
    robust Poisson fit when the design has no plain intercept column."""
    n, p = X.shape
    ybar = float(np.mean(y))
    intercept = np.flatnonzero(np.all(X == 1.0, axis=0))
    if intercept.size and 0.0 < ybar < 1.0:
        beta = np.zeros(p)
        beta[intercept[0]] = np.log(ybar)
        return beta
    if intercept.size:
        beta = np.zeros(p)
        beta[intercept[0]] = np.log(max(min(ybar, 1 - 1.0 / (2 * n)), 1.0 / (2 * n)))
        return beta
    try:
        fit = eecore.fit_robust_poisson(X, y)
        beta = fit.beta.copy()
        shift = np.max(X @ beta) + 0.1
        if shift > 0:
            # shrink toward zero until feasible; works without an intercept
            scale = 1.0
            while np.max(X @ (beta * scale)) > -0.01 and scale > 1e-8:
                scale /= 2.0
            beta = beta * scale
        if np.max(X @ beta) < 0:
            return beta
    except (RiskRatioError, np.linalg.LinAlgError):
        pass
    raise NoFeasibleStart("could not construct a strictly feasible start")


def _arrays(design, y):
    """(X, DesignMatrix or None, y) as floats, a bare array in the layout of
    a built design (``design.as_matrix``); rejects non-finite input, which
    the linear algebra below would otherwise carry along as NaN."""
    X = design.X if isinstance(design, DesignMatrix) else as_matrix(design)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design matrix and outcome must be finite")
    return X, design if isinstance(design, DesignMatrix) else None, y


def _finish(X, y, beta, converged, on_boundary, iterations, reason, dm):
    """The ``FitResult`` at beta, with the inverse information as its
    covariance; a converged fit without a finite one becomes unconverged."""
    try:
        ll = logbin_loglik(X, y, beta)
    except InfeasiblePoint:
        ll = -np.inf
    cov = None
    hess = logbin_hessian(X, y, beta)
    # An inverse of a non-finite matrix can come out finite, so check both.
    if np.all(np.isfinite(hess)):
        try:
            cov = np.linalg.inv(-hess)
        except np.linalg.LinAlgError:
            pass
    if cov is not None and not np.all(np.isfinite(cov)):
        cov = None
    if converged and cov is None:
        converged, reason = False, "non-finite covariance"
    return FitResult(
        beta=beta,
        cov_sandwich=cov,
        converged=converged,
        iterations=iterations,
        variance="model",
        design=dm,
        on_boundary=bool(on_boundary),
        loglik=ll,
        failure_reason=reason,
    )


def fit_logbin_ml(design, y) -> FitResult:
    """Fisher-scoring IRLS for the log-binomial model, GLM style.

    Deliberately mirrors the standard unsafeguarded GLM iteration: the
    weighted least-squares update is unconstrained, and the fit fails the
    moment an iterate lands outside the feasible region (some fitted
    probability reaching 1).  This is the classic failure mode of
    log-binomial maximum likelihood when the optimum is on or near the
    boundary; it is reported via ``converged``/``failure_reason``, never
    raised.  The barrier fitter is the safeguarded alternative.
    """
    X, dm, y = _arrays(design, y)
    n = X.shape[0]
    tol = GRAD_TOL * n
    ny = 1 - y

    # GLM-style start: mu = (y + 1/2)/2, always strictly feasible for 0/1 y
    mu = (y + 0.5) / 2.0
    eta = np.log(mu)
    beta = None
    last_feasible = feasible_start(X, y)

    for it in range(1, MAX_ITER + 1):
        w = mu / (1.0 - mu)          # (dmu/deta)^2 / var for the log link
        z = eta + (y - mu) / mu
        xtw = X.T * w
        xtwx = xtw @ X
        try:
            np.linalg.cholesky(xtwx)    # raises unless positive definite
            beta = np.linalg.solve(xtwx, xtw @ z)
        except np.linalg.LinAlgError:
            return _finish(X, y, last_feasible, False, True, it,
                           "singular weighted least squares", dm)
        eta = X @ beta
        if np.max(eta) >= ETA_CAP:
            # iterate crossed the boundary; the usual algorithm has no
            # recovery, report non-convergence at the last feasible point
            return _finish(X, y, last_feasible, False, True, it,
                           "infeasible iterate", dm)
        mu = np.exp(eta)
        last_feasible = beta
        if np.max(np.abs(_gradient_q(X, y, ny, _q(eta)))) < tol:
            return _finish(X, y, beta, True, np.max(eta) > -BOUNDARY_EPS, it, None, dm)

    return _finish(X, y, last_feasible, False,
                   np.max(_eta(X, last_feasible)) > -BOUNDARY_EPS,
                   MAX_ITER, "iteration cap", dm)


def fit_logbin_barrier(design, y) -> FitResult:
    """Log-barrier maximization of the log-binomial likelihood.

    Maximizes loglik(beta) + t * sum_i log(-x_i'beta) for a decreasing
    schedule of t, warm-starting each stage; iterates stay strictly
    feasible, so the method handles boundary optima that defeat plain
    Newton.  Each accepted iterate keeps eta, its log-likelihood and its
    barrier sum (``_BarrierIterate``): the Newton system and the objective
    at the current beta, also at the start of a new stage, come from that
    state, and each step-halving candidate costs one X @ beta.
    """
    X, dm, y = _arrays(design, y)
    n = X.shape[0]
    beta = feasible_start(X, y)
    eta = _eta(X, beta)
    _check_feasible(eta)
    ny = 1 - y
    state = _BarrierIterate(y, eta, ny)
    total_iter = 0

    t = BARRIER_T_START
    while t >= BARRIER_T_STOP * 0.999:
        for _ in range(MAX_ITER):
            total_iter += 1
            grad, hess = state.newton_system(X, y, t)
            # Only a step that raises the finite barrier objective is taken,
            # so even a direction from a non-finite system is safe to try.
            try:
                np.linalg.cholesky(-hess)   # raises unless positive definite
                delta = np.linalg.solve(-hess, grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(-hess, grad, rcond=None)[0]
            alpha = _truncate_step(state.eta, X @ delta, cap=0.0, frac=0.99)
            if alpha <= 1e-16:
                break
            obj = state.objective(t)
            accepted = False
            for _ in range(MAX_HALVINGS + 1):
                candidate = beta + alpha * delta
                eta_c = _eta(X, candidate)
                if np.max(eta_c) >= 0:
                    alpha /= 2.0
                    continue
                new_state = _BarrierIterate(y, eta_c, ny)
                if new_state.objective(t) >= obj - 1e-12:
                    accepted = True
                    break
                alpha /= 2.0
            if not accepted:
                break
            step = np.max(np.abs(alpha * delta))
            beta, state = candidate, new_state
            if step < 1e-12 or np.max(np.abs(grad)) < GRAD_TOL * n:
                break
        t *= BARRIER_T_FACTOR

    eta = state.eta
    on_boundary = np.max(eta) > -BOUNDARY_EPS * 10
    grad = _gradient_q(X, y, ny, _q(eta))
    converged = bool(np.max(np.abs(grad)) < 1e-4 * n or on_boundary)
    reason = None if converged else "barrier did not reach stationarity"
    return _finish(X, y, beta, converged, on_boundary, total_iter, reason, dm)
