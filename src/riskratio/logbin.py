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

One barrier loop fits a stack of equal-shape designs at once
(``_barrier_stack``, through ``eecore._in_stacks``; the barrier's
``fit_stack`` in ``inference.FIT_METHODS``); ``fit_logbin_barrier`` is
its one-design case, a view of its ``X``.  The stack has the layout of
``eecore``'s (designs' ``X.T`` in one C-contiguous array, vectors as
B x n x 1 columns), so every ``np.matmul`` and LAPACK call serves all its
designs and each design's fit equals its one-design fit bit for bit.  Each
design keeps its own barrier weight, stage and iterate, the iterate as a
row of plain arrays, as robust Poisson's loop keeps its own; per-row masks
decide step truncation and the end of a stage or of the fit.  The barrier
weight falls by a factor of 0.01 per stage, from 1 to 1e-8: five stages
(``_STAGE_T``).  The last stage runs until the gradient or the step is
small; each stage before it ends sooner, after the first step taken where
half the Newton decrement g'(-H)^-1 g is at most ``CENTER_TOL``, since the
next stage moves the center at once (Boyd & Vandenberghe 2004, 11.3.3).
Each Newton system is one weighted product of the stack,
(X.T * w) @ X with one weight per observation for the likelihood and the
barrier together.  That product, the Hessian of ``logbin_hessian`` and the
ML fitter's weighted least squares run over blocks of at most
``design.BLOCK_ROWS`` rows (``eecore._gram``): groups of whole designs,
each as before, for n <= one block; above it, row blocks summed in row
order.  The loop hands back its fits as robust Poisson's does: a design
that ends its last stage is finished in the loop and leaves the stack,
and the loop returns {row: FitResult or exception}.  The frame around
the loop is robust Poisson's too (``eecore._from_starts``): a design whose
``feasible_start`` raises ``NoFeasibleStart`` has that error as its
entry, and the others share one loop.  Step halving is robust Poisson's
(``eecore._step_search``) with the barrier's acceptance test, which
judges a candidate by its barrier objective; the loop forms the current
objective from its iterate at the top of each iteration.  The ML fitter
stays one design at a time: it fails fast, and costs little.  Both
fitters take their input through ``eecore._in_stacks``, the ML fitter as
a stack of one, so they accept and reject input exactly as robust
Poisson does.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .eecore import (
    MAX_HALVINGS, FitResult, _alone, _by_row, _captured, _from_starts, _gram, _ones,
    _rows, _step_search, _t, _without,
)
from .errors import InfeasiblePoint, NoFeasibleStart
from . import eecore

ETA_CAP = -1e-10        # accepted iterates keep max_i x_i beta <= this
BOUNDARY_EPS = 1e-6     # max eta above -BOUNDARY_EPS counts as on-boundary
GRAD_TOL = 1e-8         # per-observation, like the estimating equations
MAX_ITER = 100
# A barrier stage before the last ends after a step taken where half the
# Newton decrement, lambda^2 / 2 = g'(-H)^-1 g / 2, is at most this.
CENTER_TOL = 1e-2
# MAX_HALVINGS is eecore's: both loops share its step search.

BARRIER_T_FACTOR = 0.01
# The barrier weight of each stage: 1, times BARRIER_T_FACTOR per stage.
_STAGE_T = np.cumprod([1.0] + [BARRIER_T_FACTOR] * 4)


def _check_feasible(eta):
    if np.any(eta > 0):
        raise InfeasiblePoint("some x_i'beta > 0")


def _loglik_eta(y, eta) -> float:
    """Log-likelihood at a feasible linear predictor eta (not checked)."""
    with np.errstate(divide="ignore"):
        log1mexp = np.where(eta < 0, np.log(-np.expm1(np.minimum(eta, -1e-300))), -np.inf)
    return float(np.sum(y * eta + (1 - y) * log1mexp))


def _q(eta, s):
    """e^eta / (1 - e^eta) from s = -expm1(eta) = 1 - e^eta; d/d eta of
    log(1 - e^eta) is -q."""
    return np.exp(eta) / s


def _gradient_q(X, y, nyq):
    # d/d eta: y - (1-y) e^eta / (1 - e^eta); nyq is (1 - y) q
    return _t(X) @ (y - nyq)


def logbin_loglik(X, y, beta) -> float:
    """sum_i [y_i eta_i + (1 - y_i) log(1 - exp(eta_i))], eta = X beta."""
    eta = X @ beta
    _check_feasible(eta)
    return _loglik_eta(y, eta)


def logbin_gradient(X, y, beta) -> np.ndarray:
    eta = X @ beta
    _check_feasible(eta)
    return _gradient_q(X, y, (1 - y) * _q(eta, -np.expm1(eta)))


def logbin_hessian(X, y, beta) -> np.ndarray:
    # -(X.T * h) @ X with h = (1 - y) e^eta/(1-e^eta)^2 = (1 - y) q (1 + q).
    # Negation is exact, so X.T * ((1 - y) q (-1 - q)) is -(X.T * h) bit
    # for bit, without negating a p x n matrix.
    eta = X @ beta
    q = _q(eta, -np.expm1(eta))
    return _gram(X, (1 - y) * q * (-1 - q))


def _iterate(y, ny, eta):
    """The arrays the barrier loop keeps of accepted, strictly feasible
    betas of a stack, from their eta = X beta (B x n x 1): eta,
    s = 1 - e^eta, and per design the log-likelihood and the barrier
    sum(log(-eta)), each computed once and reused for every barrier weight
    t.  ``s`` is -expm1(eta), which the log-likelihood needs and which is
    the denominator of every q = e^eta / (1 - e^eta) at this iterate.
    ``ny`` is 1 - y, which the fit computes once.  Since every eta < 0, s
    is positive and the log-likelihood needs none of the guards of
    ``_loglik_eta``.
    """
    s = -np.expm1(eta)
    return (eta, s, (y * eta + ny * np.log(s)).sum(axis=(1, 2)),
            np.log(-eta).sum(axis=(1, 2)))


def _newton_system(X, y, ny, eta, s, t):
    """Gradient and Hessian of the barrier objective at eta of a stack,
    from one q; ``s`` is -expm1(eta), ``ny`` is 1 - y and ``t`` is
    B x 1 x 1.

    The Hessian is one weighted product, (X.T * w) @ X with
    w = -(1 - y) q (1 + q) - t / eta**2.  It equals ``logbin_hessian``
    minus t (X.T / eta**2) @ X up to rounding, not bit for bit: the sum
    over observations is taken once."""
    q = _q(eta, s)
    nyq = ny * q
    inv = 1.0 / eta
    grad = _gradient_q(X, y, nyq) + t * (_t(X) @ inv)
    hess = _gram(X, nyq * (-1 - q) - t * inv * inv)
    return grad, hess


def _truncate_step(eta, fall):
    """Per design of a stack (B x 1 x 1), the largest step alpha <= 1 with
    eta - alpha*fall <= 0 everywhere, times 0.99; ``fall`` is X @ -delta,
    -(X @ delta) bit for bit, so eta / fall is (-eta) / (X @ delta) bit
    for bit where X @ delta > 0."""
    rising = fall < 0
    room = np.where(rising, eta, -np.inf) / np.where(rising, fall, -1.0)
    # min(1.0, 0.99 * max(lowest, 0.0)) per row; every room is eta <= 0
    # over fall < 0, so never below 0 nor NaN, and the max is idle.
    return np.minimum(0.99 * room.min(axis=(1, 2), keepdims=True), 1.0)


def feasible_start(X, y, ranges) -> np.ndarray:
    """Strictly feasible beta: intercept at log(ybar), or a boundary-shifted
    robust Poisson fit when the design has no plain intercept column.
    ``ranges`` are X's column minima and maxima (``design.column_ranges``),
    which tell its intercepts."""
    n, p = X.shape
    ybar = float(np.mean(y))
    ones = _ones(*ranges)
    if ones.any():
        beta = np.zeros(p)
        if not 0.0 < ybar < 1.0:
            ybar = max(min(ybar, 1 - 1.0 / (2 * n)), 1.0 / (2 * n))
        beta[ones.argmax()] = np.log(ybar)
        return beta
    fit = _captured(eecore.fit_robust_poisson, X, y)
    if not isinstance(fit, Exception):
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
    raise NoFeasibleStart("could not construct a strictly feasible start")


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
    raised.  The barrier fitter is the safeguarded alternative.  Input is
    taken as by every fitter (``eecore._in_stacks``), as a stack of one.
    """
    return _alone(lambda members, Xt, y, ranges: [_ml(*m, r) for m, r in zip(members, ranges)],
                  design, y)


def _ml(X, dm, y, ranges) -> FitResult:
    """``fit_logbin_ml`` of one design, past the input rules; ``ranges``
    are its column minima and maxima."""
    n = X.shape[0]
    tol = GRAD_TOL * n
    ny = 1 - y

    # GLM-style start: mu = (y + 1/2)/2, always strictly feasible for 0/1 y
    mu = (y + 0.5) / 2.0
    eta = np.log(mu)
    beta = None
    last_feasible = feasible_start(X, y, ranges)

    for it in range(1, MAX_ITER + 1):
        w = mu / (1.0 - mu)          # (dmu/deta)^2 / var for the log link
        z = eta + (y - mu) / mu
        xtwx, xtwz = _gram(X, w, z)
        try:
            np.linalg.cholesky(xtwx)    # raises unless positive definite
            beta = np.linalg.solve(xtwx, xtwz)
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
        if np.max(np.abs(_gradient_q(X, y, ny * _q(eta, -np.expm1(eta))))) < tol:
            return _finish(X, y, beta, True, np.max(eta) > -BOUNDARY_EPS, it, None, dm)

    return _finish(X, y, last_feasible, False,
                   np.max(X @ last_feasible) > -BOUNDARY_EPS,
                   MAX_ITER, "iteration cap", dm)


def fit_logbin_barrier(design, y) -> FitResult:
    """Log-barrier maximization of the log-binomial likelihood.

    Maximizes loglik(beta) + t * sum_i log(-x_i'beta) for a decreasing
    schedule of t, warm-starting each stage; iterates stay strictly
    feasible, so the method handles boundary optima that defeat plain
    Newton.  The schedule has five stages, t = 1, 1e-2, 1e-4, 1e-6 and
    1e-8 (``BARRIER_T_FACTOR`` = 0.01).  Each stage takes damped Newton
    steps, truncated to 99% of the way to the boundary and halved until
    the barrier objective does not fall.  The last stage ends when the
    gradient falls below 1e-8 * n or the step below 1e-12; a stage before
    it also ends after a step taken where half the Newton decrement
    g'(-H)^-1 g is at most ``CENTER_TOL``.  Each accepted iterate keeps eta,
    1 - e^eta, its log-likelihood and its barrier sum (``_iterate``), so
    the Newton system and the objective come from those arrays and each
    halving costs one X @ beta.  The Newton system's Hessian is one
    weighted product of X, one weight per observation for the likelihood
    and the barrier together.

    This is the one-design case of the stacked loop (``_barrier_stack``):
    the design is a stack of one, a view of its ``X``, not a copy.  A
    ``RiskRatioError`` (no feasible start) or a ``LinAlgError`` of the fit
    is raised.

    ``converged`` is set when the last stage ends at a boundary point
    (some eta above -10 * BOUNDARY_EPS, ``on_boundary`` set) or at a
    stationary interior point (log-likelihood gradient below 1e-4 * n);
    otherwise, or without a finite inverse information, the fit is
    returned unconverged with its ``failure_reason``.  A converged
    boundary fit is usable, but a study counts it as failed, and
    ``riskratio fit`` reports it with the warning ``on_boundary``.
    """
    return _alone(_barrier_stack, design, y)


def _barrier_stack(members, Xt, y, ranges) -> list:
    """The barrier method on one group of ``eecore._in_stacks``: each
    design starts from its own ``feasible_start``, and the designs that
    have one share one barrier loop (``_barrier``, through
    ``eecore._from_starts``), from the column ranges ``_in_stacks``
    holds."""
    return _from_starts(lambda data, beta, dms: _barrier(*data, beta, dms), (Xt, y),
                        [_captured(feasible_start, X, y1, r)
                         for (X, _, y1), r in zip(members, ranges)],
                        [dm for _, dm, _ in members])


def _barrier(Xt, y, beta, dms) -> dict:
    """The barrier stages of a stack from the starting points ``beta``;
    ``dms`` holds each row's ``DesignMatrix`` or None.  A row whose start
    is not strictly feasible gets ``InfeasiblePoint`` before the first
    step.

    Each design runs its own schedule: it keeps its stage (so its barrier
    weight t), the iteration its stage began after, and its iterate: beta
    and the arrays of ``_iterate``, plain arrays with one row per design,
    as ``eecore._newton`` keeps (beta, mu, score, norm).  Its objective,
    loglik + t * logbar, is formed from them at the top of each iteration.
    ``ny`` = 1 - y is a constant of the design, gathered with y.  Every
    design in the stack has run as many Newton iterations as the loop, so
    that count is its total.  After every iteration, one mask test per
    design ends its stage when its step truncates to nothing, when no
    halved step is accepted, when its step or its gradient is small, or
    after MAX_ITER iterations in the stage; a stage before the last also
    ends when the step was taken where half the Newton decrement grad'delta
    is at most ``CENTER_TOL`` (not for a step from lstsq, whose -H is not
    positive definite).

    Returns {row: FitResult or exception}; rows are positions in the given
    stack.  A design that ends its last stage is finished there, from the
    iterate the loop kept: it is on the boundary when some eta is above
    -10 * BOUNDARY_EPS, and converged there or where the gradient of its
    log-likelihood is below 1e-4 * n.  A design whose lstsq raises keeps
    that ``LinAlgError``.  Finished and failed designs leave the stack,
    which is then gathered anew from ``Xt``.
    """
    rows = np.arange(len(Xt))
    out = {}
    # A ``feasible_start`` has every x_i beta < 0; another start may not,
    # and that row fails here.
    eta = _t(Xt) @ beta
    if (eta > 0).any():
        infeasible = (eta > 0).any(axis=(1, 2))
        out = {r: InfeasiblePoint("some x_i'beta > 0") for r in rows[infeasible]}
        Xt, y, beta, eta, rows = (a[~infeasible] for a in (Xt, y, beta, eta, rows))
        if not len(rows):
            return out
    ny = 1 - y
    eta, s, loglik, logbar = _iterate(y, ny, eta)
    X = _t(Xt)
    n = Xt.shape[2]
    stage = np.zeros(len(rows), dtype=int)
    began = np.zeros(len(rows), dtype=int)
    tol = GRAD_TOL * n
    iterations = 0
    while True:
        iterations += 1
        t = _STAGE_T[stage]
        obj = loglik + t * logbar
        grad, hess = _newton_system(X, y, ny, eta, s, t[:, None, None])
        # Only a step that raises the finite barrier objective is taken,
        # so even a direction from a non-finite system is safe to try.
        neg = -hess
        delta, failed = _by_row(_solve_definite, grad, neg, grad)
        lstsq_failed = {}
        for k in failed:
            try:
                delta[k, :, 0] = np.linalg.lstsq(neg[k], grad[k, :, 0], rcond=None)[0]
            except np.linalg.LinAlgError as exc:
                lstsq_failed[k] = exc
        # Half the Newton decrement, g'delta / 2: a decrement only where -H
        # is positive definite, so a step from lstsq ends no stage by it.
        centered = 0.5 * (grad * delta).sum(axis=(1, 2)) <= CENTER_TOL
        centered[list(failed)] = False
        alpha = _truncate_step(eta, X @ -delta)
        if lstsq_failed:
            alpha[list(lstsq_failed)] = 0.0
        moving = alpha[:, 0, 0] > 1e-16
        (beta, eta, s, loglik, logbar), stuck = _step_search(
            (beta, eta, s, loglik, logbar), delta, alpha,
            np.flatnonzero(moving), partial(_objective_holds, Xt, y, ny, obj - 1e-12, t))
        step = np.abs(alpha * delta).max(axis=(1, 2))
        gnorm = np.abs(grad).max(axis=(1, 2))
        # A NaN step, gradient norm or decrement ends no stage; a design that
        # took no step ends it, and so does a centered one before the last.
        ends = ((step < 1e-12) | (gnorm < tol) | (iterations - began == MAX_ITER)
                | ~moving | (centered & (stage < len(_STAGE_T) - 1)))
        ends[stuck] = True
        if not ends.any():
            continue
        stage += ends
        began[ends] = iterations
        if lstsq_failed or stage.max() == len(_STAGE_T):
            out.update({rows[k]: exc for k, exc in lstsq_failed.items()})
            kept = _without(len(rows), lstsq_failed)
            for k in np.flatnonzero(kept & (stage == len(_STAGE_T))):
                yk = y[k, :, 0]
                on_boundary = eta[k].max() > -BOUNDARY_EPS * 10
                grad = _gradient_q(X[k], yk, ny[k, :, 0] * _q(eta[k, :, 0], s[k, :, 0]))
                converged = bool(np.abs(grad).max() < 1e-4 * n or on_boundary)
                reason = None if converged else "barrier did not reach stationarity"
                out[rows[k]] = _finish(X[k], yk, beta[k, :, 0], converged, on_boundary,
                                       iterations, reason, dms[rows[k]])
            keep = kept & (stage < len(_STAGE_T))
            if not keep.any():
                return out
            rows, Xt, y, ny, beta, eta, s, loglik, logbar, stage, began = (
                a[keep] for a in (rows, Xt, y, ny, beta, eta, s, loglik, logbar,
                                  stage, began))
            X = _t(Xt)


def _solve_definite(neg, grad):
    """The Newton steps solve(-H, grad) of a stack, from ``neg`` = -H;
    raises ``LinAlgError`` unless every -H is positive definite."""
    np.linalg.cholesky(neg)   # raises unless positive definite
    return np.linalg.solve(neg, grad)


def _objective_holds(Xt, y, ny, floor, t, rows, candidate):
    """The barrier's test for ``eecore._step_search``: a candidate is
    accepted when it is strictly feasible and its barrier objective at
    ``t`` is at least ``floor``, its row's current one less 1e-12.  The
    iterate is (beta, eta, s, loglik, logbar): beta and the arrays of
    ``_iterate``."""
    eta = _t(_rows(Xt, rows)) @ candidate
    if not eta.max() < 0:
        # Leave out a candidate with some eta >= 0; one with a NaN eta is
        # tried, and fails on its objective.
        fine = ~(eta.max(axis=(1, 2)) >= 0)
        rows, candidate, eta = rows[fine], candidate[fine], eta[fine]
    eta, s, loglik, logbar = _iterate(_rows(y, rows), _rows(ny, rows), eta)
    value = loglik + _rows(t, rows) * logbar
    return rows, value >= _rows(floor, rows), (candidate, eta, s, loglik, logbar)
