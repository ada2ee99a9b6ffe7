"""Semiparametric log-linear estimating equations and sandwich covariance.

Fits log E[Y|X] = X beta by solving sum_i x_i (y_i - exp(x_i beta)) = 0,
the score equations of a Poisson regression -- but no outcome
distribution is assumed.  The covariance is the sandwich B^{-1} W B^{-T}
with bread B = sum_i x_i x_i' mu_i and meat
W = sum_i x_i (y_i - mu_i)^2 x_i', which is valid under arbitrary
misspecification of the outcome distribution as long as the log-linear
mean model holds.

One damped-Newton loop fits a stack of equal-shape designs at once
(``_fit_stack``, through ``_in_stacks``; robust Poisson's ``fit_stack``
in ``inference.FIT_METHODS``); ``fit_robust_poisson`` is its one-design
case.  Every step runs on the whole stack: each ``np.matmul`` and LAPACK
call serves all its designs, and per-row masks decide convergence, step
halving and failure.  A study fits its replications as such stacks, so
the fixed cost of a numpy call is shared by a block of small fits.  The
step halving, ``_step_search``, is also the log-barrier loop's
(``logbin``); each loop gives it its own acceptance test, and both loops
finish a design inside the loop and return {row: FitResult or exception}.
Both loops also share the frame around them, ``_from_starts``: a group's
fitter gives it each design's start, or the error that design met before
iterating (``NoFiniteSolution`` here, ``NoFeasibleStart`` in ``logbin``),
and it runs the loop on the designs that have a start and returns one
entry per design, in order.

Stacks and bit-identity: a stack of B designs of n rows and p columns is
kept as one C-contiguous B x p x n array of the designs' ``X.T`` and used
through its B x n x p transposed view, so each slice has the layout of a
single built design (column-major ``X``, contiguous ``X.T``; see
``design``).  Rows are only ever gathered from that stack, so BLAS and
LAPACK take the same path per slice as on one design, and every design's
fit equals its one-design fit bit for bit, in whatever stack.  Vectors of
a stack are columns: beta is B x p x 1, y and mu are B x n x 1.
``ee_score``, ``ee_jacobian`` and ``sandwich_covariance`` take either one
design with plain vectors or such a stack.  One design is a stack of one
by a view (``X.T[None]``), without a copy of ``X``.

Blocks: every weighted product sum_i w_i x_i x_i' -- the Jacobian, the
sandwich's bread and meat, and ``logbin``'s Hessians and weighted least
squares -- is ``_gram``, taken over the blocks of ``design.stack_blocks``,
each at most ``design.BLOCK_ROWS`` design rows: groups of whole designs
when n <= ``BLOCK_ROWS`` (8 designs at n = 1000), a design's row blocks
above it.  So neither a large design nor a study's stack forms its whole
weighted temporary at once; a block's stays in the CPU's caches.  For
n <= ``BLOCK_ROWS`` each design's product is the unblocked
(X.T * w) @ X bit for bit, in whatever group; above it, its row blocks'
products are summed in row order, which moves a fit's numbers in their
last bits only.

One front end, ``_in_stacks``, takes the input of all three fitters (this
module's and ``logbin``'s two): it checks each input rule once per group
of equal-shape designs and gathers each group into one stack, so every
method accepts and rejects the same input in the same way.  Designs built
as one stack (``design.build_design_stack``) and given in order are
fitted in place, through a view of that stack (``design.stacked``); other
groups are copied once.

Failures are per design: a stacked LAPACK call that raises is repeated
design by design (``_by_row``), so each design gets what it gets alone.

The loop keeps one state per accepted iterate, its fitted means
mu = exp(X beta), and passes it to ``ee_jacobian``, ``ee_score`` and
``sandwich_covariance`` through their ``mu=`` argument.  The Jacobian the
loop computes after a design's converging step is its final Jacobian: the
design is finished from it in the loop, and leaves the stack.  Conditioning
is checked where a Newton solve fails and on that final Jacobian, not on
every iteration; the final Jacobian is the negated bread, so the sandwich
takes it through ``jac=`` instead of forming the bread again.  Data without
a finite root, such as an outcome that is 0 on every row, are caught before
iterating, from the column ranges a ``DesignMatrix`` keeps
(``DesignMatrix.column_ranges``).  Newton starts from ``_initial_beta``,
computed for the whole stack from those ranges and the outcomes, or from a
caller's start: ``fit_robust_poisson(start=...)``, which a bootstrap
resample gets from the full-sample estimate (robust Poisson's
``inference.FitMethod`` is ``warm``).

``FitResult`` is the result type of every fitter in the package, the
log-binomial ones in ``logbin`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .design import DesignMatrix, as_matrix, column_ranges, stack_blocks, stacked
from .errors import (
    DataError,
    NoFiniteSolution,
    NonConvergence,
    Overflow,
    RiskRatioError,
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
    raises rather than return an unconverged fit, and a ``FIT_METHODS``
    record's ``fit`` raises ``FitFailed`` for an unconverged log-binomial
    one.  A log-barrier fit is converged at a boundary point as well as at
    a stationary interior point; a study counts a boundary fit as failed,
    and ``riskratio fit`` reports it with the warning ``on_boundary``.
    ``on_boundary`` marks a log-binomial optimum with some fitted risk at 1,
    and ``loglik`` is the log-binomial log-likelihood at ``beta``.  The
    fields from ``max_abs_score`` on are computed by the robust-Poisson
    fit alone; other fitters leave their defaults.
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


def _t(a):
    """The transpose of a matrix, or of each matrix of a stack, as a view."""
    return a.swapaxes(-1, -2)


def _gram(X, w, *rhs):
    """The weighted product sum_i w_i x_i x_i' = (X.T * w) @ X of one
    design (``w`` a vector) or of each design of a stack (``w`` B x n x 1),
    over the blocks of ``design.stack_blocks`` (one design is a stack of
    one), so that no temporary holds more than ``BLOCK_ROWS`` rows; with
    vectors ``rhs`` of one design, the tuple of that product and each
    (X.T * w) @ v, from the same blocks.

    For n <= ``BLOCK_ROWS`` each design's product is the unblocked
    expression bit for bit, whatever group of designs it is formed in;
    above it, its row blocks' products are summed in row order, starting
    from the first block's.
    """
    if X.ndim == 2:
        out = _gram(X[None], w[None, :, None], *rhs)
        return tuple(a[0] for a in out) if rhs else out[0]
    w = _t(w)       # B x 1 x n: scales the columns of each X.T
    B, n, p = X.shape
    out = [np.empty((B, p, p)), *(np.empty((B, p)) for _ in rhs)]
    for designs, rows in stack_blocks(B, n):
        Xb = X[designs, rows]
        xtw = _t(Xb) * w[designs, :, rows]
        for total, part in zip(out, [xtw @ Xb, *(xtw @ v[rows] for v in rhs)]):
            if rows.start:      # a later row block of the same designs
                total[designs] += part
            else:
                total[designs] = part
    return tuple(out) if rhs else out[0]


def ee_score(X, y, beta, mu=None) -> np.ndarray:
    """Estimating function sum_i x_i (y_i - exp(x_i beta)).

    ``X`` is one design or a stack (see the module docstring).  ``mu`` is
    exp(X beta) when the caller has it already.
    """
    mu = _mu(X, beta) if mu is None else mu
    return _t(X) @ (y - mu)


def ee_jacobian(X, y, beta, mu=None) -> np.ndarray:
    """Derivative of the score w.r.t. beta: -sum_i x_i x_i' exp(x_i beta),
    by row blocks (``_gram``).

    ``X`` is one design or a stack (see the module docstring).  ``mu`` is
    exp(X beta) when the caller has it already.
    """
    mu = _mu(X, beta) if mu is None else mu
    return -_gram(X, mu)


def _ones(lo, hi):
    """The intercepts: the columns that are 1 on every row, from their
    minima ``lo`` and maxima ``hi``."""
    return (lo == 1) & (hi == 1)


def _initial_beta(ranges, y):
    """Each design's start, from its column ranges (B x 2 x p, see
    ``_in_stacks``) and its outcome (B x n x 1): zeros except an intercept,
    its first column of ``_ones``, at log(max(ybar, 1/(2n)))."""
    ones = _ones(ranges[:, 0], ranges[:, 1])
    has = ones.any(axis=1)
    ybar = np.maximum(y[:, :, 0].mean(axis=1), 1.0 / (2 * y.shape[1]))
    beta = np.zeros(ones.shape)
    beta[has, ones.argmax(axis=1)[has]] = np.log(ybar[has])
    return beta


def _no_finite_solution(X, y, lo, hi, labels) -> dict:
    """The designs of a stack whose score equations have no finite root, as
    {row: NoFiniteSolution}.

    A column c = X d that is >= 0 everywhere, > 0 somewhere and 0 on every
    row with y != 0 is a recession direction: along beta - s d the score's
    component d'X'(y - mu) = -c'mu stays negative, so no beta solves the
    equations.  An exposure stratum without events and an outcome without
    events are such cases.  Tried: c = x_j and c = -x_j for every column
    and, when X has an intercept, c = 1 - x_j.  ``lo`` and ``hi`` are each
    design's column minima and maxima, ``labels`` its column labels or None.
    """
    def name(b, j):
        return labels[b][j] if labels[b] is not None else f"column {j}"

    events = y[:, :, 0] != 0
    indicator = events.astype(float)
    n_events = indicator.sum(axis=1)[:, None]
    # Exact where it is read: a sum of one-signed terms is 0 only if every
    # term is, and a sum of k ones is k in any order.
    on_events = (_t(X) @ indicator[:, :, None])[:, :, 0]
    # Each direction below needs a column that is 0, or (below 1) 1, on
    # every event row; most designs have none, and are done here.
    if not ((on_events == 0) | ((on_events == n_events) & (lo < 1))).any():
        return {}
    one_signed = ((lo >= 0) & (hi > 0)) | ((hi <= 0) & (lo < 0))
    zero = one_signed & (on_events == 0)
    failed = {}
    for b in np.flatnonzero(zero.any(axis=1)):
        j = np.argmax(zero[b])
        where = "on every row" if lo[b, j] == hi[b, j] else f"wherever {name(b, j)} != 0"
        failed[b] = NoFiniteSolution(f"no finite solution: the outcome is 0 {where}")
    intercept = _ones(lo, hi).any(axis=1)
    below_one = (hi <= 1) & (lo < 1) & (on_events == n_events)
    for b, j in zip(*np.nonzero(below_one & intercept[:, None])):
        if b not in failed and np.all(X[b][events[b], j] == 1):
            failed[b] = NoFiniteSolution(
                f"no finite solution: the outcome is 0 wherever {name(b, j)} != 1")
    return failed


def _check_conditioning(jac) -> np.ndarray:
    """cond(-J) of each Jacobian of a stack; raises ``SingularJacobian``
    unless every one is finite and <= COND_MAX."""
    cond = np.linalg.cond(-jac)
    fine = cond <= COND_MAX     # False for NaN and inf too
    if not fine.all():
        raise SingularJacobian(float(cond[~fine][0]))
    return cond


def _captured(fn, *args):
    """``fn(*args)``, or the ``RiskRatioError`` or ``LinAlgError`` it
    raised, as an entry of a list of fits."""
    try:
        return fn(*args)
    except (RiskRatioError, np.linalg.LinAlgError) as exc:
        return exc


def _by_row(fn, like, *stacks):
    """``fn(*stacks)`` as (value, {row: exception}).

    Where ``fn`` raises for the whole stack, it runs on each row alone, as
    a stack of one: the value is then an array shaped like ``like`` whose
    row i is row i's result, and a row that raises alone gets its
    exception instead (its row of the value stays 0), the one its
    one-design fit raises.
    """
    whole = _captured(fn, *stacks)
    if not isinstance(whole, Exception):
        return whole, {}
    out, errors = np.zeros_like(like), {}
    for i in range(len(out)):
        row = _captured(fn, *(s[i:i + 1] for s in stacks))
        if isinstance(row, Exception):
            errors[i] = row
        else:
            out[i] = row[0]
    return out, errors


def fit_robust_poisson(design: DesignMatrix | np.ndarray, y, start=None) -> FitResult:
    """Solve the log-linear estimating equations by damped Newton and
    attach the sandwich.

    This is the one-design case of the stacked loop (``_fit_stack``): a
    stack of one, a view of its ``X``.  ``design`` is a ``DesignMatrix`` or
    a bare n x p array, taken under the input rules every fitter shares
    (``_in_stacks``); p > n raises ``DataError``.  Data for which no
    finite root exists (see ``_no_finite_solution``), an outcome that is 0
    on every row among them, raise ``NoFiniteSolution`` before iterating.
    A fit that does not converge raises ``NonConvergence``, so the result
    always has ``converged`` set.

    Newton starts from ``start``, p finite coefficients, when it is given
    (a bootstrap resample starts from the full-sample estimate), else from
    ``_initial_beta``.  A start of another shape or with a non-finite
    value raises ``ValueError``; one whose linear predictor exceeds
    ``ETA_MAX`` on some row raises ``Overflow`` before iterating.  The
    start decides where the iterations begin, not whether a root exists:
    the converged estimate agrees with a fit from any other start to
    within the convergence tolerances.

    Each accepted iterate keeps its fitted means mu = exp(X beta), computed
    once for the step-halving score and reused by the next Jacobian.  At
    the solution that Jacobian is the final one: ``mu_hat``, the sandwich
    (whose bread it is) and the conditioning come from it, with no pass
    after the loop.  Conditioning, cond(-J), is checked only where a
    Newton solve fails (``LinAlgError`` or a non-finite step) and on the
    final Jacobian, whose value is ``condition_estimate``; above
    ``COND_MAX`` it raises ``SingularJacobian``.
    """
    return _alone(partial(_fit_stack, start=start), design, y)


def _in_stacks(fit_stack, designs, ys) -> list:
    """The front end of every fitter: ``fit_stack(members, Xt, y, ranges)``
    on each group of equal-shape designs, with their outcomes ``ys``; the
    entries come back in the order of ``designs``.

    A design is a ``DesignMatrix`` or a bare n x p array, converted once to
    the layout of a built design.  The input rules hold once per group,
    before any fit: an outcome that is not one value per row of its
    design, or a non-finite value, raises ``ValueError`` for the whole
    call; a design with p > n gets ``DataError`` and is not fitted.
    ``fit_stack`` gets the group's (X, DesignMatrix or None, y) triples,
    the C-contiguous stack of their ``X.T`` (B x p x n), their outcomes as
    B x n x 1 columns and their column ranges (B x 2 x p, kept by a built
    design), off which X's finiteness is read.  The stack of ``X.T`` is
    ``design.stacked``'s: a view of the stack the designs were built in
    when they are its consecutive slices, as a study's block is, else one
    copy; a fitter only reads it.
    """
    groups: dict[tuple, list] = {}
    for i, (design, y) in enumerate(zip(designs, ys)):
        dm = design if isinstance(design, DesignMatrix) else None
        X = as_matrix(design) if dm is None else dm.X
        y = np.asarray(y, float)
        if X.ndim != 2 or y.shape != X.shape[:1]:
            raise ValueError(f"design of shape {X.shape} and outcome of shape "
                             f"{y.shape} do not match: need n x p and n")
        groups.setdefault(X.shape, []).append((i, (X, dm, y)))
    stacks = []
    for group in groups.values():
        idx, members = zip(*group)
        ranges = np.array([column_ranges(X) if dm is None else dm.column_ranges
                           for X, dm, _ in members])
        y = stacked([y for *_, y in members])
        if not (np.isfinite(ranges).all() and np.isfinite(y).all()):
            raise ValueError("design matrix and outcome must be finite")
        stacks.append((idx, members, ranges, y))
    fits = {}
    for idx, members, ranges, y in stacks:
        n, p = members[0][0].shape
        if p > n:
            out = [DataError(f"p={p} parameters with only n={n} observations")
                   for _ in idx]
        else:
            out = fit_stack(members, stacked([X.T for X, *_ in members]),
                            y[:, :, None], ranges)
        fits.update(zip(idx, out))
    return [fits[i] for i in range(len(fits))]


def _alone(fit_stack, design, y):
    """``_in_stacks`` of one design: its fit, or its error raised."""
    (fit,) = _in_stacks(fit_stack, [design], [y])
    if isinstance(fit, Exception):
        raise fit
    return fit


def _fit_stack(members, Xt, y, ranges, start=None) -> list:
    """Robust Poisson on one group of ``_in_stacks``: the designs without
    a finite root fail before iterating, the others share one Newton
    loop (``_from_starts``), each from ``start`` (p coefficients) if
    given, else from its ``_initial_beta``."""
    if start is not None:
        start = np.asarray(start, float)
        if start.shape != Xt.shape[1:2] or not np.isfinite(start).all():
            raise ValueError(f"start must be {Xt.shape[1]} finite coefficients, "
                             f"got shape {start.shape}")
    labels = [None if dm is None else dm.labels for _, dm, _ in members]
    failed = _no_finite_solution(_t(Xt), y, ranges[:, 0], ranges[:, 1], labels)
    beta = (_initial_beta(ranges, y) if start is None
            else np.tile(start, (len(members), 1))).reshape(len(members), -1)
    return _from_starts(_newton, members, Xt, y,
                        [failed.get(i, b) for i, b in enumerate(beta)])


def _from_starts(loop, members, Xt, y, starts) -> list:
    """The fits of one group of ``_in_stacks``, one entry per member in
    member order: ``starts`` holds each member's start (p coefficients) or
    the error found before iterating, which is its entry.  The members
    with a start share one ``loop(Xt, y, beta, dms)``, which returns
    {row: FitResult or exception} over their stack."""
    fits = [s if isinstance(s, Exception) else None for s in starts]
    rows = np.flatnonzero([fit is None for fit in fits])
    if rows.size:
        beta = np.stack([starts[i] for i in rows])[..., None]
        out = loop(_rows(Xt, rows), _rows(y, rows), beta, [members[i][1] for i in rows])
        for k, fit in out.items():
            fits[rows[k]] = fit
    return fits


def _newton(Xt, y, beta, dms) -> dict:
    """Damped Newton on a stack from the starting points ``beta``; ``dms``
    holds each row's ``DesignMatrix`` or None.  A row whose start puts its
    linear predictor above ``ETA_MAX`` (or at NaN) gets ``Overflow``
    before the first step.

    Returns {row: FitResult or exception}; rows are positions in the given
    stack.  The Jacobian computed after each step serves the next step, and
    is the final Jacobian of a row that has just converged, which
    ``_converged`` finishes from it.  A row whose Newton solve fails or
    gives a non-finite step gets ``SingularJacobian`` from its
    conditioning, or else keeps the solve's ``LinAlgError``.  A row
    unconverged after MAX_ITER steps gets ``NonConvergence`` and no further
    Jacobian.  Finished and failed rows leave the stack, which is then
    gathered anew from ``Xt``.
    """
    rows = np.arange(len(Xt))
    out = {}
    # An ``_initial_beta`` start has x_i beta = log(max(ybar, 1/(2n))) <= 0,
    # or 0; a caller's start may overflow, and that row fails here.
    eta = _t(Xt) @ beta
    below = eta <= ETA_MAX      # False for NaN too
    if not below.all():
        over = ~below.all(axis=(1, 2))
        out = {r: Overflow("linear predictor overflow at the start") for r in rows[over]}
        Xt, y, beta, eta, rows = (a[~over] for a in (Xt, y, beta, eta, rows))
        if not len(rows):
            return out
    mu = np.exp(eta)
    score = ee_score(_t(Xt), y, beta, mu=mu)
    norm = np.abs(score).max(axis=(1, 2))       # ||score||_inf per row
    tol = SCORE_TOL * Xt.shape[2]
    jac = ee_jacobian(_t(Xt), y, beta, mu=mu)

    for iterations in range(1, MAX_ITER + 1):
        delta, failed = _by_row(lambda j, s: np.linalg.solve(-j, s), score, jac, score)
        if failed or not np.isfinite(delta).all():
            # A failed solve leaves a zero step; its row is checked too.
            unsolved = ~np.isfinite(delta).all(axis=(1, 2))
            unsolved[list(failed)] = True
            at = np.flatnonzero(unsolved)
            _, bad = _by_row(_check_conditioning, norm[at], jac[at])
            failed.update({at[k]: exc for k, exc in bad.items()})

        step = np.ones((len(Xt), 1, 1))
        (beta, mu, score, norm), exhausted = _step_search(
            Xt, (beta, mu, score, norm), delta, step,
            np.flatnonzero(_without(len(Xt), failed)),
            partial(_score_falls, Xt, y, norm, tol))
        for k in exhausted:
            failed[k] = Overflow("step halving exhausted without progress")
        # A failed row gets an infinite norm, so it never counts as converged.
        norm[list(failed)] = np.inf

        converged = norm < tol
        if converged.any():
            converged &= np.abs(step * delta).max(axis=(1, 2)) < STEP_TOL
        if iterations == MAX_ITER:
            for k in np.flatnonzero(~converged):
                failed.setdefault(k, NonConvergence(MAX_ITER, float(norm[k])))
        if failed:
            out.update({rows[k]: exc for k, exc in failed.items()})
            keep = _without(len(rows), failed)
            Xt, y, beta, mu, score, norm, rows, converged = (
                a[keep] for a in (Xt, y, beta, mu, score, norm, rows, converged))
            if not len(rows):
                break

        jac = ee_jacobian(_t(Xt), y, beta, mu=mu)
        if converged.any():
            at = np.flatnonzero(converged)
            out.update(_converged(*(_rows(a, at) for a in (
                rows, Xt, y, beta, mu, jac, norm)), iterations, dms))
            if len(at) == len(rows):
                break
            keep = ~converged
            Xt, y, beta, mu, score, norm, rows, jac = (
                a[keep] for a in (Xt, y, beta, mu, score, norm, rows, jac))
    return out


def _converged(rows, Xt, y, beta, mu, jac, norm, iterations, dms) -> dict:
    """{row: FitResult or exception} of the given converged rows of a stack,
    from their final Jacobians ``jac``: their conditioning and their
    sandwich.  A row whose conditioning is above ``COND_MAX`` gets
    ``SingularJacobian``, whatever its sandwich gave."""
    cond, ill = _by_row(_check_conditioning, norm, jac)
    cov, failed = _by_row(sandwich_covariance, jac, _t(Xt), y, beta, mu, jac)
    failed.update(ill)
    n_mu_gt1 = (mu > 1.0).sum(axis=(1, 2))
    return {r: failed[k] if k in failed else FitResult(
        beta=beta[k, :, 0],
        cov_sandwich=cov[k],
        converged=True,
        iterations=iterations,
        max_abs_score=float(norm[k]),
        mu_hat=mu[k, :, 0],
        n_mu_gt1=int(n_mu_gt1[k]),
        condition_estimate=float(cond[k]),
        design=dms[r],
    ) for k, r in enumerate(rows)}


def _without(size, failed) -> np.ndarray:
    """A mask of ``size`` rows, False on the rows in ``failed``."""
    keep = np.ones(size, dtype=bool)
    keep[list(failed)] = False
    return keep


def _rows(a, rows):
    """``a[rows]`` for sorted distinct ``rows``, or ``a`` itself, not a
    copy, when ``rows`` is every row: a one-design fit never copies its
    ``X`` or ``y``."""
    return a if len(rows) == len(a) else a[rows]


def _step_search(Xt, iterate, delta, step, rows, accept):
    """The damped steps of the given rows (positions) of a stack: the one
    step search of robust Poisson's Newton loop and the log-barrier loop.

    ``iterate`` is a tuple of plain per-row arrays, beta first: robust
    Poisson's (beta, mu, score, norm) or the barrier's (beta, eta, s,
    loglik, logbar).  A row tries beta + step * delta, halving
    its ``step`` (B x 1 x 1) in place after each refusal, MAX_HALVINGS
    times at most.  ``accept(rows, candidate, X, eta)`` judges the
    candidates of some rows, with X their designs and eta = X @ candidate:
    it returns the rows it tried, a mask of those it
    accepts and their iterate, like ``iterate``.  Returns (iterate, the
    rows that accepted no step).  When every row of the stack takes its
    first step, the iterate is that step's; otherwise each accepted row is
    written into ``iterate``, and the other rows keep their values there.
    """
    for _ in range(MAX_HALVINGS + 1):
        if not rows.size:
            break
        candidate = _rows(iterate[0], rows) + _rows(step, rows) * _rows(delta, rows)
        X = _t(_rows(Xt, rows))
        tried, ok, new = accept(rows, candidate, X, X @ candidate)
        if len(tried) == len(Xt) and ok.all():
            return new, rows[:0]
        took = tried[ok]
        for old, value in zip(iterate, new):
            old[took] = value[ok]
        rows = np.setdiff1d(rows, took, assume_unique=True)
        step[rows] /= 2.0
    return iterate, rows


def _score_falls(Xt, y, norm, tol, rows, candidate, X, eta):
    """Robust Poisson's test for ``_step_search``: a candidate is accepted
    when its ||score||_inf is below its row's ``norm``, or ``norm`` is below
    ``tol``.  A candidate whose eta exceeds ETA_MAX is refused; it still
    goes through ee_score, which raises Overflow for it, so that ee_score
    sees every candidate.  The iterate is (beta, mu, score, ||score||_inf).
    """
    if (eta > ETA_MAX).any():
        over = (eta > ETA_MAX).any(axis=(1, 2))
        _captured(ee_score, _t(Xt[rows[over]]), y[rows[over]], candidate[over])
        rows, candidate, eta = rows[~over], candidate[~over], eta[~over]
        if not rows.size:
            return rows, over[:0], ()
        X = _t(Xt[rows])
    mu = np.exp(eta)
    score = ee_score(X, _rows(y, rows), candidate, mu=mu)
    max_score = np.abs(score).max(axis=(1, 2))
    start = _rows(norm, rows)
    return rows, (max_score < start) | (start < tol), (candidate, mu, score, max_score)


def sandwich_covariance(X, y, beta, mu=None, jac=None) -> np.ndarray:
    """Robust covariance B^{-1} W B^{-T} of the coefficient estimates.

    B = sum_i x_i x_i' mu_i (bread), W = sum_i x_i r_i^2 x_i' (meat) with
    residual r_i = y_i - mu_i, each by row blocks (``_gram``).
    Symmetrized after assembly.  ``X`` is one design or a stack (see the
    module docstring).  ``mu`` is exp(X beta) and ``jac`` is
    ``ee_jacobian`` at beta when the caller has them already; the bread is
    then -jac, the same matrix bit for bit, since negation is exact.
    """
    mu = _mu(X, beta) if mu is None else mu
    r = y - mu
    bread = _gram(X, mu) if jac is None else -jac
    meat = _gram(X, r**2)
    try:
        binv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise SingularBread("bread matrix not invertible") from None
    cov = binv @ meat @ _t(binv)
    return (cov + _t(cov)) / 2.0
