"""Semiparametric log-linear estimating equations and sandwich covariance.

Fits log E[Y|X] = X beta by solving sum_i x_i (y_i - exp(x_i beta)) = 0,
the score equations of a Poisson regression -- but no outcome
distribution is assumed.  The covariance is the sandwich B^{-1} W B^{-T}
with bread B = sum_i x_i x_i' mu_i and meat
W = sum_i x_i (y_i - mu_i)^2 x_i', which is valid under arbitrary
misspecification of the outcome distribution as long as the log-linear
mean model holds.

One damped-Newton loop, ``_newton``, fits a group of problems at once;
the group's kernels (its linear predictors, scores, Jacobians, refused
candidates and sandwiches) and its per-row arrays, which the loop gathers
anew as rows finish, are all it knows of the group.  There are two kinds
of group:

- a stack of equal-shape designs (``_Designs``; ``_fit_stack``, through
  ``_in_stacks``; robust Poisson's ``fit_stack`` in
  ``inference.FIT_METHODS``); ``fit_robust_poisson`` is its one-design
  case.  A study fits its replications as such stacks, so the fixed cost
  of a numpy call is shared by a block of small fits.
- bootstrap resamples of one design as frequency weights over its rows
  (``_Weighted``; ``_fit_resamples``, robust Poisson's
  ``FitMethod.warm``).  A resample's estimating equation
  sum_i w_i x_i (y_i - mu_i) = 0 has the root of the gathered resample's,
  so every resample shares the design's ``X`` and none copies its rows;
  each sum over rows is a matrix product of the group's weights with
  ``X`` or with its column products.  Each resample's verdicts are taken
  on the rows it holds (w > 0): its column ranges come from each column's
  lowest and highest rows, kept once per design.

Every step runs on the whole group: each ``np.matmul`` and LAPACK call
serves all its rows, and per-row masks decide convergence, step halving
and failure.  The step halving, ``_step_search``, is also the log-barrier
loop's (``logbin``); each loop gives it its own acceptance test, and both
loops finish a design inside the loop and return {row: FitResult or
exception}.  Both loops also share the frame around them,
``_from_starts``: a group's fitter gives it each member's start, or the
error that member met before iterating (``DegenerateColumn`` and
``NoFiniteSolution`` here, ``NoFeasibleStart`` in ``logbin``), and it
runs the loop on the members that have a start and returns one entry per
member, in order.

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

Failures are per row: a stacked LAPACK call that raises is repeated row
by row (``_by_row``), so each design or resample gets what it gets alone.

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
caller's start: ``fit_robust_poisson(start=...)``; a bootstrap resample
starts from the full-sample estimate.

``FitResult`` is the result type of every fitter in the package, the
log-binomial ones in ``logbin`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .design import (
    DesignMatrix, _varies, as_matrix, column_ranges, row_blocks, stack_blocks, stacked,
)
from .errors import (
    DataError,
    DegenerateColumn,
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

# Resamples of n rows are fitted in groups of max(1, GROUP_ROWS // n): a
# group's G x n arrays (weights, eta, mu, residuals) are then at most
# 512 KB each and stay in a per-core L2 cache, as a ``BLOCK_ROWS`` block
# does; at n = 5000 a group is 13 resamples.
GROUP_ROWS = 1 << 16
# Each column's RANGE_ROWS lowest and highest rows, among which a
# resample's range over its own rows is found in all but rare cases.
RANGE_ROWS = 32


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
    return _from_starts(partial(_newton, _Designs), (Xt, y),
                        [failed.get(i, b) for i, b in enumerate(beta)],
                        [dm for _, dm, _ in members])


def _fit_resamples(design: DesignMatrix, start, draws):
    """Robust Poisson on resamples of a built design, each the design's
    rows with frequency weights (Efron & Tibshirani 1993, ch. 6): its
    estimating equation sum_i w_i x_i (y_i - mu_i) = 0 is the gathered
    resample's, so every resample shares the design's ``X`` and none
    copies its rows.

    ``draws`` are the resamples' row indices (each n of them); the weights
    are their counts.  Yields, per draw in order, the ``FitResult`` that
    ``fit_robust_poisson(design.take(idx), ..., start=start)`` returns or
    the exception it raises, each verdict taken on the resample's own rows
    (w > 0): ``DegenerateColumn`` for a non-intercept column constant
    there (as ``DesignMatrix.take`` gives it), ``NoFiniteSolution`` from
    the column screen, then the Newton loop's verdicts.  The sums run in
    another order than the gathered resample's, so an estimate moves in
    its last bits only.  A ``FitResult`` has no design and no ``mu_hat``.

    Resamples are fitted in groups of max(1, ``GROUP_ROWS`` // n), which
    share one Newton loop (``_newton`` with ``_Weighted``'s kernels).
    """
    X, y = design.X, design.data.y
    n, p = X.shape
    kern = _Weighted(X, y)
    ends = _range_rows(X)
    varies = _varies(*design.column_ranges)
    events = y != 0
    draws = iter(draws)
    while group := list(islice(draws, max(1, GROUP_ROWS // n))):
        W = np.array([np.bincount(idx, minlength=n) for idx in group], float)[:, :, None]
        support = W[:, :, 0] > 0
        lo, hi = _supported_ranges(X, support, *ends)
        lost = varies & ~_varies(lo, hi)
        # The screen reads a design's rows at its events only, so a
        # resample is the shared X with its unsupported rows' outcome set
        # to 0, and its own ranges.
        failed = _no_finite_solution(np.broadcast_to(X, (len(W), n, p)),
                                     (support & events)[:, :, None] * 1.0, lo, hi,
                                     [design.labels] * len(W))
        starts = [DegenerateColumn(design.labels[np.argmax(lost[b])]) if lost[b].any()
                  else failed.get(b, start) for b in range(len(W))]
        yield from _from_starts(partial(_newton, kern), (W, support[:, :, None] * 1.0),
                                starts, [None] * len(W))


def _range_rows(X):
    """Each column's ``RANGE_ROWS`` (or all n) lowest rows and highest
    rows, as two p x K index arrays, unordered within each."""
    n = len(X)
    K = min(RANGE_ROWS, n)
    return (np.array([np.argpartition(x, K - 1)[:K] for x in X.T]),
            np.array([np.argpartition(x, n - K)[n - K:] for x in X.T]))


def _supported_ranges(X, support, low, high):
    """Each column's (min, max) over each resample's rows (``support``,
    G x n), as two G x p arrays, from the column's lowest and highest
    rows (``_range_rows``): a resample that holds one of them has its
    extreme among them, since every other row lies beyond them; one that
    holds none is reduced over all its rows."""
    cols = np.arange(X.shape[1])[:, None]
    out = []
    for idx, reduce, fill in ((low, np.min, np.inf), (high, np.max, -np.inf)):
        held = support[:, idx]                              # G x p x K
        ends = reduce(np.where(held, X[idx, cols], fill), axis=2)
        for b, j in zip(*np.nonzero(~held.any(axis=2))):
            ends[b, j] = reduce(X[support[b], j])
        out.append(ends)
    return out


def _from_starts(loop, data, starts, dms) -> list:
    """The fits of one group, one entry per member in member order:
    ``data`` holds the group's per-member arrays (a stack's ``X.T`` and
    outcomes, say), ``starts`` each member's start (p coefficients) or the
    error found before iterating, which is its entry, and ``dms`` each
    member's ``DesignMatrix`` or None.  The members with a start share one
    ``loop(data, beta, dms)`` over their rows of ``data``, which returns
    {row: FitResult or exception}."""
    fits = [s if isinstance(s, Exception) else None for s in starts]
    rows = np.flatnonzero([fit is None for fit in fits])
    if rows.size:
        beta = np.stack([starts[i] for i in rows])[..., None]
        out = loop([_rows(a, rows) for a in data], beta, [dms[i] for i in rows])
        for k, fit in out.items():
            fits[rows[k]] = fit
    return fits


class _Designs:
    """``_newton``'s kernels on a stack of designs, ``data`` = (Xt, y):
    the B x p x n stack of ``X.T`` and the B x n x 1 outcomes.  Scores and
    Jacobians are ``ee_score`` and ``ee_jacobian``, looked up when called,
    so a wrapper installed on this module counts them."""

    @staticmethod
    def eta(data, beta):
        return _t(data[0]) @ beta

    @staticmethod
    def score(data, beta, mu):
        return ee_score(_t(data[0]), data[1], beta, mu=mu)

    @staticmethod
    def jacobian(data, beta, mu):
        return ee_jacobian(_t(data[0]), data[1], beta, mu=mu)

    @staticmethod
    def refuse(data, beta):
        """An overflowing candidate still goes through ``ee_score``, which
        raises ``Overflow`` for it, so that ``ee_score`` sees every
        candidate."""
        _captured(ee_score, _t(data[0]), data[1], beta)

    @staticmethod
    def finish(data, beta, mu, jac):
        """(sandwiches, {row: exception}, fitted means, counts of means
        above 1) of converged rows, from their final Jacobians."""
        Xt, y = data
        cov, failed = _by_row(sandwich_covariance, jac, _t(Xt), y, beta, mu, jac)
        return cov, failed, mu[:, :, 0], (mu > 1.0).sum(axis=(1, 2))


class _Weighted:
    """``_newton``'s kernels on a group of G resamples of one design, each
    the design's n rows with frequency weights: ``data`` = (W, held), the
    G x n x 1 counts and 1.0 on the rows a resample holds (W > 0), 0.0 on
    the others.

    A linear predictor above ETA_MAX, or NaN, is set to ETA_MAX + 1, which
    refuses the same candidates; then a row a resample does not hold gets
    0, so it can neither overflow nor, with weight 0, enter a sum.  (A
    masked write or -inf there costs several times the exp() of the
    group.)  Each sum over rows is a product with the shared ``X``: the
    linear predictors (G x p by p x n), the scores X'(W (y - mu)), and the
    Jacobians and the meats
    sum_i w_i v_i x_i x_i' as products with Z, the n x p(p+1)/2 column
    products x_ij x_ik (j <= k), formed once, for n <= ``BLOCK_ROWS``.
    Above it Z is not formed (it would hold p(p+1)/2 columns of n rows, and
    a row block of it formed anew per product costs more than it saves on
    groups of at most 7): each resample's sums are ``_gram``'s, by row
    blocks, as a one-design fit's.  The sums are those of the gathered
    resample in another order, so a fit moves in its last bits only.
    """

    def __init__(self, X, y):
        self.X, self.y = X, y[:, None]
        self.pairs = j, k = np.triu_indices(X.shape[1])
        self.Z = X[:, j] * X[:, k] if len(row_blocks(len(X))) == 1 else None

    def _sums(self, v):
        """sum_i v_gi x_i x_i' of each resample g, from v (G x n x 1)."""
        if self.Z is None:
            return _gram(np.broadcast_to(self.X, (len(v), *self.X.shape)), v)
        p = self.X.shape[1]
        out = np.empty((len(v), p, p))
        j, k = self.pairs
        out[:, j, k] = out[:, k, j] = v[:, :, 0] @ self.Z
        return out

    def eta(self, data, beta):
        eta = (beta[:, :, 0] @ self.X.T)[:, :, None]
        np.fmin(eta, ETA_MAX + 1.0, out=eta)
        eta *= data[1]
        return eta

    def score(self, data, beta, mu):
        return ((data[0] * (self.y - mu))[:, :, 0] @ self.X)[:, :, None]

    def jacobian(self, data, beta, mu):
        return -self._sums(data[0] * mu)

    def refuse(self, data, beta):
        pass

    def finish(self, data, beta, mu, jac):
        W = data[0]
        meat = self._sums(W * (self.y - mu) ** 2)
        cov, failed = _by_row(lambda j, m: _sandwich(-j, m), jac, jac, meat)
        return cov, failed, [None] * len(W), (W * (mu > 1.0)).sum(axis=(1, 2))


def _newton(kern, data, beta, dms) -> dict:
    """Damped Newton on a group from the starting points ``beta``, with
    the group's kernels ``kern`` (``_Designs`` for a stack of designs,
    ``_Weighted`` for resamples of one design) and its per-row arrays
    ``data``; ``dms`` holds each row's ``DesignMatrix`` or None.  A row
    whose start puts its linear predictor above ``ETA_MAX`` (or at NaN)
    gets ``Overflow`` before the first step.

    Returns {row: FitResult or exception}; rows are positions in the given
    group.  The Jacobian computed after each step serves the next step, and
    is the final Jacobian of a row that has just converged, which
    ``_converged`` finishes from it.  A row whose Newton solve fails or
    gives a non-finite step gets ``SingularJacobian`` from its
    conditioning, or else keeps the solve's ``LinAlgError``.  A row
    unconverged after MAX_ITER steps gets ``NonConvergence`` and no further
    Jacobian.  Finished and failed rows leave the group, whose arrays are
    then gathered anew.
    """
    rows = np.arange(len(beta))
    out = {}
    # An ``_initial_beta`` start has x_i beta = log(max(ybar, 1/(2n))) <= 0,
    # or 0; a caller's start may overflow, and that row fails here.
    eta = kern.eta(data, beta)
    below = eta <= ETA_MAX      # False for NaN too
    if not below.all():
        over = ~below.all(axis=(1, 2))
        out = {r: Overflow("linear predictor overflow at the start") for r in rows[over]}
        *data, beta, eta, rows = (a[~over] for a in (*data, beta, eta, rows))
        if not len(rows):
            return out
    mu = np.exp(eta)
    score = kern.score(data, beta, mu)
    norm = np.abs(score).max(axis=(1, 2))       # ||score||_inf per row
    tol = SCORE_TOL * eta.shape[1]
    jac = kern.jacobian(data, beta, mu)

    for iterations in range(1, MAX_ITER + 1):
        delta, failed = _by_row(lambda j, s: np.linalg.solve(-j, s), score, jac, score)
        if failed or not np.isfinite(delta).all():
            # A failed solve leaves a zero step; its row is checked too.
            unsolved = ~np.isfinite(delta).all(axis=(1, 2))
            unsolved[list(failed)] = True
            at = np.flatnonzero(unsolved)
            _, bad = _by_row(_check_conditioning, norm[at], jac[at])
            failed.update({at[k]: exc for k, exc in bad.items()})

        step = np.ones((len(rows), 1, 1))
        (beta, mu, score, norm), exhausted = _step_search(
            (beta, mu, score, norm), delta, step,
            np.flatnonzero(_without(len(rows), failed)),
            partial(_score_falls, kern, data, norm, tol))
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
            *data, beta, mu, score, norm, rows, converged = (
                a[keep] for a in (*data, beta, mu, score, norm, rows, converged))
            if not len(rows):
                break

        jac = kern.jacobian(data, beta, mu)
        if converged.any():
            at = np.flatnonzero(converged)
            out.update(_converged(_rows(rows, at), kern, [_rows(a, at) for a in data], *(
                _rows(a, at) for a in (beta, mu, jac, norm)), iterations, dms))
            if len(at) == len(rows):
                break
            keep = ~converged
            *data, beta, mu, score, norm, rows, jac = (
                a[keep] for a in (*data, beta, mu, score, norm, rows, jac))
    return out


def _converged(rows, kern, data, beta, mu, jac, norm, iterations, dms) -> dict:
    """{row: FitResult or exception} of the given converged rows of a group,
    from their final Jacobians ``jac``: their conditioning and their
    sandwich (``kern.finish``).  A row whose conditioning is above
    ``COND_MAX`` gets ``SingularJacobian``, whatever its sandwich gave."""
    cond, ill = _by_row(_check_conditioning, norm, jac)
    cov, failed, mu_hat, n_mu_gt1 = kern.finish(data, beta, mu, jac)
    failed.update(ill)
    return {r: failed[k] if k in failed else FitResult(
        beta=beta[k, :, 0],
        cov_sandwich=cov[k],
        converged=True,
        iterations=iterations,
        max_abs_score=float(norm[k]),
        mu_hat=mu_hat[k],
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


def _step_search(iterate, delta, step, rows, accept):
    """The damped steps of the given rows (positions) of a group: the one
    step search of robust Poisson's Newton loop and the log-barrier loop.

    ``iterate`` is a tuple of plain per-row arrays, beta first: robust
    Poisson's (beta, mu, score, norm) or the barrier's (beta, eta, s,
    loglik, logbar).  A row tries beta + step * delta, halving
    its ``step`` (B x 1 x 1) in place after each refusal, MAX_HALVINGS
    times at most.  ``accept(rows, candidate)`` judges the candidates of
    some rows: it returns the rows it tried, a mask of those it accepts
    and their iterate, like ``iterate``.  Returns (iterate, the rows that
    accepted no step).  When every row of the group takes its first step,
    the iterate is that step's; otherwise each accepted row is written
    into ``iterate``, and the other rows keep their values there.
    """
    for _ in range(MAX_HALVINGS + 1):
        if not rows.size:
            break
        candidate = _rows(iterate[0], rows) + _rows(step, rows) * _rows(delta, rows)
        tried, ok, new = accept(rows, candidate)
        if len(tried) == len(iterate[0]) and ok.all():
            return new, rows[:0]
        took = tried[ok]
        for old, value in zip(iterate, new):
            old[took] = value[ok]
        rows = np.setdiff1d(rows, took, assume_unique=True)
        step[rows] /= 2.0
    return iterate, rows


def _score_falls(kern, data, norm, tol, rows, candidate):
    """Robust Poisson's test for ``_step_search``: a candidate is accepted
    when its ||score||_inf is below its row's ``norm``, or ``norm`` is below
    ``tol``.  A candidate whose eta exceeds ETA_MAX is refused
    (``kern.refuse``).  The iterate is (beta, mu, score, ||score||_inf).
    """
    part = [_rows(a, rows) for a in data]
    eta = kern.eta(part, candidate)
    if (eta > ETA_MAX).any():
        over = (eta > ETA_MAX).any(axis=(1, 2))
        kern.refuse([a[rows[over]] for a in data], candidate[over])
        rows, candidate, eta = rows[~over], candidate[~over], eta[~over]
        if not rows.size:
            return rows, over[:0], ()
        part = [a[rows] for a in data]
    mu = np.exp(eta)
    score = kern.score(part, candidate, mu)
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
    return _sandwich(bread, _gram(X, r**2))


def _sandwich(bread, meat) -> np.ndarray:
    """B^{-1} W B^{-T} of each (bread, meat) pair of a stack, symmetrized;
    ``SingularBread`` where a bread has no inverse."""
    try:
        binv = np.linalg.inv(bread)
    except np.linalg.LinAlgError:
        raise SingularBread("bread matrix not invertible") from None
    cov = binv @ meat @ _t(binv)
    return (cov + _t(cov)) / 2.0
