"""Model terms, restricted cubic spline bases, and design-matrix construction.

A model is a list of terms (intercept, main effects, splines, interactions,
categorical dummies).  ``build_design_matrix`` realizes the terms against a
dataset; spline knots are resolved from the data at build time and frozen in
the returned object so the same basis can be re-evaluated on counterfactual
data (see ``realize``) or on resampled rows (see ``DesignMatrix.take``).

Every design matrix is stored column-major (Fortran order).  The fitters
form ``X.T * w`` and ``X.T @ v`` on every Newton step, sandwich and
Hessian; with ``X`` column-major, ``X.T`` is a C-contiguous p x n array, so
these products and the per-column reductions read contiguous memory
instead of walking a strided transposed view.  ``build_design_matrix``,
``realize`` and ``DesignMatrix.take`` all return this layout, filled in
place, without a row-major intermediate; ``as_matrix`` converts a bare
array given to a fitter to it, so only this module knows the layout.

Row blocks: every product over the rows of a design that would otherwise
form an n x p temporary (the fitters' weighted products X.T * w @ X, the
standardization and the rank check) runs over ``row_blocks``, slices of
``BLOCK_ROWS`` rows, so that its temporaries are a block's and stay in the
CPU's caches.  A design of n <= ``BLOCK_ROWS`` rows is one block, the
whole design, and its numbers are those of the unblocked expression bit
for bit; above that, the blocks' results are summed in row order.  The
fitters' weighted products over a stack follow the same rule,
``stack_blocks``: a block is at most ``BLOCK_ROWS`` design rows, so a
stack of small designs is taken in groups of whole designs, each design's
numbers unchanged.

Stacks: ``build_design_stack`` builds the designs of many datasets with one
term list at once, as a study does for a block of replications.  Knots come
from one ``np.sort`` along the rows of the B x n column stack and NumPy's
own linear-interpolation rule, equal to NumPy's ``quantile`` bit for bit.
Designs equal in shape are one C-contiguous B x p x n array of ``X.T``
slices, the layout ``eecore`` fits, through a view (``stacked``) when the
designs are given in order; each term fills its B x n rows in place,
elementwise with each design's knots broadcast along its row, so every
design equals its one-dataset build bit for bit.  ``build_design_matrix``,
``realize``, ``default_knots`` and ``rcs_basis`` are the stack-of-one case
of the same code, and ``force_exposure`` rewrites the exposure terms of a
stack for standardization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .data import Dataset
from .errors import (
    DegenerateColumn,
    NonIncreasingKnots,
    RiskRatioError,
    SpecParseError,
)

# Knot placement quantiles used when only a knot count is given, indexed by
# knot count.  These match the conventional defaults for restricted cubic
# splines with outer knots pulled in from the extremes.
DEFAULT_KNOT_QUANTILES = {
    3: (0.10, 0.50, 0.90),
    4: (0.05, 0.35, 0.65, 0.95),
    5: (0.05, 0.275, 0.50, 0.725, 0.95),
    6: (0.05, 0.23, 0.41, 0.59, 0.77, 0.95),
    7: (0.025, 0.1833, 0.3417, 0.5, 0.6583, 0.8167, 0.975),
}


@dataclass(frozen=True)
class Intercept:
    pass


@dataclass(frozen=True)
class Main:
    column: str


@dataclass(frozen=True)
class Spline:
    """Restricted cubic spline of a column.

    Either ``nknots`` (knots placed at default quantiles) or explicit
    ``knots`` may be given.  After a design matrix is built, ``knots``
    holds the resolved numeric knot locations.
    """

    column: str
    nknots: int = 4
    knots: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Interaction:
    left: "Main | Spline"
    right: "Main | Spline"

    def __post_init__(self):
        for op in (self.left, self.right):
            if not isinstance(op, (Main, Spline)):
                raise SpecParseError(
                    "interaction operands must be main or spline terms"
                )


@dataclass(frozen=True)
class Categorical:
    column: str
    reference: float = 0.0
    levels: tuple[float, ...] | None = None  # resolved at build time


Term = Intercept | Main | Spline | Interaction | Categorical


def rcs_basis(x, knots) -> np.ndarray:
    """Restricted cubic spline basis: one linear plus k-2 cubic columns.

    Column 1 is x itself.  Cubic column j (1-based, j = 1..k-2) is

        [(x-t_j)+^3 - (x-t_{k-1})+^3 (t_k-t_j)/(t_k-t_{k-1})
                    + (x-t_k)+^3 (t_{k-1}-t_j)/(t_k-t_{k-1})] / (t_k-t_1)^2

    which is linear outside [t_1, t_k] by construction.  The cubes are
    products, u * u * u: ``u ** 3`` costs many times more per element and
    can differ from the product in the last bit.  This is the one-row case
    of the stacked fill that builds designs (``_rcs_rows``); the result is
    column-major, like a built design.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    t = np.asarray(knots, dtype=float)
    k = t.size
    if k < 3 or np.any(np.diff(t) <= 0):
        raise NonIncreasingKnots(t)
    out = np.empty((1, k - 1, x.size))
    _rcs_rows(x[None], t[None], out)
    return out[0].T


# Elements per chunk of the spline fill.  A chunk's dozen temporaries then
# stay in the CPU's caches; over whole 65 x 1000 or 1 x 500,000 rows they
# do not, and the fill took 2-3 times as long.
FILL_CHUNK = 1 << 14


# Design rows per block of the blocked kernels (``row_blocks`` for one
# design, ``stack_blocks`` for a stack): a block of a 9-column design is
# 590 KB, which stays in a 2 MB per-core L2 cache.  A robust-Poisson fit
# and its standardization at 500,000 x 9 took 123-145 ms at 8192 rows,
# 122-125 ms at 4096, 163-169 ms at 2048 (call overhead), 188-205 ms at
# 16384 and 249-322 ms unblocked (Xeon, one BLAS thread).  Read at call
# time, as ``design.BLOCK_ROWS``.
BLOCK_ROWS = 8192


def row_blocks(n: int) -> list[slice]:
    """The slices of ``BLOCK_ROWS`` rows that cover n rows, in row order;
    one slice of every row when n <= ``BLOCK_ROWS`` (or n = 0)."""
    return [slice(c, c + BLOCK_ROWS) for c in range(0, max(n, 1), BLOCK_ROWS)]


def stack_blocks(B: int, n: int) -> list[tuple[slice, slice]]:
    """The blocks of a stack of B designs of n rows each, as (designs,
    rows) slices in order, each of at most ``BLOCK_ROWS`` design rows: for
    n <= ``BLOCK_ROWS``, groups of BLOCK_ROWS // n whole designs, the last
    group shorter; above it, the ``row_blocks`` of one design after the
    other."""
    if n > BLOCK_ROWS:
        return [(slice(b, b + 1), rows) for b in range(B) for rows in row_blocks(n)]
    size = BLOCK_ROWS // max(n, 1)
    return [(slice(b, b + size), slice(None)) for b in range(0, B, size)]


def _rcs_rows(X, T, out) -> None:
    """Write the basis of each row of ``X`` (B x n) at its own knots, the
    same row of ``T`` (B x k), into ``out`` (B x (k-1) x n).

    Every operation is elementwise, with a row's knots broadcast along its
    row, so each row gets the numbers it gets in a stack of one.  The rows
    are filled a chunk of about ``FILL_CHUNK`` elements at a time.
    """
    t = T[:, :, None]
    # (t_k - t_1)^2 by scalar pow, as the one-design basis has always taken
    # it: pow and the product that array squaring uses can differ in the
    # last bit.
    scale = np.array([d ** 2 for d in (T[:, -1] - T[:, 0]).tolist()])[:, None]
    denom = t[:, -1] - t[:, -2]
    cubic = range(T.shape[1] - 2)
    lead = [t[:, -1] - t[:, j] for j in cubic]
    trail = [t[:, -2] - t[:, j] for j in cubic]
    out[:, 0] = X
    width = max(1, FILL_CHUNK // len(X))
    for c in range(0, X.shape[1], width):
        x, chunk = X[:, c:c + width], out[:, :, c:c + width]
        pk = _cube_plus(x - t[:, -1])
        pkm1 = _cube_plus(x - t[:, -2])
        for j in cubic:
            pj = _cube_plus(x - t[:, j])
            chunk[:, j + 1] = (
                pj - pkm1 * lead[j] / denom + pk * trail[j] / denom) / scale


def _cube_plus(u) -> np.ndarray:
    """(u)+^3 as a product of the truncated values."""
    v = np.maximum(u, 0.0)
    return v * v * v


def default_knots(x, nknots: int) -> np.ndarray:
    """Knots at default empirical quantiles; duplicates are collapsed.

    The one-row case of ``_default_knot_rows``: the distinct values of
    NumPy's ``quantile`` of x at ``DEFAULT_KNOT_QUANTILES[nknots]``.
    """
    (knots,) = _default_knot_rows(np.asarray(x, dtype=float).reshape(1, -1), nknots)
    if isinstance(knots, Exception):
        raise knots
    return knots


def _default_knot_rows(X, nknots: int) -> list:
    """``default_knots`` of each row of ``X`` (B x n): its knots, or the
    ``NonIncreasingKnots`` it raises when fewer than 3 distinct remain.
    An unsupported knot count raises ``SpecParseError``."""
    if nknots not in DEFAULT_KNOT_QUANTILES:
        raise SpecParseError(f"unsupported knot count {nknots} (use 3..7)")
    K = _quantile_rows(X, DEFAULT_KNOT_QUANTILES[nknots])
    increasing = (np.diff(K, axis=1) > 0).all(axis=1)
    return [k if ok else _collapsed(k) for k, ok in zip(K, increasing)]


def _collapsed(knots):
    """Tied knots with the duplicates collapsed, or the error when fewer
    than 3 remain."""
    knots = np.unique(knots)
    return knots if knots.size >= 3 else NonIncreasingKnots(knots)


def _quantile_rows(X, q) -> np.ndarray:
    """NumPy's ``quantile`` of each row of ``X`` (B x n) at ``q``, bit for
    bit, from one sort along the rows.

    NumPy's linear rule: the virtual index v = (n-1) q lies between the
    order statistics a, at floor(v), and b, the next one; with
    g = v - floor(v) the quantile is a + (b-a) g, or b - (b-a) (1-g) where
    g >= 0.5.  Where v >= n-1 both a and b are the last order statistic
    and g = v + 1, as NumPy takes them.
    """
    n = X.shape[1]
    v = (n - 1) * np.asarray(q, dtype=float)
    lo = np.floor(v)
    hi = lo + 1
    lo[v >= n - 1] = hi[v >= n - 1] = -1
    g = v - lo
    ordered = np.sort(X, axis=1)
    a, b = ordered[:, lo.astype(np.intp)], ordered[:, hi.astype(np.intp)]
    diff = b - a
    out = a + diff * g
    np.subtract(b, diff * (1 - g), out=out, where=g >= 0.5)
    return out


@dataclass(frozen=True)
class DesignMatrix:
    """Realized n x p design matrix with provenance.

    ``terms`` are the fully resolved terms (spline knots and categorical
    levels frozen), so the same basis can be rebuilt on modified data.
    ``exposure_cols`` indexes columns derived from the exposure column,
    when one was named at build time; they are the blocks of the terms
    that read it, in term order.  ``data`` is the dataset ``X`` was built
    from.  ``take`` resamples rows without rebuilding.  Two properties
    are computed on first read and kept: ``column_ranges``, each column's
    (min, max), which the constant-column checks and the robust-Poisson
    fit's no-finite-root check share, and ``rank_deficient``, from a QR
    of ``X`` by row blocks.  A built design's ranges are those its build
    checked.
    """

    X: np.ndarray
    labels: tuple[str, ...]
    terms: tuple[Term, ...]
    exposure: str | None = None
    exposure_cols: tuple[int, ...] = ()
    data: Dataset | None = field(default=None, compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def column_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each column's (min, max), from one pass over ``X``."""
        return column_ranges(self.X)

    @cached_property
    def rank_deficient(self) -> bool:
        """Numerical rank of ``X`` below p, on first read.

        A tall-skinny QR (Demmel, Grigori, Hoemmen & Langou 2012): the R
        factors of the row blocks (``row_blocks``), stacked, are factored
        again, and the singular values of that R are those of ``X`` up to
        rounding.  Those above NumPy's ``matrix_rank`` tolerance,
        S.max() * max(n, p) * eps, count towards the rank.
        """
        R = np.concatenate([np.linalg.qr(self.X[rows], mode="r")
                            for rows in row_blocks(self.n)])
        S = np.linalg.svd(np.linalg.qr(R, mode="r"), compute_uv=False)
        tol = S.max() * max(self.n, self.p) * np.finfo(float).eps
        return bool(np.count_nonzero(S > tol) < self.p)

    def take(self, idx) -> "DesignMatrix":
        """The design of rows ``idx`` of ``data`` (a resample, say).

        Every term is row-wise, so ``X`` equals, bit for bit, the matrix
        ``build_design_matrix(data.take(idx), list(terms), exposure)``
        would build; like that rebuild, the first non-intercept column
        constant on these rows raises ``DegenerateColumn`` with its label.
        A built design's only constant columns are its intercepts, so a
        column is non-intercept when it varies in ``X``.  The resample's
        ``column_ranges`` are computed here and kept for its fit.  Its
        ``X`` is column-major, like every built design's.
        """
        data = self.data.take(idx)
        taken = replace(self, X=self.X.T.take(idx, axis=1).T, data=data)
        lost = np.flatnonzero(
            _varies(*self.column_ranges) & ~_varies(*taken.column_ranges))
        if lost.size:
            raise DegenerateColumn(self.labels[lost[0]])
        return taken


def as_matrix(X) -> np.ndarray:
    """A bare n x p array as floats in the layout of a built design
    (column-major); the fitters call this on arrays given in place of a
    ``DesignMatrix``.  No copy when ``X`` already has that layout."""
    return np.asfortranarray(X, dtype=float)


def column_ranges(X) -> tuple[np.ndarray, np.ndarray]:
    """Each column's (min, max) of a 2-D array, equal to ``X.min(axis=0)``
    and ``X.max(axis=0)``.  On a column-major ``X`` (every built design)
    NumPy reduces along the contiguous columns, with no copy.
    """
    X = np.asarray(X, dtype=float)
    return X.min(axis=0, initial=np.inf), X.max(axis=0, initial=-np.inf)


def _varies(lo, hi) -> np.ndarray:
    """Columns whose range, max - min as ``np.ptp`` takes it, is not 0."""
    return hi - lo != 0.0


def _resolve_term(term: Term, data: Dataset, knots) -> Term:
    """Freeze data-dependent pieces (knots, categorical levels);
    ``knots(spline)`` gives a spline's default knots on ``data``."""
    if isinstance(term, Spline) and term.knots is None:
        return Spline(term.column, term.nknots, tuple(knots(term)))
    if isinstance(term, Spline):
        t = np.asarray(term.knots, dtype=float)
        if t.size < 3 or np.any(np.diff(t) <= 0):
            raise NonIncreasingKnots(t)
        return term
    if isinstance(term, Categorical) and term.levels is None:
        values = data.column(term.column)
        levels = tuple(np.unique(values))
        if len(levels) < 2:
            raise DegenerateColumn(term.column)
        if term.reference not in levels:
            raise SpecParseError(
                f"reference level {term.reference} not present in "
                f"column {term.column!r}"
            )
        return replace(term, levels=levels)
    if isinstance(term, Interaction):
        return Interaction(_resolve_term(term.left, data, knots),
                           _resolve_term(term.right, data, knots))
    return term


def _resolved(spec, datas, b: int, knots: dict) -> tuple[Term, ...]:
    """The terms of ``spec`` resolved on ``datas[b]``; raises what
    ``build_design_matrix`` raises before it fills columns, an unknown
    column of any term included.  ``datas`` share their size and columns;
    ``knots`` keeps each default-knot spline's knots on every one of them,
    placed by one row sort when a dataset first asks for them."""
    data = datas[b]

    def spline_knots(term):
        key = (term.column, term.nknots)
        if key not in knots:
            X = stacked([d.column(term.column) for d in datas])
            knots[key] = _default_knot_rows(X, term.nknots)
        found = knots[key][b]
        if isinstance(found, Exception):
            raise found
        return found

    terms = tuple(_resolve_term(t, data, spline_knots) for t in spec)
    for term in terms:
        for name in _term_columns(term):
            data.column(name)
    return terms


def _shape(term: Term):
    """What fixes a resolved term's columns and labels: a spline's number
    of knots, not where they lie."""
    if isinstance(term, Spline):
        return Spline, term.column, len(term.knots)
    if isinstance(term, Interaction):
        return Interaction, _shape(term.left), _shape(term.right)
    return term


def shape_key(design: DesignMatrix):
    """Equal for designs whose columns come from the same terms, in the
    same number, on as many rows: designs that can share a stack."""
    return design.n, design.exposure, tuple(_shape(t) for t in design.terms)


def _term_labels(term: Term) -> list[str]:
    """The labels of the columns one resolved term contributes."""
    if isinstance(term, Intercept):
        return ["(Intercept)"]
    if isinstance(term, Main):
        return [term.column]
    if isinstance(term, Spline):
        return [term.column] + [
            f"rcs({term.column}){j}" for j in range(1, len(term.knots) - 1)]
    if isinstance(term, Categorical):
        return [f"{term.column}[{level:g}]" for level in term.levels
                if level != term.reference]
    if isinstance(term, Interaction):
        return [f"{left}:{right}" for left in _term_labels(term.left)
                for right in _term_labels(term.right)]
    raise TypeError(f"unknown term {term!r}")


def _term_columns(term: Term) -> tuple[str, ...]:
    """The data columns a term reads, in the order it reads them."""
    if isinstance(term, (Main, Spline, Categorical)):
        return (term.column,)
    if isinstance(term, Interaction):
        return _term_columns(term.left) + _term_columns(term.right)
    return ()


def stacked(arrays) -> np.ndarray:
    """Arrays of one shape as one array along a new first axis: a view of
    a single array, and of several when they are consecutive slices, in
    order, of one C-contiguous base (the ``X.T`` of designs built as one
    stack, say); one copy otherwise."""
    first = arrays[0]
    if len(arrays) == 1:
        return first[None]
    base = first.base
    if isinstance(base, np.ndarray) and base.flags.c_contiguous and first.size:
        start = (_layout(first)[0] - _layout(base)[0]) // base.strides[0]
        view = base[start:start + len(arrays)]
        if len(view) == len(arrays) and all(
                a.base is base and _layout(a) == _layout(v) for a, v in zip(arrays, view)):
            return view
    return np.stack(arrays)


def _layout(a):
    """Where an array's elements lie: its address, shape, strides and type."""
    return a.__array_interface__["data"][0], a.shape, a.strides, a.dtype


def _columns(datas):
    """``columns(name)``: that column of every dataset, as the rows of one
    B x n array, stacked once per name."""
    cache = {}

    def columns(name):
        if name not in cache:
            cache[name] = stacked([d.column(name) for d in datas])
        return cache[name]
    return columns


def _fill(S, terms, columns, exposure: str | None = None) -> None:
    """Write the columns of each row's resolved terms into the stack ``S``
    (B x p x n): row b of ``terms`` holds design b's terms, equal in shape
    to every other row's, and ``columns(name)`` gives a column on every
    row (B x n, or 1 x n where it is the same on every row).  With
    ``exposure`` named, only the terms that read it are written."""
    col = 0
    for ts in zip(*terms):
        width = len(_term_labels(ts[0]))
        if exposure is None or exposure in _term_columns(ts[0]):
            _evaluate(ts, columns, S[:, col:col + width])
        col += width


def _evaluate(ts, columns, out) -> None:
    """Write the columns of ``ts``, one resolved term per row, equal in
    shape, into ``out`` (B x width x n).  An unknown term has no width:
    ``_term_labels`` raises for it before any column is written."""
    term = ts[0]
    if isinstance(term, Intercept):
        out[:] = 1.0
    elif isinstance(term, Main):
        out[:, 0] = columns(term.column)
    elif isinstance(term, Spline):
        _rcs_rows(columns(term.column), np.array([t.knots for t in ts]), out)
    elif isinstance(term, Categorical):
        values = columns(term.column)
        levels = [level for level in term.levels if level != term.reference]
        for c, level in enumerate(levels):
            out[:, c] = values == level
    elif isinstance(term, Interaction):
        left = _operand([t.left for t in ts], columns)
        right = _operand([t.right for t in ts], columns)
        width = right.shape[1]
        for i in range(left.shape[1]):
            np.multiply(left[:, i:i + 1], right,
                        out=out[:, i * width:(i + 1) * width])


def _operand(ts, columns) -> np.ndarray:
    """The columns of an interaction operand on every row (B x width x n):
    a view of a main effect's column, a new array for a spline."""
    if isinstance(ts[0], Main):
        return columns(ts[0].column)[:, None]
    values = columns(ts[0].column)
    out = np.empty((len(ts), len(_term_labels(ts[0])), values.shape[1]))
    _evaluate(ts, columns, out)
    return out


def build_design_matrix(
    data: Dataset, spec: list[Term], exposure: str | None = None
) -> DesignMatrix:
    """Realize a term list against a dataset.

    Spline knots and categorical levels are resolved from the data and
    frozen into the returned terms.  The first non-intercept constant
    column, in column order, raises ``DegenerateColumn``; the check reads
    the design's ``column_ranges``, which its fit then reuses.  An empty
    term list raises ``SpecParseError``.  This is the one-dataset case of
    ``build_design_stack``; ``X`` is a view of a stack of one.
    """
    (design,) = build_design_stack([data], spec, exposure)
    if isinstance(design, Exception):
        raise design
    return design


def build_design_stack(datas, spec: list[Term], exposure: str | None = None) -> list:
    """``build_design_matrix`` of each dataset with one term list, built as
    stacks.

    Returns one entry per dataset, in order: its ``DesignMatrix`` or the
    ``RiskRatioError`` that ``build_design_matrix`` raises on it alone;
    bit for bit the one-dataset design either way.  Datasets of one size
    and columns place their spline knots by one row sort per spline.  Those
    whose resolved terms are equal in shape (see ``shape_key``) are filled
    as one C-contiguous B x p x n stack of ``X.T`` slices, each design's
    ``X`` the column-major view of its slice.  A dataset whose knots tie,
    so that fewer remain, or whose categorical levels differ from the
    others' is built apart, in a stack of the datasets its terms match.
    An empty term list raises ``SpecParseError``.
    """
    if not spec:
        raise SpecParseError("a model needs at least one term")
    datas = list(datas)
    out = [None] * len(datas)
    alike: dict[tuple, list] = {}
    for i, data in enumerate(datas):
        alike.setdefault((data.n, *sorted(data.columns)), []).append(i)
    for idx in alike.values():
        group = [datas[i] for i in idx]
        knots: dict = {}
        stacks: dict[tuple, list] = {}
        for b, i in enumerate(idx):
            try:
                terms = _resolved(spec, group, b, knots)
            except RiskRatioError as exc:
                out[i] = exc
                continue
            stacks.setdefault(tuple(_shape(t) for t in terms), []).append((i, terms))
        for members in stacks.values():
            rows, terms = zip(*members)
            for i, design in zip(rows, _build_stack([datas[i] for i in rows],
                                                    terms, exposure)):
                out[i] = design
    return out


def _build_stack(datas, terms, exposure) -> list:
    """The designs of ``datas`` with their resolved ``terms``, equal in
    shape, as views of one stack; a design with a non-intercept constant
    column or with duplicate labels gets the error instead."""
    labels, exposure_cols, intercept_cols = [], [], []
    for term in terms[0]:
        cols = range(len(labels), len(labels) + len(_term_labels(term)))
        if isinstance(term, Intercept):
            intercept_cols.extend(cols)
        if exposure is not None and exposure in _term_columns(term):
            exposure_cols.extend(cols)
        labels.extend(_term_labels(term))
    S = np.empty((len(datas), len(labels), datas[0].n))
    _fill(S, terms, _columns(datas))
    lo, hi = S.min(axis=2, initial=np.inf), S.max(axis=2, initial=-np.inf)
    constant = ~_varies(lo, hi)
    constant[:, intercept_cols] = False
    degenerate, first = constant.any(axis=1), constant.argmax(axis=1)
    duplicated = len(set(labels)) != len(labels)
    out = []
    for b, data in enumerate(datas):
        if degenerate[b]:
            out.append(DegenerateColumn(labels[first[b]]))
        elif duplicated:
            out.append(SpecParseError(f"duplicate design columns: {labels}"))
        else:
            design = DesignMatrix(
                X=S[b].T, labels=tuple(labels), terms=terms[b],
                exposure=exposure, exposure_cols=tuple(exposure_cols), data=data)
            # the ranges just checked are the design's (a cached_property)
            vars(design)["column_ranges"] = (lo[b], hi[b])
            out.append(design)
    return out


def realize(design: DesignMatrix, data: Dataset) -> np.ndarray:
    """Evaluate an already-built design (frozen knots/levels) on new data;
    column-major, like the design's own ``X``."""
    S = np.empty((1, design.p, data.n))
    _fill(S, [design.terms], _columns([data]))
    return S[0].T


def force_exposure(S, designs, datas, values) -> None:
    """Set the exposure to ``values`` (n) on every design of ``S``, the
    designs' stack of ``X.T`` (B x p x n) on ``datas``, one dataset per
    row: the columns of the terms that read the exposure are written anew
    from ``values`` and the datasets' other columns, the others left as
    they are.  A dataset need not have the exposure column.

    The designs must share a ``shape_key``.  Afterwards row b of ``S``
    equals, bit for bit,
    ``realize(design, datas[b].with_column(exposure, values)).T``.
    """
    exposure = designs[0].exposure
    observed = _columns(datas)
    forced = values[None]
    _fill(S, [d.terms for d in designs],
          lambda name: forced if name == exposure else observed(name), exposure)


# --- term mini-language -----------------------------------------------------
#
#   spec := term ("+" term)*
#   term := "1" | NAME | "rcs(" NAME "," INT ")" | NAME ":" NAME
#         | "cat(" NAME ",ref=" NUMBER ")"

_RCS_RE = re.compile(r"^rcs\(\s*(\w+)\s*,\s*(\d+)\s*\)$")
_CAT_RE = re.compile(r"^cat\(\s*(\w+)\s*,\s*ref\s*=\s*([-+0-9.eE]+)\s*\)$")
_NAME_RE = re.compile(r"^\w+$")


def _parse_atom(text: str, pos: int) -> Main | Spline:
    text = text.strip()
    m = _RCS_RE.match(text)
    if m:
        return Spline(m.group(1), nknots=int(m.group(2)))
    if _NAME_RE.match(text):
        return Main(text)
    raise SpecParseError(f"cannot parse term {text!r}", position=pos)


def parse_spec(text: str) -> list[Term]:
    """Parse the term mini-language, e.g. ``1 + A + rcs(L1,4) + L1:L2``."""
    terms: list[Term] = []
    pos = 0
    for piece in text.split("+"):
        stripped = piece.strip()
        if not stripped:
            raise SpecParseError("empty term", position=pos)
        if stripped == "1":
            terms.append(Intercept())
        elif _CAT_RE.match(stripped):
            m = _CAT_RE.match(stripped)
            terms.append(Categorical(m.group(1), reference=float(m.group(2))))
        elif ":" in stripped:
            left, _, right = stripped.partition(":")
            terms.append(
                Interaction(_parse_atom(left, pos), _parse_atom(right, pos))
            )
        else:
            terms.append(_parse_atom(stripped, pos))
        pos += len(piece) + 1
    return terms
