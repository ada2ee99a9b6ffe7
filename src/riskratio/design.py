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
    can differ from the product in the last bit.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(knots, dtype=float)
    k = t.size
    if k < 3 or np.any(np.diff(t) <= 0):
        raise NonIncreasingKnots(t)
    out = np.empty((x.size, k - 1))
    out[:, 0] = x
    scale = (t[-1] - t[0]) ** 2
    denom = t[-1] - t[-2]
    pk = _cube_plus(x - t[-1])
    pkm1 = _cube_plus(x - t[-2])
    for j in range(k - 2):
        pj = _cube_plus(x - t[j])
        out[:, j + 1] = (
            pj - pkm1 * (t[-1] - t[j]) / denom + pk * (t[-2] - t[j]) / denom
        ) / scale
    return out


def _cube_plus(u) -> np.ndarray:
    """(u)+^3 as a product of the truncated values."""
    v = np.maximum(u, 0.0)
    return v * v * v


def default_knots(x, nknots: int) -> np.ndarray:
    """Knots at default empirical quantiles; duplicates are collapsed."""
    if nknots not in DEFAULT_KNOT_QUANTILES:
        raise SpecParseError(f"unsupported knot count {nknots} (use 3..7)")
    q = DEFAULT_KNOT_QUANTILES[nknots]
    knots = np.unique(np.quantile(np.asarray(x, dtype=float), q))
    if knots.size < 3:
        raise NonIncreasingKnots(knots)
    return knots


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
    fit's no-finite-root check share, and ``rank_deficient``, one SVD.
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
        """Numerical rank of ``X`` below p; one SVD, on first read."""
        return bool(np.linalg.matrix_rank(self.X) < self.p)

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


def _resolve_term(term: Term, data: Dataset) -> Term:
    """Freeze data-dependent pieces (knots, categorical levels)."""
    if isinstance(term, Spline) and term.knots is None:
        x = data.column(term.column)
        return replace(term, knots=tuple(default_knots(x, term.nknots)))
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
        return Interaction(
            _resolve_term(term.left, data), _resolve_term(term.right, data)
        )
    return term


def _term_block(term: Term, data: Dataset) -> tuple[np.ndarray, list[str]]:
    """Columns and labels contributed by one resolved term."""
    if isinstance(term, Intercept):
        return np.ones((data.n, 1)), ["(Intercept)"]
    if isinstance(term, Main):
        return data.column(term.column)[:, None], [term.column]
    if isinstance(term, Spline):
        basis = rcs_basis(data.column(term.column), term.knots)
        labels = [term.column] + [
            f"rcs({term.column}){j}" for j in range(1, basis.shape[1])
        ]
        return basis, labels
    if isinstance(term, Categorical):
        values = data.column(term.column)
        cols, labels = [], []
        for level in term.levels:
            if level == term.reference:
                continue
            cols.append((values == level).astype(float))
            labels.append(f"{term.column}[{level:g}]")
        return np.column_stack(cols), labels
    if isinstance(term, Interaction):
        lb, ll = _term_block(term.left, data)
        rb, rl = _term_block(term.right, data)
        cols, labels = [], []
        for i in range(lb.shape[1]):
            for j in range(rb.shape[1]):
                cols.append(lb[:, i] * rb[:, j])
                labels.append(f"{ll[i]}:{rl[j]}")
        return np.column_stack(cols), labels
    raise TypeError(f"unknown term {term!r}")


def _term_columns(term: Term) -> set[str]:
    if isinstance(term, (Main, Spline, Categorical)):
        return {term.column}
    if isinstance(term, Interaction):
        return _term_columns(term.left) | _term_columns(term.right)
    return set()


def build_design_matrix(
    data: Dataset, spec: list[Term], exposure: str | None = None
) -> DesignMatrix:
    """Realize a term list against a dataset.

    Spline knots and categorical levels are resolved from the data and
    frozen into the returned terms.  The first non-intercept constant
    column, in column order, raises ``DegenerateColumn``; the check reads
    the design's ``column_ranges``, which its fit then reuses.  An empty
    term list raises ``SpecParseError``.
    """
    if not spec:
        raise SpecParseError("a model needs at least one term")
    resolved = tuple(_resolve_term(t, data) for t in spec)
    blocks, labels, exposure_cols, intercept_cols = [], [], [], []
    col = 0
    for term in resolved:
        block, block_labels = _term_block(term, data)
        cols = range(col, col + block.shape[1])
        if isinstance(term, Intercept):
            intercept_cols.extend(cols)
        if exposure is not None and exposure in _term_columns(term):
            exposure_cols.extend(cols)
        blocks.append(block)
        labels.extend(block_labels)
        col += block.shape[1]
    design = DesignMatrix(
        X=_column_major(blocks, data.n),
        labels=tuple(labels),
        terms=resolved,
        exposure=exposure,
        exposure_cols=tuple(exposure_cols),
        data=data,
    )
    constant = ~_varies(*design.column_ranges)
    constant[intercept_cols] = False
    bad = np.flatnonzero(constant)
    if bad.size:
        raise DegenerateColumn(labels[bad[0]])
    if len(set(labels)) != len(labels):
        raise SpecParseError(f"duplicate design columns: {labels}")
    return design


def realize(design: DesignMatrix, data: Dataset) -> np.ndarray:
    """Evaluate an already-built design (frozen knots/levels) on new data;
    column-major, like the design's own ``X``."""
    blocks = [_term_block(t, data)[0] for t in design.terms]
    return _column_major(blocks, data.n)


def _column_major(blocks, n: int) -> np.ndarray:
    """The n x p column-major matrix of the column blocks, side by side,
    filled block by block (no row-major intermediate)."""
    X = np.empty((n, sum(b.shape[1] for b in blocks)), order="F")
    col = 0
    for block in blocks:
        X[:, col:col + block.shape[1]] = block
        col += block.shape[1]
    return X


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
