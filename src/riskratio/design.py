"""Model terms, restricted cubic spline bases, and design-matrix construction.

A model is a list of terms (intercept, main effects, splines, interactions,
categorical dummies).  ``build_design_matrix`` realizes the terms against a
dataset; spline knots are resolved from the data at build time and frozen in
the returned object so the same basis can be re-evaluated on counterfactual
data (see ``realize``) or on resampled rows (see ``DesignMatrix.take``).
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

    which is linear outside [t_1, t_k] by construction.
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
    pk = np.maximum(x - t[-1], 0.0) ** 3
    pkm1 = np.maximum(x - t[-2], 0.0) ** 3
    for j in range(k - 2):
        pj = np.maximum(x - t[j], 0.0) ** 3
        out[:, j + 1] = (
            pj - pkm1 * (t[-1] - t[j]) / denom + pk * (t[-2] - t[j]) / denom
        ) / scale
    return out


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
    from.  ``take`` resamples rows without rebuilding, and
    ``rank_deficient`` runs its SVD only when first read.
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
        column is non-intercept when it varies in ``X``.
        """
        data = self.data.take(idx)
        X = self.X.take(idx, axis=0)
        # Reducing a row-major X along axis 0 runs a p-wide inner loop per
        # row; its transposed copy reduces along contiguous rows, 4x faster.
        for j in np.flatnonzero(np.ptp(X.T.copy(), axis=1) == 0.0):
            if np.ptp(self.X[:, j]) != 0.0:
                raise DegenerateColumn(self.labels[j])
        return replace(self, X=X, data=data)


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
    frozen into the returned terms.  Non-intercept constant columns raise
    ``DegenerateColumn``.
    """
    resolved = tuple(_resolve_term(t, data) for t in spec)
    blocks, labels, exposure_cols = [], [], []
    col = 0
    for term in resolved:
        block, block_labels = _term_block(term, data)
        if not isinstance(term, Intercept):
            for j, lab in enumerate(block_labels):
                if np.ptp(block[:, j]) == 0.0:
                    raise DegenerateColumn(lab)
        if exposure is not None and exposure in _term_columns(term):
            exposure_cols.extend(range(col, col + block.shape[1]))
        blocks.append(block)
        labels.extend(block_labels)
        col += block.shape[1]
    X = np.column_stack(blocks)
    if len(set(labels)) != len(labels):
        raise SpecParseError(f"duplicate design columns: {labels}")
    return DesignMatrix(
        X=X,
        labels=tuple(labels),
        terms=resolved,
        exposure=exposure,
        exposure_cols=tuple(exposure_cols),
        data=data,
    )


def realize(design: DesignMatrix, data: Dataset) -> np.ndarray:
    """Evaluate an already-built design (frozen knots/levels) on new data."""
    blocks = [_term_block(t, data)[0] for t in design.terms]
    return np.column_stack(blocks)


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
