"""Columnar dataset of a binary outcome plus named numeric covariates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, UnknownColumn


@dataclass(frozen=True)
class Dataset:
    """Binary-outcome dataset with named numeric columns.

    The outcome vector ``y`` must contain only 0s and 1s; every named
    column must be finite and have the same length as ``y``.
    """

    y: np.ndarray
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        _check_outcome_shape(y)
        if not np.all(np.isin(y, (0.0, 1.0))):
            bad = int(np.flatnonzero(~np.isin(y, (0.0, 1.0)))[0])
            raise DataError(f"outcome must be 0/1; offending value at row {bad}")
        object.__setattr__(self, "y", y)
        cols = {name: _checked_column(name, values, y.shape)
                for name, values in self.columns.items()}
        object.__setattr__(self, "columns", cols)

    @classmethod
    def _derived(cls, y, columns) -> "Dataset":
        """Dataset over arrays of an already-validated one; not re-checked."""
        data = object.__new__(cls)
        object.__setattr__(data, "y", y)
        object.__setattr__(data, "columns", columns)
        return data

    @property
    def n(self) -> int:
        return self.y.size

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise UnknownColumn(name) from None

    def with_column(self, name: str, values) -> "Dataset":
        """Copy of the dataset with one column replaced (or added).

        Only the new column is validated; the rest already was."""
        cols = dict(self.columns)
        cols[name] = _checked_column(name, values, self.y.shape)
        return Dataset._derived(self.y, cols)

    def rows(self, rows: slice) -> "Dataset":
        """The rows of a slice, as views of this dataset's arrays."""
        return Dataset._derived(self.y[rows], {k: v[rows] for k, v in self.columns.items()})

    def take(self, idx) -> "Dataset":
        """Row subset / resample by integer index array.

        Rows of a valid dataset are valid, so only the shape is checked."""
        idx = np.asarray(idx, dtype=int)
        y = self.y[idx]
        _check_outcome_shape(y)
        return Dataset._derived(y, {k: v[idx] for k, v in self.columns.items()})


def _check_outcome_shape(y):
    if y.ndim != 1 or y.size < 1:
        raise DataError("outcome must be a non-empty 1-D vector")


def _checked_column(name, values, shape) -> np.ndarray:
    """``values`` as a float array, checked to be finite and of ``shape``."""
    v = np.asarray(values, dtype=float)
    if v.shape != shape:
        raise DataError(f"column {name!r} has length {v.size}, expected {shape[0]}")
    if not np.all(np.isfinite(v)):
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise DataError(f"column {name!r} has a non-finite value at row {bad}")
    return v
