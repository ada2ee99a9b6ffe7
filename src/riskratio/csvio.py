"""Strict CSV ingestion: header required, numeric cells, 0/1 outcome.

``read_csv_dataset`` has two paths that give the same ``Dataset``.  A file
whose rows are plain numbers is parsed in one ``np.loadtxt`` call; that
fast path runs only when all of these hold:

* every byte after the header line is one of ``0-9 + - . e E ,`` or ``\\n``;
* that body is non-empty, has no empty line and does not start with ``\\n``;
* the header line, parsed by ``csv.reader``, is one complete record whose
  stripped names are unique and include the outcome;
* every row has as many cells as the header, each a number, and the
  outcome column holds only 0 and 1.

Anything else (quotes, spaces, ``\\r\\n``, blank lines, ``nan``, a bad cell)
goes to the per-cell scanner, which reports the first offending row and
column.  On the bytes above ``loadtxt`` accepts exactly the tokens that
Python ``float`` accepts and gives the same bits.  Both paths drop a UTF-8
byte-order mark before the header, and the scanner refuses a header that
names a column twice.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .data import Dataset
from .errors import DataError

# The only bytes the fast path accepts after the header line.
_NUMERIC_BYTES = b"0123456789+-.eE,\n"


def read_csv_dataset(path: str, outcome: str) -> Dataset:
    """Load a comma-separated file into a Dataset.

    Rejects missing values, non-numeric cells and non-{0,1} outcome values
    with row/column diagnostics (rows counted from 1, header is row 1).
    """
    with open(path, "rb") as handle:
        raw = handle.read()
    columns = _parse_numeric(raw, outcome)
    if columns is None:
        return _scan_csv(path, outcome)
    y = columns.pop(outcome)
    return Dataset(y=y, columns=columns)


def _parse_numeric(raw: bytes, outcome: str) -> dict[str, np.ndarray] | None:
    """Columns of a plain numeric file by name, or None to use the scanner."""
    cut = raw.find(b"\n")
    # An empty body, or an empty line anywhere in it (loadtxt would skip it).
    if cut < 0 or len(raw) == cut + 1 or raw.find(b"\n\n", cut) >= 0:
        return None
    if raw[cut + 1:].translate(None, _NUMERIC_BYTES):
        return None
    try:
        # "utf-8-sig" drops a leading byte-order mark, as Excel writes one.
        line = raw[:cut].decode("utf-8-sig")
        # Strict parsing rejects an unclosed quote, which would carry the
        # header record over into the following lines; so would a "\r",
        # which also ends a line for the scanner.
        header = next(csv.reader([line], strict=True))
    except (UnicodeDecodeError, csv.Error):
        return None
    header = [h.strip() for h in header]
    if "\r" in line or outcome not in header or len(set(header)) != len(header):
        return None
    body = io.BytesIO(raw)  # shares raw's buffer
    body.seek(cut + 1)
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != len(header):
        return None
    y = table[:, header.index(outcome)]
    if not np.all((y == 0.0) | (y == 1.0)):
        return None
    # Contiguous copies, as the scanner's np.array(list) gives.
    return {name: table[:, j].copy() for j, name in enumerate(header)}


def _scan_csv(path: str, outcome: str) -> Dataset:
    """Cell-by-cell reader for any file the numeric fast path declines."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        repeated = [h for i, h in enumerate(header) if h in header[:i]]
        if repeated:
            raise DataError(f"{path}: column {repeated[0]!r} is repeated in the header")
        if outcome not in header:
            raise DataError(f"{path}: outcome column {outcome!r} not in header {header}")
        columns: dict[str, list[float]] = {name: [] for name in header}
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {rowno} has {len(row)} cells, expected {len(header)}"
                )
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise DataError(f"{path}: row {rowno}, column {name!r}: missing value")
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {rowno}, column {name!r}: "
                        f"non-numeric cell {cell!r}"
                    ) from None
                if name == outcome and value not in (0.0, 1.0):
                    raise DataError(
                        f"{path}: row {rowno}, column {name!r}: "
                        f"outcome must be 0 or 1, got {cell}"
                    )
                columns[name].append(value)
    y = np.array(columns.pop(outcome))
    if y.size == 0:
        raise DataError(f"{path}: no data rows")
    return Dataset(y=y, columns={k: np.array(v) for k, v in columns.items()})
