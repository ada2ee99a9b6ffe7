"""The numeric fast path of read_csv_dataset against the per-cell scanner."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskratio.csvio import _parse_numeric, _scan_csv, read_csv_dataset
from riskratio.errors import DataError

NAMES = ("A", "L1", "L2", "x")

number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "0.", ".5", "+.5", "1.e5", "1e3", "1.5E-7",
                     "-2e+2", "5e-324", "1e-400", "1e500", "007"]),
)
binary = st.sampled_from(["0", "1", "0.0", "1.0", "-0", "+1", "1e0", "0e5", "1."])


@st.composite
def plain_tables(draw):
    """Header and rows of a plain numeric file with a 0/1 outcome ``y``."""
    others = draw(st.lists(st.sampled_from(NAMES), max_size=3, unique=True))
    header = list(others)
    header.insert(draw(st.integers(0, len(others))), "y")
    nrows = draw(st.integers(1, 6))
    rows = [[draw(binary) if name == "y" else draw(number) for name in header]
            for _ in range(nrows)]
    return header, rows


def render(header, rows, final_newline=True):
    text = "\n".join(",".join(cells) for cells in [header] + rows)
    return text + "\n" if final_newline else text


# Each edit turns a plain file into one that the fast path must decline or
# read as the scanner does: (header, rows, i, j) -> file text, where row i
# and column j pick the cell to change.
def _cell_edit(token):
    def edit(header, rows, i, j):
        rows[i][j] = token(rows[i][j])
        return render(header, rows)
    return edit


def _outcome_edit(token):
    def edit(header, rows, i, j):
        rows[i][header.index("y")] = token
        return render(header, rows)
    return edit


EDITS = {
    "quoted cell": _cell_edit(lambda c: f'"{c}"'),
    "spaces": _cell_edit(lambda c: f" {c} "),
    "hash": _cell_edit(lambda c: c + "#"),
    "underscore": _cell_edit(lambda c: "1_0"),
    "nan": _cell_edit(lambda c: "nan"),
    "empty cell": _cell_edit(lambda c: ""),
    "outcome 2": _outcome_edit("2"),
    "outcome 0.5": _outcome_edit("0.5"),
    "crlf": lambda h, r, i, j: render(h, r).replace("\n", "\r\n"),
    "blank line": lambda h, r, i, j: render(h, r[:i] + [[]] + r[i:]),
    "trailing blank line": lambda h, r, i, j: render(h, r) + "\n",
    "trailing comma": lambda h, r, i, j: render(
        h, [row + [""] if k == i else row for k, row in enumerate(r)]),
    "missing cell": lambda h, r, i, j: render(
        h, [row[:-1] if k == i else row for k, row in enumerate(r)]),
    "duplicate name": lambda h, r, i, j: render(h[:-1] + [h[0]], r),
    "no outcome": lambda h, r, i, j: render(["z" if n == "y" else n for n in h], r),
    "quoted header": lambda h, r, i, j: render([f'"{n}"' for n in h], r),
    "open quote in header": lambda h, r, i, j: render(['"' + h[0]] + h[1:], r),
    "header only": lambda h, r, i, j: render(h, []),
}


def outcome(reader, path):
    """What a reader gives: the arrays bit for bit, or the error text."""
    try:
        data = reader(path, "y")
    except DataError as exc:
        return ("error", str(exc))
    columns = [(k, v.dtype.str, v.tobytes()) for k, v in data.columns.items()]
    return ("ok", data.y.dtype.str, data.y.tobytes(), columns)


@pytest.fixture(scope="module")
def csv_path():
    with tempfile.TemporaryDirectory() as tmp:
        yield os.path.join(tmp, "data.csv")


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


@settings(max_examples=300)
@given(plain_tables(), st.booleans())
def test_plain_numeric_files_take_the_fast_path(csv_path, table, final_newline):
    write(csv_path, render(*table, final_newline=final_newline))
    with open(csv_path, "rb") as handle:
        assert _parse_numeric(handle.read(), "y") is not None
    assert outcome(read_csv_dataset, csv_path) == outcome(_scan_csv, csv_path)


@settings(max_examples=300)
@given(plain_tables(), st.sampled_from(sorted(EDITS)), st.data())
def test_other_files_read_as_the_scanner_reads_them(csv_path, table, edit, data):
    header, rows = table
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(header) - 1))
    write(csv_path, EDITS[edit](header, [list(r) for r in rows], i, j))
    assert outcome(read_csv_dataset, csv_path) == outcome(_scan_csv, csv_path)


@pytest.mark.parametrize("text, fast", [
    ("y,A\n1,0\n0,1\n", True),
    ("y,A\n1,0\n0,1", True),
    ('"y", A \n1,0\n0,1\n', True),
    ("y\n1\n", True),
    ("y,A\r\n1,0\r\n", False),
    ("y,A\n1, 0\n", False),
    ("y,A\n\n1,0\n", False),
    ("y,A\n1,0\n\n", False),
    ("y,A\n", False),
    ("", False),
])
def test_fast_path_selection(csv_path, text, fast):
    write(csv_path, text)
    with open(csv_path, "rb") as handle:
        assert (_parse_numeric(handle.read(), "y") is not None) == fast
    assert outcome(read_csv_dataset, csv_path) == outcome(_scan_csv, csv_path)


def test_columns_are_contiguous(csv_path):
    write(csv_path, "L1,y,A\n0.5,1,0\n-1.5,0,1\n")
    data = read_csv_dataset(csv_path, "y")
    assert list(data.columns) == ["L1", "A"]
    assert all(v.flags.c_contiguous for v in [data.y, *data.columns.values()])
    np.testing.assert_array_equal(data.column("L1"), [0.5, -1.5])
