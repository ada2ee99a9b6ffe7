import numpy as np
import pytest

from riskratio import Dataset
from riskratio.errors import DataError
from riskratio.rng import stream


def sample(n=50):
    rng = stream(90, 0)
    return Dataset(
        y=(rng.random(n) < 0.4).astype(float),
        columns={"A": (rng.random(n) < 0.5).astype(float),
                 "L": rng.standard_normal(n)},
    )


def assert_same(a, b):
    assert a.y.dtype == b.y.dtype and np.array_equal(a.y, b.y)
    assert list(a.columns) == list(b.columns)
    for name in a.columns:
        assert a.columns[name].dtype == b.columns[name].dtype
        np.testing.assert_array_equal(a.columns[name], b.columns[name])


def forbid_full_validation(monkeypatch):
    def forbidden(self):
        raise AssertionError("derived copy re-ran the full validation")

    monkeypatch.setattr(Dataset, "__post_init__", forbidden)


class TestWithColumn:
    def test_equals_full_construction(self):
        data = sample()
        values = [float(i) for i in range(data.n)]
        expected = Dataset(y=data.y, columns={**data.columns, "L": values})
        assert_same(data.with_column("L", values), expected)
        expected = Dataset(y=data.y, columns={**data.columns, "M": values})
        assert_same(data.with_column("M", values), expected)

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.nan, 2.0], "column 'L' has length 3, expected 50"),
        (np.r_[np.zeros(7), np.nan, np.zeros(42)],
         "column 'L' has a non-finite value at row 7"),
        (np.r_[np.zeros(9), -np.inf, np.zeros(40)],
         "column 'L' has a non-finite value at row 9"),
    ])
    def test_checks_the_new_column_as_the_constructor_does(self, values, message):
        data = sample()
        with pytest.raises(DataError) as from_constructor:
            Dataset(y=data.y, columns={**data.columns, "L": values})
        with pytest.raises(DataError) as from_copy:
            data.with_column("L", values)
        assert str(from_copy.value) == str(from_constructor.value) == message

    def test_does_not_revalidate_other_columns(self, monkeypatch):
        data = sample()
        forbid_full_validation(monkeypatch)
        assert data.with_column("A", np.ones(data.n)).columns["L"] is data.columns["L"]


class TestTake:
    def test_equals_full_construction(self):
        data = sample()
        idx = stream(90, 1).integers(0, data.n, size=data.n)
        expected = Dataset(y=data.y[idx],
                           columns={k: v[idx] for k, v in data.columns.items()})
        assert_same(data.take(idx), expected)

    def test_does_not_revalidate(self, monkeypatch):
        data = sample()
        forbid_full_validation(monkeypatch)
        assert data.take([3, 1]).n == 2

    @pytest.mark.parametrize("idx", [[], [[0, 1], [2, 3]]])
    def test_bad_index_shape_raises(self, idx):
        with pytest.raises(DataError, match="non-empty 1-D"):
            sample().take(idx)


@pytest.mark.parametrize("y, row", [([0.0, 1.0, 0.5, 1.0], 2), ([2.0, 0.0], 0), ([1.0, -1.0], 1)])
def test_outcome_not_0_or_1_raises(y, row):
    with pytest.raises(DataError) as err:
        Dataset(y=np.array(y))
    assert str(err.value) == f"outcome must be 0/1; offending value at row {row}"
