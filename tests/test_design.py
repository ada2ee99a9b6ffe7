import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskratio import (
    Categorical,
    Dataset,
    Intercept,
    Interaction,
    Main,
    Spline,
    build_design_matrix,
    default_knots,
    fit_robust_poisson,
    generate,
    parse_spec,
    rcs_basis,
)
from riskratio.errors import (
    DegenerateColumn,
    NonIncreasingKnots,
    SpecParseError,
    UnknownColumn,
)
from riskratio.design import (
    FILL_CHUNK,
    _default_knot_rows,
    build_design_stack,
    column_ranges,
    realize,
)
from riskratio import design as design_module
from riskratio.rng import stream
from riskratio.simlab import SCENARIOS, generate as draw

from oracles import default_knots_quantile


def oracle_rcs(x, knots):
    """Independent scalar-loop evaluation of the truncated-power formula."""
    t = list(knots)
    k = len(t)
    out = np.zeros((len(x), k - 1))
    for i, xi in enumerate(x):
        out[i, 0] = xi
        for j in range(k - 2):
            def p3(u):
                return max(u, 0.0) ** 3
            val = (
                p3(xi - t[j])
                - p3(xi - t[k - 2]) * (t[k - 1] - t[j]) / (t[k - 1] - t[k - 2])
                + p3(xi - t[k - 1]) * (t[k - 2] - t[j]) / (t[k - 1] - t[k - 2])
            )
            out[i, j + 1] = val / (t[k - 1] - t[0]) ** 2
    return out


def small_dataset():
    return Dataset(
        y=np.array([0.0, 1.0, 0.0]),
        columns={"A": np.array([0.0, 1.0, 1.0]), "L": np.array([1.5, -0.5, 2.0])},
    )


class TestBuildDesignMatrix:
    def test_identity_encoding(self):
        data = small_dataset()
        dm = build_design_matrix(data, [Intercept(), Main("A"), Main("L")])
        assert dm.X.shape == (3, 3)
        np.testing.assert_array_equal(dm.X[:, 0], 1.0)
        np.testing.assert_array_equal(dm.X[:, 1], data.column("A"))
        np.testing.assert_array_equal(dm.X[:, 2], data.column("L"))

    def test_categorical_dummy_coding(self):
        rng = stream(5, 0)
        levels = rng.integers(1, 6, size=200).astype(float)
        data = Dataset(y=(rng.random(200) < 0.3).astype(float), columns={"A": levels})
        dm = build_design_matrix(
            data, [Intercept(), Categorical("A", reference=1.0)], exposure="A"
        )
        dummies = dm.X[:, 1:]
        assert dummies.shape[1] == 4
        assert np.all(dummies.sum(axis=1) <= 1.0)
        assert dm.exposure_cols == (1, 2, 3, 4)

    def test_dummy_coding_completeness(self):
        # intercept plus k-1 dummies span every level indicator
        rng = stream(5, 1)
        levels = rng.integers(0, 4, size=100).astype(float)
        data = Dataset(y=np.zeros(100), columns={"A": levels})
        dm = build_design_matrix(data, [Intercept(), Categorical("A", reference=0.0)])
        for level in range(4):
            indicator = (levels == level).astype(float)
            coef, *_ = np.linalg.lstsq(dm.X, indicator, rcond=None)
            assert np.max(np.abs(dm.X @ coef - indicator)) < 1e-10

    def test_unknown_column(self):
        with pytest.raises(UnknownColumn):
            build_design_matrix(small_dataset(), [Intercept(), Main("missing")])

    def test_degenerate_column(self):
        data = Dataset(y=np.array([0.0, 1.0]), columns={"C": np.array([2.0, 2.0])})
        with pytest.raises(DegenerateColumn):
            build_design_matrix(data, [Intercept(), Main("C")])

    def test_rank_deficiency_flag(self):
        rng = stream(5, 2)
        x = rng.standard_normal(50)
        data = Dataset(
            y=(rng.random(50) < 0.3).astype(float),
            columns={"X1": x, "X2": 2.0 * x},
        )
        dm = build_design_matrix(data, [Intercept(), Main("X1"), Main("X2")])
        assert dm.rank_deficient

    @pytest.mark.parametrize("collinear", [True, False])
    def test_rank_over_several_row_blocks(self, collinear, monkeypatch):
        # 1000 rows in blocks of 64: the R factors of 16 blocks are
        # factored again.  X2 = 1 - 2 X1 on every row is found; on the
        # first 100 rows only (the first block is then deficient alone),
        # the design has full rank.
        rng = stream(5, 3)
        x = rng.standard_normal(1000)
        x2 = 1.0 - 2.0 * x
        if not collinear:
            x2[100:] = rng.standard_normal(900)
        data = Dataset(
            y=(rng.random(1000) < 0.3).astype(float),
            columns={"X1": x, "X2": x2, "X3": rng.standard_normal(1000)},
        )
        terms = [Intercept(), Main("X1"), Main("X2"), Main("X3")]
        monkeypatch.setattr(design_module, "BLOCK_ROWS", 64)
        dm = build_design_matrix(data, terms)
        assert dm.rank_deficient is collinear
        assert bool(np.linalg.matrix_rank(dm.X) < dm.p) is collinear

    def test_interaction_product(self):
        data = small_dataset()
        dm = build_design_matrix(
            data, [Intercept(), Interaction(Main("A"), Main("L"))]
        )
        np.testing.assert_allclose(
            dm.X[:, 1], data.column("A") * data.column("L")
        )


class TestRcsBasis:
    def test_linear_below_first_knot(self):
        x = np.linspace(-5.0, -1.0, 20)
        basis = rcs_basis(x, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(basis[:, 1:], 0.0)
        np.testing.assert_array_equal(basis[:, 0], x)

    def test_value_at_last_knot_and_flat_second_derivative(self):
        knots = np.array([-1.0, 0.0, 0.5, 2.0])
        x = np.array([2.0])
        np.testing.assert_allclose(rcs_basis(x, knots), oracle_rcs(x, knots), atol=1e-14)
        # second derivative vanishes beyond the last knot
        h = 1e-3
        for x0 in (2.5, 4.0, 10.0):
            vals = oracle_rcs(np.array([x0 - h, x0, x0 + h]), knots)
            second = (vals[0] - 2 * vals[1] + vals[2]) / h**2
            assert np.max(np.abs(second)) < 1e-6

    def test_matches_oracle_on_sample(self):
        rng = stream(11, 0)
        x = rng.standard_normal(1000)
        knots = default_knots(x, 4)
        np.testing.assert_allclose(
            np.quantile(x, [0.05, 0.35, 0.65, 0.95]), knots, atol=0
        )
        np.testing.assert_allclose(rcs_basis(x, knots), oracle_rcs(x, knots), atol=1e-12)

    def test_golden_values(self):
        # frozen from the scalar oracle: knots (-1, 0, 1, 2), probe points
        knots = [-1.0, 0.0, 1.0, 2.0]
        x = np.array([-2.0, -0.5, 0.25, 1.5, 3.0])
        golden = np.array([
            [-2.0, 0.0, 0.0],
            [-0.5, 0.013888888888888888, 0.0],
            [0.25, 0.2170138888888889, 0.001736111111111111],
            [1.5, 1.6944444444444444, 0.3472222222222222],
            [3.0, 4.666666666666667, 1.3333333333333333],
        ])
        np.testing.assert_allclose(rcs_basis(x, knots), golden, atol=1e-10)

    def test_spline_column_count(self):
        rng = stream(11, 1)
        x = rng.standard_normal(1000)
        data = Dataset(y=np.zeros(1000), columns={"L1": x})
        dm = build_design_matrix(data, [Spline("L1", nknots=4)])
        assert dm.X.shape[1] == 3  # linear + 2 restricted cubic columns

    def test_bad_knots(self):
        with pytest.raises(NonIncreasingKnots):
            rcs_basis(np.zeros(3), [0.0, 0.0, 1.0])
        with pytest.raises(NonIncreasingKnots):
            rcs_basis(np.zeros(3), [0.0, 1.0])

    @pytest.mark.parametrize("knots", [(0.0, 0.0, 1.0), (1.0, 0.5, 2.0)])
    def test_bad_explicit_knots_in_a_design(self, knots):
        data = small_dataset()
        with pytest.raises(NonIncreasingKnots) as err:
            build_design_matrix(data, [Intercept(), Main("A"), Spline("L", 3, knots)], "A")
        assert str(err.value) == f"spline knots must be strictly increasing, got {list(knots)}"

    def test_duplicate_knots_collapse(self):
        # discrete covariate: quantiles tie, duplicates collapse, <3 errors
        x = np.repeat([0.0, 1.0, 2.0, 3.0], 25)
        knots = default_knots(x, 5)
        assert np.all(np.diff(knots) > 0)
        binary = np.repeat([0.0, 1.0], 50)
        with pytest.raises(NonIncreasingKnots):
            default_knots(binary, 4)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_tail_linearity(self, seed):
        rng = stream(seed, 3)
        x = rng.standard_normal(500)
        knots = default_knots(x, 4)
        lo = knots[0] - 1.0 - 2.0 * rng.random(3)
        hi = knots[-1] + 1.0 + 2.0 * rng.random(3)
        for triple in (np.sort(lo), np.sort(hi)):
            basis = rcs_basis(triple, knots)
            scale = max(np.max(np.abs(rcs_basis(x, knots))), 1.0)
            # second finite (divided) difference of each column is ~0
            for j in range(basis.shape[1]):
                d1 = (basis[1, j] - basis[0, j]) / (triple[1] - triple[0])
                d2 = (basis[2, j] - basis[1, j]) / (triple[2] - triple[1])
                assert abs(d2 - d1) < 1e-8 * scale


class TestSpecLanguage:
    def test_parse_full_spec(self):
        terms = parse_spec("1 + A + L1 + rcs(L1,4) + L1:L2 + cat(A,ref=1)")
        assert terms == [
            Intercept(),
            Main("A"),
            Main("L1"),
            Spline("L1", nknots=4),
            Interaction(Main("L1"), Main("L2")),
            Categorical("A", reference=1.0),
        ]

    @pytest.mark.parametrize("bad", ["", "1 +", "rcs(L1)", "A + + B", "f(x)"])
    def test_parse_errors(self, bad):
        with pytest.raises(SpecParseError):
            parse_spec(bad)

    def test_unknown_term_raises_before_any_column(self):
        with pytest.raises(TypeError, match="unknown term 'A'"):
            build_design_matrix(small_dataset(), [Intercept(), "A"])

    @pytest.mark.parametrize("operand", [Categorical("L"), Intercept()])
    def test_interaction_operand_must_be_main_or_spline(self, operand):
        with pytest.raises(SpecParseError, match="must be main or spline terms"):
            Interaction(Main("A"), operand)

    @pytest.mark.parametrize("spec, message", [
        ("1 + A + rcs(L,9)", "unsupported knot count 9 (use 3..7)"),
        ("1 + A + A", "duplicate design columns: ['(Intercept)', 'A', 'A']"),
    ])
    def test_specs_that_parse_but_do_not_build(self, spec, message):
        with pytest.raises(SpecParseError) as err:
            build_design_matrix(small_dataset(), parse_spec(spec), "A")
        assert str(err.value) == message


def test_affine_encoding_invariance():
    # shifting a covariate changes only intercept and that coefficient;
    # fitted means are unchanged
    rng = stream(21, 0)
    n = 400
    l = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    y = (rng.random(n) < np.exp(-1.2 + 0.3 * a - 0.2 * l)).astype(float)
    base = Dataset(y=y, columns={"A": a, "L": l})
    shifted = base.with_column("L", l + 3.7)
    spec = [Intercept(), Main("A"), Main("L")]
    fit0 = fit_robust_poisson(build_design_matrix(base, spec), y)
    fit1 = fit_robust_poisson(build_design_matrix(shifted, spec), y)
    np.testing.assert_allclose(fit0.mu_hat, fit1.mu_hat, atol=1e-8)
    np.testing.assert_allclose(fit0.beta[1], fit1.beta[1], atol=1e-8)  # exposure
    np.testing.assert_allclose(fit0.beta[2], fit1.beta[2], atol=1e-8)  # slope
    assert abs(fit0.beta[0] - fit1.beta[0]) > 0.1  # intercept absorbs the shift


def take_sample(n=200):
    """A ``moderate`` sample with an added binary column B, and its design
    under a spec holding every term kind."""
    data = generate("moderate", n, rng=stream(7, 0))
    data = data.with_column("B", (stream(7, 1).random(n) < 0.3).astype(float))
    spec = parse_spec("1 + A + rcs(L1,4) + L1:L2 + cat(B,ref=0)")
    return data, build_design_matrix(data, spec, "A")


def _x_or_error(build):
    try:
        return build().X
    except DegenerateColumn as exc:
        return str(exc)


class TestTake:
    DATA, DESIGN = take_sample()

    @settings(max_examples=60)
    @given(st.lists(st.integers(0, 199), min_size=10, max_size=400))
    def test_equals_rebuild(self, idx):
        data, design = self.DATA, self.DESIGN
        taken = _x_or_error(lambda: design.take(idx))
        rebuilt = _x_or_error(lambda: build_design_matrix(
            data.take(idx), list(design.terms), "A"))
        if isinstance(rebuilt, str):
            assert taken == rebuilt
        else:
            assert taken.shape == rebuilt.shape
            assert taken.tobytes() == rebuilt.tobytes()

    def test_carries_the_design(self):
        design = self.DESIGN
        idx = stream(7, 2).integers(0, design.n, size=design.n)
        taken = design.take(idx)
        assert (taken.labels, taken.terms, taken.exposure, taken.exposure_cols) == (
            design.labels, design.terms, design.exposure, design.exposure_cols)
        np.testing.assert_array_equal(taken.data.y, design.data.y[idx])

    @pytest.mark.parametrize("rows", ["B zero", "one row"])
    def test_constant_column_error_matches_rebuild(self, rows):
        data, design = self.DATA, self.DESIGN
        if rows == "B zero":
            idx = np.flatnonzero(data.column("B") == 0.0)
        else:
            idx = np.zeros(data.n, dtype=int)
        with pytest.raises(DegenerateColumn) as rebuilt:
            build_design_matrix(data.take(idx), list(design.terms), "A")
        with pytest.raises(DegenerateColumn) as taken:
            design.take(idx)
        assert str(taken.value) == str(rebuilt.value)
        assert taken.value.name == ("B[1]" if rows == "B zero" else "A")

    def test_rank_is_computed_only_when_read(self, monkeypatch):
        # The rank check ends in one SVD, of the p x p R factor of X.
        calls = []
        svd = np.linalg.svd

        def counted(R, **kwargs):
            calls.append(R.shape)
            return svd(R, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        _, design = take_sample()
        resample = design.take(stream(7, 3).integers(0, design.n, size=design.n))
        assert calls == []
        assert not design.rank_deficient and not design.rank_deficient
        assert calls == [(design.p, design.p)]
        assert not resample.rank_deficient
        assert len(calls) == 2


class TestColumnRanges:
    @pytest.mark.parametrize("n, p", [
        (100, 9),
        (8192, 9),
        (8193, 9),
        (8193, 1),
    ])
    def test_equal_axis0_min_max(self, n, p):
        X = stream(8, n).standard_normal((n, p))
        X[-1, 0] = 50.0  # an extreme in the last row
        X[:, 1:2] -= 10.0  # a column below zero and one above it
        X[:, 2:3] += 10.0
        for layout in (X, np.asfortranarray(X)):
            lo, hi = column_ranges(layout)
            np.testing.assert_array_equal(lo, X.min(axis=0))
            np.testing.assert_array_equal(hi, X.max(axis=0))

    def test_design_keeps_its_ranges(self):
        _, design = take_sample()
        lo, hi = design.column_ranges
        np.testing.assert_array_equal(lo, design.X.min(axis=0))
        np.testing.assert_array_equal(hi, design.X.max(axis=0))
        assert design.column_ranges is design.column_ranges

    @pytest.mark.parametrize("spec, label", [
        ("1 + L + A:B + A", "A:B"),
        ("1 + A + C + L", "C"),
        ("1 + A + rcs(L,3) + C + A:B", "C"),
        ("1 + A + cat(C,ref=3)", "C"),
    ])
    def test_first_constant_column_in_column_order(self, spec, label):
        n = 40
        rng = stream(8, 1)
        a = (np.arange(n) % 2).astype(float)
        data = Dataset(
            y=(rng.random(n) < 0.4).astype(float),
            columns={"A": a, "B": 1.0 - a, "C": np.full(n, 3.0),
                     "L": rng.standard_normal(n)},
        )
        with pytest.raises(DegenerateColumn) as err:
            build_design_matrix(data, parse_spec(spec), exposure="A")
        assert str(err.value) == (
            f"column {label!r} is constant and cannot enter the model")


class TestColumnMajor:
    """Every built, resampled or realized design matrix is column-major, so
    its transpose is C-contiguous."""

    @pytest.mark.parametrize("spec", [
        "1",
        "1 + A + L2",
        "1 + A + rcs(L1,4)",
        "1 + A + L1 + L1:L2",
        "1 + A + cat(B,ref=0)",
        "1 + A + rcs(L1,4) + L1:L2 + cat(B,ref=0)",
    ])
    def test_build_take_realize(self, spec):
        data, _ = take_sample()
        design = build_design_matrix(data, parse_spec(spec), "A")
        row_major = np.column_stack([
            build_design_matrix(data, [term], "A").X for term in design.terms])
        assert design.X.flags.f_contiguous and design.X.T.flags.c_contiguous
        assert design.X.tobytes(order="C") == row_major.tobytes()

        idx = stream(7, 4).integers(0, design.n, size=design.n)
        taken = design.take(idx).X
        assert taken.flags.f_contiguous
        assert taken.tobytes(order="C") == row_major[idx].tobytes()

        other = generate("moderate", 50, rng=stream(7, 5))
        other = other.with_column("B", (np.arange(50) % 2).astype(float))
        realized = realize(design, other)
        assert realized.flags.f_contiguous
        assert realized.shape == (50, design.p)


def test_empty_term_list_raises():
    with pytest.raises(SpecParseError, match="at least one term"):
        build_design_matrix(small_dataset(), [])


def _knots_or_error(knots):
    """Knot bytes, or the error's class and text, for exact comparison."""
    if isinstance(knots, Exception):
        return type(knots), str(knots)
    return knots.tobytes()


class TestStackedKnots:
    """Knots placed by one row sort equal NumPy's per-row quantiles bit for
    bit, ties and collapses included."""

    @settings(max_examples=120)
    @given(
        n=st.integers(1, 5000),
        log_scale=st.floats(-8.0, 8.0),
        kinds=st.lists(st.sampled_from(["continuous", "tied", "constant"]),
                       min_size=1, max_size=4),
        nknots=st.integers(3, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_per_row_quantiles(self, n, log_scale, kinds, nknots, seed):
        rng = stream(seed, n)
        scale = 10.0 ** log_scale
        rows = []
        for kind in kinds:
            if kind == "continuous":
                rows.append(scale * (rng.standard_normal(n) + rng.standard_normal()))
            elif kind == "tied":
                levels = int(rng.integers(2, 6))
                rows.append(scale * rng.integers(-2, levels, size=n).astype(float))
            else:
                rows.append(np.full(n, scale * rng.standard_normal()))
        X = np.stack(rows)
        stacked = _default_knot_rows(X, nknots)
        for x, knots in zip(X, stacked):
            try:
                expected = default_knots_quantile(x, nknots)
            except NonIncreasingKnots as exc:
                expected = exc
            assert _knots_or_error(knots) == _knots_or_error(expected)


# Blocks the stacked build must reproduce row by row: (scenario, n, spec).
STACK_CASES = [
    (name, n, getattr(SCENARIOS[name], f"{spec}_spec"))
    for name, n in (("simple", 150), ("moderate", 150), ("complex", 150),
                    ("figure-demo", 150))
    for spec in ("simple", "rich")
] + [
    ("figure-demo", 10, SCENARIOS["figure-demo"].simple_spec),  # degenerate rows
    ("simple", 10, "1 + A + rcs(L1,3) + L2"),                 # tied knots
]


def _design_view(design):
    """Everything a built design carries, as comparable values, or the
    error's class and text."""
    if isinstance(design, Exception):
        return type(design), str(design)
    lo, hi = design.column_ranges
    return (design.X.tobytes(order="F"), design.X.shape, design.X.flags.f_contiguous,
            design.labels, design.terms, design.exposure, design.exposure_cols,
            lo.tobytes(), hi.tobytes())


def _build_alone(data, spec):
    try:
        return build_design_matrix(data, parse_spec(spec), "A")
    except (DegenerateColumn, NonIncreasingKnots, SpecParseError,
            UnknownColumn) as exc:
        return exc


class TestBuildDesignStack:
    @pytest.mark.parametrize("scenario, n, spec", STACK_CASES)
    def test_equals_one_design_builds(self, scenario, n, spec):
        datas = [draw(scenario, n, rng=stream(31, k))
                 for k in range(40 if n > 10 else 400)]
        stacked = build_design_stack(datas, parse_spec(spec), "A")
        alone = [_build_alone(d, spec) for d in datas]
        assert [_design_view(d) for d in stacked] == [_design_view(d) for d in alone]
        for design, data in zip(stacked, datas):
            if not isinstance(design, Exception):
                assert design.data is data
        if n == 10:
            # the block mixes failed and built rows
            failed = sum(isinstance(d, Exception) for d in stacked)
            assert 0 < failed < len(datas)

    def test_mixed_shapes_and_errors(self):
        """Rows whose knots collapse, whose levels differ, whose reference
        level is missing or whose column is constant, in one call."""
        rng = stream(32, 0)
        datas = []
        for k in range(24):
            n = 60
            levels = 2 + k % 7
            categories = rng.choice([(0.0, 1.0, 2.0), (1.0, 2.0), (0.0, 2.0),
                                     (0.0, 1.0)][k % 4], size=n)
            datas.append(Dataset(
                y=(rng.random(n) < 0.4).astype(float),
                columns={"A": (rng.random(n) < 0.5).astype(float),
                         "D": rng.integers(0, levels, size=n).astype(float),
                         "C": categories,
                         "L": rng.standard_normal(n) if k % 5 else np.ones(n)},
            ))
        spec = "1 + A + rcs(D,4) + cat(C,ref=1) + L + A:rcs(D,4)"
        stacked = build_design_stack(datas, parse_spec(spec), "A")
        alone = [_build_alone(d, spec) for d in datas]
        assert [_design_view(d) for d in stacked] == [_design_view(d) for d in alone]
        kinds = {type(d).__name__ if isinstance(d, Exception) else d.p for d in stacked}
        assert {"NonIncreasingKnots", "SpecParseError", "DegenerateColumn"} <= kinds
        assert len(kinds - {"NonIncreasingKnots", "SpecParseError",
                            "DegenerateColumn"}) > 1  # designs of two widths

    def test_sizes_and_missing_columns(self):
        datas = [draw("moderate", n, rng=stream(33, n)) for n in (40, 50, 40)]
        datas.append(Dataset(y=datas[0].y, columns={"A": datas[0].column("A")}))
        spec = "1 + A + rcs(L1,4) + L2"
        stacked = build_design_stack(datas, parse_spec(spec), "A")
        alone = [_build_alone(d, spec) for d in datas]
        assert [_design_view(d) for d in stacked] == [_design_view(d) for d in alone]
        assert isinstance(stacked[3], UnknownColumn)

    def test_designs_are_views_of_one_stack(self):
        datas = [draw("moderate", 100, rng=stream(34, k)) for k in range(5)]
        designs = build_design_stack(
            datas, parse_spec(SCENARIOS["moderate"].rich_spec), "A")
        base = designs[0].X.base
        assert base.shape == (5, designs[0].p, 100) and base.flags.c_contiguous
        assert all(d.X.base is base for d in designs)


def rcs_whole(x, knots):
    """The basis by the formula of ``rcs_basis`` over the whole vector at
    once, with the same operations in the same order."""
    t = np.asarray(knots, dtype=float)
    out = np.empty((x.size, t.size - 1))
    out[:, 0] = x

    def cube(u):
        v = np.maximum(u, 0.0)
        return v * v * v

    scale = (t[-1] - t[0]) ** 2
    denom = t[-1] - t[-2]
    pk, pkm1 = cube(x - t[-1]), cube(x - t[-2])
    for j in range(t.size - 2):
        out[:, j + 1] = (cube(x - t[j]) - pkm1 * (t[-1] - t[j]) / denom
                         + pk * (t[-2] - t[j]) / denom) / scale
    return out


@pytest.mark.parametrize("rows, n", [(1, 3 * FILL_CHUNK + 17), (7, FILL_CHUNK // 3)])
def test_chunked_spline_fill_equals_whole_vectors(rows, n):
    """Filling a chunk of columns at a time gives the whole-vector basis
    bit for bit, in a stack of one and across chunk edges of a stack."""
    datas = [draw("moderate", n, rng=stream(35, k)) for k in range(rows)]
    designs = build_design_stack(datas, parse_spec("1 + rcs(L1,5)"))
    for data, design in zip(datas, designs):
        x = data.column("L1")
        knots = design.terms[1].knots
        assert design.X[:, 1:].tobytes() == rcs_whole(x, knots).tobytes()
        assert rcs_basis(x, knots).tobytes() == rcs_whole(x, knots).tobytes()


def test_spline_scale_is_the_scalar_square():
    """(t_k - t_1)^2 is taken as the scalar power, which differs from the
    product d * d that array squaring computes in the last bit for some d;
    the basis keeps the scalar one that one design has always used."""
    rng = stream(36, 0)
    d = next(d for d in rng.standard_normal(10_000) * 7.0 + 10.0
             if float(d) ** 2 != float(d) * float(d))
    knots = [0.0, d / 3, d / 2, d]
    x = stream(36, 1).uniform(-1.0, d + 1.0, 500)
    designs = build_design_stack(
        [Dataset(y=np.zeros(500), columns={"L": x})] * 3,
        [Spline("L", knots=tuple(knots))])
    for design in [*designs, None]:
        basis = rcs_basis(x, knots) if design is None else design.X
        assert basis.tobytes() == rcs_whole(x, knots).tobytes()
