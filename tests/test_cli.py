import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import riskratio
from riskratio import (
    Dataset,
    bootstrap_rr,
    build_design_matrix,
    coefficient_rr,
    fit_robust_poisson,
    parse_spec,
)
from riskratio.cli import main
from riskratio.rng import stream
from riskratio.simlab import expit, generate, get_scenario


@pytest.fixture
def two_by_two_csv(tmp_path):
    path = tmp_path / "tab.csv"
    rows = ["y,A"]
    rows += ["1,1"] * 30 + ["0,1"] * 70 + ["1,0"] * 20 + ["0,0"] * 80
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def write_scenario_csv(tmp_path, scenario, n, stream_key):
    data = generate(scenario, n, rng=stream(*stream_key))
    cols = ["y"] + sorted(data.columns)
    lines = [",".join(cols)]
    for i in range(data.n):
        vals = [data.y[i]] + [data.column(c)[i] for c in cols[1:]]
        lines.append(",".join(f"{v:.17g}" for v in vals))
    path = tmp_path / f"{scenario}.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cli_import_does_not_load_scipy():
    # SciPy alone would add about a second to every CLI call's start-up.
    src = os.path.dirname(os.path.dirname(os.path.abspath(riskratio.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, riskratio.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestFit:
    def test_2x2_table_output(self, two_by_two_csv, capsys):
        code = main([
            "fit", "--csv", two_by_two_csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1 + A",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1.50" in out
        # closed-form Wald CI on the log scale
        se = np.sqrt(0.7 / 30 + 0.8 / 20)
        z = 1.959963984540054
        assert f"{1.5 * np.exp(-z * se):.2f}" in out
        assert f"{1.5 * np.exp(z * se):.2f}" in out

    def test_machine_format_roundtrips(self, two_by_two_csv, tmp_path):
        out_path = tmp_path / "fit.json"
        code = main([
            "fit", "--csv", two_by_two_csv, "--outcome", "y", "--exposure", "A",
            "--format", "machine", "--out", str(out_path),
        ])
        assert code == 0
        import json

        payload = json.loads(out_path.read_text())
        est = payload["results"]["estimates"][0]
        np.testing.assert_allclose(est["rr"], 1.5, atol=1e-8)
        assert payload["results"]["n"] == 200

    def test_cat_and_rcs_spec_shape(self, tmp_path, capsys):
        rng = stream(80, 0)
        n = 600
        a = rng.integers(0, 4, size=n).astype(float)
        l = rng.standard_normal(n)
        y = (rng.random(n) < 0.25).astype(float)
        lines = ["y,A,L"] + [
            f"{y[i]:g},{a[i]:g},{l[i]:.17g}" for i in range(n)
        ]
        path = tmp_path / "cat.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
            "--spec", "1 + cat(A,ref=0) + rcs(L,4)", "--estimand", "both",
        ])
        out = capsys.readouterr().out
        assert code == 0
        # 3 coefficient rows (levels 1,2,3 vs 0) + 3 marginal rows
        assert out.count("wald-sandwich") == 3
        assert out.count("delta") == 3

    def test_logbin_ml_complex_sample_exits_4(self, tmp_path, capsys):
        # find a complex-scenario sample where ML hits the boundary
        for r in range(20):
            csv = write_scenario_csv(tmp_path, "complex", 1000, (81, r))
            code = main([
                "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
                "--spec", get_scenario("complex").simple_spec,
                "--method", "logbin-ml",
            ])
            capsys.readouterr()
            if code == 4:
                return
        pytest.fail("no complex sample produced a log-binomial ML failure")

    def test_bootstrap_row(self, tmp_path, capsys):
        csv = write_scenario_csv(tmp_path, "simple", 400, (82, 0))
        code = main([
            "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1 + A + L1 + L2", "--boot", "100", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "bootstrap(100)" in out

    def test_bootstrap_refits_the_requested_method(self, tmp_path):
        csv = write_scenario_csv(tmp_path, "simple", 400, (82, 0))
        out_path = tmp_path / "fit.json"
        code = main([
            "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1 + A + L1 + L2", "--method", "logbin-ab",
            "--boot", "100", "--seed", "5", "--format", "machine",
            "--out", str(out_path),
        ])
        assert code == 0
        coef, boot = json.loads(out_path.read_text())["results"]["estimates"]
        assert boot["method"] == "bootstrap(100)"
        assert boot["rr"] == coef["rr"]

    def test_failed_resamples_are_reported(self, tmp_path, capsys):
        # B is 1 on 15 rows, 3 of them events: a resample that draws none of
        # those 3 has no finite solution, which happens to a few of 100.
        rng = stream(83, 0)
        n = 300
        y = (rng.random(n) < 0.3).astype(float)
        b = np.zeros(n)
        b[np.flatnonzero(y == 1)[:3]] = 1.0
        b[np.flatnonzero(y == 0)[:12]] = 1.0
        data = Dataset(y=y, columns={"A": (rng.random(n) < 0.5).astype(float),
                                     "L": rng.standard_normal(n), "B": b})
        path = tmp_path / "sparse.csv"
        path.write_text("y,A,L,B\n" + "".join(
            f"{y[i]:g},{data.column('A')[i]:g},{data.column('L')[i]:.17g},{b[i]:g}\n"
            for i in range(n)))
        spec = "1 + A + L + B"
        design = build_design_matrix(data, parse_spec(spec), exposure="A")
        failed = bootstrap_rr(
            lambda dm: fit_robust_poisson(dm, dm.data.y), design,
            lambda f, dm: coefficient_rr(f, 1), fit_robust_poisson(design, data.y),
            B=100, seed=0,
        ).extra["failed_resamples"]
        assert 0 < failed <= 20
        warning = f"{failed} of 100 bootstrap resamples failed"
        args = ["fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
                "--spec", spec, "--boot", "100"]

        assert main(args + ["--format", "machine", "--out", str(tmp_path / "r.json")]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["warnings"] == [warning]
        assert main(args) == 0
        assert f"warning: {warning}" in capsys.readouterr().out

    def test_no_warning_without_failed_resamples(self, tmp_path):
        csv = write_scenario_csv(tmp_path, "simple", 400, (82, 0))
        out_path = tmp_path / "fit.json"
        code = main([
            "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1 + A + L1 + L2", "--boot", "100", "--seed", "5",
            "--format", "machine", "--out", str(out_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["warnings"] == []

    @pytest.mark.parametrize("method, label", [
        ("robust-poisson", "wald-sandwich"),
        ("logbin-ab", "wald-model"),
    ])
    def test_coefficient_row_names_its_covariance(self, tmp_path, method, label):
        csv = write_scenario_csv(tmp_path, "simple", 400, (82, 0))
        out_path = tmp_path / "fit.json"
        code = main([
            "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
            "--method", method, "--estimand", "both", "--format", "machine",
            "--out", str(out_path),
        ])
        assert code == 0
        coef, marginal = json.loads(out_path.read_text())["results"]["estimates"]
        assert coef["method"] == label
        assert marginal["method"] == "delta"


    def test_fitted_means_above_one_are_warned(self, tmp_path, capsys):
        # A risk that rises steeply in L: the log-linear fit puts 37 of the
        # 300 fitted means above 1, and says so.
        rng = stream(64, 0)
        L = rng.uniform(-1, 1, 300)
        A = (rng.random(300) < 0.5) * 1.0
        y = (rng.random(300) < expit(-1 + 0.5 * A + 5 * L)) * 1.0
        path = tmp_path / "steep.csv"
        path.write_text("y,A,L\n" + "".join(
            f"{int(yi)},{int(ai)},{li:.17g}\n" for yi, ai, li in zip(y, A, L)))
        assert main(["fit", "--csv", str(path), "--outcome", "y",
                     "--exposure", "A", "--spec", "1 + A + L"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "warning: 37 fitted means exceed 1"

    def test_boundary_optimum_is_warned(self, tmp_path, capsys):
        # A complex-scenario sample whose log-binomial optimum puts a fitted
        # risk at 1: the barrier fit succeeds and says so.
        csv = write_scenario_csv(tmp_path, "complex", 1000, (703, 0))
        assert main(["fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
                     "--method", "logbin-ab", "--spec", "1 + A + L1 + L2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ["A", "0.95", "0.76", "1.17", "wald-model"] in [l.split() for l in lines]
        assert lines[-1] == "warning: on_boundary"

    def test_rank_deficient_design_is_warned(self, tmp_path, capsys):
        # L3 = 3 L1 + 1e-12 noise is numerically collinear with L1: the
        # barrier fit warns, and robust Poisson refuses its singular Jacobian.
        data = generate("moderate", 500, rng=stream(704, 0))
        L1 = data.column("L1")
        L3 = 3 * L1 + 1e-12 * stream(705, 0).standard_normal(data.n)
        path = tmp_path / "collinear.csv"
        path.write_text("y,A,L1,L3\n" + "".join(
            f"{int(yi)},{int(ai)},{l1:.17g},{l3:.17g}\n"
            for yi, ai, l1, l3 in zip(data.y, data.column("A"), L1, L3)))
        args = ["fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
                "--spec", "1 + A + L1 + L3", "--method"]
        assert main([*args, "logbin-ab"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "warning: design matrix is numerically rank deficient"
        assert main([*args, "robust-poisson"]) == 4
        assert capsys.readouterr().err.startswith(
            "error: estimating-equation Jacobian is numerically singular (condition estimate ")


class TestStudy:
    SMOKE = (
        "scenario = simple\nn = 200\nreplications = 10\nbase_seed = 11\n"
        "methods = robust-poisson\nspecifications = simple\n"
        "estimands = coefficient\ntruth_n = 50000\n"
    )

    def test_smoke_table(self, tmp_path, capsys):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(self.SMOKE)
        assert main(["study", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "robust-poisson" in out
        assert "Bias" in out

    def test_machine_output_deterministic(self, tmp_path):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(self.SMOKE)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["study", str(cfg), "--format", "machine",
                     "--out", str(a), "--threads", "1"]) == 0
        assert main(["study", str(cfg), "--format", "machine",
                     "--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVersion:
    def test_one_version(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == riskratio.__version__
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text(TestStudy.SMOKE)
        out = tmp_path / "report.json"
        assert main(["study", str(cfg), "--format", "machine",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["version"] == riskratio.__version__


class TestOtherCommands:
    def test_truth(self, capsys):
        assert main(["truth", "--scenario", "simple", "--n", "200000"]) == 0
        out = capsys.readouterr().out
        assert "rr_true = 1.3" in out

    def test_figure_header_and_monotone_widths(self, capsys):
        assert main([
            "figure", "--sizes", "50,200,800", "--replications", "40",
            "--seed", "7",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,rr_hat,ci_low,ci_high"
        widths = []
        for line in lines[1:]:
            _, _, lo, hi = (float(v) for v in line.split(","))
            widths.append(hi - lo)
        assert widths == sorted(widths, reverse=True)

    @pytest.mark.parametrize("sizes, dropped, rows", [("1,2", "1, 2", 0),
                                                      ("2,40", "2", 1)])
    def test_figure_names_dropped_sizes(self, capsys, sizes, dropped, rows):
        # with p = 3 columns, no fit exists below 3 rows
        assert main(["figure", "--sizes", sizes, "--replications", "20"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "n,rr_hat,ci_low,ci_high" and len(lines) == 1 + rows
        assert captured.err == (f"warning: no replication could be fitted at "
                                f"n = {dropped}; dropped from the figure\n")

    def test_validate_csv_and_config(self, two_by_two_csv, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = simple\n")
        assert main(["validate", "--csv", two_by_two_csv, "--outcome", "y",
                     "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = simple\nbogus = 1\n")
        assert main(["study", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["--boot", "50"], ["--boot", "-1"],
        ["--level", "1.5"], ["--level", "0"], ["--level", "nan"],
    ])
    def test_bad_boot_or_level_exits_2(self, two_by_two_csv, capsys, args):
        assert main([
            "fit", "--csv", two_by_two_csv, "--outcome", "y", "--exposure", "A",
            *args,
        ]) == 2
        assert capsys.readouterr().err.startswith(f"error: {args[0]} must be")

    def test_study_level_out_of_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "level.cfg"
        cfg.write_text("scenario = simple\nlevel = 2\n")
        assert main(["study", str(cfg)]) == 2
        assert "config key 'level'" in capsys.readouterr().err

    @pytest.mark.parametrize("truth_n", ["0", "1", "-3"])
    def test_study_truth_n_below_2_exits_2(self, tmp_path, capsys, truth_n):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text(f"scenario = simple\nreplications = 2\ntruth_n = {truth_n}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["study", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config key 'truth_n'")

    def test_truth_unknown_scenario_exits_2(self, capsys):
        assert main(["truth", "--scenario", "nope", "--n", "100"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --scenario: unknown scenario 'nope'")
        assert captured.out == ""

    def test_truth_n_below_2_exits_2(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["truth", "--scenario", "simple", "--n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --n must be")
        assert captured.out == ""

    @pytest.mark.parametrize("seed, arm", [(1, "exposed"), (3, "unexposed")])
    def test_truth_without_events_in_an_arm_exits_2(self, capsys, seed, arm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["truth", "--scenario", "simple", "--n", "2",
                         "--seed", str(seed)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --n: no events in the {arm} arm of 2 "
            f"Monte Carlo draws; use more draws\n")
        assert captured.out == ""

    def test_study_truth_without_events_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "truth.cfg"
        cfg.write_text("scenario = simple\nreplications = 2\nbase_seed = 3\n"
                       "truth_n = 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["study", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config key 'truth_n': no events in the")
        assert err.count("\n") == 1

    def test_bad_spec_exits_2(self, two_by_two_csv, capsys):
        assert main([
            "fit", "--csv", two_by_two_csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1 + + A",
        ]) == 2
        capsys.readouterr()

    def test_spec_without_the_exposure_exits_2(self, two_by_two_csv, capsys):
        assert main([
            "fit", "--csv", two_by_two_csv, "--outcome", "y", "--exposure", "A",
            "--spec", "1",
        ]) == 2
        assert capsys.readouterr().err == (
            "error: spec '1' produces no columns for exposure 'A'\n")

    @pytest.mark.parametrize("method", ["robust-poisson", "logbin-ml", "logbin-ab"])
    def test_more_parameters_than_rows_exits_3_for_every_method(self, tmp_path,
                                                                  capsys, method):
        # Every method takes its input through one front end, which refuses
        # p > n before any iteration.
        path = tmp_path / "three.csv"
        path.write_text("y,A,L1,L2\n1,1,0.5,1\n0,0,1.5,2\n1,1,-1,0.3\n")
        assert main(["fit", "--csv", str(path), "--outcome", "y",
                     "--exposure", "A", "--method", method]) == 3
        assert capsys.readouterr().err == (
            "error: p=4 parameters with only n=3 observations\n")

    def test_missing_file_exits_3(self, capsys):
        assert main([
            "fit", "--csv", "/nonexistent.csv", "--outcome", "y",
            "--exposure", "A",
        ]) == 3
        capsys.readouterr()

    def test_bad_cell_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,A\n1,1\n0,oops\n")
        assert main([
            "fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
        ]) == 3
        assert "error:" in capsys.readouterr().err

    def test_more_columns_than_rows_exits_3(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("y,A,L\n1,1,0.5\n0,0,1.5\n")
        assert main([
            "fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
            "--spec", "1 + A + L",
        ]) == 3
        assert "error:" in capsys.readouterr().err

    def test_degenerate_outcome_exits_3(self, tmp_path, capsys):
        path = tmp_path / "deg.csv"
        path.write_text("y,A\n2,1\n0,0\n")
        assert main([
            "fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
        ]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("args, message", [
        (["--exposure", "Z"], "column 'Z' not found in dataset"),
        (["--exposure", "A", "--spec", "1+A+C"],
         "column 'C' is constant and cannot enter the model"),
        (["--exposure", "A", "--spec", "1+A+rcs(C,4)"],
         "spline knots must be strictly increasing, got [1.0]"),
    ], ids=["UnknownColumn", "DegenerateColumn", "NonIncreasingKnots"])
    def test_design_data_errors_exit_3(self, tmp_path, capsys, args, message):
        path = tmp_path / "const.csv"
        rows = ["y,A,C,L"] + [f"{int(i % 3 == 0)},{i % 2},1,{i}" for i in range(40)]
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit", "--csv", str(path), "--outcome", "y", *args]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("args, message", [
        ([], "validate needs --csv or --config"),
        (["--csv", "data.csv"], "--outcome is required with --csv"),
        (["--config", "study.cfg", "--outcome", "y"], "--outcome needs --csv"),
    ])
    def test_validate_without_its_input_exits_2(self, capsys, args, message):
        assert main(["validate", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_study_threads_below_1_exits_2(self, tmp_path, capsys, threads):
        cfg = tmp_path / "smoke.cfg"
        cfg.write_text("scenario = simple\nreplications = 2\n")
        assert main(["study", str(cfg), "--threads", threads]) == 2
        assert capsys.readouterr().err == (
            f"error: --threads must be at least 1, got {threads}\n")

    @pytest.mark.parametrize("args, message", [
        (["--sizes", "10,abc"], "--sizes must be comma-separated integers, got '10,abc'"),
        (["--sizes", "0,10"], "--sizes: must be one or more sizes >= 1"),
        (["--sizes", ","], "--sizes: must be one or more sizes >= 1"),
        (["--sizes", "20,10"], "--sizes: must be ascending"),
        (["--replications", "0"], "--replications: must be >= 1"),
    ])
    def test_bad_figure_option_exits_2(self, capsys, args, message):
        assert main(["figure", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command, line, message", [
        (["validate", "--config"], "methods =",
         "config key 'methods': must name at least one"),
        (["study"], "estimands = coefficient, coefficient",
         "config key 'estimands': estimand 'coefficient' is repeated"),
    ])
    def test_empty_or_repeated_study_list_exits_2(self, tmp_path, capsys,
                                                  command, line, message):
        cfg = tmp_path / "cells.cfg"
        cfg.write_text(f"scenario = simple\nreplications = 2\n{line}\n")
        assert main([*command, str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_study_without_any_fitted_replication_exits_4(self, tmp_path, capsys):
        # p = 4 columns on n = 3 rows: every replication of every cell fails.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("scenario = simple\nn = 3\nreplications = 5\ntruth_n = 10000\n")
        assert main(["study", str(cfg)]) == 4
        captured = capsys.readouterr()
        assert captured.err == "error: no cell produced any successful replication\n"
        assert captured.out == ""

    def test_no_events_in_exposed_stratum_exits_4(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        rows = ["y,A,L"] + [f"0,1,{i % 7}" for i in range(50)]
        rows += [f"{int(i % 3 == 0)},0,{i % 5}" for i in range(50)]
        path.write_text("\n".join(rows) + "\n")
        assert main([
            "fit", "--csv", str(path), "--outcome", "y", "--exposure", "A",
        ]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: no finite solution")
