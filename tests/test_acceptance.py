"""Acceptance gate: the six release criteria, each as one test with its
stated tolerance.  Every test prints a PASS/FAIL line so a plain
``pytest -v tests/test_acceptance.py`` run doubles as the acceptance report.

Criterion 2's moderate-scenario simple-specification coverage band is
asserted exactly as stated even though the implemented data-generating
process yields an asymptotic coverage near 71% (the point estimator and
sandwich variance are verified against independent references elsewhere in
the suite); that sub-check is expected to fail and is intentionally not
relaxed.
"""

import time

import numpy as np
import pytest

from riskratio import (
    StudyConfig,
    consistency_demo,
    ee_jacobian,
    ee_score,
    fit_robust_poisson,
    monte_carlo_truth,
    run_study,
    sandwich_covariance,
)
from riskratio.design import build_design_matrix, parse_spec
from riskratio.report import to_machine_json
from riskratio.rng import stream
from riskratio.simlab import generate
from oracles import fit_irls, sandwich_covariance_lz
from test_eecore import two_by_two

BASE_SEED = 2024
THREADS = 8


def _line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{name}] {status} {detail}".rstrip())
    return ok


def _study(scenario, specs, methods=("robust-poisson",), replications=1000):
    cfg = StudyConfig(
        scenario=scenario, n=1000, replications=replications,
        base_seed=BASE_SEED, methods=methods, specifications=specs,
        estimands=("coefficient", "marginal"),
    )
    return run_study(cfg, threads=THREADS)


@pytest.fixture(scope="module")
def table1():
    return {
        "simple": _study("simple", ("simple",)),
        "moderate": _study("moderate", ("simple", "rich")),
        "complex": _study("complex", ("simple", "rich")),
    }


@pytest.fixture(scope="module")
def ml_comparison():
    return {
        name: _study(name, ("simple",),
                     methods=("robust-poisson", "logbin-ml"),
                     replications=200)
        for name in ("simple", "moderate", "complex")
    }


def _cell(report, method, spec, estimand):
    for cell in report["cells"]:
        if (cell["method"], cell["specification"], cell["estimand"]) == (
            method, spec, estimand
        ):
            return cell
    raise KeyError((method, spec, estimand))


class TestCriterion1MonteCarloTruth:
    @pytest.mark.parametrize("scenario,expected", [
        ("simple", 1.35), ("moderate", 1.28), ("complex", 1.25),
    ])
    def test_truth(self, scenario, expected):
        start = time.monotonic()
        res = monte_carlo_truth(scenario, 1_000_000, seed=BASE_SEED)
        elapsed = time.monotonic() - start
        ok = abs(res["rr_true"] - expected) <= 0.01 and elapsed <= 60
        assert _line(
            "criterion 1", ok,
            f"{scenario}: rr_true={res['rr_true']:.4f} "
            f"(expected {expected} +/- 0.01, {elapsed:.1f}s)",
        )


# (scenario, spec, bias interval, rmse interval or None, coverage interval)
TABLE1_ROWS = [
    ("simple", "simple", (-0.015, 0.015), (0.09, 0.13), (92.5, 97.5)),
    ("moderate", "simple", (-0.13, -0.07), None, (76.0, 86.0)),
    ("moderate", "rich", (-0.02, 0.02), None, (92.5, 97.5)),
    ("complex", "simple", (-0.32, -0.22), None, (17.0, 33.0)),
    ("complex", "rich", (-0.01, 0.05), (0.08, 0.14), (92.5, 97.5)),
]


class TestCriterion2Table1RobustPoisson:
    @pytest.mark.parametrize(
        "scenario,spec,bias_iv,rmse_iv,cover_iv",
        TABLE1_ROWS,
        ids=[f"{s}-{sp}" for s, sp, *_ in TABLE1_ROWS],
    )
    def test_row(self, table1, scenario, spec, bias_iv, rmse_iv, cover_iv):
        # a row passes if at least one estimand mode satisfies every band;
        # the printed line states which mode(s) did
        verdicts = {}
        for estimand in ("coefficient", "marginal"):
            cell = _cell(table1[scenario], "robust-poisson", spec, estimand)
            checks = [bias_iv[0] <= cell["bias"] <= bias_iv[1],
                      cover_iv[0] <= cell["coverage"] <= cover_iv[1]]
            if rmse_iv is not None:
                checks.append(rmse_iv[0] <= cell["rmse"] <= rmse_iv[1])
            verdicts[estimand] = (all(checks), cell)
        ok = any(v[0] for v in verdicts.values())
        detail = "; ".join(
            f"{est}: bias={cell['bias']:.3f} rmse={cell['rmse']:.3f} "
            f"coverage={cell['coverage']:.1f} "
            f"({'satisfies' if good else 'violates'} bands)"
            for est, (good, cell) in verdicts.items()
        )
        assert _line(f"criterion 2 {scenario}/{spec}", ok, detail)


class TestCriterion3LogBinomialFailure:
    def test_simple_mostly_converges(self, ml_comparison):
        cell = _cell(ml_comparison["simple"], "logbin-ml", "simple", "coefficient")
        rate = cell["failures"] / cell["replications"]
        assert _line("criterion 3", rate <= 0.05,
                     f"simple: ML failure rate {100 * rate:.1f}% (need <= 5%)")

    @pytest.mark.parametrize("scenario", ["moderate", "complex"])
    def test_hard_scenarios_mostly_fail(self, ml_comparison, scenario):
        cell = _cell(ml_comparison[scenario], "logbin-ml", "simple", "coefficient")
        rate = cell["failures"] / cell["replications"]
        assert _line("criterion 3", rate > 0.5,
                     f"{scenario}: ML failure rate {100 * rate:.1f}% (need > 50%)")

    def test_simple_ml_matches_robust_poisson(self, ml_comparison):
        ml = _cell(ml_comparison["simple"], "logbin-ml", "simple", "coefficient")
        rp = _cell(ml_comparison["simple"], "robust-poisson", "simple", "coefficient")
        oks, details = [], []
        for metric, mcse in (("bias", "mcse_bias"), ("rmse", "mcse_rmse"),
                             ("coverage", "mcse_coverage")):
            combined = np.hypot(ml[mcse], rp[mcse])
            diff = abs(ml[metric] - rp[metric])
            oks.append(diff <= 3.0 * combined)
            details.append(f"{metric}: |diff|={diff:.4f} vs 3*MCSE={3 * combined:.4f}")
        assert _line("criterion 3", all(oks), "simple ML vs RP: " + "; ".join(details))


def _random_loglinear_sample(rng, n=300):
    l = rng.standard_normal(n)
    a = (rng.random(n) < 0.5).astype(float)
    y = (rng.random(n) < np.exp(-1.5 + 0.4 * a + 0.3 * l)).astype(float)
    return np.column_stack([np.ones(n), a, l]), y


class TestCriterion4Equivalence:
    def test_a_sandwich_assemblies_agree(self):
        rng = stream(BASE_SEED, 100)
        worst = 0.0
        for _ in range(100):
            X, y = _random_loglinear_sample(rng)
            fit = fit_robust_poisson(X, y)
            diff = np.max(np.abs(
                sandwich_covariance(X, y, fit.beta)
                - sandwich_covariance_lz(X, y, fit.beta)
            ))
            worst = max(worst, diff)
        assert _line("criterion 4a", worst < 1e-10,
                     f"max elementwise assembly gap {worst:.2e} (need < 1e-10)")

    def test_b_newton_irls_agree(self):
        rng = stream(BASE_SEED, 101)
        worst = 0.0
        for _ in range(100):
            X, y = _random_loglinear_sample(rng)
            newton = fit_robust_poisson(X, y)
            irls = fit_irls(X, y)
            worst = max(worst, np.max(np.abs(newton.beta - irls.beta)))
        assert _line("criterion 4b", worst < 1e-8,
                     f"max Newton/IRLS beta gap {worst:.2e} (need < 1e-8)")

    def test_c_saturated_2x2_closed_form(self):
        data = two_by_two()
        dm = build_design_matrix(data, parse_spec("1 + A"), exposure="A")
        fit = fit_robust_poisson(dm, data.y)
        se_closed = np.sqrt(0.7 / 30 + 0.8 / 20)
        gap_beta = abs(fit.beta[1] - np.log(1.5))
        gap_se = abs(np.sqrt(fit.cov_sandwich[1, 1]) - se_closed)
        ok = gap_beta < 1e-8 and gap_se < 1e-8
        assert _line("criterion 4c", ok,
                     f"2x2 beta gap {gap_beta:.2e}, SE gap {gap_se:.2e}")

    def test_d_jacobian_matches_finite_differences(self):
        rng = stream(BASE_SEED, 102)
        worst = 0.0
        for _ in range(100):
            X, y = _random_loglinear_sample(rng, n=120)
            beta = rng.normal(scale=0.3, size=3)
            beta[0] = -1.2
            jac = ee_jacobian(X, y, beta)
            fd = np.empty((3, 3))
            for j in range(3):
                h = 1e-6 * (1.0 + abs(beta[j]))
                bp, bm = beta.copy(), beta.copy()
                bp[j] += h
                bm[j] -= h
                fd[:, j] = (ee_score(X, y, bp) - ee_score(X, y, bm)) / (2 * h)
            worst = max(worst, np.max(np.abs(jac - fd) / (np.abs(fd) + 1.0)))
        assert _line("criterion 4d", worst < 1e-5,
                     f"max relative Jacobian gap {worst:.2e} (need < 1e-5)")

    def test_e_estimating_function_unbiased(self):
        rng = stream(BASE_SEED, 103)
        n = 50_000
        l = (rng.random(n) < 0.5).astype(float)
        a = (rng.random(n) < 0.55).astype(float)
        X = np.column_stack([np.ones(n), a, l])
        p = np.exp(X @ np.array([-1.5, 0.3, 0.9]))
        y = (rng.random(n) < p).astype(float)
        m = X * (y - p)[:, None]
        ratios = np.abs(m.mean(axis=0)) / (m.std(axis=0, ddof=1) / np.sqrt(n))
        assert _line("criterion 4e", bool(np.all(ratios < 4.0)),
                     f"score-mean z-scores {np.round(ratios, 2)} (need < 4)")


class TestCriterion5ConsistencyFigure:
    def test_figure(self):
        demo = consistency_demo(
            sizes=(100, 250, 500, 1000, 2000), replications=200, seed=BASE_SEED
        )
        rows = {r["n"]: r for r in demo["rows"]}
        errors = [rows[n]["mean_abs_error"] for n in (100, 250, 500, 1000, 2000)]
        decreasing = all(a > b for a, b in zip(errors, errors[1:]))
        ratio = rows[500]["mean_ci_width"] / rows[2000]["mean_ci_width"]
        ok = decreasing and 1.8 <= ratio <= 2.2
        assert _line(
            "criterion 5", ok,
            f"mean|RR-truth|={np.round(errors, 4)} strictly decreasing="
            f"{decreasing}; width(500)/width(2000)={ratio:.3f} (need 1.8-2.2)",
        )


class TestCriterion6Determinism:
    def test_threads_byte_identical(self):
        cfg = StudyConfig(
            scenario="moderate", n=400, replications=50, base_seed=BASE_SEED,
            methods=("robust-poisson", "logbin-ml", "logbin-ab"),
            specifications=("simple", "rich"),
            estimands=("coefficient", "marginal"), truth_n=100_000,
        )
        a = to_machine_json(run_study(cfg, threads=1))
        b = to_machine_json(run_study(cfg, threads=8))
        c = to_machine_json(run_study(cfg, threads=1))
        ok = a == b == c
        assert _line("criterion 6", ok,
                     f"machine reports byte-identical across reruns/threads: {ok}")
