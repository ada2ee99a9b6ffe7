import dataclasses
import hashlib
import pathlib
import re

import numpy as np
import pytest

from riskratio import (
    StudyConfig,
    consistency_demo,
    expit,
    generate,
    monte_carlo_truth,
    parse_config,
    run_study,
)
from riskratio import simlab
from riskratio.errors import AllReplicationsFailed, ConfigError, DataError
from riskratio.report import to_machine_json
from riskratio.rng import stream
from riskratio.simlab import get_scenario

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def simple_scenario_exact():
    """Closed-form quantities of the binary-covariate scenario over its
    four covariate strata."""
    w, ea, num, den = [], [], [], []
    for l1 in (0.0, 1.0):
        for l2 in (0.0, 1.0):
            prob = 0.5 * (0.25 if l2 else 0.75)
            w.append(prob)
            ea.append(expit(-0.2 + 0.4 * l1 + 0.3 * l2))
            num.append(expit(-0.4 + 0.5 - 0.5 * l1 - 0.2 * l2))
            den.append(expit(-0.4 - 0.5 * l1 - 0.2 * l2))
    w = np.array(w)
    return {
        "mean_a": float(w @ ea),
        "rr": float((w @ num) / (w @ den)),
    }


class TestExpit:
    def test_zero(self):
        assert expit(0.0) == 0.5

    def test_no_overflow(self):
        assert expit(800.0) == 1.0
        assert expit(-800.0) == 0.0

    def test_high_precision_value(self):
        import mpmath

        expected = float(1 / (1 + mpmath.exp(mpmath.mpf("0.2"))))
        assert abs(expit(-0.2) - expected) < 1e-15

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 1.0])
        np.testing.assert_allclose(expit(x) + expit(-x), 1.0, atol=1e-15)

    def test_absolute_error_against_mpmath(self):
        # The tanh form is accurate in absolute, not relative, terms: below
        # about -37 it returns 0 for a true value near 1e-16.
        import mpmath

        x = np.linspace(-50.0, 50.0, 4001)
        with mpmath.workdps(40):
            exact = np.array([float(1 / (1 + mpmath.exp(-mpmath.mpf(v)))) for v in x])
        assert np.max(np.abs(expit(x) - exact)) <= 4.5e-16


def draws_digest(data):
    """sha256 over y and every column (name, then bytes) of a dataset."""
    h = hashlib.sha256(data.y.tobytes())
    for name in sorted(data.columns):
        h.update(name.encode())
        h.update(data.column(name).tobytes())
    return h.hexdigest()


class TestPinnedDraws:
    """The simulator's draws, bit for bit.  A rewrite of the scenario
    arithmetic may move a probability by an ulp or two, but no sampled
    outcome, exposure or covariate may change; these digests and truths
    fail on the first flipped draw."""

    DIGESTS = {
        ("simple", 0): "dd18afb20cd792c42135e5d6204e20431bdfd9aa32e565abda42d91ca253edf1",
        ("simple", 1): "905600ad429fbcc17964251ca94b76d8a863411d5d9a3f29ba6592ee3bc10fcb",
        ("simple", 2): "1ac7f51a69006b2ab5f9edc2b1501ed7398c2248f1fe911930ce1fab81431bf5",
        ("moderate", 0): "ac21f71b63dba1f0f4f686964a482aa60a7af86ab03d274ab0a251869ff9bb86",
        ("moderate", 1): "eea3b6fcb7984b8ca043df9fcb5e3b35c6931c827dc44b2731fea351182ffbb9",
        ("moderate", 2): "22027abba36a15380549c31ced413104d98cade77430280a2215d10c0f6e27cb",
        ("complex", 0): "2bf99e5775716dffd1a33366f92e53d3edd1c2f1c08bd6f90acf1881a1f86c59",
        ("complex", 1): "611fc4f6acb982127d49a90760323acd47505c24755fd30a23f0ef54adf3e087",
        ("complex", 2): "e982feb5662d11e05acf30eb2b3b3e89eee70e8fa0767bf67154611b398667c6",
        ("figure-demo", 0): "6287cd67e644f394e1d8b9de3e9dd8f76332140bb3f33c3c01821dd95f2fdb51",
        ("figure-demo", 1): "0d0b733edf4015f07b904f8210df1ce0e3a0f0c8f79c4d6f818b64d580e49a7d",
        ("figure-demo", 2): "0c4a5584191a5768793b5e8e0d1e57204452d4c7ad0409665e5f2d858b39a7b4",
    }

    TRUTHS = {
        "simple": {"rr_true": 1.3483406448684372, "mcse": 0.0024124201553229587,
                   "mean_y1": 0.451504, "mean_y0": 0.334859, "n": 1_000_000},
        "moderate": {"rr_true": 1.2834131121883798, "mcse": 0.002037514931251986,
                     "mean_y1": 0.505136, "mean_y0": 0.393588, "n": 1_000_000},
        "complex": {"rr_true": 1.2514325409378946, "mcse": 0.002461036297484266,
                    "mean_y1": 0.383718, "mean_y0": 0.306623, "n": 1_000_000},
    }

    @pytest.mark.parametrize("scenario, seed", sorted(DIGESTS))
    def test_generate(self, scenario, seed):
        data = generate(scenario, 1000, seed=seed)
        assert draws_digest(data) == self.DIGESTS[(scenario, seed)]

    @pytest.mark.parametrize("scenario", sorted(TRUTHS))
    def test_monte_carlo_truth(self, scenario):
        assert monte_carlo_truth(scenario, 1_000_000, seed=2024) == self.TRUTHS[scenario]


class TestGenerate:
    def test_simple_covariate_means(self):
        data = generate("simple", 1_000_000, seed=17)
        assert abs(data.column("L1").mean() - 0.5) < 0.002
        assert abs(data.column("L2").mean() - 0.25) < 0.002

    def test_simple_exposure_mean_vs_exact(self):
        n = 1_000_000
        data = generate("simple", n, seed=17)
        exact = simple_scenario_exact()["mean_a"]
        mcse = np.sqrt(exact * (1 - exact) / n)
        assert abs(data.column("A").mean() - exact) < 3 * mcse + 1e-3

    def test_complex_positivity_screen(self):
        scen = get_scenario("complex")
        rng = stream(17, 0)
        cols = scen.gen_covariates(rng, 1_000_000)
        pa = scen.p_exposure(cols)
        outside = np.mean((pa < 0.01) | (pa > 0.99))
        assert outside < 0.001

    def test_deterministic(self):
        a = generate("moderate", 100, seed=3)
        b = generate("moderate", 100, seed=3)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.column("L1"), b.column("L1"))

    @pytest.mark.parametrize("column, message", [
        (np.r_[0.5, np.nan, np.zeros(48)], "column 'L2' has a non-finite value at row 1"),
        (np.zeros(49), "column 'L2' has length 49, expected 50")])
    def test_scenario_covariates_are_checked(self, column, message):
        # The outcome and the exposure are 0/1 draws by construction; the
        # columns a scenario returns are still checked.
        class Broken(simlab._Simple):
            def gen_covariates(self, rng, n):
                return dict(super().gen_covariates(rng, n), L2=column)

        broken = Broken(simple_spec="1 + A + L1 + L2", rich_spec="1 + A + L1 + L2")
        with pytest.raises(DataError, match=re.escape(message)):
            generate(broken, 50, seed=1)

    def test_seed_and_rng_together_rejected(self):
        # Either one names the draw; given both, neither may be dropped.
        with pytest.raises(TypeError, match="seed or rng, not both"):
            generate("simple", 5, seed=1, rng=stream(9, 0))
        seeded = generate("simple", 50, seed=1)
        np.testing.assert_array_equal(seeded.y, generate("simple", 50, rng=stream(1, 0)).y)


class TestTruth:
    def test_simple_matches_exact_strata(self):
        res = monte_carlo_truth("simple", 1_000_000, seed=4)
        exact = simple_scenario_exact()["rr"]
        assert abs(res["rr_true"] - exact) < 3 * res["mcse"]

    def test_takes_a_scenario_or_its_name(self):
        scenario = get_scenario("simple")
        assert get_scenario(scenario) is scenario
        assert monte_carlo_truth(scenario, 1000, seed=4) == monte_carlo_truth("simple", 1000, seed=4)

    def test_stability_across_seeds(self):
        a = monte_carlo_truth("simple", 500_000, seed=1)
        b = monte_carlo_truth("simple", 500_000, seed=2)
        combined = np.hypot(a["mcse"], b["mcse"])
        assert abs(a["rr_true"] - b["rr_true"]) < 3 * combined


class TestConfig:
    def test_roundtrip(self):
        cfg = parse_config(
            "scenario = simple\nn = 500\nreplications = 20\nbase_seed = 7\n"
            "methods = robust-poisson, logbin-ml\nspecifications = simple\n"
            "estimands = coefficient\n"
        )
        assert cfg == StudyConfig(
            scenario="simple", n=500, replications=20, base_seed=7,
            methods=("robust-poisson", "logbin-ml"),
            specifications=("simple",), estimands=("coefficient",),
        )

    @pytest.mark.parametrize("text", [
        "n = 10",                                  # missing scenario
        "scenario = simple\nbogus = 1",            # unknown key
        "scenario = nope",                         # unknown scenario
        "scenario = simple\nn = many",             # bad int
        "scenario = simple\nmethods = magic",      # unknown method
        "scenario = simple\nn = 10\nn = 20",       # duplicate key
        "scenario = simple\nbootstrap.B = 0",      # removed key
        "scenario = simple\njust words",           # no '='
        "scenario = simple\nn = 0",                # no rows
        "scenario = simple\nreplications = 0",     # no replications
    ])
    def test_errors(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("text, key", [
        ("methods =", "methods"),
        ("specifications = ,", "specifications"),
        ("estimands =", "estimands"),
        ("methods = robust-poisson, logbin-ml, robust-poisson", "methods"),
        ("specifications = rich, rich", "specifications"),
        ("estimands = coefficient, coefficient", "estimands"),
    ])
    def test_empty_or_repeated_list_rejected(self, text, key):
        # Each (method, specification, estimand) cell must be distinct.
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario = simple\n{text}")
        assert err.value.key == key

    @pytest.mark.parametrize("key, value", [
        ("methods", "robust-poisson"),
        ("specifications", "simple"),
        ("estimands", "coefficient"),
        ("n", 2.5),
        ("n", True),
        ("replications", 10.0),
        ("replications", "10"),
        ("base_seed", None),
        ("base_seed", False),
        ("truth_n", 1e6),
    ])
    def test_field_of_the_wrong_type_rejected(self, key, value):
        # Given from Python, not parsed: a string is not a list of names,
        # and a count is an int, not a float, a string or a bool.
        with pytest.raises(ConfigError) as err:
            StudyConfig(scenario="simple", **{key: value})
        assert err.value.key == key
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        parse_config(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("level", ["2", "1", "0", "-0.5", "nan"])
    def test_level_outside_unit_interval(self, level):
        with pytest.raises(ConfigError) as err:
            parse_config(f"scenario = simple\nlevel = {level}")
        assert err.value.key == "level"

    def test_every_field_parses_and_is_echoed(self):
        # Each field away from its default, so that each parse is seen.
        cfg = StudyConfig(
            scenario="simple", n=60, replications=3, base_seed=4,
            methods=("robust-poisson", "logbin-ab"), specifications=("rich",),
            estimands=("marginal",), level=0.9, truth_n=5000,
        )
        fields = dataclasses.fields(StudyConfig)
        assert all(getattr(cfg, f.name) != f.default for f in fields)
        echo = run_study(cfg)["config"]
        assert list(echo) == [f.name for f in fields]
        text = "\n".join(f"{key} = {', '.join(value) if isinstance(value, list) else value}"
                         for key, value in echo.items())
        assert parse_config(text) == cfg


class TestStudy:
    CFG = StudyConfig(
        scenario="simple", n=300, replications=30, base_seed=99,
        methods=("robust-poisson",), specifications=("simple",),
        estimands=("coefficient", "marginal"), truth_n=100_000,
    )

    def test_metric_self_consistency(self):
        rep = run_study(self.CFG)
        for cell in rep["cells"]:
            assert not cell["na"]
            var = cell["sd_rr"] ** 2
            assert abs(cell["rmse"] ** 2 - cell["bias"] ** 2 - var) < 1e-12

    def test_thread_count_invariance(self):
        one = run_study(self.CFG, threads=1)
        many = run_study(self.CFG, threads=8)
        assert to_machine_json(one) == to_machine_json(many)

    @pytest.mark.parametrize("block, threads", [(1, 1), (7, 3)])
    def test_block_length_invariance(self, monkeypatch, block, threads):
        # n=1000 and R=30: the default block holds all 30 replications.
        cfg = StudyConfig(
            scenario="moderate", n=1000, replications=30, base_seed=8,
            specifications=("simple", "rich"), truth_n=20_000,
        )
        default = to_machine_json(run_study(cfg))
        monkeypatch.setattr(simlab, "STACK_ROWS", block * cfg.n)
        assert to_machine_json(run_study(cfg, threads=threads)) == default

    @pytest.mark.parametrize("block, threads", [(1, 1), (7, 3), (None, 3)])
    def test_log_binomial_block_length_invariance(self, monkeypatch, block, threads):
        # All three methods; the barrier fits of a block run as one stack,
        # and one of them fails.
        cfg = StudyConfig(
            scenario="moderate", n=1000, replications=30, base_seed=10,
            methods=("robust-poisson", "logbin-ml", "logbin-ab"),
            specifications=("simple",), estimands=("coefficient",), truth_n=20_000,
        )
        report = run_study(cfg)
        barrier = [c for c in report["cells"] if c["method"] == "logbin-ab"]
        assert barrier[0]["failures"] == 1
        if block is not None:
            monkeypatch.setattr(simlab, "STACK_ROWS", block * cfg.n)
        assert to_machine_json(run_study(cfg, threads=threads)) == to_machine_json(report)

    @staticmethod
    def blocks_and_pools(monkeypatch, cpus, replications, threads):
        """(block lengths, the ``max_workers`` of each pool) of one run on
        ``cpus`` CPUs, with blocks that return their keys and a pool that
        maps them in the calling thread: no thread is started."""
        seen, pools = [], []

        def block(self, keys):
            seen.append(len(keys))
            return list(keys)

        class Pool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(simlab._Replicator, "block", block)
        monkeypatch.setattr(simlab, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(simlab.os, "cpu_count", lambda: cpus)
        replicator = simlab._Replicator(
            scenario=None, n=1000, seed=0, terms={}, methods=(),
            estimands=(), level=0.95)
        keys = list(range(replications))
        assert replicator.run(keys, threads=threads) == keys
        return sorted(seen), pools

    @pytest.mark.parametrize("replications, threads, lengths", [
        (10, 1, [10]), (10, 4, [1, 3, 3, 3]), (200, 2, [5, 65, 65, 65])])
    def test_every_thread_gets_a_block(self, monkeypatch, replications,
                                       threads, lengths):
        seen, pools = self.blocks_and_pools(monkeypatch, 4, replications, threads)
        assert seen == lengths
        assert pools == ([] if threads == 1 else [threads])

    @pytest.mark.parametrize("cpus, replications, threads, lengths, workers", [
        # Far more threads than CPUs: blocks stay full length.
        (2, 1000, 10_000, [25] + [65] * 15, 2),
        # The ml_failure.cfg shape (R = 200, n = 1000) at 8 threads.
        (2, 200, 8, [5, 65, 65, 65], 2),
        # More threads and CPUs than replications: one block per key.
        (16, 3, 8, [1, 1, 1], 3),
        # A CPU count that is unknown counts as one CPU: no pool.
        (None, 200, 8, [5, 65, 65, 65], None),
    ])
    def test_threads_capped_at_cpus_and_keys(self, monkeypatch, cpus, replications,
                                             threads, lengths, workers):
        seen, pools = self.blocks_and_pools(monkeypatch, cpus, replications, threads)
        assert seen == lengths
        assert pools == ([] if workers is None else [workers])

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_1_rejected(self, threads):
        with pytest.raises(ConfigError, match="threads must be at least 1"):
            run_study(self.CFG, threads=threads)

    def test_every_cell_failing_raises(self):
        # p = 4 columns on n = 3 rows: no replication can be fitted.
        cfg = StudyConfig(scenario="simple", n=3, replications=5, truth_n=10_000)
        with pytest.raises(AllReplicationsFailed,
                           match="no cell produced any successful replication"):
            run_study(cfg)

    def test_failure_counting(self):
        cfg = StudyConfig(
            scenario="moderate", n=400, replications=20, base_seed=5,
            methods=("logbin-ml",), specifications=("simple",),
            estimands=("coefficient",), truth_n=50_000,
        )
        rep = run_study(cfg)
        cell = rep["cells"][0]
        assert cell["failures"] > 10
        assert cell["na"]


def non_finite_estimates(monkeypatch, inf_high, nan_rr):
    """Make the i-th call of ``coefficient_rr`` return an infinite upper
    limit for i in ``inf_high`` and a NaN rr for i in ``nan_rr``.  In a
    one-block study whose fits all succeed, call i is replication i's."""
    original, calls = simlab.inference.coefficient_rr, []

    def patched(*args, **kwargs):
        est = original(*args, **kwargs)
        i = len(calls)
        calls.append(i)
        if i in inf_high:
            return dataclasses.replace(est, ci_high=np.inf)
        if i in nan_rr:
            return dataclasses.replace(est, rr=np.nan)
        return est

    monkeypatch.setattr(simlab.inference, "coefficient_rr", patched)
    return calls


class TestNonFiniteEstimates:
    """A replication whose rr, lower or upper limit is not finite counts as
    a failure, in a study cell and in the consistency figure alike."""

    CFG = StudyConfig(
        scenario="simple", n=300, replications=20, base_seed=99,
        estimands=("coefficient",), truth_n=100_000,
    )

    @pytest.mark.parametrize("inf_high, nan_rr, na", [
        ({2, 11}, {5}, False),                          # 3 of 20 fail
        ({0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}, False),      # 10 of 20: not > R/2
        ({0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 19}, True),   # 11 of 20
    ])
    def test_study_cell(self, monkeypatch, inf_high, nan_rr, na):
        (clean,) = run_study(self.CFG)["cells"]
        assert clean["failures"] == 0
        calls = non_finite_estimates(monkeypatch, inf_high, nan_rr)
        (cell,) = run_study(self.CFG)["cells"]
        assert len(calls) == 20
        assert cell["failures"] == len(inf_high) + len(nan_rr)
        assert cell["r_effective"] == 20 - cell["failures"]
        assert cell["na"] is na

    def test_consistency_demo(self, monkeypatch):
        clean = consistency_demo(sizes=(200,), replications=12, seed=3)
        assert clean["rows"][0]["n_converged"] == 12
        non_finite_estimates(monkeypatch, {0, 7}, {4})
        (row,) = consistency_demo(sizes=(200,), replications=12, seed=3)["rows"]
        assert row["n_converged"] == 9
        assert np.isfinite([row["rr_hat"], row["ci_low"], row["ci_high"]]).all()


class TestConsistencyDemo:
    def test_widths_shrink(self):
        demo = consistency_demo(sizes=(100, 400), replications=40, seed=12)
        rows = demo["rows"]
        assert [r["n"] for r in rows] == [100, 400]
        assert rows[1]["mean_ci_width"] < rows[0]["mean_ci_width"]

    def test_small_n_rows_may_drop(self):
        demo = consistency_demo(sizes=(10, 200), replications=10, seed=12)
        # tiny samples may fail to fit; the table still comes back
        assert any(r["n"] == 200 for r in demo["rows"])

    def test_block_length_invariance(self, monkeypatch):
        # n = 10 and 15 fail often: no finite root, singular Jacobians.
        default = consistency_demo(sizes=(10, 15), replications=60, seed=4)
        monkeypatch.setattr(simlab, "STACK_ROWS", 1)
        assert consistency_demo(sizes=(10, 15), replications=60, seed=4) == default
        assert default["rows"][0]["n_converged"] < 60

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ConfigError):
            consistency_demo(sizes=(100, 50), replications=5, seed=0)

    @pytest.mark.parametrize("sizes, replications, key", [
        ((0, 10), 5, "sizes"), ((), 5, "sizes"), ((10,), 0, "replications")])
    def test_empty_sizes_and_replications_rejected(self, sizes, replications, key):
        with pytest.raises(ConfigError) as err:
            consistency_demo(sizes=sizes, replications=replications, seed=0)
        assert err.value.key == key


def test_stream_split_independence():
    a = stream(42, 0).random(5)
    b = stream(42, 1).random(5)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, stream(42, 0).random(5))


def test_negative_stream_index_rejected():
    with pytest.raises(ValueError, match="stream index must be non-negative"):
        stream(42, -1)
