"""Benchmark workloads: generated inputs, CLI arguments and output checks.

Inputs depend only on the workload seed and on this file.  Study configs are
written as text with ``base_seed`` set to the seed.  CSVs come from this
file's own numpy draw of the ``moderate`` data-generating process, not from
``riskratio.generate``, so a change to the package's simulator cannot change
the input of a fit workload.
"""

from __future__ import annotations

import math
import os

import numpy as np

SPEC = "1 + A + rcs(L1,4) + rcs(L2,4) + L1:L2"
SPEC_P = 9              # design columns SPEC produces
REL_TOL = 1e-9          # reference match: last-digit moves only
ABS_TOL = 1e-12


def _expit(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def write_moderate_csv(path: str, rows: int, seed: int) -> None:
    """y,A,L1,L2 rows from the ``moderate`` process; floats printed with repr."""
    rng = np.random.default_rng(seed)
    l1 = rng.standard_normal(rows)
    l2 = rng.standard_normal(rows)
    pa = _expit(-0.2 + 0.3 * l1 + 0.2 * l1**2 + 0.1 * l1**3 + 0.3 * l2
                - 0.2 * l2**2 - 0.3 * l1 * l2 + 0.2 * l1**2 * l2
                - 0.2 * l1 * l2**2)
    a = (rng.random(rows) < pa).astype(int)
    py = _expit(-0.4 + 0.5 * a - 0.5 * l1 - 0.2 * l1**2 - 0.2 * l2
                + 0.1 * l2**2 + 0.1 * l2**3 + 0.5 * l1 * l2)
    y = (rng.random(rows) < py).astype(int)
    lines = [f"{yi},{ai},{x1!r},{x2!r}\n" for yi, ai, x1, x2 in
             zip(y.tolist(), a.tolist(), l1.tolist(), l2.tolist())]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("y,A,L1,L2\n")
        handle.writelines(lines)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def compare(actual, expected, where="") -> list[str]:
    """Differences between a report fragment and its stored reference.

    Integers, strings and flags must match exactly; floats within REL_TOL.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ from the reference"]
        return [p for k in sorted(expected)
                for p in compare(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs from the reference"]
        return [p for i, (a, e) in enumerate(zip(actual, expected))
                for p in compare(a, e, f"{where}[{i}]")]
    if isinstance(expected, float) or isinstance(actual, float):
        if _finite(actual) and _finite(expected) and math.isclose(
                actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{where}: {actual!r} != reference {expected!r}"]


class Study:
    """``riskratio study`` on a generated config; units are replications."""

    unit = "replications"

    def __init__(self, replications, methods, specifications, estimands,
                 zero_failure_methods=()):
        self.config = {
            "scenario": "moderate", "n": 1000, "replications": replications,
            "methods": methods, "specifications": specifications,
            "estimands": estimands,
        }
        self.units = replications
        self.zero_failure_methods = zero_failure_methods

    def prepare(self, workdir: str, seed: int) -> list[str]:
        path = os.path.join(workdir, "study.cfg")
        lines = [f"{k} = {', '.join(v) if isinstance(v, tuple) else v}"
                 for k, v in self.config.items()]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines + [f"base_seed = {seed}"]) + "\n")
        return ["study", path, "--threads", "1", "--format", "machine"]

    def fit_counts(self, report) -> tuple[int, int]:
        """(failed fits, attempted fits) summed over cells."""
        cells = report["cells"]
        return (sum(c["failures"] for c in cells),
                sum(c["replications"] for c in cells))

    def reference_view(self, report):
        return {"truth": report["truth"], "cells": report["cells"]}

    def check(self, report, seed) -> list[str]:
        cfg, problems = report["config"], []
        want = dict(self.config, base_seed=seed)
        for key, value in want.items():
            got = cfg.get(key)
            if (list(value) if isinstance(value, tuple) else value) != got:
                problems.append(f"config {key} = {got!r}, expected {value!r}")
        if not (_finite(report["truth"]["rr_true"]) and report["truth"]["rr_true"] > 0):
            problems.append("truth rr_true is not a positive number")
        keys = [(c["method"], c["specification"], c["estimand"]) for c in report["cells"]]
        expected = [(m, s, e) for m in self.config["methods"]
                    for s in self.config["specifications"]
                    for e in self.config["estimands"]]
        if sorted(keys) != sorted(expected):
            problems.append(f"cells {keys} != expected {expected}")
        R = self.units
        for c in report["cells"]:
            name = f"{c['method']}/{c['specification']}/{c['estimand']}"
            if c["replications"] != R or c["r_effective"] != R - c["failures"]:
                problems.append(f"{name}: replication counts do not add up")
            if c["method"] in self.zero_failure_methods and c["failures"] != 0:
                problems.append(f"{name}: {c['failures']} failures, expected 0")
            if not c["na"] and not all(_finite(c[k]) for k in
                                       ("bias", "rmse", "coverage", "mean_rr")):
                problems.append(f"{name}: non-finite estimate")
            if not c["na"] and not 0 <= c["coverage"] <= 100:
                problems.append(f"{name}: coverage {c['coverage']} out of range")
        return problems


class Fit:
    """``riskratio fit`` on a generated CSV with the rich spec."""

    def __init__(self, rows, extra, expected_methods, unit, units):
        self.rows = rows
        self.extra = extra
        self.expected_methods = expected_methods
        self.unit = unit
        self.units = units

    def prepare(self, workdir: str, seed: int) -> list[str]:
        path = os.path.join(workdir, "data.csv")
        write_moderate_csv(path, self.rows, seed)
        return ["fit", "--csv", path, "--outcome", "y", "--exposure", "A",
                "--spec", SPEC, "--seed", str(seed), "--format", "machine",
                *self.extra]

    def fit_counts(self, report) -> tuple[int, int]:
        # A report is written only when the fit succeeded (exit code 0).
        return 0, 1

    def reference_view(self, report):
        return report["results"]

    def check(self, report, seed) -> list[str]:
        res, problems = report["results"], []
        if res["n"] != self.rows or res["p"] != SPEC_P:
            problems.append(f"n={res['n']} p={res['p']}, expected {self.rows} and {SPEC_P}")
        methods = [e["method"] for e in res["estimates"]]
        if methods != self.expected_methods:
            problems.append(f"estimate methods {methods} != {self.expected_methods}")
        for e in res["estimates"]:
            values = [e[k] for k in ("rr", "ci_low", "ci_high", "log_rr", "se_log_rr")]
            # A Wald or delta interval holds its point estimate; a percentile
            # bootstrap interval need not.
            inside = e["method"].startswith("bootstrap") or e["ci_low"] <= e["rr"] <= e["ci_high"]
            if not all(_finite(v) for v in values):
                problems.append(f"{e['label']} {e['method']}: non-finite estimate")
            elif not (0 < e["ci_low"] <= e["ci_high"] and inside):
                problems.append(f"{e['label']} {e['method']}: malformed interval")
        return problems


BOOT_B = 500

WORKLOADS = {
    "study-moderate": Study(
        1000, ("robust-poisson",), ("simple", "rich"), ("coefficient", "marginal"),
        zero_failure_methods=("robust-poisson",)),
    "study-logbin": Study(
        200, ("robust-poisson", "logbin-ml", "logbin-ab"), ("simple",),
        ("coefficient",)),
    "fit-large": Fit(
        500_000, ["--estimand", "both"], ["wald-sandwich", "delta"],
        unit="rows", units=500_000),
    "fit-bootstrap": Fit(
        5000, ["--boot", str(BOOT_B)], ["wald-sandwich", f"bootstrap({BOOT_B})"],
        unit="resamples", units=BOOT_B),
}
