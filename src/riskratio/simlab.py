"""Simulation scenarios, Monte Carlo truth, and the replication study runner.

Three data-generating scenarios of increasing covariate complexity (binary
covariates; polynomial terms; non-polynomial transforms) plus a small
log-linear demo process used for the consistency figure.  The study runner
replays R independent replications, fits each requested method and model
specification, and reports bias, RMSE and CI coverage of the risk-ratio
estimates against a Monte Carlo truth computed from counterfactual
outcomes, with Monte Carlo standard errors for every metric.

Determinism: replication r draws from ``rng.stream(base_seed, r)``; the
truth simulation uses a reserved stream index.  Replications run in blocks
of max(1, STACK_ROWS // n) (see ``run_study``).  A block builds each
specification's designs as one stack (``design.build_design_stack``), fits
its robust-Poisson designs as one stack and its log-barrier designs as
another, and standardizes each fit set as one stack
(``inference.marginal_rr_stack``); every design, fit and estimate equals
its one-replication value bit for bit.  Reports are therefore identical
regardless of block length, thread count or execution order.  The fits
read the block's design stack in place, and take their weighted products
over groups of whole designs (``design.stack_blocks``), so that the
temporaries stay in cache whatever the block length.  A replication's
scenario columns are checked as a ``Dataset``'s; its outcome and
exposure, 0/1 draws of length n by construction, are not checked again
(see ``generate``).  A study's results are one R x cells x 3 array of
records (rr, lo, hi), NaN where a replication failed; a record counts
when all three are finite.

Cheap arithmetic, same draws: the scenario probabilities are written for
speed (cubes as products, ``expit`` through ``tanh``).  Against ``x**3``
and a two-branch ``expit`` this moves a probability by at most about 5e-16
absolute, a few steps of the 2**-53 grid the uniforms live on.  A Bernoulli
draw ``u < p`` changes only if its uniform ``u`` falls inside that gap, so
the sampled data, the Monte Carlo truths and the study reports stay the
same; ``tests/test_simlab.py::TestPinnedDraws`` holds digests of the draws
and fails if a later rewrite flips one.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__, inference
from .data import Dataset, _check_outcome_shape, _checked_column
from .design import build_design_stack, parse_spec
from .errors import AllReplicationsFailed, ConfigError, RiskRatioError
from .rng import stream

# Stream indices reserved for non-replication draws.
TRUTH_STREAM = 1 << 48
# Draws per ``p_outcome`` call of the truth: the call's temporaries stay in
# cache.  The probabilities are elementwise, so they are the same bits.
TRUTH_CHUNK = 16_384


def expit(x):
    """1/(1+exp(-x)) as 0.5 * (1 + tanh(x/2)); a 0-d input gives a float.

    The error is absolute, about 1e-16, not relative: results below about
    1e-16 round to 0, so expit(x) is exactly 0 for x below about -37.
    """
    out = 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Scenario:
    """One data-generating process: covariates, exposure model, outcome
    model.  Each scenario defines ``gen_covariates(rng, n)`` (a dict of
    columns), ``p_exposure(cols)`` and ``p_outcome(a, cols)``."""

    simple_spec: str
    rich_spec: str


class _Simple(Scenario):
    def gen_covariates(self, rng, n):
        return {
            "L1": (rng.random(n) < 0.5).astype(float),
            "L2": (rng.random(n) < 0.25).astype(float),
        }

    def p_exposure(self, c):
        return expit(-0.2 + 0.4 * c["L1"] + 0.3 * c["L2"])

    def p_outcome(self, a, c):
        return expit(-0.4 + 0.5 * a - 0.5 * c["L1"] - 0.2 * c["L2"])


class _Moderate(Scenario):
    # Powers as products: x**3 goes through pow, about 40x slower than
    # x*x*x.  Squares are recomputed, not named, so that fewer n-vectors
    # are alive at once during a 10**6-draw truth.

    def gen_covariates(self, rng, n):
        return {"L1": rng.standard_normal(n), "L2": rng.standard_normal(n)}

    def p_exposure(self, c):
        l1, l2 = c["L1"], c["L2"]
        return expit(
            -0.2 + 0.3 * l1 + 0.2 * (l1 * l1) + 0.1 * (l1 * l1 * l1)
            + 0.3 * l2 - 0.2 * (l2 * l2)
            - 0.3 * l1 * l2 + 0.2 * (l1 * l1) * l2 - 0.2 * l1 * (l2 * l2)
        )

    def p_outcome(self, a, c):
        l1, l2 = c["L1"], c["L2"]
        return expit(
            -0.4 + 0.5 * a - 0.5 * l1 - 0.2 * (l1 * l1)
            - 0.2 * l2 + 0.1 * (l2 * l2) + 0.1 * (l2 * l2 * l2) + 0.5 * l1 * l2
        )


class _Complex(Scenario):
    def gen_covariates(self, rng, n):
        return {"L1": rng.standard_normal(n), "L2": rng.standard_normal(n)}

    def p_exposure(self, c):
        l1, l2 = c["L1"], c["L2"]
        return expit(
            -0.2 + 2 * np.sin(l1) + np.abs(np.sin(l2))
            - 0.3 * np.abs(l1) * np.cos(l2)
        )

    def p_outcome(self, a, c):
        l1, l2 = c["L1"], c["L2"]
        return expit(
            -0.4 + 0.5 * a - 2 * np.sin(l1) - np.abs(l2) + np.abs(l1) * np.sin(l2)
        )


class _FigureDemo(Scenario):
    """Log-linear demo process for the consistency figure.

    Coefficients are chosen so exp(x beta) is a valid probability for
    every covariate/exposure combination; the exposure log-RR is 0.3
    (RR = exp(0.3), exactly collapsible since the model has no
    exposure-covariate interaction).
    """

    def gen_covariates(self, rng, n):
        return {"L1": (rng.random(n) < 0.5).astype(float)}

    def p_exposure(self, c):
        return np.full_like(c["L1"], 0.55)

    def p_outcome(self, a, c):
        return np.exp(-1.5 + 0.3 * a + 0.9 * c["L1"])


SCENARIOS: dict[str, Scenario] = {
    "simple": _Simple(
        simple_spec="1 + A + L1 + L2",
        rich_spec="1 + A + L1 + L2 + L1:L2",
    ),
    "moderate": _Moderate(
        simple_spec="1 + A + L1 + L2",
        rich_spec="1 + A + rcs(L1,4) + rcs(L2,4) + L1:L2",
    ),
    "complex": _Complex(
        simple_spec="1 + A + L1 + L2",
        rich_spec="1 + A + rcs(L1,4) + rcs(L2,4) + L1:L2",
    ),
    "figure-demo": _FigureDemo(
        simple_spec="1 + A + L1",
        rich_spec="1 + A + L1",
    ),
}


def get_scenario(name: Scenario | str) -> Scenario:
    """The scenario of that name; a ``Scenario`` is returned as it is."""
    if isinstance(name, Scenario):
        return name
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}",
            key="scenario",
        ) from None


def generate(scenario: Scenario | str, n: int, seed=None, rng=None) -> Dataset:
    """Draw one dataset from a scenario; deterministic given (scenario, n,
    seed), or drawn from ``rng``; both given raise ``TypeError``.

    The scenario's covariate columns are checked as ``Dataset`` checks a
    column (finite, n values; ``DataError`` otherwise) before they are
    used.  The outcome and the exposure ``A`` are 0/1 draws ``u < p`` of
    length n by construction, and are not checked again; n < 1 raises
    ``DataError``, as an empty outcome does.
    """
    scenario = get_scenario(scenario)
    if rng is None:
        rng = stream(0 if seed is None else seed, 0)
    elif seed is not None:
        raise TypeError("generate takes seed or rng, not both")
    cols = {name: _checked_column(name, values, (n,))
            for name, values in scenario.gen_covariates(rng, n).items()}
    a = (rng.random(n) < scenario.p_exposure(cols)).astype(float)
    y = (rng.random(n) < scenario.p_outcome(a, cols)).astype(float)
    _check_outcome_shape(y)
    cols["A"] = a
    return Dataset._derived(y, cols)


def monte_carlo_truth(scenario: Scenario | str, n: int = 1_000_000, seed: int = 0) -> dict:
    """True marginal RR by counterfactual simulation.

    Draws n covariate vectors, generates counterfactual outcomes under
    exposure and no exposure (independent Bernoulli draws given their
    probabilities), and returns mean(Y1)/mean(Y0) with a delta-method MCSE.
    The probabilities are computed ``TRUTH_CHUNK`` draws at a time; the
    draws and the means are taken whole.  An arm without events, whose
    ratio or MCSE is not finite, raises ``ConfigError`` (key ``truth_n``):
    n is too small for the scenario.
    """
    scenario = get_scenario(scenario)
    rng = stream(seed, TRUTH_STREAM)
    cols = scenario.gen_covariates(rng, n)
    p1, p0 = np.empty(n), np.empty(n)
    for i in range(0, n, TRUTH_CHUNK):
        part = {k: v[i:i + TRUTH_CHUNK] for k, v in cols.items()}
        p1[i:i + TRUTH_CHUNK] = scenario.p_outcome(1.0, part)
        p0[i:i + TRUTH_CHUNK] = scenario.p_outcome(0.0, part)
    y1 = (rng.random(n) < p1).astype(float)
    y0 = (rng.random(n) < p0).astype(float)
    m1, m0 = y1.mean(), y0.mean()
    if m1 == 0.0 or m0 == 0.0:
        arm = "exposed" if m1 == 0.0 else "unexposed"
        raise ConfigError(
            f"no events in the {arm} arm of {n} Monte Carlo draws; "
            f"use more draws", key="truth_n")
    rr = m1 / m0
    v1, v0 = y1.var(ddof=1), y0.var(ddof=1)
    mcse = rr * np.sqrt(v1 / (n * m1**2) + v0 / (n * m0**2))
    return {"rr_true": float(rr), "mcse": float(mcse),
            "mean_y1": float(m1), "mean_y0": float(m0), "n": n}


# --- study runner -----------------------------------------------------------

SPECIFICATIONS = ("simple", "rich")
ESTIMANDS = ("coefficient", "marginal")


@dataclass(frozen=True)
class StudyConfig:
    scenario: str
    n: int = 1000
    replications: int = 1000
    base_seed: int = 0
    methods: tuple[str, ...] = (inference.DEFAULT_METHOD,)
    specifications: tuple[str, ...] = ("simple",)
    estimands: tuple[str, ...] = ("coefficient", "marginal")
    level: float = 0.95
    truth_n: int = 1_000_000

    def __post_init__(self):
        get_scenario(self.scenario)
        for key in ("n", "replications", "base_seed", "truth_n"):
            value = getattr(self, key)
            if type(value) is not int:      # not a bool, an int subclass, either
                raise ConfigError(f"must be an integer, got {value!r}", key=key)
        if self.replications < 1:
            raise ConfigError("must be >= 1", key="replications")
        if self.n < 1:
            raise ConfigError("must be >= 1", key="n")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("must be between 0 and 1", key="level")
        if self.truth_n < 2:
            raise ConfigError("must be >= 2", key="truth_n")
        # A study's cells are distinct: each list is non-empty, unrepeated.
        for key, known in (("methods", inference.FIT_METHODS),
                           ("specifications", SPECIFICATIONS), ("estimands", ESTIMANDS)):
            names = getattr(self, key)
            if isinstance(names, str):
                raise ConfigError(f"must be a list of names, got {names!r}", key=key)
            if not names:
                raise ConfigError("must name at least one", key=key)
            for i, name in enumerate(names):
                if name not in known:
                    raise ConfigError(f"unknown {key[:-1]} {name!r}", key=key)
                if name in names[:i]:
                    raise ConfigError(f"{key[:-1]} {name!r} is repeated", key=key)


def parse_config(text: str) -> StudyConfig:
    """Parse the flat key=value study config format.

    The keys are the fields of ``StudyConfig``.  A value is cast to the
    type of its field's default; a tuple default takes a comma-separated
    list, and ``scenario``, which has no default, a string.
    """
    fields = {f.name: f.default for f in dataclasses.fields(StudyConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in fields:
            raise ConfigError("unknown key", key=key)
        if key in values:
            raise ConfigError("duplicate key", key=key)
        values[key] = value
    if "scenario" not in values:
        raise ConfigError("required", key="scenario")
    kwargs = {}
    for key, value in values.items():
        default = fields[key]
        if isinstance(default, tuple):
            kwargs[key] = tuple(part.strip() for part in value.split(",") if part.strip())
            continue
        cast = str if default is dataclasses.MISSING else type(default)
        try:
            kwargs[key] = cast(value)
        except ValueError:
            raise ConfigError(f"cannot parse {value!r}", key=key) from None
    return StudyConfig(**kwargs)


def _spec_terms(scenario: Scenario, spec_name: str):
    text = scenario.simple_spec if spec_name == "simple" else scenario.rich_spec
    return parse_spec(text)


# Design rows per block of replications: a block of n-row replications
# holds max(1, STACK_ROWS // n) of them, so one stacked fit of a block
# works on about this many rows whatever n is.
STACK_ROWS = 1 << 16


@dataclass(frozen=True)
class _Replicator:
    """What each replication computes: its data, its fits and estimands.

    ``terms`` maps each specification name to its parsed term list, fixed
    for a study; replication ``key`` draws from ``stream(seed, key)``.
    """

    scenario: Scenario
    n: int
    seed: int
    terms: dict
    methods: tuple[str, ...]
    estimands: tuple[str, ...]
    level: float

    def block(self, keys) -> np.ndarray:
        """A block of replications: one record per key, in order, each a
        cells x 3 array of (rr, lo, hi), its cells in the order of
        ``itertools.product(methods, terms, estimands)``.

        All replications are generated first.  Each specification's designs
        are then built as stacks (``build_design_stack``), each (method,
        specification) is one ``inference.fit_each`` call over the block,
        and each marginal estimand one ``inference.marginal_rr_stack`` call
        over its usable fits.  A replication whose design, fit or estimand
        raises keeps NaN in that cell, as alone; a fit on the log-binomial
        boundary counts as failed.
        """
        datas = [generate(self.scenario, self.n, rng=stream(self.seed, k))
                 for k in keys]
        out = np.full((len(datas), len(self.methods), len(self.terms),
                       len(self.estimands), 3), np.nan)
        for s, (spec_name, terms) in enumerate(self.terms.items()):
            designs = build_design_stack(datas, terms, exposure="A")
            built = [k for k, d in enumerate(designs)
                     if not isinstance(d, RiskRatioError)]
            for m, method in enumerate(self.methods):
                fits = inference.fit_each(method, [designs[k] for k in built],
                                          [datas[k].y for k in built])
                usable = [(k, fit) for k, fit in zip(built, fits)
                          if not isinstance(fit, Exception) and not fit.on_boundary]
                for e, est in enumerate(self.estimands):
                    found = self._estimates(est, usable, designs, datas)
                    for (k, _), value in zip(usable, found):
                        if not isinstance(value, RiskRatioError):
                            out[k, m, s, e] = value.rr, value.ci_low, value.ci_high
        return out.reshape(len(datas), -1, 3)

    def _estimates(self, est, usable, designs, datas) -> list:
        """The ``RREstimate`` of one estimand for each (key, fit) of
        ``usable``, or the ``RiskRatioError`` it failed with."""
        if est == "coefficient":
            return [inference.coefficient_rr(fit, designs[k].exposure_cols[0],
                                             self.level) for k, fit in usable]
        return inference.marginal_rr_stack(
            [fit for _, fit in usable], [datas[k] for k, _ in usable],
            1.0, 0.0, level=self.level)

    def run(self, keys, threads: int = 1) -> list:
        """Every replication of ``keys``, in order, mapped in blocks of
        max(1, STACK_ROWS // n) keys.  ``threads`` is first capped at the
        CPU count and at the number of keys; above 1, the blocks go to a
        thread pool of that many threads, and are cut shorter where that
        gives every thread a block."""
        threads = max(1, min(threads, os.cpu_count() or 1, len(keys)))
        size = STACK_ROWS // self.n
        size = max(1, min(size, -(-len(keys) // threads)))
        blocks = [keys[i:i + size] for i in range(0, len(keys), size)]
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                done = list(pool.map(self.block, blocks))
        else:
            done = [self.block(block) for block in blocks]
        return [result for block in done for result in block]


def _successes(records):
    """The columns rr, lo, hi, each contiguous, of the replications that
    succeeded among ``records`` (R x 3): those whose rr, lo and hi are all
    finite.  Every other replication failed."""
    return records[np.isfinite(records).all(axis=1)].T.copy()


def _cell_metrics(records, truth):
    """Bias/RMSE/coverage with MCSEs over the successes among ``records``
    (R x 3: rr, lo, hi per replication)."""
    R = len(records)
    rr, lo, hi = _successes(records)
    r_eff = rr.size
    failures = R - r_eff
    cell = {"replications": R, "failures": failures,
            "r_effective": r_eff, "na": failures > 0.5 * R or not r_eff}
    if cell["na"]:
        return cell
    covered = ((lo <= truth) & (truth <= hi)).astype(float)
    bias = float(rr.mean() - truth)
    var = float(rr.var(ddof=1)) if r_eff > 1 else 0.0
    sd = np.sqrt(var)
    cover = float(covered.mean())
    cell.update(
        bias=bias,
        rmse=float(np.sqrt(bias**2 + var)),
        coverage=100.0 * cover,
        mcse_bias=float(sd / np.sqrt(r_eff)),
        mcse_rmse=float(sd / np.sqrt(2.0 * r_eff)),
        mcse_coverage=float(100.0 * np.sqrt(cover * (1 - cover) / r_eff)),
        mean_rr=float(rr.mean()),
        sd_rr=float(sd),
    )
    return cell


def run_study(config: StudyConfig, threads: int = 1) -> dict:
    """Run the full replication study and aggregate Table-1-style metrics.

    Returns a plain dict (the machine report payload): config echo, truth,
    and one metrics cell per (method, specification, estimand).

    Replications are processed in blocks of max(1, STACK_ROWS // n)
    consecutive indices (65 at n = 1000): a block generates each
    replication r from ``stream(base_seed, r)``, builds each
    specification's designs as one stack (``design.build_design_stack``),
    fits each (method, specification) over the whole block, robust Poisson
    and the log-barrier as stacked loops (``inference.fit_each``), and
    standardizes each fit set as one stack (``inference.marginal_rr_stack``).
    Every design, fit and estimate in a stack equals its one-replication
    value bit for bit, and the records (rr, lo, hi) are kept in
    replication order as one R x cells x 3 array, so the output is
    identical for any block length and any ``threads`` value.  A cell's
    metrics read its R x 3 column (``_cell_metrics``).  ``threads`` is
    capped at the CPU count (``os.cpu_count()``) and at R, before the
    blocks are cut; above 1 it maps the blocks on a thread pool of that
    many threads, and a study with fewer full blocks than threads is cut
    into one shorter block per thread, so that no thread idles.
    ``threads`` < 1 raises ``ConfigError``.
    """
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    scenario = get_scenario(config.scenario)
    truth = monte_carlo_truth(scenario, config.truth_n, seed=config.base_seed)
    replicator = _Replicator(
        scenario, config.n, config.base_seed,
        {s: _spec_terms(scenario, s) for s in config.specifications},
        config.methods, config.estimands, config.level,
    )
    records = np.array(replicator.run(range(config.replications), threads))
    cells = [dict(_cell_metrics(records[:, c], truth["rr_true"]),
                  method=method, specification=spec_name, estimand=est)
             for c, (method, spec_name, est) in enumerate(itertools.product(
                 config.methods, config.specifications, config.estimands))]
    if not any(cell["r_effective"] for cell in cells):
        raise AllReplicationsFailed("no cell produced any successful replication")

    return {
        "version": __version__,
        "config": {key: list(value) if isinstance(value, tuple) else value
                   for key, value in dataclasses.asdict(config).items()},
        "truth": truth,
        "cells": cells,
    }


def consistency_demo(
    sizes=(10, 25, 50, 100, 250, 500, 1000, 2000),
    replications: int = 200,
    seed: int = 0,
) -> dict:
    """Mean RR estimate and CI across sample sizes for the demo process.

    For each size, fits the exposure model on ``replications`` independent
    datasets, replication r of size index s drawn from
    ``stream(seed, (s << 32) | r)``; the replications run in blocks, as in
    ``run_study``.  Small-sample fits that fail are skipped, not fatal; a
    size without any fitted replication has no row and is listed under
    ``dropped``.  Sizes must be ascending and >= 1, and ``replications`` >= 1, or
    ``ConfigError`` is raised (key ``sizes`` or ``replications``).
    """
    sizes = tuple(sizes)
    if not sizes or min(sizes) < 1:
        raise ConfigError("must be one or more sizes >= 1", key="sizes")
    if list(sizes) != sorted(sizes):
        raise ConfigError("must be ascending", key="sizes")
    if replications < 1:
        raise ConfigError("must be >= 1", key="replications")
    scenario = get_scenario("figure-demo")
    truth = monte_carlo_truth(scenario, seed=seed)
    terms = {"simple": parse_spec(scenario.simple_spec)}
    rows, dropped = [], []
    for s, n in enumerate(sizes):
        replicator = _Replicator(scenario, n, seed, terms, ("robust-poisson",),
                                 ("coefficient",), 0.95)
        done = replicator.run([(s << 32) | r for r in range(replications)])
        rr, lo, hi = _successes(np.array(done)[:, 0])
        if not rr.size:
            dropped.append(n)
            continue
        rows.append({
            "n": n,
            "rr_hat": float(rr.mean()),
            "ci_low": float(lo.mean()),
            "ci_high": float(hi.mean()),
            "mean_abs_error": float(np.mean(np.abs(rr - truth["rr_true"]))),
            "mean_ci_width": float(np.mean(hi - lo)),
            "n_converged": rr.size,
        })
    return {"truth": truth, "rows": rows, "dropped": dropped}
