"""Outside-in tracer: spans around calls into riskratio's public functions.

No file of the package is changed.  ``Tracer.install`` replaces each traced
function at every module attribute that binds it (modules import names
directly, so ``simlab.fit_robust_poisson`` and ``cli.build_design_matrix``
are separate bindings of the same function) and, for methods, on the class.

A span is ``[name, start_ns, end_ns, parent, ok]``: ``parent`` is the index
of the enclosing span (-1 for none) and ``ok`` is false when the call raised
or, for fitters that report failure in their result, when the fit failed.
Spans stay in memory until ``dump`` writes them out.  ``layer_metrics`` turns
a dump into the per-layer metrics named in ``per_layer_names``.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time


def _logbin_ok(fit) -> bool:
    # The study runner's rule: a converged fit off the boundary is usable.
    return bool(fit.converged and not fit.on_boundary)


# (module, attribute path, has p99_us, has .failed, result judge).
# p99_us is declared where some workload makes at least 1000 calls;
# .failed where the function raises (or reports) failed fits in practice.
FUNCTIONS = (
    ("simlab", "generate", True, False, None),
    ("simlab", "monte_carlo_truth", False, False, None),
    ("simlab", "run_study", False, True, None),
    ("design", "build_design_matrix", True, True, None),
    ("design", "realize", True, False, None),
    ("design", "rcs_basis", True, True, None),
    ("eecore", "fit_robust_poisson", True, True, None),
    ("eecore", "ee_score", True, True, None),
    ("eecore", "ee_jacobian", True, True, None),
    ("eecore", "sandwich_covariance", True, True, None),
    ("inference", "marginal_rr", True, True, None),
    ("inference", "coefficient_rr", False, False, None),
    ("inference", "bootstrap_rr", False, True, None),
    ("logbin", "fit_logbin_ml", False, True, _logbin_ok),
    ("logbin", "fit_logbin_barrier", False, True, _logbin_ok),
    ("logbin", "feasible_start", False, True, None),
    ("logbin", "logbin_loglik", True, True, None),
    ("logbin", "logbin_gradient", True, True, None),
    ("logbin", "logbin_hessian", True, False, None),
    ("csvio", "read_csv_dataset", False, True, None),
    ("data", "Dataset.take", False, False, None),
    ("data", "Dataset.with_column", True, False, None),
    ("report", "to_machine_json", False, False, None),
)

ROOT = "cli.main"
P99_MIN_CALLS = 1000

# Metrics computed from several spans, beyond the per-function ones.
DERIVED = (
    ("cli.main.self_s", "s", "lower"),
    ("eecore.iters_per_fit", "count", "lower"),
    ("eecore.halvings", "count", "lower"),
    ("inference.bootstrap_rr.ok_frac", "fraction", "higher"),
    ("logbin.fit_logbin_ml.ok_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for module, attr, p99, can_fail, _ in FUNCTIONS:
        base = f"{module}.{attr}"
        out += [(f"{base}.calls", "count", "lower"),
                (f"{base}.total_s", "s", "lower"),
                (f"{base}.self_s", "s", "lower"),
                (f"{base}.p50_us", "us", "lower")]
        if p99:
            out.append((f"{base}.p99_us", "us", "lower"))
        if can_fail:
            out.append((f"{base}.failed", "count", "lower"))
    return out + list(DERIVED)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, judge=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                span[4] = True if judge is None else judge(result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every function in FUNCTIONS at all of its bindings."""
        for module_name in sorted({f[0] for f in FUNCTIONS}):
            importlib.import_module(f"riskratio.{module_name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "riskratio" or name.startswith("riskratio.")]
        for module_name, attr, _, _, judge in FUNCTIONS:
            owner = sys.modules[f"riskratio.{module_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(f"{module_name}.{attr}", original, judge)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def _quantile_us(sorted_ns, q):
    """Nearest-rank quantile of sorted nanosecond durations, in µs."""
    if not sorted_ns:
        return 0.0
    return sorted_ns[max(1, math.ceil(len(sorted_ns) * q)) - 1] / 1e3


def _self_ns(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-function calls, total, self and percentile times, plus counts.

    Self time is a span's duration minus that of its direct children.  A
    function that never ran reports zeros; p99_us is reported only with at
    least P99_MIN_CALLS calls and reads 0 otherwise.  Ratios over an empty
    base read 0; the matching ``.calls`` shows the base.  Every value
    except ``trace.overhead_frac`` (which needs an untraced run) is filled.
    """
    dur = [s[2] - s[1] for s in spans]
    self_ns = _self_ns(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    out = {}
    for module, attr, p99, can_fail, _ in FUNCTIONS:
        base = f"{module}.{attr}"
        idx = by_name.get(base, [])
        durations = sorted(dur[i] for i in idx)
        out[f"{base}.calls"] = len(idx)
        out[f"{base}.total_s"] = sum(dur[i] for i in idx) / 1e9  # none recurses
        out[f"{base}.self_s"] = sum(self_ns[i] for i in idx) / 1e9
        out[f"{base}.p50_us"] = _quantile_us(durations, 0.50)
        if p99:
            out[f"{base}.p99_us"] = (_quantile_us(durations, 0.99)
                                     if len(idx) >= P99_MIN_CALLS else 0.0)
        if can_fail:
            out[f"{base}.failed"] = sum(1 for i in idx if not spans[i][4])

    out["cli.main.self_s"] = sum(self_ns[i] for i in by_name.get(ROOT, [])) / 1e9
    fits = out["eecore.fit_robust_poisson.calls"]
    jac = out["eecore.ee_jacobian.calls"]
    out["eecore.iters_per_fit"] = jac / fits - 1 if fits else 0.0
    out["eecore.halvings"] = out["eecore.ee_score.calls"] - jac

    # A resample draws once with Dataset.take and succeeds when its
    # coefficient_rr call returns; the first coefficient_rr child of
    # bootstrap_rr is the full-sample point estimate.
    boots = set(by_name.get("inference.bootstrap_rr", []))
    draws = sum(1 for i in by_name.get("data.Dataset.take", []) if spans[i][3] in boots)
    est_ok = sum(1 for i in by_name.get("inference.coefficient_rr", [])
                 if spans[i][3] in boots and spans[i][4])
    out["inference.bootstrap_rr.ok_frac"] = (
        max(est_ok - len(boots), 0) / draws if draws else 0.0)

    ml = out["logbin.fit_logbin_ml.calls"]
    out["logbin.fit_logbin_ml.ok_frac"] = (
        1.0 - out["logbin.fit_logbin_ml.failed"] / ml if ml else 0.0)
    return out


def span_problems(spans, wall_s: float) -> list[str]:
    """Check that spans nest under one root whose self times sum to wall_s.

    Every span must be closed and lie inside its parent, so that no self
    time is negative; the sum of self times, which then equals the root's
    duration, must match the separately timed ``wall_s`` within 1%.
    """
    problems = []
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT:
        problems.append(f"expected one {ROOT} root span, got {len(roots)} roots")
    for s in spans:
        parent = spans[s[3]] if s[3] >= 0 else None
        if parent is not None and not parent[1] <= s[1] <= s[2] <= parent[2]:
            problems.append(f"span {s[0]} is not inside its parent {parent[0]}")
            break
    self_ns = _self_ns(spans)
    if min(self_ns, default=0) < 0:
        problems.append("a span has negative self time")
    residual = wall_s - sum(self_ns) / 1e9
    if abs(residual) > 0.01 * wall_s:
        problems.append(f"self times miss traced wall_s by {residual:.6g} s")
    return problems
