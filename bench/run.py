"""Benchmark of the riskratio command-line interface.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measured run is a fresh interpreter (``bench/child.py``) that imports
``riskratio.cli`` from ``src/`` and calls ``cli.main`` once on inputs
generated from the seed (see ``workloads.py``), single-threaded: the study
runner gets ``--threads 1`` and BLAS one thread.  Runs repeat, one after
another, until the next would end after ``--seconds``; every figure is a
median over them.  Every run's exit code and machine report are checked:
structure for any seed, estimates against ``reference.json`` for the seeds
stored there, and byte-identity with the first report of the invocation
(a fit report's timestamp aside).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: setup_s
(import of ``riskratio.cli``), wall_rel (the ``cli.main`` call's wall_s over
the time of a fixed numpy kernel run beside it, see ``reference_kernel``),
peak_rss_mb and fit_ok_frac (one minus fits failed over fits attempted).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics from the traced ones (``tracer.py``), with ``trace.overhead_frac``
from the difference in wall_rel.  The last line of standard output is one
JSON object; the lines before it name every metric with its unit, together
with raw wall_s and units_per_s, the error rate, the fit failure fraction
and the machine it ran on.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

import tracer
from workloads import SPEC_P, WORKLOADS, compare

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
TIME_LIMIT_S = 170.0    # the whole invocation, so it exits within 180 s
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Figures printed by name but not in BENCHMARK.json: raw times follow the
# drift in CPU speed of a shared host, so wall_rel (wall_s over ref_s)
# carries the bound instead.
PRINTED_ONLY = {"wall_s": "s", "units_per_s": "1/s", "ref_s": "s",
                "fit_fail_frac": "fraction", "traced wall_rel": "x"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(root: str, key: str) -> dict[str, str]:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def load_reference() -> dict:
    path = os.path.join(HERE, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _mask_timestamp(text: str) -> str:
    return re.sub(r'^  "timestamp": "[^"]*"', '  "timestamp": null', text, flags=re.M)


def run_child(src, workdir, argv, index, traced, timeout):
    """Run one fresh interpreter; returns (result dict, report text, spans).

    When the run failed, report and spans are None and ``result["problem"]``
    says why.
    """
    paths = {k: os.path.join(workdir, f"{k}{index}.json")
             for k in ("request", "result", "report", "spans")}
    request = {"argv": argv + ["--out", paths["report"]], "src": src,
               "result": paths["result"], "spans": paths["spans"] if traced else None}
    with open(paths["request"], "w", encoding="utf-8") as handle:
        json.dump(request, handle)
    env = dict(os.environ, PYTHONPATH=src, **{k: "1" for k in THREAD_ENV})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), paths["request"]],
            env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problem": f"no result within {timeout:.0f} s"}, None, None
    if proc.returncode != 0 or not os.path.exists(paths["result"]):
        return {"problem": f"interpreter exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}"}, None, None
    with open(paths["result"], encoding="utf-8") as handle:
        result = json.load(handle)
    if result["error"] or result["exit_code"] != 0:
        result["problem"] = (f"cli.main returned {result['exit_code']}: "
                             f"{result['error'] or proc.stderr.strip()[-2000:]}")
        return result, None, None
    with open(paths["report"], encoding="utf-8") as handle:
        report = handle.read()
    spans = None
    if traced:
        with open(paths["spans"], encoding="utf-8") as handle:
            spans = json.load(handle)
    return result, report, spans


def reference_kernel(rounds: int = 20) -> float:
    """Seconds for a fixed mix of the work the CLI does: small numpy ops in
    a Python loop, parsing numbers from text, and a pass over a large array.

    It uses numpy only, never riskratio, so no change to the program can
    change it.  It runs in this process before the first run and after each
    run; each run's wall_s is divided by the mean of the two kernels around
    it (wall_rel).  On a shared host CPU speed drifts (by a quarter and more
    over minutes on the 2-vCPU VM this was tuned on); the ratio cancels much
    of that drift, though not all of it.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 9)) * 0.1
    big = rng.standard_normal((100_000, 9)) * 0.1
    beta = np.full(9, 0.01)
    text = [repr(v) for v in rng.standard_normal(2000).tolist()]
    start = time.perf_counter()
    for _ in range(rounds):
        for _ in range(250):
            mu = np.exp(X @ beta)
            np.linalg.solve((X.T * mu) @ X, X.T @ mu)
        for _ in range(15):
            sum(float(cell) for cell in text)
        mu = np.exp(big @ beta)
        (big.T * mu) @ big
    return time.perf_counter() - start


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as lv, open(f"{base}/{entry}/size") as sz:
                level, size = lv.read().strip(), sz.read().strip()
            if level in ("2", "3"):
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def machine_info(blas_threads) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    large = WORKLOADS["fit-large"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads,
        "thread_env": {k: "1" for k in THREAD_ENV},
        "cache": _cache_sizes(),
        "fit_large_design_bytes_computed": large.rows * SPEC_P * 8,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}: " + " ".join(f"{v:.4g}" for v in values)


def measure(args, root: str) -> dict:
    """Run the workload repeatedly; returns the summary printed by main."""
    started = time.monotonic()
    src = os.path.join(root, "src")
    compileall.compile_dir(src, quiet=1)
    workload = WORKLOADS[args.workload]
    reference = load_reference().get(args.workload, {}).get(str(args.seed))
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        argv = workload.prepare(workdir, args.seed)
        runs, problems, first_report = [], [], None
        reference_kernel(rounds=1)  # the first call pays numpy's lazy set-up
        kernel_s = reference_kernel()
        loop_start = time.monotonic()
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            elapsed = time.monotonic() - loop_start
            estimate = _median([r["duration"] for r in runs])
            enough = len(runs) >= (2 if args.trace else 1)
            if enough and elapsed + estimate > args.seconds:
                break
            remaining = TIME_LIMIT_S - (time.monotonic() - started)
            if remaining < 1.0:
                problems.append("time limit reached before enough runs")
                break
            t = time.monotonic()
            result, report, spans = run_child(src, workdir, argv, len(runs),
                                              traced, remaining)
            previous_kernel_s, kernel_s = kernel_s, reference_kernel()
            result.update(duration=time.monotonic() - t, traced=traced,
                          ref_s=(previous_kernel_s + kernel_s) / 2)
            runs.append(result)
            run_problems = [result["problem"]] if "problem" in result else []
            if report is not None:
                parsed = json.loads(report)
                run_problems += workload.check(parsed, args.seed)
                if reference is not None:
                    run_problems += compare(workload.reference_view(parsed),
                                            reference, "report")
                masked = _mask_timestamp(report)
                if first_report is None:
                    first_report = (masked, parsed)
                elif masked != first_report[0]:
                    run_problems.append("report differs from the first run's report")
                if spans is not None:
                    result["layers"] = tracer.layer_metrics(spans)
                    run_problems += tracer.span_problems(spans, result["wall_s"])
            result["failed"] = bool(run_problems)
            problems += [f"run {len(runs)}{' (traced)' if traced else ''}: {p}"
                         for p in run_problems]
            if run_problems:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"runs": runs, "problems": problems, "first_report": first_report,
            "workload": workload}


def _summarize(args, outcome):
    """Declared metric values, plus per-run samples of every printed figure."""
    runs, workload = outcome["runs"], outcome["workload"]
    plain = [r for r in runs if not r["traced"] and "wall_s" in r]
    traced = [r for r in runs if r["traced"] and "layers" in r]
    # Without a single report the one fit attempted is counted as failed.
    fails, fits = (workload.fit_counts(outcome["first_report"][1])
                   if outcome["first_report"] else (1, 1))
    samples = {
        "setup_s": [r["setup_s"] for r in plain],
        "wall_rel": [r["wall_s"] / r["ref_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "fit_ok_frac": [1.0 - fails / fits],
        "wall_s": [r["wall_s"] for r in plain],
        "units_per_s": [workload.units / r["wall_s"] for r in plain],
        "ref_s": [r["ref_s"] for r in plain],
        "fit_fail_frac": [fails / fits],
    }
    if not args.trace:
        return {k: _median(v) for k, v in samples.items()}, samples
    names = [n for n, _, _ in tracer.per_layer_names()]
    layers = {n: _median([r["layers"][n] for r in traced]) for n in names
              if n != "trace.overhead_frac"}
    samples["traced wall_rel"] = [r["wall_s"] / r["ref_s"] for r in traced]
    plain_rel = _median(samples["wall_rel"])
    layers["trace.overhead_frac"] = (_median(samples["traced wall_rel"]) / plain_rel - 1
                                     if plain_rel else 0.0)
    return layers, samples


def main(argv=None) -> int:
    # Turn SIGTERM into SystemExit so that subprocess.run kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = _parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "riskratio", "cli.py")):
        sys.stderr.write("error: run from a riskratio checkout (no src/riskratio)\n")
        return 2
    key = "per_layer" if args.trace else "end_to_end"
    declared = _declared_metrics(root, key)

    outcome = measure(args, root)
    values, samples = _summarize(args, outcome)
    if not set(declared) <= set(values):
        sys.stderr.write(f"error: measured metrics differ from BENCHMARK.json {key}\n")
        return 2

    runs = outcome["runs"]
    failed = sum(r["failed"] for r in runs)
    attempted = max(len(runs), 1)
    if not runs:
        failed = 1
    for problem in outcome["problems"]:
        print(f"check failed: {problem}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} runs, {sum(r['traced'] for r in runs)} traced")
    blas_threads = next((r["blas_threads"] for r in runs if "blas_threads" in r), None)
    print("machine " + json.dumps(machine_info(blas_threads), sort_keys=True))
    print(f"error_rate = {failed / attempted!r} (runs failed / attempted, "
          f"{failed}/{attempted})")
    print(f"work per run: {outcome['workload'].units} {outcome['workload'].unit}")
    printed = dict(declared, **{k: v for k, v in PRINTED_ONLY.items() if k in samples})
    for name, unit in printed.items():
        value = values[name] if name in values else _median(samples[name])
        print(f"{name} = {value!r} {unit}"
              + (f"  ({_spread(samples[name])})" if name in samples else ""))
    result = {
        "correct": failed == 0 and not outcome["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
