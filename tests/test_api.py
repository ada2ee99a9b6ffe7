"""The public surface and the package-wide error-handling rule."""

import importlib.util
import json
import pathlib
import re
import sys

import riskratio

PACKAGE = pathlib.Path(riskratio.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in riskratio.__all__ if not hasattr(riskratio, name)]
    assert missing == []


def test_no_catch_all_handlers():
    # A handler that catches every error would report programming errors
    # as fit failures.
    broad = re.compile(r"^\s*except\s*(:|[^:]*\bException\b)")
    found = [
        f"{path.name}:{i}"
        for path in sorted(PACKAGE.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if broad.match(line)
    ]
    assert found == []


def test_no_numpy2_only_names():
    # pyproject.toml declares numpy>=1.24; these exist only from NumPy 2.0.
    newer = re.compile(
        r"\.mT\b|\bmatrix_transpose\b|\bvecdot\b|\bunique_values\b"
        r"|\bnp\.astype\b|\blinalg\.outer\b")
    found = [
        f"{path.name}:{i}"
        for path in sorted(PACKAGE.glob("*.py"))
        for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if newer.search(line)
    ]
    assert found == []


def test_tracer_names_resolve(monkeypatch):
    # The benchmark's tracer looks its functions up by name; a rename in
    # the package would break every traced benchmark run.
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    missing = []
    for module_name, attr, *_ in tracer.FUNCTIONS:
        owner = importlib.import_module(f"riskratio.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_benchmark_records_name_their_machine():
    # A timing means something only beside the machine it was taken on:
    # every committed BENCH_*.json parses and records its CPU count and
    # its BLAS build.
    root = pathlib.Path(__file__).resolve().parents[1]
    records = sorted(root.glob("BENCH_*.json"))
    assert records
    unnamed = []
    for path in records:
        machine = json.loads(path.read_text(encoding="utf-8")).get("machine")
        if not (isinstance(machine, dict) and machine.get("blas")
                and (machine.get("nproc") or machine.get("cpus_usable"))):
            unnamed.append(path.name)
    assert unnamed == []
