"""The public surface and the package-wide error-handling rule."""

import pathlib
import re

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
