"""Compare the machine reports of this tree with those of another tree.

    python tools/same_reports.py PARENT_DIR

PARENT_DIR is another checkout of the repository (a ``git archive`` of the
parent commit, say).  Each tree runs, with its own ``src/`` and
``configs/``:

- ``riskratio study CFG --format machine`` for every ``configs/*.cfg``;
- ``riskratio study configs/ml_failure.cfg --threads 2 --format machine``;
- ``riskratio fit --boot 500 --estimand both --format machine`` with each
  method, on one 5,000-row CSV from ``bench/workloads.write_moderate_csv``
  (seed 0) and the benchmark's spec.

The fit reports' ``timestamp`` is masked.  A run that exits non-zero
(``logbin-ml`` on that CSV, whose fit fails) is compared by its exit code
and standard error.  One line per report says ``identical``, or the
largest relative move of a float, |a - b| / max(|a|, |b|), with its key,
or the first key where the reports differ otherwise.  The exit code is 0
when every report is identical, else 1.
Inputs and reports go to a temporary directory; nothing is written under
either tree.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "bench"))

import workloads  # noqa: E402

METHODS = ("robust-poisson", "logbin-ml", "logbin-ab")
_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')


def _runs(tree: Path, csv: str) -> dict[str, list[str]]:
    """Report name -> CLI arguments, in ``tree``'s terms."""
    runs = {f"study {cfg.name}": ["study", str(cfg), "--format", "machine"]
            for cfg in sorted((tree / "configs").glob("*.cfg"))}
    runs["study ml_failure.cfg --threads 2"] = [
        "study", str(tree / "configs" / "ml_failure.cfg"), "--threads", "2",
        "--format", "machine"]
    for method in METHODS:
        runs[f"fit --boot 500 --method {method}"] = [
            "fit", "--csv", csv, "--outcome", "y", "--exposure", "A",
            "--spec", workloads.SPEC, "--method", method, "--boot", "500",
            "--estimand", "both", "--format", "machine"]
    return runs


def _report(tree: Path, argv: list[str], out: Path) -> str:
    """The report of one run, its timestamp masked; or, for a run that
    fails, its exit code and standard error."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out.unlink(missing_ok=True)
    run = subprocess.run([sys.executable, "-m", "riskratio.cli", *argv, "--out", str(out)],
                         env=env, cwd=tree, capture_output=True, text=True)
    if run.returncode:
        return f"exit {run.returncode}: {run.stderr}"
    return _TIMESTAMP.sub('"timestamp": null', out.read_text())


def _moves(a, b, key=""):
    """(largest relative float move, its key) between two parsed reports;
    raises ``ValueError`` naming the first key where they differ otherwise."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((_moves(a[k], b[k], f"{key}.{k}") for k in a), default=(0.0, key))
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((_moves(u, v, f"{key}[{i}]") for i, (u, v) in enumerate(zip(a, b))),
                   default=(0.0, key))
    if a == b or a != a and b != b:     # equal, or both NaN
        return 0.0, key
    if isinstance(a, float) and isinstance(b, float):
        move = abs(a - b) / max(abs(a), abs(b))
        return (move if move == move else float("inf")), key    # NaN against a number
    raise ValueError(key or "(top)")


def compare(parent: Path, work: Path) -> bool:
    csv = str(work / "data.csv")
    workloads.write_moderate_csv(csv, 5000, 0)
    same = True
    trees = {"parent": parent, "this": HERE}
    runs = {side: _runs(tree, csv) for side, tree in trees.items()}
    for name in runs["this"]:
        texts = [_report(tree, runs[side][name], work / f"{side}.json")
                 for side, tree in trees.items()]
        if texts[0] == texts[1]:
            print(f"{name}: identical" + (f" ({texts[0].split(':')[0]})"
                                          if texts[0].startswith("exit") else ""))
            continue
        same = False
        if any(t.startswith("exit") for t in texts):
            print(f"{name}: differs: " + " / ".join(
                f"{side} {t.splitlines()[0][:60]}" for side, t in zip(trees, texts)))
            continue
        try:
            move, key = _moves(*(json.loads(t) for t in texts))
            print(f"{name}: largest relative move {move:.3g} at {key}")
        except ValueError as exc:
            print(f"{name}: differs at {exc}")
    return same


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as work:
        return 0 if compare(Path(args[0]).resolve(), Path(work)) else 1


if __name__ == "__main__":
    sys.exit(main())
