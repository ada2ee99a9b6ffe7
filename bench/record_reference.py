"""Store the reference estimates the benchmark compares its runs against.

Usage, from the repository root:

    python3 bench/record_reference.py SEED [SEED ...]

Runs every workload once per seed with the program in ``src/``, checks the
structure of each report and writes its estimates to ``bench/reference.json``
(entries for other seeds are kept).  Record again only for a change that is
meant to change results, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    root = os.getcwd()
    src = os.path.join(root, "src")
    reference = run.load_reference()
    os.makedirs(os.path.join(root, run.WORK_DIR), exist_ok=True)
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            workdir = tempfile.mkdtemp(dir=os.path.join(root, run.WORK_DIR))
            try:
                args = workload.prepare(workdir, seed)
                result, report, _ = run.run_child(src, workdir, args, 0, False,
                                                  run.TIME_LIMIT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if report is None:
                sys.stderr.write(f"{name} seed {seed}: {result['problem']}\n")
                return 1
            parsed = json.loads(report)
            problems = workload.check(parsed, seed)
            if problems:
                sys.stderr.write(f"{name} seed {seed}: {problems}\n")
                return 1
            reference.setdefault(name, {})[str(seed)] = workload.reference_view(parsed)
            print(f"{name} seed {seed}: recorded")
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
