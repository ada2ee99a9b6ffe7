"""One benchmark run of the riskratio CLI in a fresh interpreter.

Usage: python3 bench/child.py REQUEST.json

The request names the CLI arguments, the source directory riskratio must be
imported from, where to write the result and, for a traced run, where to
write the spans.  The result holds the import time of ``riskratio.cli``
(setup_s), the time of the ``cli.main`` call (wall_s), the exit code, the
peak RSS of this process and the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import sys
import time
import traceback


def _blas_threads():
    """Threads of the OpenBLAS that numpy bundles, or None if not found."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        return get()
    return None


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        request = json.load(handle)
    start = time.perf_counter()
    import riskratio.cli as cli
    setup_s = time.perf_counter() - start
    src = os.path.realpath(request["src"])
    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(src + os.sep):
        raise SystemExit(f"riskratio imported from {origin}, not from {src}")

    run = cli.main
    tracer = None
    if request["spans"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ROOT, cli.main)

    error = None
    start = time.perf_counter()
    try:
        code = run(request["argv"])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception:  # recorded as a failed run; the parent reports it
        code, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(request["spans"])
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit_code": code,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "blas_threads": _blas_threads(),
    }
    with open(request["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
