"""Run one benchmark workload in this process and print its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts this in a fresh process for every workload, so set-up time
and peak memory belong to that workload alone.  BLAS and OpenMP are held to
one thread before numpy is imported.  The package is imported from the
``src`` directory next to ``perfbench``; when it is missing the worker exits
with status 2.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Thread-count settings of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def environment() -> dict:
    """What a number depends on besides the code: versions, JIT, cores, threads."""
    import numpy as np

    from bbdgemm import vectorize

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jit_available": vectorize.jit_available(),
        "jit_enabled": vectorize.jit_enabled(),
        "jit_path": "measured" if vectorize.jit_enabled() else "unmeasured here",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_settings": {var: os.environ.get(var) for var in THREAD_VARS},
        "python_threads": threading.active_count(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    if not (SRC / "bbdgemm" / "__init__.py").is_file():
        print(f"worker: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

    start = time.perf_counter()
    import bbdgemm
    import_s = time.perf_counter() - start
    if SRC not in Path(bbdgemm.__file__).resolve().parents:
        print(f"worker: imported bbdgemm from {bbdgemm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), out_dir,
        setup_only=args.setup_only,
    )
    result["setup_s"] += import_s
    result["import_s"] = import_s
    if not args.setup_only:
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
