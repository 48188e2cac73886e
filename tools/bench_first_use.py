"""Compare a call's first use, with fresh operands and tables, in two trees; then perfbench pairs.

Run from the repository root::

    python3 tools/bench_first_use.py --parent <rev> --out BENCH_extent_rule.json

The old tree is ``git archive <rev>`` unpacked into a temporary directory and
the new tree is this checkout.  In each tree, on the compiled path and on
lanes (``BBDGEMM_JIT=0``), a subprocess times ``run_batched`` on the
default kernels of ``CASES``.  Each Indexed operand's entries are matrices
allocated one by one, as the proxy's per-cell tensors are.  Every sample
builds new operands, each Indexed one over a new
:class:`~bbdgemm.core.PointerTable`, so the timed call computes every table
fact and checks the whole contract (``first``), and then times the same call
once more (``repeat``).  One call before the samples builds or loads the
kernel and the table reader.  Each case reports the minimum and the median
over ``--rounds`` samples, in milliseconds.  The trees alternate which goes
first, ``--splits`` times each.  The script then runs ``perfbench/run.py``
(at its defaults, or with ``--run-args``) in both trees, alternating which
goes first, ``--pairs`` times.  Each run is stored in ``--out`` under its
``--label``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from perfbench_pairs import ROOT, perfbench_pairs, store, summarise, unpack_revision

#: (kernel, E): the largest fresh table of ``bench``, and the proxy's two chain steps.
CASES = (
    ("bbdgemm_ColMajor_10_9_9_csi", 10000),
    ("bbdgemm_ColMajor_20_9_10_cis", 900),
    ("bbdgemm_ColMajor_10_9_9_sci", 900),
)
PATHS = ("compiled", "lanes")

#: Run in each tree; prints, per case, the min and median ms of a first use
#: and of its repeat, and the paths that served the calls.
PROBE = r'''
import gc, json, statistics, sys, time
import numpy as np
from bbdgemm.core import AccessKind, matrix_span, operand_dims, parse_kernel_name
from bbdgemm.runtime import BatchedOperand, default_registry, run_batched

rounds, cases = int(sys.argv[1]), json.loads(sys.argv[2])
registry = default_registry()
out = {}
for name, E in cases:
    spec = parse_kernel_name(name)
    rng = np.random.default_rng(42)
    parts = []
    for which in "ABC":
        kind, ld = spec.access(which), operand_dims(spec, which).min_ld
        span = matrix_span(spec, which, ld)
        if kind is AccessKind.Indexed:
            parts.append((kind, ld, [rng.uniform(-1.0, 1.0, span) for _ in range(E)], None))
        else:
            count = E * span if kind is AccessKind.Strided else span
            parts.append((kind, ld, rng.uniform(-1.0, 1.0, count), span))

    def fresh():
        return [
            BatchedOperand.indexed(list(data), ld) if kind is AccessKind.Indexed
            else BatchedOperand(kind, ld, data=data, span=span if kind is AccessKind.Strided else None)
            for kind, ld, data, span in parts
        ]

    def call(a, b, c):
        run_batched(spec, E, 1.0, a, b, 0.0, c, registry=registry)

    call(*fresh())
    samples = {"first": [], "repeat": []}
    gc.collect()
    gc.disable()
    for _ in range(rounds):
        operands = fresh()
        for part in ("first", "repeat"):
            started = time.perf_counter_ns()
            call(*operands)
            samples[part].append((time.perf_counter_ns() - started) / 1e6)
    gc.enable()
    out[f"{name}@{E}"] = {
        **{f"{part}_ms": {"min": round(min(s), 3), "median": round(statistics.median(s), 3)}
           for part, s in samples.items()},
        "paths": dict(registry.lookup(name).path_counts),
    }
print(json.dumps(out))
'''


def first_use(tree: Path, path: str, rounds: int) -> dict:
    """Per case, the first-use and repeat timings of *tree* on *path*."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("BBDGEMM_JIT", None)
    if path == "lanes":
        env["BBDGEMM_JIT"] = "0"
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(rounds), json.dumps(CASES)], cwd=tree, env=env,
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def summary(runs: dict) -> dict:
    """Per path and case, the median over runs of each side's median first use, and new over old."""
    out = {}
    for path in PATHS:
        for case in runs["old"][path][0]:
            medians = {
                side: statistics.median(run[case]["first_ms"]["median"] for run in runs[side][path])
                for side in ("old", "new")
            }
            out[f"{path} {case}"] = {
                "first_ms_median_old": medians["old"], "first_ms_median_new": medians["new"],
                "new_over_old": round(medians["new"] / medians["old"], 3),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the old tree")
    parser.add_argument("--out", required=True,
                        help="JSON file that holds each run under its --label; other labels are kept")
    parser.add_argument("--label", default="main")
    parser.add_argument("--run-args", default="", help="arguments for perfbench/run.py, e.g. '--seed 7'")
    parser.add_argument("--rounds", type=int, default=15, help="samples per case, per run")
    parser.add_argument("--splits", type=int, default=3, help="runs per tree and path, alternating")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = unpack_revision(args.parent, Path(tmp) / "old")
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout.splitlines()[0]
        runs = {side: {path: [] for path in PATHS} for side in ("old", "new")}
        for index in range(args.splits):
            for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
                for path in PATHS:
                    run = first_use(old_tree if side == "old" else ROOT, path, args.rounds)
                    runs[side][path].append(run)
                    print(side, path, json.dumps(run), flush=True)
        result = {
            "command": (
                f"python3 tools/bench_first_use.py --parent {args.parent} --rounds {args.rounds}"
                f" --splits {args.splits} --pairs {args.pairs} --label {args.label}"
                f" --run-args '{args.run_args}'"
            ),
            "parent": args.parent,
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "numpy": np.__version__, "cc": cc, "nproc": len(os.sched_getaffinity(0))},
            "first_use_summary": summary(runs),
            "first_use": runs,
        }
        if args.pairs:
            pairs = perfbench_pairs(old_tree, ROOT, args.pairs, args.run_args.split())
            result["perfbench_summary"] = summarise(pairs)
            result["perfbench_pairs"] = pairs
    store(Path(args.out), args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
