"""Alternating ``perfbench/run.py`` pairs: a git revision against this checkout.

Run from the repository root::

    python3 tools/perfbench_pairs.py --parent <rev> --out BENCH_<label>.json

The old tree is ``git archive <rev>`` unpacked into a temporary directory and
the new tree is this checkout.  ``perfbench/run.py`` (at its defaults, or
with ``--run-args``) runs ``--pairs`` times in each tree, the trees
alternating which goes first.  With ``--bench-args``, ``bench`` (the
package's command-line benchmark) first runs once in each tree with those
arguments, and its CSV rows are kept.  The run is stored in ``--out`` under
its ``--label``, beside the labels already there.  Its summary gives each
end-to-end metric ``BENCHMARK.json`` lists a verdict against that metric's
bound (see :func:`verdict`).

The helpers are shared: other scripts in this directory import them
(``tools/`` is on ``sys.path`` when such a script runs).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def unpack_revision(revision: str, into: Path) -> Path:
    """``git archive <revision>`` of this repository, unpacked into the new directory *into*."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", revision], cwd=ROOT, capture_output=True, check=True).stdout
    tarfile.open(fileobj=BytesIO(archive)).extractall(into)
    return into


def perfbench_pairs(old_tree: Path, new_tree: Path, pairs: int, run_args: list[str]) -> list[dict]:
    """Metrics of ``perfbench/run.py *run_args*``, *pairs* times per tree, first tree alternating."""
    out = []
    for index in range(pairs):
        pair = {"first": "old" if index % 2 == 0 else "new"}
        for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
            tree = old_tree if side == "old" else new_tree
            done = subprocess.run([sys.executable, "perfbench/run.py", *run_args], cwd=tree,
                                  capture_output=True, text=True)
            pair[side] = run_record(done.returncode, done.stdout)
        out.append(pair)
        print(json.dumps(pair), flush=True)
    return out


def run_record(exit_code: int, stdout: str) -> dict:
    """One run's exit code, failed count and metrics, from its JSON last line.

    A run that printed no JSON last line (a worker that failed exits 2) is
    kept with no failed count and no metrics.
    """
    try:
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"exit": exit_code, "failed": None, "metrics": {}}
    return {"exit": exit_code, "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def _spread(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None}
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": round(statistics.median(values), 4),
            "q1": round(quartiles[0], 4), "q3": round(quartiles[2], 4)}


def verdict(old: list[float], new: list[float], better: str, bound: float) -> str:
    """``worse``, ``unresolved`` or ``within bound``: the new runs of a metric against the old.

    ``worse``: the new median is worse than the old median by more than
    *bound* times the old median, in the direction *better* (``lower`` or
    ``higher``) gives.  ``unresolved``: not worse, but the old runs' q3 - q1
    exceeds *bound* times their median, and not every new run is better
    than every old run.  ``within bound`` otherwise.
    """
    sign = 1 if better == "lower" else -1
    old_median = statistics.median(old)
    allowed = bound * abs(old_median)
    if sign * (statistics.median(new) - old_median) > allowed:
        return "worse"
    q1, _, q3 = statistics.quantiles(old, n=4) if len(old) > 1 else [old[0]] * 3
    if q3 - q1 > allowed and not all(sign * (n - o) < 0 for o in old for n in new):
        return "unresolved"
    return "within bound"


def summarise(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and in how many pairs the new tree read lower.

    A metric a run did not report (None, or missing) is left out of that
    side's figures and out of the pair count.  ``failed_runs`` gives, for
    each side, how many runs exited non-zero or had failed operations.  A
    ``<workload>.<metric>`` whose metric ``BENCHMARK.json`` lists as end to
    end gets a :func:`verdict` with that entry's ``better`` and ``bound``;
    ``unresolved`` when a side has no runs of it.
    """
    end_to_end = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = {"failed_runs": {side: sum(p[side]["exit"] != 0 or p[side]["failed"] != 0 for p in pairs)
                           for side in ("old", "new")}}
    metrics = dict.fromkeys(m for p in pairs for side in ("old", "new") for m in p[side]["metrics"])
    for metric in metrics:
        values = [(p["old"]["metrics"].get(metric), p["new"]["metrics"].get(metric)) for p in pairs]
        old = [o for o, _ in values if o is not None]
        new = [n for _, n in values if n is not None]
        both = [(o, n) for o, n in values if o is not None and n is not None]
        old_spread, new_spread = _spread(old), _spread(new)
        ratio = (round(new_spread["median"] / old_spread["median"], 4)
                 if old and new and old_spread["median"] else None)
        out[metric] = {
            "old": old_spread,
            "new": new_spread,
            "new_over_old_median": ratio,
            "new_lower_in_pairs": f"{sum(n < o for o, n in both)} of {len(both)}",
        }
        listed = end_to_end.get(metric.partition(".")[2])
        if listed:
            out[metric]["verdict"] = (verdict(old, new, listed["better"], listed["bound"])
                                      if old and new else "unresolved")
    return out


def store(out: Path, label: str, result: dict) -> None:
    """Keep *result* in the JSON file *out* under *label*, beside the other labels there."""
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[label] = result
    out.write_text(json.dumps(runs, indent=1) + "\n")


def bench_rows(tree: Path, bench_args: list[str]) -> list[dict]:
    """CSV rows of ``bench *bench_args*`` run on *tree*'s source."""
    with tempfile.TemporaryDirectory() as tmp:
        rows = Path(tmp) / "bench.csv"
        run = "import sys; from bbdgemm.cli import bench_main; sys.exit(bench_main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", run, *bench_args, "--csv", str(rows)], cwd=tree,
                       env={**os.environ, "PYTHONPATH": str(tree / "src")}, check=True,
                       stdout=subprocess.DEVNULL)
        with rows.open(newline="") as handle:
            return [{key: value if key == "name" else json.loads(value) for key, value in row.items()}
                    for row in csv.DictReader(handle)]


def bench_summary(bench: dict) -> dict:
    """Per kernel: the per-call baseline's and the batched call's new/old time, and both speedups."""
    out = {}
    for old, new in zip(bench["old"], bench["new"]):
        out[old["name"]] = {
            "percall_new_over_old": round(new["median_ns_percall"] / old["median_ns_percall"], 4),
            "batched_new_over_old": round(new["median_ns_batched"] / old["median_ns_batched"], 4),
            "speedup": {"old": round(old["speedup"], 1), "new": round(new["speedup"], 1)},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the old tree")
    parser.add_argument("--out", required=True,
                        help="JSON file that holds each run under its --label; other labels are kept")
    parser.add_argument("--label", default="main")
    parser.add_argument("--run-args", default="", help="arguments for perfbench/run.py, e.g. '--seed 7'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--bench-args", default="",
                        help="arguments for bench, run once per tree, e.g. '--manifest manifests/default.manifest'")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = unpack_revision(args.parent, Path(tmp) / "old")
        result = {
            "command": (
                f"python3 tools/perfbench_pairs.py --parent {args.parent} --pairs {args.pairs}"
                f" --label {args.label} --run-args '{args.run_args}' --bench-args '{args.bench_args}'"
            ),
            "parent": args.parent,
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0))},
        }
        if args.bench_args:
            result["bench"] = {side: bench_rows(tree, args.bench_args.split())
                               for side, tree in (("old", old_tree), ("new", ROOT))}
            result["bench_summary"] = bench_summary(result["bench"])
            print(json.dumps(result["bench_summary"]), flush=True)
        if args.pairs:
            pairs = perfbench_pairs(old_tree, ROOT, args.pairs, args.run_args.split())
            result["perfbench_summary"] = summarise(pairs)
            result["perfbench_pairs"] = pairs
    store(Path(args.out), args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
