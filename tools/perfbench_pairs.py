"""Helpers the tools share: an old tree from git, and alternating ``perfbench/run.py`` pairs.

Import it from a script in this directory (``tools/`` is on ``sys.path``
when such a script runs).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tarfile
from io import BytesIO
from pathlib import Path

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
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            pair[side] = {"exit": done.returncode, "failed": summary["failed"],
                          "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}
        out.append(pair)
        print(json.dumps(pair), flush=True)
    return out


def summarise(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and in how many pairs the new tree read lower."""
    out = {}
    for metric in pairs[0]["old"]["metrics"]:
        old = [p["old"]["metrics"][metric] for p in pairs]
        new = [p["new"]["metrics"][metric] for p in pairs]
        q_old, q_new = statistics.quantiles(old, n=4), statistics.quantiles(new, n=4)
        out[metric] = {
            "old": {"median": round(statistics.median(old), 4), "q1": round(q_old[0], 4), "q3": round(q_old[2], 4)},
            "new": {"median": round(statistics.median(new), 4), "q1": round(q_new[0], 4), "q3": round(q_new[2], 4)},
            "new_over_old_median": round(statistics.median(new) / statistics.median(old), 4),
            "new_lower_in_pairs": f"{sum(n < o for o, n in zip(old, new))} of {len(pairs)}",
        }
    return out


def store(out: Path, label: str, result: dict) -> None:
    """Keep *result* in the JSON file *out* under *label*, beside the other labels there."""
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[label] = result
    out.write_text(json.dumps(runs, indent=1) + "\n")
