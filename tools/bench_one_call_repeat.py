"""Compare a repeated ``run_batched`` call in two trees: its parts between kernels, and perfbench pairs.

Run from the repository root::

    python3 tools/bench_one_call_repeat.py --parent <rev> --out BENCH_one_call_repeat.json

The old tree is ``git archive <rev>`` unpacked into a temporary directory and
the new tree is this checkout; both must define ``runtime._repeats``.  In each tree, a subprocess builds the
proxy_vector state (900 cells, seed 42), runs two timesteps so that every
call repeats a prepared one, and then times the parts of each of a
timestep's 8 calls, each right after the previous call's kernel has run, as
in a timestep:

* ``repeat``: the whole ``run_batched`` call;
* ``match``: deciding that the call repeats the prepared one (``_repeats``);
* ``c_call``: what runs after the match, the prepared runner, which makes
  one ``run_prepared`` call;
* ``kernel``: the C twin alone, called through ctypes with the same arguments.

The parts are timed in turn, their order rotating by round.  The script then
runs ``perfbench/run.py`` (at its defaults, or with ``--run-args``) in both
trees, alternating which goes first, ``--pairs`` times.  Each run is stored
in ``--out`` under its ``--label``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from perfbench_pairs import ROOT, perfbench_pairs, store, summarise, unpack_revision

PARTS = ("repeat", "match", "c_call", "kernel")

#: Run in each tree; prints the median microseconds of each part per call
#: and their sum over a timestep's calls.
PROBE = r'''
import json, statistics, sys, time
from bbdgemm import proxy, runtime, vectorize
from bbdgemm.core import AccessKind

rounds = int(sys.argv[1])
config = proxy.ProxyConfig(cells=900, timesteps=1, mode="vector", seed=42)
state = proxy.build_state(config)
registry = runtime.default_registry()
proxy.run_proxy_state(config, state, registry=registry, timesteps=2)
E = config.cells
calls = []
for operands in state._step_operands[1]:
    for step, (a, b, c) in zip(config.chain, operands):
        pointers = [op.table.addresses.ctypes.data if op.kind is AccessKind.Indexed
                    else op.data.ctypes.data for op in (a, b, c)]
        spans = [op.span if op.kind is AccessKind.Strided else 0 for op in (a, b, c)]
        calls.append((step, a, b, c, vectorize._load_c_kernel(step.spec.name), pointers, spans))


def kernel(step, a, b, c, fn, pointers, spans):
    fn(E, step.alpha, pointers[0], a.ld, pointers[1], b.ld, step.beta, pointers[2], c.ld, *spans)


def repeat(step, a, b, c, *_):
    runtime.run_batched(step.spec, E, step.alpha, a, b, step.beta, c, registry=registry)


def match(step, a, b, c, *_):
    runtime._repeats(c._prepared, step.spec, E, a, b, c, registry)


def c_call(step, a, b, c, *_):
    c._prepared.runner(step.alpha, step.beta)


parts = {"repeat": repeat, "match": match, "c_call": c_call, "kernel": kernel}
names = list(parts)
samples = {name: [[] for _ in calls] for name in names}
for index in range(rounds):
    for name in names[index % 4:] + names[:index % 4]:
        for i, call in enumerate(calls):
            kernel(*calls[i - 1])
            started = time.perf_counter_ns()
            parts[name](*call)
            samples[name][i].append(time.perf_counter_ns() - started)
print(json.dumps({
    name: {
        "us_per_call": [round(statistics.median(per_call) / 1e3, 2) for per_call in samples[name]],
        "us_per_timestep": round(sum(statistics.median(s) for s in samples[name]) / 1e3, 1),
    }
    for name in names
}))
'''


def split_repeat(tree: Path, rounds: int) -> dict:
    """The parts of each proxy_vector call, timed between kernels in *tree*."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(rounds)], cwd=tree, env={"PYTHONPATH": str(tree / "src")},
        capture_output=True, text=True, check=True,
    )
    parts = json.loads(done.stdout.splitlines()[-1])
    per_step = {name: parts[name]["us_per_timestep"] for name in PARTS}
    return {
        "us_per_timestep": per_step,
        "outside_kernel_us_per_timestep": round(per_step["repeat"] - per_step["kernel"], 1),
        "us_per_call": {name: parts[name]["us_per_call"] for name in PARTS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the old tree")
    parser.add_argument("--out", required=True,
                        help="JSON file that holds each run under its --label; other labels are kept")
    parser.add_argument("--label", default="main")
    parser.add_argument("--run-args", default="", help="arguments for perfbench/run.py, e.g. '--seed 7'")
    parser.add_argument("--rounds", type=int, default=200, help="rounds of the split, per tree")
    parser.add_argument("--splits", type=int, default=3, help="split runs per tree, alternating")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        old_tree = unpack_revision(args.parent, Path(tmp) / "old")
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout.splitlines()[0]
        splits = {"old": [], "new": []}
        for index in range(args.splits):
            for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
                splits[side].append(split_repeat(old_tree if side == "old" else ROOT, args.rounds))
                print(side, json.dumps(splits[side][-1]["us_per_timestep"]), flush=True)
        result = {
            "command": (
                f"python3 tools/bench_one_call_repeat.py --parent {args.parent} --rounds {args.rounds}"
                f" --splits {args.splits} --pairs {args.pairs} --label {args.label}"
                f" --run-args '{args.run_args}'"
            ),
            "parent": args.parent,
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "numpy": np.__version__, "cc": cc, "nproc": len(os.sched_getaffinity(0))},
            "repeat_split": splits,
        }
        if args.pairs:
            pairs = perfbench_pairs(old_tree, ROOT, args.pairs, args.run_args.split())
            result["perfbench_summary"] = summarise(pairs)
            result["perfbench_pairs"] = pairs
    store(Path(args.out), args.label, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
