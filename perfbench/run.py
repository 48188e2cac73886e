"""Benchmark of the bbdgemm package: three workloads, one command.

    python3 perfbench/run.py [--workload proxy_vector|proxy_scalar|small_batch|all]
                             [--seed 42] [--seconds 30] [--trace 0|1]

Run from the repository root.  Each workload runs in a fresh worker process
(``worker.py``) with BLAS and OpenMP held to one thread.  Set-up-only
workers before and after it time set-up again, so the reported median
spans the machine's state over the whole run.  The
output check runs outside the timed phase; any failed operation makes the
run exit with status 1 and its timings invalid (null).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run, which also writes its spans to ``perfbench/out``.
Every metric is printed on its own line with unit and sample count, then the
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  When the package source is missing or a worker
dies, no JSON line is printed and the exit status is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, SRC, THREAD_VARS

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("proxy_vector", "proxy_scalar", "small_batch")
DEFAULT_SEED = 42

#: End-to-end metrics of the JSON line, as listed in BENCHMARK.json.  The
#: others are printed but not gated: on a shared host their run-to-run spread
#: exceeds any bound the benchmark may set (see perfbench/README.md).
END_TO_END = ("round_vs_ref", "setup_s", "peak_rss_mb")
#: Set-up-only workers run before and after the main worker (which times
#: set-up once more); the median of all samples is reported.
SETUP_PROBES_EACH_SIDE = 5
#: One workload, set-up samples included, must end within this many seconds.
WORKLOAD_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    """A worker exited abnormally or printed no result."""


def run_worker(workload: str, seed: int, seconds: float, trace: int, timeout: float,
               setup_only: bool = False) -> dict:
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload}: worker exceeded {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{workload}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run *workload* in fresh processes; return the main worker's result."""
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    probes = 0 if trace else SETUP_PROBES_EACH_SIDE

    def setup_probes() -> list[float]:
        return [run_worker(workload, seed, seconds, trace, deadline - time.monotonic(),
                           setup_only=True)["setup_s"] for _ in range(probes)]

    setup_samples = setup_probes()
    result = run_worker(workload, seed, seconds, trace, deadline - time.monotonic())
    setup_samples += [result["setup_s"]] + setup_probes()
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup_samples), "unit": "s", "n": len(setup_samples),
            "note": "median: import, registry, codegen/load, state or operands"}
        result["metrics"]["peak_rss_mb"] = {
            "value": result["peak_rss_mb"], "unit": "MB", "n": 1,
            "note": "peak resident memory of the worker process"}
    result["setup_samples_s"] = setup_samples
    return result


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: environment, then every metric with unit and n."""
    env = result["environment"]
    threads = " ".join(f"{k}={v}" for k, v in env["thread_settings"].items())
    lines = [
        f"== {result['workload']}  seed={result['seed']}  "
        f"attempted={result['attempted']} failed={result['failed']}",
        f"   environment: python {env['python']}, numpy {env['numpy']}, "
        f"jit_available={env['jit_available']}, jit_enabled={env['jit_enabled']} "
        f"(JIT path: {env['jit_path']}), nproc={env['nproc']}, "
        f"python threads={env['python_threads']}, {threads}",
    ]
    for error in result["errors"]:
        lines.append("   FAILED: " + error.strip().replace("\n", "\n   "))
    for name, metric in result.get("metrics", {}).items():
        value = metric["value"]
        shown = "invalid (failed operations)" if value is None else f"{value:.6g}"
        lines.append(f"   {name:<18} {shown:>14} {metric['unit']:<14} "
                     f"n={metric['n']:<6} {metric['note']}")
    for name, metric in result.get("per_layer", {}).items():
        lines.append(f"   {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    if "layer_shares_pct" in result:
        shares = ", ".join(f"{layer} {pct:.2f}%" for layer, pct in result["layer_shares_pct"].items())
        lines.append(f"   self time share of the traced timed phase: {shares}")
        for name, (_, flops, nbytes) in result["kernel_counts"].items():
            lines.append(f"   {name}: computed {flops} FLOP, {nbytes} B, "
                         f"{flops / nbytes:.4g} FLOP/B (computed, not measured)")
        lines.append(f"   {result['spans']} spans written to {result['spans_file']}")
    return lines


def json_metrics(result: dict, trace: int) -> dict:
    if trace:
        return result["per_layer"]
    return {name: {"value": result["metrics"][name]["value"], "unit": result["metrics"][name]["unit"]}
            for name in END_TO_END}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bbdgemm" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in selected:
        try:
            result = run_workload(workload, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        out = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(result, indent=1) + "\n")
        print("\n".join(report_lines(result)), flush=True)

    if len(results) == 1:
        metrics = json_metrics(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in json_metrics(r, args.trace).items()}
    failed = sum(r["failed"] for r in results)
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
