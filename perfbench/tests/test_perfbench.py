"""Tests of the benchmark itself: metric reporting and the output check.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bbdgemm.runtime import KernelRegistry

import run
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Cell counts and batch size small enough for in-process runs.
SMALL = {"proxy_vector": 16, "proxy_scalar": 16, "small_batch": 64}
#: Metrics printed next to the gated ones, on the workloads they apply to.
COMMON = ("gflops", "op_ms_p50", "op_ms_tail", "ref_loop_ms", "failed_ratio")
PRINTED_ONLY = {
    "proxy_vector": COMMON + ("cell_steps_per_s", "call_ms_p50", "call_ms_tail"),
    "proxy_scalar": COMMON + ("cell_steps_per_s",),
    "small_batch": COMMON + ("call_ms_p50", "call_ms_tail"),
}


@pytest.fixture(scope="module")
def cli():
    """``run.py --workload all`` untraced and traced, on short budgets.

    Untraced runs need at least 11 operations for a tail: 10 s covers the
    ~0.6 s proxy_vector timesteps and the reference loop beside each.
    """
    procs = {}
    for trace, seconds in ((0, "10"), (1, "0.5")):
        procs[trace] = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
             "--seconds", seconds, "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
    return procs


def _summary(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_has_value_and_unit(cli, trace, kind):
    summary = _summary(cli[trace])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 3
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in run.WORKLOADS for m in BENCHMARK[kind]
    }
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())


def test_every_named_metric_is_printed_with_unit_and_count(cli):
    lines = cli[0].stdout.splitlines()
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    units.update(gflops="GFLOP/s", op_ms_p50="ms", op_ms_tail="ms", ref_loop_ms="ms",
                 cell_steps_per_s="cell-steps/s",
                 call_ms_p50="ms", call_ms_tail="ms", failed_ratio="ratio")
    for workload in run.WORKLOADS:
        start = next(i for i, line in enumerate(lines) if line.startswith(f"== {workload} "))
        section = lines[start + 1:start + 20]
        assert any("JIT path:" in line and "nproc=" in line for line in section)
        for name in [m["name"] for m in BENCHMARK["end_to_end"]] + list(PRINTED_ONLY[workload]):
            line = next((l for l in section if l.split()[:1] == [name]), None)
            assert line is not None, f"{workload}: {name} not printed"
            assert f" {units[name]} " in line and "n=" in line, line


def test_traced_self_times_account_for_wall_time(cli):
    for workload in run.WORKLOADS:
        result = json.loads((run.OUT_DIR / f"{workload}-seed3-trace1.json").read_text())
        assert sum(result["layer_shares_pct"].values()) == pytest.approx(100.0)
        assert result["per_layer"]["runtime.fallback_calls"]["value"] == 0
        assert Path(result["spans_file"]).stat().st_size > 0


def test_workload_reasons_name_the_default_seed():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for entry in BENCHMARK["workloads"]:
        assert f"default seed {run.DEFAULT_SEED}" in entry["why"]


def perturbing(registry: KernelRegistry) -> KernelRegistry:
    """Registry whose kernels run the real kernel, then add 1 to each C matrix."""

    def wrong(kernel):
        def perturbed(E, alpha, A, lda, B, ldb, beta, C, ldc):
            kernel(E, alpha, A, lda, B, ldb, beta, C, ldc)
            for matrix in C if isinstance(C, list) else [C]:
                matrix[0] += 1.0

        return perturbed

    return KernelRegistry({name: wrong(registry.lookup(name)) for name in registry.names()})


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("wrap", [None, perturbing], ids=["real", "perturbed"])
def test_wrong_kernel_fails_the_run_and_voids_throughput(tmp_path, workload, wrap):
    result = workloads.run(workload, seed=5, seconds=0.05, trace=False, out_dir=tmp_path,
                           wrap_registry=wrap, size=SMALL[workload])
    metrics = result["metrics"]
    if wrap is None:
        assert result["failed"] == 0 and metrics["gflops"]["value"] > 0
        return
    assert result["failed"] > 0 and metrics["failed_ratio"]["value"] > 0
    voided = ("gflops", "op_ms_p50", "op_ms_tail", "round_vs_ref")
    assert all(metrics[name]["value"] is None for name in voided)


def test_failed_check_makes_the_command_exit_nonzero(tmp_path, monkeypatch, capsys):
    def in_process(workload, seed, seconds, trace, timeout, setup_only=False):
        result = workloads.run(workload, seed, 0.05, bool(trace), tmp_path,
                               wrap_registry=perturbing, size=SMALL[workload],
                               setup_only=setup_only)
        result["environment"] = worker.environment()
        return result

    monkeypatch.setattr(run, "run_worker", in_process)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "small_batch", "--seed", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    summary = json.loads(out[-1])
    assert summary["correct"] is False and summary["failed"] > 0
    assert summary["metrics"]["round_vs_ref"]["value"] is None
    assert any("FAILED:" in line for line in out)
