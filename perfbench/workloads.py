"""The benchmark's workloads: set-up, timed phase and output check.

Every workload is a closed loop with one caller on one thread: the next
operation starts when the previous one has returned.  An operation is one
``run_batched`` call (``small_batch``) or one proxy timestep, that is one
``run_proxy_state`` call with ``timesteps=1`` (``proxy_*``).  An operation
fails when it raised, when the output check found its result wrong, or when
the registry's reference fallback served it.  Output checks run outside the
timed phase.

Inputs come only from the seed: operand values, alpha and beta change with
it, shapes and sizes do not, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from bbdgemm import codegen, proxy, reference, runtime, vectorize
from bbdgemm.core import AccessKind, matrix_span, operand_dims, parse_kernel_name

import spans

#: 900 cells keep qin + qout + scratch at 900 * (2*4*90 + 180) * 8 B = 6.5 MB,
#: above a 4 MiB L2, so cache-sized tiling of the batch can show.
PROXY_VECTOR_CELLS = 900
#: The scalar loop nest runs about 7x slower; 50 cells give ~0.2 s timesteps.
PROXY_SCALAR_CELLS = 50
#: Cells whose trajectory the output check recomputes each timestep.
CHECK_CELLS = 8
SMALL_BATCH_E = 10000

#: The shipped tiny kernel, timed next to the benchmark's own manifest.
SHIPPED_SMALL = "bbdgemm_ColMajor_2_2_2_cis"
#: Shapes <= 4 with Indexed-read, Indexed-write and all-Strided access,
#: generated and loaded during set-up.
SMALL_MANIFEST = """\
ColMajor 4 4 4 sis
ColMajor 3 4 2 ssi
ColMajor 4 3 3 sss
RowMajor 2 3 4 ici
"""
#: Kernels called with beta != 0, so both the overwrite and the read-back
#: combine of C are timed.
SMALL_ACCUMULATE = {
    "bbdgemm_ColMajor_4_4_4_sis",
    "bbdgemm_ColMajor_3_4_2_ssi",
    "bbdgemm_RowMajor_2_3_4_ici",
}

#: Every kernel any workload calls, for the per-kernel trace metrics.
KERNEL_NAMES = (
    "bbdgemm_ColMajor_20_9_10_cis",
    "bbdgemm_ColMajor_10_9_9_sci",
    SHIPPED_SMALL,
    "bbdgemm_ColMajor_4_4_4_sis",
    "bbdgemm_ColMajor_3_4_2_ssi",
    "bbdgemm_ColMajor_4_3_3_sss",
    "bbdgemm_RowMajor_2_3_4_ici",
)


def _span(tracer, name):
    return tracer.span(name) if tracer else contextlib.nullcontext()


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.tobytes() == y.tobytes()


def _copy_cell(cell: proxy.TensorBatch) -> proxy.TensorBatch:
    return dataclasses.replace(cell, matrices=[m.copy() for m in cell.matrices])


class ProxyWorkload:
    """``proxy_vector`` / ``proxy_scalar``: the default chain, one timestep per op.

    The check keeps copies of a seeded sample of cells and advances them in
    the other mode after every timestep: the ``dgemm_ref`` loop nest for
    ``vector``, ``run_batched`` for ``scalar``.  Cells are independent, so the
    sample must match the full run bit for bit.
    """

    source_lines = 0  # no kernels are generated

    def __init__(self, mode: str, seed: int, cells: int, wrap_registry=None):
        self.name = f"proxy_{mode}"
        self.mode = mode
        self.seed = seed
        self.cells = cells
        self.wrap_registry = wrap_registry
        self.ops_per_round = 1

    def setup(self, tracer=None) -> None:
        registry = runtime.default_registry()
        self.registry = self.wrap_registry(registry) if self.wrap_registry else registry
        with _span(tracer, "proxy.build_state"):
            self.config = proxy.ProxyConfig(
                cells=self.cells, timesteps=1, mode=self.mode, seed=self.seed
            )
            self.state = proxy.build_state(self.config)
        rng = np.random.default_rng([self.seed, 1])
        self.sample = sorted(
            int(i) for i in rng.choice(self.cells, size=min(CHECK_CELLS, self.cells), replace=False)
        )
        other = "scalar" if self.mode == "vector" else "vector"
        check_config = dataclasses.replace(self.config, cells=len(self.sample), mode=other)
        self.check_state = proxy.ProxyState(
            config=check_config,
            qin=[_copy_cell(self.state.qin[i]) for i in self.sample],
            qout=[_copy_cell(self.state.qout[i]) for i in self.sample],
            constants={k: v.copy() for k, v in self.state.constants.items()},
            constant_lds=dict(self.state.constant_lds),
        )

    def flops(self, k: int) -> int:
        per_cell = sum(2 * s.spec.shape.n * s.spec.shape.m * s.spec.shape.k for s in self.config.chain)
        return per_cell * self.config.components * self.cells

    def operation(self, k: int, registry, tracer=None) -> None:
        with _span(tracer, "proxy.timestep"):
            proxy.run_proxy_state(self.config, self.state, registry=registry, timesteps=1)

    def warmup_checks(self, registry, outcome, tracer=None) -> None:
        pass

    def check(self, k: int, registry) -> str | None:
        check = self.check_state
        proxy.run_proxy_state(check.config, check, registry=registry, timesteps=1)
        for j, i in enumerate(self.sample):
            for c, (got, want) in enumerate(zip(self.state.qout[i].matrices, check.qout[j].matrices)):
                if not _same_bits(got, want):
                    return f"timestep {k}: cell {i} component {c} differs from the {check.config.mode} run"
        return None

    def close(self) -> None:
        pass


class SmallBatchWorkload:
    """``small_batch``: ``run_batched`` at E=10000 over tiny shapes, round robin.

    The first call of each kernel runs untimed on operands whose C was
    cloned first; ``batched_ref`` on the clone must give the same bits.
    """

    name = "small_batch"

    def __init__(self, seed: int, E: int, wrap_registry=None, scratch_dir: Path | None = None):
        self.seed = seed
        self.E = E
        self.wrap_registry = wrap_registry
        self.scratch_dir = scratch_dir
        self.tmp: str | None = None

    def setup(self, tracer=None) -> None:
        shipped = runtime.default_registry()
        self.tmp = tempfile.mkdtemp(prefix="kernels-", dir=self.scratch_dir)
        with _span(tracer, "codegen.generate"):
            manifest = codegen.parse_manifest(SMALL_MANIFEST, source="small_batch")
            written = codegen.write_kernel_package(manifest, self.tmp)
        self.source_lines = sum(len(p.read_text().splitlines()) for p in written)
        with _span(tracer, "codegen.load"):
            loaded = runtime.load_kernel_dir(self.tmp)
        registry = runtime.KernelRegistry({
            SHIPPED_SMALL: shipped.lookup(SHIPPED_SMALL),
            **{name: loaded.lookup(name) for name in loaded.names()},
        })
        self.registry = self.wrap_registry(registry) if self.wrap_registry else registry
        rng = np.random.default_rng(self.seed)
        self.calls = []
        for name in (SHIPPED_SMALL,) + manifest.names():
            spec = parse_kernel_name(name)
            alpha = rng.uniform(0.5, 1.5)
            beta = rng.uniform(0.5, 1.0) if name in SMALL_ACCUMULATE else 0.0
            a, b, c = (_random_operand(spec, which, self.E, rng) for which in "ABC")
            self.calls.append((spec, alpha, a, b, beta, c))
        self.ops_per_round = len(self.calls)

    def flops(self, k: int) -> int:
        shape = self.calls[k % len(self.calls)][0].shape
        return 2 * shape.n * shape.m * shape.k * self.E

    def operation(self, k: int, registry, tracer=None) -> None:
        spec, alpha, a, b, beta, c = self.calls[k % len(self.calls)]
        runtime.run_batched(spec, self.E, alpha, a, b, beta, c, registry=registry)

    def warmup_checks(self, registry, outcome, tracer=None) -> None:
        """Check each kernel's first call: one untimed operation per kernel."""
        for k, (spec, alpha, a, b, beta, c) in enumerate(self.calls):
            outcome.attempted += 1
            before = registry.fallback_count
            with _span(tracer, spans.CHECK):
                try:
                    problem = self._first_call_problem(k, registry)
                except Exception:
                    problem = traceback.format_exc(limit=3)
            if problem is None and registry.fallback_count != before:
                problem = f"{spec.name}: served by the reference fallback"
            if problem:
                outcome.fail(problem)

    def _first_call_problem(self, k: int, registry) -> str | None:
        spec, alpha, a, b, beta, c = self.calls[k]
        expected = _clone(c)
        runtime.run_batched(spec, self.E, alpha, a, b, beta, c, registry=registry)
        reference.batched_ref(spec, self.E, reference.GemmScalars(alpha, beta), a, b, expected)
        for e, (x, y) in enumerate(zip(_payload_arrays(c), _payload_arrays(expected))):
            if not _same_bits(x, y):
                return f"{spec.name}: first call differs from batched_ref (buffer {e})"
        return None

    def check(self, k: int, registry) -> None:
        return None

    def close(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


def _random_operand(spec, which: str, E: int, rng) -> runtime.BatchedOperand:
    kind = spec.access(which)
    ld = operand_dims(spec, which).min_ld
    span = matrix_span(spec, which, ld)
    if kind is AccessKind.Constant:
        return runtime.BatchedOperand.constant(rng.uniform(-1.0, 1.0, span), ld)
    if kind is AccessKind.Strided:
        return runtime.BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * span), ld, span)
    return runtime.BatchedOperand.indexed([rng.uniform(-1.0, 1.0, span) for _ in range(E)], ld)


def _clone(operand: runtime.BatchedOperand) -> runtime.BatchedOperand:
    if operand.kind is AccessKind.Indexed:
        return runtime.BatchedOperand.indexed([m.copy() for m in operand.table], operand.ld)
    return dataclasses.replace(operand, data=operand.data.copy())


def _payload_arrays(operand: runtime.BatchedOperand) -> list[np.ndarray]:
    return list(operand.table) if operand.kind is AccessKind.Indexed else [operand.data]


def make(name: str, seed: int, wrap_registry=None, scratch_dir: Path | None = None, size: int | None = None):
    """Workload *name*; *size* overrides its cell count or batch size."""
    if name == "proxy_vector":
        return ProxyWorkload("vector", seed, size or PROXY_VECTOR_CELLS, wrap_registry)
    if name == "proxy_scalar":
        return ProxyWorkload("scalar", seed, size or PROXY_SCALAR_CELLS, wrap_registry)
    if name == "small_batch":
        return SmallBatchWorkload(seed, size or SMALL_BATCH_E, wrap_registry, scratch_dir)
    raise ValueError(f"unknown workload {name!r}")


@dataclasses.dataclass
class Outcome:
    """What the timed phase and the checks saw."""

    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    op_ns: list = dataclasses.field(default_factory=list)
    round_ns: list = dataclasses.field(default_factory=list)
    #: Reference-loop time beside each round: the mean of the runs before and after it.
    ref_ns: list = dataclasses.field(default_factory=list)
    call_ns: list = dataclasses.field(default_factory=list)
    flops: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


class _CallTimer:
    """Times each ``run_batched`` call the proxy makes; two clock reads per call."""

    def __init__(self, samples: list):
        self.samples = samples

    def __enter__(self):
        original = self.original = proxy.run_batched
        samples = self.samples

        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(time.perf_counter_ns() - t0)

        proxy.run_batched = timed
        return self

    def __exit__(self, *exc):
        proxy.run_batched = self.original
        return False


def run_round(workload, registry, outcome: Outcome, k: int, tracer=None,
              time_calls: bool = False) -> int:
    """Run one round of operations from index *k*; return the next index.

    Each operation's check runs after its clock stops.
    """
    round_ns = 0
    for k in range(k, k + workload.ops_per_round):
        outcome.attempted += 1
        before = registry.fallback_count
        problem = None
        if tracer:
            tracer.op_id = k
            root = tracer.begin(spans.OP)
        with _CallTimer(outcome.call_ns) if time_calls else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            try:
                workload.operation(k, registry, tracer)
            except Exception:
                problem = traceback.format_exc(limit=3)
            elapsed = time.perf_counter_ns() - t0
        if tracer:
            tracer.end(root)
        outcome.op_ns.append(elapsed)
        round_ns += elapsed
        outcome.flops += workload.flops(k)
        if problem is None and registry.fallback_count != before:
            problem = f"operation {k}: served by the reference fallback"
        if problem is None:
            with _span(tracer, spans.CHECK):
                try:
                    problem = workload.check(k, registry)
                except Exception:
                    problem = traceback.format_exc(limit=3)
        if problem:
            outcome.fail(problem)
    outcome.round_ns.append(round_ns)
    return k + 1


class ReferenceLoop:
    """A fixed pure-Python loop, timed between rounds to gauge the machine's speed.

    It does the kind of work the interpreted kernels do: scalar loads from
    memoryviews in a table, multiply-adds and stores, about 60 ms of it.  It
    calls nothing of the package, so no change to the package moves it,
    while the host's shifts in speed (1.3-1.8x, lasting seconds to minutes)
    move it and the rounds alike.
    """

    E = 2000
    REPEATS = 24

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = memoryview(rng.uniform(-1.0, 1.0, 8))
        self.table = [memoryview(rng.uniform(-1.0, 1.0, 4)) for _ in range(self.E)]
        self.c = memoryview(np.zeros(4 * self.E))

    def run(self) -> None:
        a0, a1, a2, a3, a4, a5, a6, a7 = self.a
        table, c = self.table, self.c
        for _ in range(self.REPEATS):
            for e in range(self.E):
                b = table[e]
                b0 = b[0]; b1 = b[1]; b2 = b[2]; b3 = b[3]  # noqa: E702
                o = 4 * e
                c[o] = 0.5 * (a0 * b0 + a4 * b1 + a1 * b2 + a5 * b3) + 0.25 * c[o]
                c[o + 1] = 0.5 * (a1 * b0 + a5 * b1 + a2 * b2 + a6 * b3) + 0.25 * c[o + 1]
                c[o + 2] = 0.5 * (a2 * b0 + a6 * b1 + a3 * b2 + a7 * b3) + 0.25 * c[o + 2]
                c[o + 3] = 0.5 * (a3 * b0 + a7 * b1 + a0 * b2 + a4 * b3) + 0.25 * c[o + 3]

    def time_ns(self) -> int:
        t0 = time.perf_counter_ns()
        self.run()
        return time.perf_counter_ns() - t0


def timed_phase(workload, registry, seconds: float, outcome: Outcome,
                time_calls: bool = False) -> None:
    """Run whole rounds, each followed by the reference loop, for *seconds*.

    The budget counts the timed rounds and reference loops; at least one
    round runs.  A wall-clock cap of twice the budget ends a run whose
    operations fail instantly.
    """
    reference_loop = ReferenceLoop()
    reference_loop.run()  # warm-up
    budget_ns = seconds * 1e9
    wall_start = time.perf_counter_ns()
    k = 0
    before = reference_loop.time_ns()
    spent_ns = before
    while not outcome.ref_ns or (spent_ns < budget_ns and
                                 time.perf_counter_ns() - wall_start < 2 * budget_ns):
        k = run_round(workload, registry, outcome, k, time_calls=time_calls)
        after = reference_loop.time_ns()
        outcome.ref_ns.append((before + after) / 2)
        spent_ns += outcome.round_ns[-1] + after
        before = after


def traced_phase(workload, registry, tracer, seconds: float, untraced: Outcome,
                 traced: Outcome) -> None:
    """Alternate untraced and traced rounds until *seconds* were timed in all.

    Alternating keeps drift in machine load out of the overhead estimate.
    """
    budget_ns = seconds * 1e9
    wall_start = time.perf_counter_ns()
    k = 0
    while (sum(untraced.op_ns) + sum(traced.op_ns) < budget_ns
           and time.perf_counter_ns() - wall_start < 2 * budget_ns):
        k = run_round(workload, workload.registry, untraced, k)
        with spans.installed(tracer):
            k = run_round(workload, registry, traced, k, tracer)


def percentile_tail(samples) -> tuple[float | None, float | None]:
    """(value, percentile) of the highest order statistic with 10 samples above it."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, outcome: Outcome) -> dict:
    """End-to-end metrics of the timed phase: name -> value, unit, sample count.

    A run with any failed operation has no valid timing: its values are None.
    """
    valid = outcome.failed == 0 and bool(outcome.op_ns)
    total_ns = sum(outcome.op_ns)
    n = len(outcome.op_ns)
    op_kind = "calls" if workload.name == "small_batch" else "timesteps"

    def timing(value):
        return value if valid else None

    tail, tail_pct = percentile_tail(outcome.op_ns)
    metrics = {
        "gflops": {"value": timing(outcome.flops / total_ns if total_ns else None),
                   "unit": "GFLOP/s", "n": n, "note": f"useful 2*N*M*K*E FLOPs over {n} {op_kind}"},
        "op_ms_p50": {"value": timing(statistics.median(outcome.op_ns) / 1e6 if n else None),
                      "unit": "ms", "n": n, "note": f"per operation ({op_kind})"},
        "op_ms_tail": {"value": timing(tail / 1e6 if tail is not None else None),
                       "unit": "ms", "n": n,
                       "note": f"p{tail_pct:.1f} per operation ({op_kind})" if tail_pct else "n < 11"},
        "round_vs_ref": {"value": timing(statistics.median(
                             r / ref for r, ref in zip(outcome.round_ns, outcome.ref_ns))
                             if outcome.ref_ns else None),
                         "unit": "x", "n": len(outcome.ref_ns),
                         "note": f"median round ({workload.ops_per_round} {op_kind}) "
                                 "over the reference loop beside it"},
        "ref_loop_ms": {"value": statistics.median(outcome.ref_ns) / 1e6 if outcome.ref_ns else None,
                        "unit": "ms", "n": len(outcome.ref_ns),
                        "note": "median reference loop: the machine's speed, not the program's"},
    }
    if workload.name.startswith("proxy_"):
        metrics["cell_steps_per_s"] = {
            "value": timing(workload.cells * n / (total_ns / 1e9) if total_ns else None),
            "unit": "cell-steps/s", "n": n, "note": f"{workload.cells} cells x {n} timesteps"}
    calls = outcome.op_ns if workload.name == "small_batch" else outcome.call_ns
    if calls:
        call_tail, call_pct = percentile_tail(calls)
        metrics["call_ms_p50"] = {"value": timing(statistics.median(calls) / 1e6),
                                  "unit": "ms", "n": len(calls), "note": "per run_batched call"}
        metrics["call_ms_tail"] = {
            "value": timing(call_tail / 1e6 if call_tail is not None else None),
            "unit": "ms", "n": len(calls),
            "note": f"p{call_pct:.1f} per run_batched call" if call_pct else "n < 11"}
    metrics["failed_ratio"] = {"value": outcome.failed / max(outcome.attempted, 1),
                               "unit": "ratio", "n": outcome.attempted,
                               "note": "failed / attempted operations"}
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        wrap_registry=None, size: int | None = None, setup_only: bool = False) -> dict:
    """Set up workload *name*, run its timed phase and checks, and report.

    Untraced, the whole budget is one timed phase and the result carries the
    end-to-end metrics.  Traced, set-up and the checks are traced and the
    budget alternates untraced and traced rounds; the result carries the
    per-layer metrics and the tracing overhead, and the spans are written to
    *out_dir*.
    """
    tracer = spans.Tracer() if trace else None
    workload = make(name, seed, wrap_registry, out_dir, size)
    try:
        start = time.perf_counter()
        if tracer:
            with spans.installed(tracer), tracer.span(spans.SETUP):
                workload.setup(tracer)
        else:
            workload.setup()
        result = {"workload": name, "seed": seed, "setup_s": time.perf_counter() - start}
        if setup_only:
            return result
        gc.collect()
        outcome = Outcome()
        time_calls = name == "proxy_vector"
        if not tracer:
            workload.warmup_checks(workload.registry, outcome)
            timed_phase(workload, workload.registry, seconds, outcome, time_calls=time_calls)
            result["metrics"] = end_to_end(workload, outcome)
        else:
            registry = spans.traced_registry(tracer, workload.registry)
            with spans.installed(tracer):
                workload.warmup_checks(registry, outcome, tracer)
            traced = Outcome()
            traced_phase(workload, registry, tracer, seconds, outcome, traced)
            per_layer, shares, counts = spans.layer_metrics(tracer, KERNEL_NAMES)
            untraced_rate = sum(outcome.op_ns) / max(outcome.flops, 1)
            traced_rate = sum(traced.op_ns) / max(traced.flops, 1)
            per_layer["trace.overhead_pct"] = (100.0 * (traced_rate / untraced_rate - 1.0), "%")
            per_layer["vectorize.jit_enabled"] = (int(vectorize.jit_enabled()), "bool")
            per_layer["codegen.source_lines"] = (workload.source_lines, "count")
            result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
            result["layer_shares_pct"] = shares
            result["kernel_counts"] = counts
            spans_file = out_dir / f"{name}-seed{seed}-spans.jsonl"
            tracer.write(spans_file)
            result["spans_file"] = str(spans_file)
            result["spans"] = len(tracer.spans)
            for field in ("attempted", "failed"):
                setattr(outcome, field, getattr(outcome, field) + getattr(traced, field))
            outcome.errors += traced.errors
        result.update(attempted=outcome.attempted, failed=outcome.failed, errors=outcome.errors[:5])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        return result
    finally:
        workload.close()
