"""Correctness gate, benchmark harness, and CSV reporting.

Every spec is validated against the reference implementation before it may
be timed; a spec whose outputs differ from the oracle by more than 1e-12
never produces a benchmark row.  Timing compares one batched call over E
elements against a loop of E single-pair GEMM calls, using medians over a
configurable number of repetitions after one warm-up.  Samples shorter than
one millisecond are automatically inflated by repeating the measured unit.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .core import (
    AccessKind,
    KernelNameError,
    KernelSpec,
    Layout,
    kernel_name,
    matrix_span,
    operand_dims,
    parse_kernel_name,
)
from .reference import GemmScalars, batched_ref
from .runtime import BatchedOperand, KernelRegistry, default_registry, run_batched

__all__ = [
    "BenchRecord",
    "TimingDetail",
    "FallbackDisallowed",
    "random_operands",
    "clone_operand",
    "output_elements",
    "run_correctness",
    "run_benchmark",
    "emit_csv",
    "read_csv",
    "amdahl_max_speedup",
    "format_report",
]

#: Hard correctness bound for emitting a benchmark row.
CORRECTNESS_TOL = 1e-12

_MIN_SAMPLE_NS = 1_000_000  # inflate timed units until one sample takes >= 1 ms

CSV_HEADER = (
    "name",
    "E",
    "reps",
    "median_ns_batched",
    "median_ns_percall",
    "speedup",
    "max_abs_diff",
    "fallback_used",
)


class FallbackDisallowed(RuntimeError):
    """A run needed the reference fallback but the caller forbade it."""


@dataclass(frozen=True)
class BenchRecord:
    """One CSV row of a correctness/benchmark run."""

    name: str
    E: int
    reps: int
    median_ns_batched: int
    median_ns_percall: int
    speedup: float
    max_abs_diff: float
    fallback_used: bool


@dataclass(frozen=True)
class TimingDetail:
    """Raw samples behind a record; reported alongside, never in the CSV."""

    batched_samples_ns: tuple[float, ...]
    percall_samples_ns: tuple[float, ...]
    batched_inner_iters: int
    percall_inner_iters: int

    @property
    def stddev_ns_batched(self) -> float:
        return statistics.pstdev(self.batched_samples_ns) if self.batched_samples_ns else 0.0

    @property
    def stddev_ns_percall(self) -> float:
        return statistics.pstdev(self.percall_samples_ns) if self.percall_samples_ns else 0.0


def random_operands(
    spec: KernelSpec, E: int, seed: int
) -> tuple[BatchedOperand, BatchedOperand, BatchedOperand]:
    """Seeded uniform [-1, 1] operands matching the spec's access kinds.

    All leading dimensions are minimal.  Indexed operands get one
    independently allocated matrix per batch element.
    """
    rng = np.random.default_rng(seed)
    operands = []
    for which in "ABC":
        kind = spec.access(which)
        ld = operand_dims(spec, which).min_ld
        span = matrix_span(spec, which, ld)
        if kind is AccessKind.Constant:
            operands.append(BatchedOperand.constant(rng.uniform(-1.0, 1.0, span), ld))
        elif kind is AccessKind.Strided:
            operands.append(
                BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * span), ld, span)
            )
        else:
            table = [rng.uniform(-1.0, 1.0, span) for _ in range(E)]
            operands.append(BatchedOperand.indexed(table, ld))
    return tuple(operands)


def clone_operand(operand: BatchedOperand) -> BatchedOperand:
    """Deep copy so two code paths can run on identical inputs."""
    if operand.kind is AccessKind.Indexed:
        return BatchedOperand.indexed([np.array(m) for m in operand.table], operand.ld)
    return BatchedOperand(
        kind=operand.kind, ld=operand.ld, data=np.array(operand.data), span=operand.span
    )


def output_elements(spec: KernelSpec, E: int, c: BatchedOperand) -> np.ndarray:
    """Copy of every output element across the batch, as one flat array.

    A Constant C gives its one matrix; an empty batch of Strided or Indexed
    matrices gives an empty array.
    """
    span = matrix_span(spec, "C", c.ld)
    if c.kind is AccessKind.Constant:
        return np.array(c.data[:span])
    if c.kind is AccessKind.Strided:
        matrices = [c.data[e * c.span : e * c.span + span] for e in range(E)]
    else:
        matrices = [np.asarray(c.table[e][:span]) for e in range(E)]
    return np.concatenate(matrices) if matrices else np.empty(0)


def run_correctness(
    spec: KernelSpec,
    E: int,
    seed: int,
    registry: KernelRegistry | None = None,
    allow_fallback: bool = False,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> float:
    """Max absolute difference between the dispatched kernel and the oracle.

    Fills seeded random operands, runs the generated kernel and
    ``batched_ref`` on identical copies, and compares every output element
    over the whole batch; a NaN in the kernel's output makes the result NaN.
    Raises :class:`FallbackDisallowed` when the kernel is missing and
    *allow_fallback* is false.
    """
    registry = registry if registry is not None else default_registry()
    a, b, c_kernel = random_operands(spec, E, seed)
    c_oracle = clone_operand(c_kernel)
    before = registry.fallback_count
    run_batched(spec, E, alpha, a, b, beta, c_kernel, registry=registry)
    if registry.fallback_count != before and not allow_fallback:
        raise FallbackDisallowed(
            f"{kernel_name(spec)} is not in the dispatch table; "
            f"build it or pass allow_fallback"
        )
    batched_ref(spec, E, GemmScalars(alpha, beta), a, b, c_oracle)
    got = output_elements(spec, E, c_kernel)
    want = output_elements(spec, E, c_oracle)
    return float(np.max(np.abs(got - want))) if got.size else 0.0


def _measure(unit: Callable[[], None], reps: int) -> tuple[list[float], int]:
    """Median-friendly timing: calibrate the unit to >= 1 ms, then sample."""
    unit()  # warm-up (also triggers any lazy compilation)
    inner = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(inner):
            unit()
        elapsed = time.perf_counter_ns() - start
        if elapsed >= _MIN_SAMPLE_NS:
            break
        inner *= 2
    samples = [elapsed / inner]
    for _ in range(reps - 1):
        start = time.perf_counter_ns()
        for _ in range(inner):
            unit()
        elapsed = time.perf_counter_ns() - start
        samples.append(elapsed / inner)
    return samples, inner


def _percall_unit(
    spec: KernelSpec,
    E: int,
    scalars: GemmScalars,
    a: BatchedOperand,
    b: BatchedOperand,
    c: BatchedOperand,
    baseline: str,
) -> Callable[[], None]:
    if baseline == "naive":
        return lambda: batched_ref(spec, E, scalars, a, b, c)
    if baseline != "external":
        raise ValueError(f"baseline must be 'naive' or 'external', got {baseline!r}")
    views_a = _matrix_views(spec, "A", E, a)
    views_b = _matrix_views(spec, "B", E, b)
    views_c = _matrix_views(spec, "C", E, c)

    def unit() -> None:
        for e in range(E):
            ve = views_c[e]
            ve[...] = scalars.alpha * (views_a[e] @ views_b[e]) + scalars.beta * ve

    return unit


def _matrix_views(spec: KernelSpec, which: str, E: int, operand: BatchedOperand):
    """2-D views of every batch element, shaped (rows, cols)."""
    dims = operand_dims(spec, which)
    span = matrix_span(spec, which, operand.ld)

    def as_2d(flat: np.ndarray) -> np.ndarray:
        if spec.layout is Layout.ColMajor:
            return flat[:span].reshape(dims.cols, operand.ld)[:, : dims.rows].T
        return flat[:span].reshape(dims.rows, operand.ld)[:, : dims.cols]

    if operand.kind is AccessKind.Constant:
        view = as_2d(operand.data)
        return [view] * E
    if operand.kind is AccessKind.Strided:
        return [
            as_2d(operand.data[e * operand.span : e * operand.span + span]) for e in range(E)
        ]
    return [as_2d(operand.table[e]) for e in range(E)]


def run_benchmark(
    spec: KernelSpec,
    E: int,
    reps: int,
    registry: KernelRegistry | None = None,
    baseline: str = "naive",
    seed: int = 42,
    allow_fallback: bool = False,
) -> tuple[BenchRecord, TimingDetail]:
    """Time the batched kernel against a loop of per-pair GEMM calls.

    Correctness is checked first and gates the row: a diff above 1e-12
    raises instead of producing a record.  ``fallback_used`` reports whether
    the dispatch fallback served any call during the run.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    registry = registry if registry is not None else default_registry()
    fallback_before = registry.fallback_count
    max_abs_diff = run_correctness(
        spec, E, seed, registry=registry, allow_fallback=allow_fallback
    )
    if not max_abs_diff <= CORRECTNESS_TOL:  # NaN fails too
        raise ValueError(
            f"{kernel_name(spec)}: correctness diff {max_abs_diff:.3e} exceeds "
            f"{CORRECTNESS_TOL:.0e}; refusing to benchmark"
        )
    scalars = GemmScalars(1.0, 1.0)
    a, b, c = random_operands(spec, E, seed)
    batched_unit = lambda: run_batched(
        spec, E, scalars.alpha, a, b, scalars.beta, c, registry=registry
    )
    batched_samples, batched_inner = _measure(batched_unit, reps)
    c_base = clone_operand(c)
    percall_samples, percall_inner = _measure(
        _percall_unit(spec, E, scalars, a, b, c_base, baseline), reps
    )
    median_batched = max(1, int(round(statistics.median(batched_samples))))
    median_percall = max(1, int(round(statistics.median(percall_samples))))
    record = BenchRecord(
        name=kernel_name(spec),
        E=E,
        reps=reps,
        median_ns_batched=median_batched,
        median_ns_percall=median_percall,
        speedup=median_percall / median_batched,
        max_abs_diff=max_abs_diff,
        fallback_used=registry.fallback_count != fallback_before,
    )
    detail = TimingDetail(
        batched_samples_ns=tuple(batched_samples),
        percall_samples_ns=tuple(percall_samples),
        batched_inner_iters=batched_inner,
        percall_inner_iters=percall_inner,
    )
    return record, detail


def emit_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Write records (in order) as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(
                [
                    record.name,
                    record.E,
                    record.reps,
                    record.median_ns_batched,
                    record.median_ns_percall,
                    repr(record.speedup),
                    repr(record.max_abs_diff),
                    "true" if record.fallback_used else "false",
                ]
            )


def read_csv(path: str | Path) -> list[BenchRecord]:
    """Parse a CSV written by :func:`emit_csv` back into records."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        records = []
        for row in reader:
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"malformed CSV row {row!r}")
            records.append(
                BenchRecord(
                    name=row[0],
                    E=int(row[1]),
                    reps=int(row[2]),
                    median_ns_batched=int(row[3]),
                    median_ns_percall=int(row[4]),
                    speedup=float(row[5]),
                    max_abs_diff=float(row[6]),
                    fallback_used={"true": True, "false": False}[row[7]],
                )
            )
    return records


def amdahl_max_speedup(optimized_fraction: float) -> float:
    """Upper bound on whole-program speedup from optimizing one fraction.

    With a fraction f of the runtime optimized without limit, the rest
    caps the overall gain at 1 / (1 - f).
    """
    if not 0.0 <= optimized_fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {optimized_fraction}")
    return 1.0 / (1.0 - optimized_fraction)


def _ranked_by_volume(records: Sequence[BenchRecord]) -> list[tuple[int, BenchRecord]]:
    ranked = []
    for record in records:
        if record.fallback_used:
            continue
        try:
            ranked.append((parse_kernel_name(record.name).shape.volume, record))
        except KernelNameError:
            continue
    return ranked


def format_report(
    records: Sequence[BenchRecord],
    details: Sequence[TimingDetail] | None = None,
    gemm_fraction: float | None = None,
) -> str:
    """Human-readable summary: per-row timing plus trend and Amdahl notes.

    Rows that ran through the fallback are marked and excluded from the
    speedup trend check.
    """
    lines = []
    for index, record in enumerate(records):
        flops = ""
        try:
            spec = parse_kernel_name(record.name)
        except KernelNameError:
            spec = None
        if spec is not None and record.median_ns_batched > 0:
            rate = 2.0 * spec.shape.volume * record.E / record.median_ns_batched
            flops = f"  {rate:7.3f} GFLOP/s"
        stddev = ""
        if details is not None and index < len(details):
            stddev = (
                f"  (stddev batched {details[index].stddev_ns_batched / 1e3:.1f} us, "
                f"percall {details[index].stddev_ns_percall / 1e3:.1f} us)"
            )
        marker = "  [fallback]" if record.fallback_used else ""
        lines.append(
            f"{record.name:<36} E={record.E:<7} "
            f"batched {record.median_ns_batched / 1e6:9.3f} ms  "
            f"percall {record.median_ns_percall / 1e6:9.3f} ms  "
            f"speedup {record.speedup:6.2f}x  max|diff| {record.max_abs_diff:.2e}"
            f"{flops}{marker}{stddev}"
        )
    ranked = _ranked_by_volume(records)
    if len(ranked) >= 2:
        smallest = min(ranked, key=lambda pair: pair[0])[1]
        largest = max(ranked, key=lambda pair: pair[0])[1]
        if smallest.name != largest.name and smallest.speedup <= largest.speedup:
            lines.append(
                f"note: smallest shape {smallest.name} ({smallest.speedup:.2f}x) did not "
                f"beat largest {largest.name} ({largest.speedup:.2f}x); small shapes "
                f"usually gain the most from batching"
            )
    if gemm_fraction is not None:
        lines.append(
            f"amdahl: optimizing a {gemm_fraction:.2%} GEMM fraction caps whole-program "
            f"speedup at {amdahl_max_speedup(gemm_fraction):.3f}x"
        )
    return "\n".join(lines)
