"""Correctness-gated benchmark harness and CSV reporting.

A spec is timed only if the dispatched kernel's outputs are byte-identical
to ``batched_ref``'s on the same seeded operands; that byte gate, inside
:func:`run_benchmark`, is the one rule for "correct", so there is no
tolerance and no row for a kernel that fails it.  Timing compares one
batched call over E elements against a loop of E single-pair GEMM calls,
using medians over a configurable number of repetitions after two warm-up
calls.  Samples shorter than one millisecond are automatically inflated by
repeating the measured unit.  The CSV's columns are :class:`BenchRecord`'s
fields, in order; each field's type sets how its cells are written and read.
"""

from __future__ import annotations

import csv
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from .core import (
    AccessKind,
    KernelNameError,
    KernelSpec,
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
    "run_benchmark",
    "emit_csv",
    "read_csv",
    "amdahl_max_speedup",
    "format_report",
]

_MIN_SAMPLE_NS = 1_000_000  # inflate timed units until one sample takes >= 1 ms


class FallbackDisallowed(RuntimeError):
    """A run needed the reference fallback but the caller forbade it."""


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark row; its fields, in order, are the CSV's columns."""

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
    #: Kernel path(s) that served the timed batched calls, e.g. ``compiled``
    #: or ``lanes`` (see :mod:`bbdgemm.vectorize`); empty on the fallback.
    path: str = ""

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


def _measure(unit: Callable[[], None], reps: int) -> tuple[list[float], int]:
    """Median-friendly timing: calibrate the unit to >= 1 ms, then take *reps* fresh samples.

    Two warm-up calls run first, so one-time work (a lazy build, a table's
    first facts) sets neither the repeat count nor a sample, and the
    calibration runs are discarded.
    """
    for _ in range(2):
        unit()
    inner = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(inner):
            unit()
        if time.perf_counter_ns() - start >= _MIN_SAMPLE_NS:
            break
        inner *= 2
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        for _ in range(inner):
            unit()
        samples.append((time.perf_counter_ns() - start) / inner)
    return samples, inner


def run_benchmark(
    spec: KernelSpec,
    E: int,
    reps: int,
    registry: KernelRegistry | None = None,
    seed: int = 42,
    allow_fallback: bool = False,
) -> tuple[BenchRecord, TimingDetail]:
    """Time the batched kernel against the oracle's loop of per-pair GEMM calls (``batched_ref``).

    Correctness is checked first and gates the row: outputs that are not
    byte-identical to ``batched_ref``'s raise instead of producing a record.
    ``fallback_used`` reports whether the dispatch fallback served any call
    during the run.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    registry = registry if registry is not None else default_registry()
    fallback_before = registry.fallback_count
    scalars = GemmScalars(1.0, 1.0)
    a, b, c = random_operands(spec, E, seed)
    c_oracle = clone_operand(c)
    run_batched(spec, E, scalars.alpha, a, b, scalars.beta, c, registry=registry)
    if registry.fallback_count != fallback_before and not allow_fallback:
        raise FallbackDisallowed(
            f"{kernel_name(spec)} is not in the dispatch table; "
            f"build it or pass allow_fallback"
        )
    batched_ref(spec, E, scalars, a, b, c_oracle)
    got, want = output_elements(spec, E, c), output_elements(spec, E, c_oracle)
    max_abs_diff = float(np.max(np.abs(got - want))) if got.size else 0.0
    if got.tobytes() != want.tobytes():
        raise ValueError(
            f"{kernel_name(spec)}: outputs differ from the oracle's bytes "
            f"(max|diff| {max_abs_diff:.3e}); refusing to benchmark"
        )
    batched_unit = lambda: run_batched(
        spec, E, scalars.alpha, a, b, scalars.beta, c, registry=registry
    )
    counts = getattr(registry.lookup(kernel_name(spec)), "path_counts", Counter())
    counts_before = Counter(counts)
    batched_samples, batched_inner = _measure(batched_unit, reps)
    paths = sorted(Counter(counts) - counts_before)
    c_base = clone_operand(c)
    percall_samples, percall_inner = _measure(
        lambda: batched_ref(spec, E, scalars, a, b, c_base), reps
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
        path="+".join(paths),
    )
    return record, detail


def _read_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(f"{cell!r} is neither true nor false")
    return cell == "true"


#: Per field type of :class:`BenchRecord`: how a cell is written, and read back.
_CELL_FORMATS = {
    str: (str, str),
    int: (str, int),
    float: (repr, float),
    bool: (lambda value: "true" if value else "false", _read_bool),
}
#: ``(name, write, read)`` per CSV column: :class:`BenchRecord`'s fields, in order.
_COLUMNS = tuple(
    (name, *_CELL_FORMATS[kind]) for name, kind in get_type_hints(BenchRecord).items()
)
CSV_HEADER = tuple(name for name, _, _ in _COLUMNS)


def emit_csv(records: Sequence[BenchRecord], path: str | Path) -> None:
    """Write records (in order) as UTF-8 CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(write(getattr(record, name)) for name, write, _ in _COLUMNS)


def read_csv(path: str | Path) -> list[BenchRecord]:
    """Parse a CSV written by :func:`emit_csv` back into records.

    A wrong header, or a row with a missing, extra or malformed cell, raises
    ``ValueError`` naming it.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        records = []
        for row in reader:
            try:
                if len(row) != len(_COLUMNS):
                    raise ValueError(f"{len(row)} cells, not {len(_COLUMNS)}")
                records.append(
                    BenchRecord(*(read(cell) for (_, _, read), cell in zip(_COLUMNS, row)))
                )
            except ValueError as error:
                raise ValueError(f"malformed CSV row {row!r}: {error}") from None
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
        stddev = path = ""
        if details is not None and index < len(details):
            stddev = (
                f"  (stddev batched {details[index].stddev_ns_batched / 1e3:.1f} us, "
                f"percall {details[index].stddev_ns_percall / 1e3:.1f} us)"
            )
            path = f"  path {details[index].path}" if details[index].path else ""
        marker = "  [fallback]" if record.fallback_used else ""
        lines.append(
            f"{record.name:<36} E={record.E:<7} "
            f"batched {record.median_ns_batched / 1e6:9.3f} ms  "
            f"percall {record.median_ns_percall / 1e6:9.3f} ms  "
            f"speedup {record.speedup:6.2f}x  max|diff| {record.max_abs_diff:.2e}"
            f"{flops}{marker}{path}{stddev}"
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
