"""Span recording for the traced benchmark run.

The benchmark measures the package from outside, so spans are recorded by
wrappers that this module installs around the package's public entry points
for the duration of a traced phase, and by a registry whose kernels are
wrapped.  Each span keeps its name (``<layer>.<what>``), start and end in
nanoseconds, the index of its parent span, the id of the operation (one
``run_batched`` call or one proxy timestep) it belongs to, and an optional
count recorded at the boundary.  Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from bbdgemm import proxy, reference, runtime
from bbdgemm.core import AccessKind, parse_kernel_name

#: Root span names the workloads open; everything else nests below one.
SETUP, OP, CHECK = "bench.setup", "bench.op", "bench.check"


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        # [name, start_ns, end_ns, parent_index, op_id, value]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1  # set-up and warm-up spans belong to no timed operation

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, None])
        self._stack.append(index)
        return index

    def end(self, index: int, value=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[5] = value
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, name: str, fn, value=None):
        """*fn* recording a span per call; ``value(args)`` gives its count."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index, value(args) if value else None)

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span: id, name, start, end, parent, op, value."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, value) in enumerate(self.spans):
                record = {"id": index, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op, "value": value}
                handle.write(json.dumps(record) + "\n")


def traced_registry(tracer: Tracer, registry: runtime.KernelRegistry) -> runtime.KernelRegistry:
    """Registry over *registry*'s kernels, each call recorded as ``kernels.<name>``."""
    return runtime.KernelRegistry({
        name: tracer.wrap(f"kernels.{name}", registry.lookup(name),
                          value=lambda args: (args[0], args[6]))  # E, beta
        for name in registry.names()
    })


@contextmanager
def installed(tracer: Tracer):
    """Wrap the package's layer entry points for the duration of the block.

    ``proxy`` imported ``run_batched``, ``build_pointer_table`` and
    ``dgemm_ref`` by name, and ``runtime`` imported ``batched_ref`` (its
    fallback), so those module attributes are wrapped where they are looked up.
    """
    run_batched = tracer.wrap("runtime.run_batched", runtime.run_batched,
                              value=lambda args: args[1])
    batched_ref = tracer.wrap("reference.batched_ref", reference.batched_ref,
                              value=lambda args: args[1])
    original_ensure = runtime.ScratchBuffer.ensure

    def ensure(buffer, E, per_element):
        index = tracer.begin("runtime.scratch_ensure")
        try:
            original_ensure(buffer, E, per_element)
        finally:
            tracer.end(index, buffer.capacity * 8)

    patches = [
        (runtime.BatchedOperand, "validate",
         tracer.wrap("runtime.validate", runtime.BatchedOperand.validate)),
        (runtime.ScratchBuffer, "ensure", ensure),
        (runtime, "run_batched", run_batched),
        (proxy, "run_batched", run_batched),
        (proxy, "build_pointer_table",
         tracer.wrap("runtime.pointer_table", proxy.build_pointer_table,
                     value=lambda args: len(args[0]))),
        (proxy, "dgemm_ref", tracer.wrap("reference.dgemm_ref", proxy.dgemm_ref)),
        (runtime, "batched_ref", batched_ref),
        (reference, "batched_ref", batched_ref),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def kernel_counts(name: str, E: int, beta: float) -> tuple[int, int, int]:
    """(useful FLOPs, computed FLOPs, computed bytes) of one kernel call.

    Useful FLOPs are 2*N*M*K per element.  Computed FLOPs add the beta
    combine when beta != 0.  Computed bytes count each matrix element read
    or written once: a Constant operand once per call, others once per
    element, C read back only when beta != 0.  They ignore caches.
    """
    spec = parse_kernel_name(name)
    n, m, k = spec.shape.n, spec.shape.m, spec.shape.k
    useful = 2 * n * m * k * E
    flops = useful + (2 * n * m * E if beta != 0.0 else 0)

    def matrices(kind: AccessKind) -> int:
        return 1 if kind is AccessKind.Constant else E

    bytes_moved = 8 * (
        n * k * matrices(spec.access_a)
        + k * m * matrices(spec.access_b)
        + n * m * matrices(spec.access_c) * (2 if beta != 0.0 else 1)
    )
    return useful, flops, bytes_moved


def layer_metrics(tracer: Tracer, kernel_names) -> tuple[dict, dict, dict]:
    """Per-layer metrics, layer shares of the timed wall time, kernel counts.

    A span's self time is its duration minus its children's durations.
    Timed-phase times are per operation (``ms/op``); set-up and check times
    are totals.  Returns ``(metrics, shares, counts)``: metrics map a name to
    ``(value, unit)``, shares map a layer to its percentage of the wall time
    of the ``bench.op`` spans, and counts map each kernel used to its
    computed ``[useful FLOPs, FLOPs, bytes]``.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    root = [0] * len(spans)
    for index, (_, start, end, parent, _, _) in enumerate(spans):
        root[index] = index if parent < 0 else root[parent]
        if parent >= 0:
            child_ns[parent] += end - start

    timed: dict[str, list] = {}  # name -> [self_ns, calls, value sum, value max]
    in_setup: dict[str, int] = {}
    check_reference_ns = 0
    per_kernel: dict[str, list] = {}  # name -> [useful, flops, bytes, ns]
    for index, (name, start, end, _, _, value) in enumerate(spans):
        phase = spans[root[index]][0]
        self_ns = end - start - child_ns[index]
        if phase == OP:
            entry = timed.setdefault(name, [0, 0, 0, 0])
            entry[0] += self_ns
            entry[1] += 1
            if isinstance(value, int):
                entry[2] += value
                entry[3] = max(entry[3], value)
            if name.startswith("kernels."):
                counts = kernel_counts(name[len("kernels."):], *value)
                acc = per_kernel.setdefault(name[len("kernels."):], [0, 0, 0, 0])
                for slot, amount in enumerate(counts + (end - start,)):
                    acc[slot] += amount
        elif phase == SETUP:
            in_setup[name] = in_setup.get(name, 0) + end - start
        elif phase == CHECK and name.startswith("reference."):
            check_reference_ns += self_ns

    ops = max(timed.get(OP, [0, 0])[1], 1)
    wall_ns = sum(end - start for name, start, end, *_ in spans if name == OP)

    def self_ms(name: str) -> float:
        return timed.get(name, [0])[0] / ops / 1e6

    def total(name: str, slot: int) -> int:
        return timed.get(name, [0, 0, 0, 0])[slot]

    kernel_ns = sum(entry[0] for name, entry in timed.items() if name.startswith("kernels."))
    flops = sum(acc[1] for acc in per_kernel.values())
    bytes_moved = sum(acc[2] for acc in per_kernel.values())
    metrics = {
        "runtime.validate_ms": (self_ms("runtime.validate"), "ms/op"),
        "runtime.dispatch_ms": (self_ms("runtime.run_batched"), "ms/op"),
        "runtime.pointer_table_ms": (self_ms("runtime.pointer_table"), "ms/op"),
        "runtime.pointer_table_entries": (total("runtime.pointer_table", 2) / ops, "count/op"),
        "runtime.scratch_bytes": (total("runtime.scratch_ensure", 3), "B"),
        "runtime.calls": (total("runtime.run_batched", 1), "count"),
        "runtime.elements": (total("runtime.run_batched", 2), "count"),
        "runtime.fallback_calls": (total("reference.batched_ref", 1), "count"),
        "kernels.call_ms": (kernel_ns / ops / 1e6, "ms/op"),
    }
    for name in kernel_names:
        acc = per_kernel.get(name)
        metrics[f"kernels.{name}.gflops"] = (acc[0] / acc[3] if acc else 0.0, "GFLOP/s")
    metrics.update({
        "kernels.flops": (flops / ops, "flop/op_computed"),
        "kernels.bytes_computed": (bytes_moved / ops, "B/op_computed"),
        "kernels.flops_per_byte": (flops / bytes_moved if bytes_moved else 0.0, "flop/B_computed"),
        "reference.dgemm_ref_ms": (self_ms("reference.dgemm_ref"), "ms/op"),
        "reference.dgemm_ref_calls": (total("reference.dgemm_ref", 1), "count"),
        "reference.check_ms": (check_reference_ns / 1e6, "ms"),
        "proxy.build_state_s": (in_setup.get("proxy.build_state", 0) / 1e9, "s"),
        "proxy.timestep_self_ms": (self_ms("proxy.timestep"), "ms/op"),
        "codegen.generate_ms": (in_setup.get("codegen.generate", 0) / 1e6, "ms"),
        "codegen.load_ms": (in_setup.get("codegen.load", 0) / 1e6, "ms"),
    })

    shares: dict[str, float] = {}
    for name, entry in timed.items():
        layer = name.split(".", 1)[0]
        shares[layer] = shares.get(layer, 0.0) + 100.0 * entry[0] / max(wall_ns, 1)
    metrics["trace.accounted_pct"] = (100.0 - shares.get("bench", 0.0), "%")
    return metrics, shares, {name: acc[:3] for name, acc in per_kernel.items()}
