"""Batched-operand descriptors, the operand contract, kernel dispatch, and pointer tables.

``run_batched`` checks its operands against one contract, then looks the
kernel up by name in a :class:`KernelRegistry` and calls it with each
operand's leading dimension and span (a Strided operand's own, which may be
longer than its matrix).  When the kernel was not built, the one reason
left, it falls back to the reference implementation and bumps an
observable counter, so a benchmark can never silently measure the fallback.
``build_pointer_table`` feeds per-cell tensor data into batched calls
without copying it; :class:`ScratchBuffer` provides the grow-only temporary
storage whose size depends on the runtime batch size.

The contract makes the batch elements independent, so every path may run
them as lanes.  :meth:`BatchedOperand.validate` checks each operand's kind,
leading dimension and flat float64 buffers.  Then, in byte extents (a
matrix spans the bytes from the first to the last element of
``buffer[:span]``), a Strided or Indexed C's matrices must be pairwise
disjoint and every C matrix disjoint from every A and B matrix; so strided
views interleaved in one pool are refused as C.  A Constant C is the
one matrix all E elements accumulate into, in order; A and B may overlap,
being only read.  Last, C must be writable, which the run checks, so a C
that is read-only and overlapping is refused as overlapping.  A breach
raises ``ValueError`` naming operand C (or the operand at fault) before any
byte is written or a fallback is counted.

An Indexed operand's table is a :class:`~bbdgemm.core.PointerTable`, a
value built once: the facts the contract needs (flat float64 entries and
their shortest length, each entry's address and stride, and C's sorted
extents) are computed on the table's first use and cached.  The check
itself is numpy on cached facts: a Strided C's extents are sorted like a
table's, and A's and B's extents are searched against C's.  A table built
afresh for each call costs its facts once: a scan per property of its
entries, and one pass for the addresses, strides and contiguity, compiled
where the :func:`~bbdgemm.vectorize.table_reader` is (about 1 ns per entry)
and Python-level scans elsewhere (about 2-3 us per entry).

An operand is a frozen value: to change one, build a new one
(``dataclasses.replace``).  A checked call is kept on its C operand as a
prepared call: the verdict, and its runner, the call as a function of alpha
and beta.  That is the kernel bound to the operands' addresses, leading
dimensions and spans (the kernel wrapper's ``bind``), or, for the fallback
or a registry entry without ``bind``, the call kept by
:func:`~bbdgemm.vectorize.checked`.  Every runner keeps one contract: it
returns False, with nothing run, when a flat buffer's dtype, shape or
strides changed in place since the bind; it refuses a read-only C, naming
it, before any write (a flag can be flipped between calls, so no cache can
answer); otherwise it runs, is counted, and returns True.  A call that
repeats the prepared one (the same spec, registry, E, A and B objects)
skips the check and runs the runner; on False the call is prepared afresh.  On the compiled path with the
:func:`~bbdgemm.vectorize.table_reader`, a run is one C call, the reader's
``run_prepared``.  alpha and beta are never kept: each run takes them from
its own call.  Anything else that changes prepares the call afresh, and a
copy or unpickled C starts with none.
"""

from __future__ import annotations

import importlib.util
import re
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import (
    AccessKind,
    KernelSpec,
    PointerTable,
    flat_float64_buffers,
    kernel_name,
    matrix_span,
    operand_dims,
    sort_extents,
)
from . import vectorize
from .reference import GemmScalars, batched_ref

__all__ = [
    "DEFAULT_KERNELS",
    "BatchedOperand",
    "KernelRegistry",
    "ScratchBuffer",
    "run_batched",
    "build_pointer_table",
    "load_kernel_dir",
    "default_registry",
]


@dataclass(frozen=True, eq=False)
class BatchedOperand:
    """One batched matrix operand, a frozen value: how its E matrices are addressed.

    Constant and Strided operands carry a flat float64 buffer; Indexed
    operands carry a pointer table, one flat buffer per batch element, held
    as a :class:`~bbdgemm.core.PointerTable`: any sequence given as ``table``
    at construction is snapshotted into one, so changing that sequence later
    changes neither the operand nor its results.  ``span`` is only
    meaningful for Strided operands and is the element count between
    consecutive matrices.  No field can be assigned; ``dataclasses.replace``
    builds a changed operand.  Operands compare and hash by identity, as a
    repeated call matches them.  Once used as C by :func:`run_batched`, an
    operand keeps that call's prepared form; a replaced, copied or
    unpickled operand does not.
    """

    kind: AccessKind
    ld: int
    data: np.ndarray | None = None
    table: PointerTable | None = None
    span: int | None = None

    def __post_init__(self) -> None:
        if self.table is not None and not isinstance(self.table, PointerTable):
            object.__setattr__(self, "table", PointerTable(self.table))
        # The last checked call with this operand as C (see run_batched).
        object.__setattr__(self, "_prepared", None)

    def __getstate__(self):
        # A copy holds other buffers, or none of these ids: it prepares afresh.
        return {**self.__dict__, "_prepared": None}

    @classmethod
    def constant(cls, data: np.ndarray, ld: int) -> "BatchedOperand":
        return cls(kind=AccessKind.Constant, ld=ld, data=data)

    @classmethod
    def strided(cls, data: np.ndarray, ld: int, span: int) -> "BatchedOperand":
        return cls(kind=AccessKind.Strided, ld=ld, data=data, span=span)

    @classmethod
    def indexed(cls, table: Sequence[np.ndarray], ld: int) -> "BatchedOperand":
        """Indexed operand over a snapshot of *table*, one buffer per batch element."""
        return cls(kind=AccessKind.Indexed, ld=ld, table=table)

    def payload(self):
        """Raw argument passed to a generated kernel."""
        return self.table if self.kind is AccessKind.Indexed else self.data

    def validate(self, which: str, spec: KernelSpec, E: int) -> int:
        """Check this operand alone against the contract for role *which* of *spec*.

        Raises ``ValueError`` naming the operand, and the first bad table
        entry where there is one.  A table's entries are checked once, on
        its first use.  C's writability is not checked here but on every
        run (see :func:`run_batched`).  Returns the operand's matrix span.
        """
        dims = operand_dims(spec, which)
        if spec.access(which) is not self.kind:
            raise ValueError(
                f"operand {which} is {self.kind.name}, spec {kernel_name(spec)} "
                f"expects {spec.access(which).name}"
            )
        if self.ld < dims.min_ld:
            raise ValueError(
                f"operand {which}: ld={self.ld} below minimum {dims.min_ld}"
            )
        min_span = matrix_span(spec, which, self.ld)
        if self.kind is AccessKind.Indexed:
            if self.table is None:
                raise ValueError(f"operand {which}: Indexed operand has no pointer table")
            if len(self.table) != E:
                raise ValueError(
                    f"operand {which}: pointer table has {len(self.table)} entries, need E={E}"
                )
            if self.table.flat_length() < min_span:
                for e, entry in enumerate(self.table):
                    _check_buffer(which, entry, f"table entry {e}")
                    if len(entry) < min_span:
                        raise ValueError(
                            f"operand {which}: table entry {e} holds {len(entry)} elements, "
                            f"need {min_span} for a full matrix at ld={self.ld}"
                        )
        else:
            if self.data is None:
                raise ValueError(f"operand {which}: missing flat buffer")
            _check_buffer(which, self.data, "buffer")
            if self.kind is AccessKind.Strided:
                if self.span is None or self.span < min_span:
                    raise ValueError(
                        f"operand {which}: span {self.span} below matrix span {min_span}"
                    )
                needed = (E - 1) * self.span + min_span  # the last matrix ends at its span
                if len(self.data) < needed:
                    raise ValueError(
                        f"operand {which}: buffer holds {len(self.data)} elements, "
                        f"need (E-1)*span + {min_span} = {needed}"
                    )
            else:
                if len(self.data) < min_span:
                    raise ValueError(
                        f"operand {which}: buffer holds {len(self.data)} elements, "
                        f"need {min_span}"
                    )
        return min_span


def _check_buffer(which: str, buffer, label: str) -> None:
    if not flat_float64_buffers([buffer]):
        raise ValueError(
            f"operand {which}: {label} must be a flat float64 ndarray, "
            f"got {type(buffer).__name__}"
        )


class KernelRegistry:
    """Immutable name-to-kernel table plus a fallback-event counter."""

    def __init__(self, kernels: Mapping[str, Callable] | None = None):
        self._kernels = dict(kernels or {})
        self._fallback_count = 0
        self._lock = threading.Lock()

    def lookup(self, name: str) -> Callable | None:
        return self._kernels.get(name)

    def names(self) -> tuple[str, ...]:
        return tuple(self._kernels)

    def __contains__(self, name: str) -> bool:
        return name in self._kernels

    def __len__(self) -> int:
        return len(self._kernels)

    @property
    def fallback_count(self) -> int:
        """Number of run_batched calls served by the reference fallback."""
        return self._fallback_count

    def record_fallback(self) -> None:
        with self._lock:
            self._fallback_count += 1


#: The kernels of :func:`default_registry`: ``manifests/default.manifest``'s names, in order.
DEFAULT_KERNELS = (
    "bbdgemm_ColMajor_2_2_2_cis", "bbdgemm_ColMajor_10_9_9_csi", "bbdgemm_ColMajor_20_9_10_csi",
    "bbdgemm_ColMajor_20_9_10_cis", "bbdgemm_ColMajor_10_9_9_sci",
)

_default_registry: KernelRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> KernelRegistry:
    """The process's registry of :data:`DEFAULT_KERNELS`, each built by its name; others fall back."""
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            _default_registry = KernelRegistry(
                {name: vectorize.batch_kernel(name) for name in DEFAULT_KERNELS}
            )
        return _default_registry


def load_kernel_dir(path: str | Path) -> KernelRegistry:
    """Import a generated kernel directory and wrap it in a registry.

    *path* must contain the dispatch ``__init__.py`` written by
    ``genkernels``.  The directory is imported under a package name derived
    from its resolved path, so each directory is imported once per process.
    """
    directory = Path(path)
    init_file = directory / "__init__.py"
    if not init_file.exists():
        raise FileNotFoundError(f"no dispatch module at {init_file}")
    name = "_bbdgemm_kernels" + re.sub(r"[^0-9A-Za-z_]", "_", str(directory.resolve()))
    if name in sys.modules:
        return KernelRegistry(sys.modules[name].KERNELS)
    spec = importlib.util.spec_from_file_location(
        name, init_file, submodule_search_locations=[str(directory)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    return KernelRegistry(module.KERNELS)


def _byte_extents(operand: BatchedOperand, span: int, E: int):
    """``(lo, hi)`` int64 arrays: the bytes each matrix of *operand* spans.

    Matrix e is ``table[e][:span]`` (Indexed) or ``data[e*operand.span:][:span]``
    (Strided); a Constant operand has the one matrix ``data[:span]``.
    """
    if operand.kind is AccessKind.Indexed:
        return operand.table.extents(span)
    step = operand.data.strides[0]
    first = np.array([operand.data.ctypes.data], dtype=np.int64)
    if operand.kind is AccessKind.Strided:
        first = first + np.arange(E, dtype=np.int64) * (operand.span * step)
    last = first + (span - 1) * step
    return np.minimum(first, last), np.maximum(first, last) + 8


def _check_disjoint(E: int, operands: Sequence[BatchedOperand], spans: Sequence[int]) -> None:
    """Refuse a C whose matrices overlap each other, A or B, in byte extents.

    The one rule, whatever allocations hold the buffers.  C's sorted
    extents must not overlap each other (an Indexed C's table caches them,
    and the verdict, per span, from the addresses and strides one pass
    read; a Constant C is a single extent).  Then each A or B matrix's
    extent must miss the highest C extent that starts below its end (lower
    ones end earlier): one ``searchsorted`` per operand.
    """
    c = operands[2]
    if c.kind is AccessKind.Indexed:
        c_lo, c_hi, clash = c.table.sorted_extents(spans[2])
    else:
        c_lo, c_hi, clash = sort_extents(*_byte_extents(c, spans[2], E))
    if clash is not None:
        first, second = clash
        raise ValueError(f"operand C: the matrices of batch elements {first} and {second} overlap")
    for which, operand, span in zip("AB", operands, spans):
        lo, hi = _byte_extents(operand, span, E)
        below = np.searchsorted(c_lo, hi) - 1
        if np.any((below >= 0) & (c_hi[below] > lo)):
            raise ValueError(f"operand C overlaps operand {which}")


class _Prepared(NamedTuple):
    """A call whose contract is checked, kept on its C operand for the calls that repeat it.

    It holds every object a repeat is matched against (:func:`_repeats`), so
    none is freed, and its id reused, while the call is kept.
    """

    spec: KernelSpec
    registry: KernelRegistry
    a: BatchedOperand
    b: BatchedOperand
    E: int
    #: The call as a function of ``(alpha, beta)``: it returns False, with
    #: nothing run, when a flat buffer changed its dtype, shape or strides
    #: since, refuses a read-only C, and otherwise runs and returns True.
    runner: Callable


def _repeats(prepared: _Prepared, spec, E, a, b, registry) -> bool:
    """True when this call repeats *prepared*, compared fact by fact up to the first mismatch.

    The same spec, registry, A and B objects (C holds *prepared*), and E.
    The compiled path is on or off for the whole process, so the path a
    runner took stays right.  Operands are frozen, so nothing else
    of theirs can differ but what numpy changes in place, which the runner
    checks.  alpha and beta are not compared: each run takes them from its
    own call.  One expression, with no loop or helper call: it runs before
    every repeat, so its cost is per call.
    """
    return (
        prepared.spec is spec and prepared.registry is registry
        and prepared.a is a and prepared.b is b and prepared.E == E
    )


def _prepare(spec, E, a, b, c, registry) -> _Prepared:
    """Check the call's whole contract, then bind its kernel: what ``run_batched`` keeps.

    The runner is the kernel's own ``bind``; else, for a registry entry
    without one (such as a function wrapped around a kernel, which then
    sees every call with all arguments) or the reference fallback, the call
    kept to the same contract by :func:`~bbdgemm.vectorize.checked`.
    """
    operands = (a, b, c)
    spans = [operand.validate(which, spec, E) for which, operand in zip("ABC", operands)]
    _check_disjoint(E, operands, spans)
    kernel = registry.lookup(kernel_name(spec))
    # Each Strided operand's own span; the others' matrix spans, which kernels ignore.
    kernel_spans = [
        operand.span if operand.kind is AccessKind.Strided else span
        for operand, span in zip(operands, spans)
    ]
    payloads = [operand.payload() for operand in operands]
    (A, B, C), (lda, ldb, ldc) = payloads, (a.ld, b.ld, c.ld)
    bind = getattr(kernel, "bind", None)
    if bind is not None:
        runner = bind(E, A, lda, B, ldb, C, ldc, *kernel_spans)
    else:
        # C's fields as a new operand: C will hold this call, so the call must not hold C.
        kept_c = replace(c)

        def run(alpha, beta):
            if kernel is None:
                registry.record_fallback()
                batched_ref(spec, E, GemmScalars(alpha, beta), a, b, kept_c)
            else:
                kernel(E, alpha, A, lda, B, ldb, beta, C, ldc, *kernel_spans)

        runner = vectorize.checked(run, payloads, [operand.kind for operand in operands])
    return _Prepared(spec, registry, a, b, E, runner)


def run_batched(
    spec: KernelSpec,
    E: int,
    alpha: float,
    a: BatchedOperand,
    b: BatchedOperand,
    beta: float,
    c: BatchedOperand,
    registry: KernelRegistry | None = None,
) -> None:
    """Run one batched GEMM, preferring the generated kernel for *spec*.

    The operands must meet the module's operand contract; a call that does
    not raises ``ValueError`` before anything is written.  Falls back to
    :func:`bbdgemm.reference.batched_ref` (and records the event on the
    registry) when the kernel is absent.  Operand leading dimensions and
    spans travel inside the operands.  E == 0 succeeds without touching
    memory or counting a fallback.  A call that repeats the last one on *c*
    (see :func:`_repeats`) is one run of the kept runner, which checks only
    what can change in place; on the compiled path with the table reader,
    that is one C call.
    """
    if E < 0:
        raise ValueError(f"batch size must be non-negative, got {E}")
    registry = registry if registry is not None else default_registry()
    if E == 0:
        return
    prepared = c._prepared
    if (
        prepared is not None and _repeats(prepared, spec, E, a, b, registry)
        and prepared.runner(alpha, beta)
    ):
        return
    prepared = _prepare(spec, E, a, b, c, registry)
    object.__setattr__(c, "_prepared", prepared)
    if not prepared.runner(alpha, beta):
        raise ValueError("a flat operand's dtype, shape or strides changed during the call")


def build_pointer_table(cells: Sequence, component: int) -> BatchedOperand:
    """Indexed operand over one tensor component of every cell.

    ``cells[e]`` must expose ``component_count`` and ``component(i)``
    returning the flat matrix buffer (see :class:`bbdgemm.proxy.TensorBatch`).
    The table holds views in cell order; no matrix data is copied.
    """
    if not cells:
        raise ValueError("cannot build a pointer table over zero cells")
    count = cells[0].component_count
    if not 0 <= component < count:
        raise ValueError(
            f"component {component} out of range [0, {count - 1}]"
        )
    table = [cell.component(component) for cell in cells]
    return BatchedOperand.indexed(table, ld=cells[0].ld)


class ScratchBuffer:
    """Grow-only scratch storage shared across timesteps, aligned to 64 bytes.

    Capacity is in float64 slots.  ``ensure`` grows geometrically and never
    shrinks; after a growth the contents are unspecified.
    """

    def __init__(self):
        self._array = np.empty(0, dtype=np.float64)

    @property
    def capacity(self) -> int:
        return self._array.size

    @property
    def array(self) -> np.ndarray:
        """Flat float64 view over the whole buffer."""
        return self._array

    def ensure(self, E: int, per_element: int) -> None:
        """Guarantee capacity for E batch elements of *per_element* slots."""
        if E < 0 or per_element < 0:
            raise ValueError("E and per_element must be non-negative")
        needed = E * per_element
        if needed <= self.capacity:
            return
        new_capacity = max(self.capacity, 1)
        while new_capacity < needed:
            new_capacity *= 2
        self._array = _aligned_empty(new_capacity)


def _aligned_empty(count: int) -> np.ndarray:
    """*count* float64 slots starting on a 64-byte boundary."""
    raw = np.empty(count * 8 + 64, dtype=np.uint8)
    offset = (-raw.ctypes.data) % 64
    return raw[offset : offset + count * 8].view(np.float64)
