"""Batched-operand descriptors, the operand contract, kernel dispatch, and layout transforms.

``run_batched`` checks its operands against one contract, then looks the
kernel up by name in a :class:`KernelRegistry` and calls it; when the kernel
was not built it falls back to the reference implementation and bumps an
observable counter, so a benchmark can never silently measure the fallback.
``build_pointer_table`` and ``pack_strided`` are the two layout
transformations needed to feed per-cell tensor data into batched calls;
:class:`ScratchBuffer` provides the grow-only temporary storage whose size
depends on the runtime batch size.

The contract makes the batch elements independent, so every path may run
them as lanes.  :meth:`BatchedOperand.validate` checks each operand's kind,
leading dimension and flat float64 buffers, and that C is writable.  Then,
in byte extents (a matrix spans the bytes from the first to the last
element of ``buffer[:span]``), a Strided or Indexed C's matrices must be
pairwise disjoint and every C matrix disjoint from every A and B matrix; so
strided views interleaved in one pool are refused as C.  A Constant C is the
one matrix all E elements accumulate into, in order; A and B may overlap,
being only read.  A breach raises ``ValueError`` naming operand C (or the
operand at fault) before any byte is written or a fallback is counted.
Tables are read by C-level scans and owner ids; byte extents are sorted, in
O(E log E), only when buffers share or hide their numpy allocation.
"""

from __future__ import annotations

import importlib
import importlib.util
import re
import sys
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AccessKind,
    KernelSpec,
    Layout,
    OperandDims,
    flat_float64_buffers,
    kernel_name,
    matrix_span,
    operand_dims,
)
from .reference import GemmScalars, batched_ref

__all__ = [
    "BatchedOperand",
    "KernelRegistry",
    "ScratchBuffer",
    "run_batched",
    "build_pointer_table",
    "pack_strided",
    "unpack_strided",
    "load_kernel_dir",
    "default_registry",
]


@dataclass
class BatchedOperand:
    """One batched matrix operand: how its E matrices are addressed.

    Constant and Strided operands carry a flat float64 buffer; Indexed
    operands carry a pointer table (sequence of flat buffers, one per batch
    element).  ``span`` is only meaningful for Strided operands and is the
    element count between consecutive matrices.
    """

    kind: AccessKind
    ld: int
    data: np.ndarray | None = None
    table: Sequence[np.ndarray] | None = None
    span: int | None = None

    @classmethod
    def constant(cls, data: np.ndarray, ld: int) -> "BatchedOperand":
        return cls(kind=AccessKind.Constant, ld=ld, data=data)

    @classmethod
    def strided(cls, data: np.ndarray, ld: int, span: int) -> "BatchedOperand":
        return cls(kind=AccessKind.Strided, ld=ld, data=data, span=span)

    @classmethod
    def indexed(cls, table: Sequence[np.ndarray], ld: int) -> "BatchedOperand":
        return cls(kind=AccessKind.Indexed, ld=ld, table=table)

    def payload(self):
        """Raw argument passed to a generated kernel."""
        return self.table if self.kind is AccessKind.Indexed else self.data

    def validate(self, which: str, spec: KernelSpec, E: int) -> None:
        """Check this operand alone against the contract for role *which* of *spec*.

        Raises ``ValueError`` naming the operand, and the first bad table
        entry where there is one.  C must also be writable.
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
            if not flat_float64_buffers(self.table, min_span):
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
                if len(self.data) < E * self.span:
                    raise ValueError(
                        f"operand {which}: buffer holds {len(self.data)} elements, "
                        f"need E*span = {E * self.span}"
                    )
            else:
                if len(self.data) < min_span:
                    raise ValueError(
                        f"operand {which}: buffer holds {len(self.data)} elements, "
                        f"need {min_span}"
                    )
        buffers = self.table if self.kind is AccessKind.Indexed else (self.data,)
        if which == "C" and not all(map(attrgetter("flags.writeable"), buffers)):
            label = "buffer"
            if self.kind is AccessKind.Indexed:
                label = f"table entry {[m.flags.writeable for m in buffers].index(False)}"
            raise ValueError(f"operand {which}: {label} is read-only")


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


_default_registry: KernelRegistry | None = None
_default_lock = threading.Lock()


def default_registry() -> KernelRegistry:
    """Registry over the kernels generated into :mod:`bbdgemm.kernels`.

    Empty (everything falls back) when the generated subpackage is absent.
    """
    global _default_registry
    with _default_lock:
        if _default_registry is None:
            try:
                kernels = importlib.import_module("bbdgemm.kernels")
                _default_registry = KernelRegistry(kernels.KERNELS)
            except ImportError:
                _default_registry = KernelRegistry({})
        return _default_registry


def load_kernel_dir(path: str | Path, package_name: str | None = None) -> KernelRegistry:
    """Import a generated kernel directory and wrap it in a registry.

    *path* must contain the dispatch ``__init__.py`` written by
    ``genkernels``.  The directory is imported under *package_name*
    (derived from the directory name by default), so distinct directories
    need distinct names within one process.
    """
    directory = Path(path)
    init_file = directory / "__init__.py"
    if not init_file.exists():
        raise FileNotFoundError(f"no dispatch module at {init_file}")
    if package_name is None:
        sanitized = re.sub(r"[^0-9A-Za-z_]", "_", str(directory.resolve()))
        package_name = f"_bbdgemm_kernels{sanitized}"
    name = package_name
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


def _owner_ids(buffers) -> list | None:
    """ids of the ndarrays whose own allocations hold *buffers*; None if one is unknown."""
    owners = [buffer if buffer.base is None else buffer.base for buffer in buffers]
    if not all(map(isinstance, owners, repeat(np.ndarray))):
        return None
    return list(map(id, owners)) if all(map(attrgetter("flags.owndata"), owners)) else None


def _byte_extents(operand: BatchedOperand, span: int, E: int):
    """``(lo, hi)`` int64 arrays: the bytes each matrix of *operand* spans.

    Matrix e is ``table[e][:span]`` (Indexed) or ``data[e*operand.span:][:span]``
    (Strided); a Constant operand has the one matrix ``data[:span]``.
    """
    if operand.kind is AccessKind.Indexed:
        first, step = np.array(
            [(m.__array_interface__["data"][0], m.strides[0]) for m in operand.table],
            dtype=np.int64,
        ).reshape(-1, 2).T
    else:
        step = operand.data.strides[0]
        first = np.array([operand.data.__array_interface__["data"][0]], dtype=np.int64)
        if operand.kind is AccessKind.Strided:
            first = first + np.arange(E, dtype=np.int64) * (operand.span * step)
    last = first + (span - 1) * step
    return np.minimum(first, last), np.maximum(first, last) + 8


def _check_disjoint(spec: KernelSpec, E: int, operands: Sequence[BatchedOperand]) -> None:
    """Refuse a C whose matrices overlap each other, A or B, in byte extents.

    Buffers held by different numpy allocations cannot overlap, so when every
    C buffer has an allocation to itself that A and B do not use, only a
    Strided C's own layout is left to check.  Otherwise the test is on sorted
    extents, in O(E log E): C's must not overlap each other, and each A or B
    extent must miss the highest C extent that starts below its end (lower
    ones end earlier).  A Constant C is a single extent.
    """
    c = operands[2]
    owners = [
        _owner_ids(op.table if op.kind is AccessKind.Indexed else [op.data]) for op in operands
    ]
    c_owners = owners[2]
    c_alone = (
        None not in owners
        and len(set(c_owners)) == len(c_owners)
        and set(c_owners).isdisjoint(chain(*owners[:2]))
    )
    if c_alone and c.kind is not AccessKind.Strided:
        return
    spans = [matrix_span(spec, which, op.ld) for which, op in zip("ABC", operands)]
    c_lo, c_hi = _byte_extents(c, spans[2], E)
    order = np.argsort(c_lo, kind="stable")
    c_lo, c_hi = c_lo[order], c_hi[order]
    clash = np.flatnonzero(c_lo[1:] < c_hi[:-1])
    if clash.size:
        first, second = sorted(order[clash[0] : clash[0] + 2])
        raise ValueError(f"operand C: the matrices of batch elements {first} and {second} overlap")
    if c_alone:
        return
    for which, operand, span in zip("AB", operands, spans):
        lo, hi = _byte_extents(operand, span, E)
        below = np.searchsorted(c_lo, hi) - 1
        if np.any((below >= 0) & (c_hi[below] > lo)):
            raise ValueError(f"operand C overlaps operand {which}")


def _spans_match(spec: KernelSpec, a: BatchedOperand, b: BatchedOperand, c: BatchedOperand) -> bool:
    # Generated kernels derive strided spans from the leading dimensions;
    # padded spans are valid operands but must take the reference path.
    for which, operand in zip("ABC", (a, b, c)):
        if operand.kind is AccessKind.Strided:
            if operand.span != matrix_span(spec, which, operand.ld):
                return False
    return True


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
    registry) when the kernel is absent.  Operand leading dimensions travel
    inside the operands.  E == 0 succeeds without touching memory or counting
    a fallback.
    """
    if E < 0:
        raise ValueError(f"batch size must be non-negative, got {E}")
    registry = registry if registry is not None else default_registry()
    if E == 0:
        return
    for which, operand in zip("ABC", (a, b, c)):
        operand.validate(which, spec, E)
    _check_disjoint(spec, E, (a, b, c))
    kernel = registry.lookup(kernel_name(spec))
    if kernel is not None and _spans_match(spec, a, b, c):
        kernel(E, alpha, a.payload(), a.ld, b.payload(), b.ld, beta, c.payload(), c.ld)
        return
    registry.record_fallback()
    batched_ref(spec, E, GemmScalars(alpha, beta), a, b, c)


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


def _lane_count(layout: Layout, dims: OperandDims) -> tuple[int, int]:
    # (number of contiguous runs, elements per run) for one matrix
    if layout is Layout.ColMajor:
        return dims.cols, dims.rows
    return dims.rows, dims.cols


def pack_strided(
    source: BatchedOperand, dims: OperandDims, ld_out: int, layout: Layout
) -> BatchedOperand:
    """Copy an Indexed batch into one contiguous Strided buffer.

    The inverse :func:`unpack_strided` restores the original matrices
    bit-for-bit.
    """
    if source.kind is not AccessKind.Indexed:
        raise ValueError(f"pack_strided expects an Indexed operand, got {source.kind.name}")
    runs, run_len = _lane_count(layout, dims)
    if ld_out < run_len:
        raise ValueError(f"ld_out={ld_out} below minimum leading dimension {run_len}")
    span = runs * ld_out
    E = len(source.table)
    buffer = np.zeros(E * span, dtype=np.float64)
    for e, entry in enumerate(source.table):
        base = e * span
        for lane in range(runs):
            src = lane * source.ld
            dst = base + lane * ld_out
            buffer[dst : dst + run_len] = entry[src : src + run_len]
    return BatchedOperand.strided(buffer, ld=ld_out, span=span)


def unpack_strided(
    packed: BatchedOperand, dims: OperandDims, target: BatchedOperand, layout: Layout
) -> None:
    """Copy a packed Strided batch back into the Indexed *target* matrices."""
    if packed.kind is not AccessKind.Strided or target.kind is not AccessKind.Indexed:
        raise ValueError("unpack_strided expects (Strided, Indexed) operands")
    runs, run_len = _lane_count(layout, dims)
    for e, entry in enumerate(target.table):
        base = e * packed.span
        for lane in range(runs):
            src = base + lane * packed.ld
            dst = lane * target.ld
            entry[dst : dst + run_len] = packed.data[src : src + run_len]


class ScratchBuffer:
    """Grow-only aligned scratch storage shared across timesteps.

    Capacity is in float64 slots.  ``ensure`` grows geometrically and never
    shrinks; after a growth the contents are unspecified.
    """

    def __init__(self, alignment: int = 64):
        if alignment < 8 or alignment % 8:
            raise ValueError(f"alignment must be a positive multiple of 8, got {alignment}")
        self.alignment = alignment
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
        self._array = _aligned_empty(new_capacity, self.alignment)


def _aligned_empty(count: int, alignment: int) -> np.ndarray:
    raw = np.empty(count * 8 + alignment, dtype=np.uint8)
    offset = (-raw.ctypes.data) % alignment
    return raw[offset : offset + count * 8].view(np.float64)
