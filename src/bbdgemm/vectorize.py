"""Portable batch-loop acceleration hint for generated kernels.

Generated kernels carry a single loop over the batch index with a fully
unrolled body.  :func:`vectorize_batch_loop` is the source-level hint placed
on that loop's function.  It makes the batch dimension the vector lane in
one of two ways:

* when the optional JIT backend (numba) is installed and enabled, the loop
  is compiled so the backend's auto-vectorizer can turn the batch dimension
  into vector lanes; each Indexed operand is staged as an ``(E, span)``
  copy whose row e is batch element e;
* otherwise every Strided or Indexed operand is staged as a ``(span, E)``
  array whose row ``off`` holds element ``off`` of every matrix, and the
  generated function runs once with E == 1 on those arrays.  Each unrolled
  statement then computes all E batch elements as one numpy operation, and
  C is scattered back at the end.

Lanes compute every batch element from the operands as they were before
the call, while the loop lets element e see what elements before it wrote.
So the plain interpreted loop still runs when the two could differ: when C
is Constant, when two of C's matrices overlap, when C overlaps A or B, or
when a C buffer is read-only.  It also runs when an operand is not a flat
float64 ndarray of the expected size.  The compiled path's staged tables are
copies too, so it applies the same rule before staging, except that it keeps
a Constant C, which its loop accumulates in order.  There is no
architecture-specific code on any path.

Per call, outside the kernel's arithmetic, each pointer table costs one
C-level scan per checked property (:func:`flat_float64_buffers`, C's
writability, the allocations that hold it) and one ``np.concatenate`` copy;
an Indexed C adds one write-back loop over its entries.  Only when buffers
share an allocation does the overlap test read byte ranges, in O(E log E).

Calling the decorated kernel never changes numerics: every path executes
the same statements in the same order on IEEE doubles, and numpy's
elementwise multiply and add round exactly as scalar code does.
"""

from __future__ import annotations

import functools
import inspect
import os
import threading
from contextlib import contextmanager
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .core import AccessKind, matrix_span, parse_kernel_name

try:  # the JIT backend is optional; everything works without it
    import numba
except ImportError:  # pragma: no cover - exercised only on numba-free installs
    numba = None

__all__ = [
    "jit_available",
    "jit_env_allowed",
    "jit_enabled",
    "enable_jit",
    "use_jit",
    "jit_compile",
    "flat_float64_buffers",
    "vectorize_batch_loop",
]

_override: bool | None = None


def jit_available() -> bool:
    """True when the optional JIT backend is importable."""
    return numba is not None


def jit_env_allowed() -> bool:
    """True unless ``BBDGEMM_JIT`` turns compilation off for the process.

    This is the master switch: when false, neither generated kernels nor the
    reference oracle's compiled twin are used.
    """
    if numba is None:
        return False
    value = os.environ.get("BBDGEMM_JIT", "").strip().lower()
    return value not in ("0", "off", "false", "no")


def jit_enabled() -> bool:
    """True when decorated kernels will run through the JIT backend.

    Runtime toggles (:func:`enable_jit`, :func:`use_jit`) only affect the
    generated kernels; they deliberately leave the oracle untouched so the
    two sides of an equivalence check never share a switch.
    """
    if _override is not None:
        return _override and jit_env_allowed()
    return jit_env_allowed()


def enable_jit(on: bool | None) -> None:
    """Force the JIT path on/off; ``None`` restores the default."""
    global _override
    _override = on


@contextmanager
def use_jit(on: bool):
    """Temporarily force the JIT path on or off."""
    global _override
    previous = _override
    _override = on
    try:
        yield
    finally:
        _override = previous


def jit_compile(fn):
    """Compile *fn* with the JIT backend, caching to disk when possible.

    Returns *fn* unchanged when the backend is unavailable.
    """
    if numba is None:
        return fn
    cache = False
    try:
        source = inspect.getsourcefile(fn)
        cache = bool(source) and os.path.exists(source)
    except TypeError:
        cache = False
    return numba.njit(cache=cache)(fn)


def _as_scalar_view(buffer):
    # memoryview indexing hands back plain floats, which the interpreted
    # loop processes noticeably faster than numpy scalars.
    if isinstance(buffer, np.ndarray) and buffer.dtype == np.float64:
        return memoryview(buffer)
    return buffer


def _interp_arg(payload, kind: AccessKind):
    if kind is AccessKind.Indexed:
        if isinstance(payload, (list, tuple)):
            return [_as_scalar_view(entry) for entry in payload]
        return payload
    return _as_scalar_view(payload)


def flat_float64_buffers(buffers, size: int) -> bool:
    """True when every buffer is a 1-D float64 ndarray of at least *size* elements.

    Each property is read by one C-level scan of the sequence, so no Python
    frame runs per buffer; a caller that must name the first bad buffer walks
    the sequence again only after this returns False.  True when empty.
    """
    return (
        all(map(isinstance, buffers, repeat(np.ndarray)))
        and set(map(attrgetter("dtype"), buffers)) <= {np.dtype(np.float64)}
        and set(map(attrgetter("ndim"), buffers)) <= {1}
        and min(map(len, buffers), default=size) >= size
    )


def _matrices(table, E: int, span: int):
    """``table[e][:span]`` for each of the first E entries; views, not copies."""
    entries = table[:E]
    if max(map(len, entries)) > span:
        entries = [entry[:span] for entry in entries]
    return entries


def _gather(table, E: int, span: int) -> np.ndarray:
    """``(E, span)`` copy whose row e is ``table[e][:span]``."""
    return np.concatenate(_matrices(table, E, span)).reshape(E, span)


def _scatter(table, rows, span: int) -> None:
    """Write row e of the ``(E, span)`` *rows* into ``table[e][:span]``."""
    for matrix, row in zip(_matrices(table, len(rows), span), rows):
        matrix[...] = row


def _stage_lanes(payload, kind: AccessKind, E: int, span: int) -> np.ndarray:
    """``(span, E)`` array whose row ``off`` holds element ``off`` of every matrix."""
    if kind is AccessKind.Indexed:
        rows = _gather(payload, E, span)
    else:
        rows = payload[: E * span].reshape(E, span)
    return np.ascontiguousarray(rows.T)


def _owner_ids(buffers) -> list | None:
    """ids of the ndarrays whose own allocations hold *buffers*; None if one is unknown."""
    owners = [buffer if buffer.base is None else buffer.base for buffer in buffers]
    if not all(map(isinstance, owners, repeat(np.ndarray))):
        return None
    return list(map(id, owners)) if all(map(attrgetter("flags.owndata"), owners)) else None


def _byte_ranges(buffers, span: int):
    """``(lo, hi)`` arrays: the bytes that ``buffer[:span]`` spans, per buffer."""
    first, step, count = np.array(
        [(b.__array_interface__["data"][0], b.strides[0], min(span, len(b))) for b in buffers],
        dtype=np.int64,
    ).reshape(-1, 3).T
    last = first + (count - 1) * step
    return np.minimum(first, last), np.maximum(first, last) + 8


def _elements_independent(payloads, kinds, spans, E: int) -> bool:
    """True when no batch element reads or writes what another one writes.

    That holds when every buffer is a flat float64 ndarray holding what the
    call addresses, C's buffers are writable, C's matrices are pairwise
    disjoint and none of them overlaps A or B.  Buffers held by different
    numpy allocations cannot overlap, so when every C buffer has an
    allocation to itself that A and B do not use, that settles it.
    Otherwise the test is on byte ranges, in O(E log E): sorted C ranges must
    not overlap each other, and each A or B range must miss the highest C
    range that starts below its end (lower C ranges end earlier).
    """
    groups = []
    for payload, kind, span in zip(payloads, kinds, spans):
        if kind is AccessKind.Indexed:
            if not isinstance(payload, (list, tuple)) or len(payload) < E:
                return False
            group, extent = payload[:E], span
        else:
            group, extent = [payload], span * (E if kind is AccessKind.Strided else 1)
        if not flat_float64_buffers(group, extent):
            return False
        groups.append((group, extent))
    if not all(map(attrgetter("flags.writeable"), groups[2][0])):
        return False
    c_owners = _owner_ids(groups[2][0])
    ab_owners = [_owner_ids(group) for group, _ in groups[:2]]
    if c_owners is not None and None not in ab_owners:
        distinct = set(c_owners)
        if len(distinct) == len(c_owners) and distinct.isdisjoint(chain(*ab_owners)):
            return True
    c_lo, c_hi = _byte_ranges(*groups[2])
    order = np.argsort(c_lo)
    c_lo, c_hi = c_lo[order], c_hi[order]
    if np.any(c_lo[1:] < c_hi[:-1]):
        return False
    for group in groups[:2]:
        lo, hi = _byte_ranges(*group)
        below = np.searchsorted(c_lo, hi) - 1
        if np.any((below >= 0) & (c_hi[below] > lo)):
            return False
    return True


def vectorize_batch_loop(name: str):
    """Decorator marking a generated kernel's batch loop for acceleration.

    *name* must be the kernel's own canonical name; the operand roles needed
    to stage pointer-table arguments for the JIT backend are recovered from
    it.  Without the backend the decorated function gives exactly the
    undecorated one's results: it runs the batch as lanes where that cannot
    change them, and the undecorated loop otherwise.  E <= 0 returns early
    and touches no memory on any path.
    """
    spec = parse_kernel_name(name)
    kinds = (spec.access_a, spec.access_b, spec.access_c)

    def decorate(py_fn):
        compiled = []
        compile_lock = threading.Lock()

        def jitted():
            with compile_lock:
                if not compiled:
                    compiled.append(jit_compile(py_fn))
            return compiled[0]

        @functools.wraps(py_fn)
        def wrapper(E, alpha, A, lda, B, ldb, beta, C, ldc):
            if E <= 0:
                return
            if jit_enabled() and _try_jit(E, alpha, A, lda, B, ldb, beta, C, ldc):
                return
            if _try_lanes(E, alpha, A, lda, B, ldb, beta, C, ldc):
                return
            py_fn(
                E,
                alpha,
                _interp_arg(A, kinds[0]),
                lda,
                _interp_arg(B, kinds[1]),
                ldb,
                beta,
                _interp_arg(C, kinds[2]),
                ldc,
            )

        def _try_jit(E, alpha, A, lda, B, ldb, beta, C, ldc) -> bool:
            payloads = (A, B, C)
            spans = [matrix_span(spec, which, ld) for which, ld in zip("ABC", (lda, ldb, ldc))]
            # Staged pointer tables are copies, so the compiled loop gives the
            # sequential answer only when no element reads what another writes.
            if AccessKind.Indexed in kinds and not _elements_independent(payloads, kinds, spans, E):
                return False
            args = []
            for payload, kind, span in zip(payloads, kinds, spans):
                if kind is AccessKind.Indexed:
                    # Row e of the staged array is batch element e, so the
                    # kernel's table[e][idx] still holds.
                    args.append(_gather(payload, E, span))
                elif flat_float64_buffers(
                    [payload], span * (E if kind is AccessKind.Strided else 1)
                ) and payload.flags.c_contiguous:
                    args.append(payload)
                else:
                    return False
            jit_fn = jitted()
            if jit_fn is py_fn:  # backend unavailable after all
                return False
            jit_fn(
                int(E),
                float(alpha),
                args[0],
                int(lda),
                args[1],
                int(ldb),
                float(beta),
                args[2],
                int(ldc),
            )
            if kinds[2] is AccessKind.Indexed:
                _scatter(C, args[2], spans[2])
            return True

        def _try_lanes(E, alpha, A, lda, B, ldb, beta, C, ldc) -> bool:
            payloads = (A, B, C)
            try:
                spans = [matrix_span(spec, which, ld) for which, ld in zip("ABC", (lda, ldb, ldc))]
            except ValueError:
                return False
            if kinds[2] is AccessKind.Constant or not _elements_independent(
                payloads, kinds, spans, E
            ):
                return False
            lanes = [
                None if kind is AccessKind.Constant else _stage_lanes(payload, kind, E, span)
                for payload, kind, span in zip(payloads, kinds, spans)
            ]
            # With E == 1 the kernel's A[e*sizeA+off] and B[e][off] address
            # row off of the staged arrays, so each statement runs on E lanes.
            args = [
                _as_scalar_view(payload) if kind is AccessKind.Constant
                else [staged] if kind is AccessKind.Indexed
                else staged
                for payload, kind, staged in zip(payloads, kinds, lanes)
            ]
            py_fn(1, alpha, args[0], lda, args[1], ldb, beta, args[2], ldc)
            if kinds[2] is AccessKind.Indexed:
                _scatter(C, lanes[2].T, spans[2])
            else:
                C[: E * spans[2]].reshape(E, spans[2])[...] = lanes[2].T
            return True

        wrapper.__wrapped__ = py_fn
        wrapper.spec = spec
        wrapper.kernel_name = name
        return wrapper

    return decorate
