"""Portable batch-loop acceleration hint for generated kernels.

Generated kernels carry a single loop over the batch index with a fully
unrolled body.  :func:`vectorize_batch_loop` is the source-level hint placed
on that loop's function.  It makes the batch dimension the vector lane in
one of two ways:

* when the optional JIT backend (numba) is installed and enabled, the loop
  is compiled so the backend's auto-vectorizer can turn the batch dimension
  into vector lanes; each Indexed operand is staged as an ``(E, span)``
  copy whose row e is batch element e, and C is scattered back after it;
* otherwise every Strided or Indexed operand is staged as a ``(span, E)``
  array whose row ``off`` holds element ``off`` of every matrix, and the
  generated function runs once with E == 1 on those arrays.  Each unrolled
  statement then computes all E batch elements as one numpy operation, and
  C is scattered back at the end.

Staged copies and lanes read operands as they were on entry, so both give
the sequential loop's answer only when no batch element reads or writes
what another writes.  That is the operand contract that
:func:`bbdgemm.runtime.run_batched` checks before it calls a kernel; the
wrapper assumes it and checks nothing again.  The one output the contract
lets elements share is a Constant C, which every element accumulates into
in order: the compiled loop does so, and without it the plain interpreted
loop runs.  There is no architecture-specific code on any path.

Per call, outside the kernel's arithmetic, each Strided or Indexed operand
costs one ``np.concatenate`` or transpose copy, and an Indexed C one
write-back loop over its entries.

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


def vectorize_batch_loop(name: str):
    """Decorator marking a generated kernel's batch loop for acceleration.

    *name* must be the kernel's own canonical name; the operand roles needed
    to stage pointer-table arguments are recovered from it.  Precondition:
    the operands are ones :func:`bbdgemm.runtime.run_batched` accepts (its
    module documents the contract), which a caller of the kernel itself must
    ensure; nothing here checks them again.  Under that contract the
    decorated function gives exactly the undecorated one's results.  E <= 0
    returns early and touches no memory on any path.
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
            payloads = (A, B, C)
            spans = [matrix_span(spec, which, ld) for which, ld in zip("ABC", (lda, ldb, ldc))]
            if jit_enabled() and _try_jit(E, alpha, payloads, (lda, ldb, ldc), beta, spans):
                return
            if kinds[2] is not AccessKind.Constant:
                _run_lanes(E, alpha, payloads, (lda, ldb, ldc), beta, spans)
                return
            # A Constant C accumulates over the batch in order: the plain loop,
            # on memoryviews, whose items are plain floats, faster here than
            # numpy scalars.
            args = [
                [memoryview(m) for m in p] if kind is AccessKind.Indexed else memoryview(p)
                for p, kind in zip(payloads, kinds)
            ]
            py_fn(E, alpha, args[0], lda, args[1], ldb, beta, args[2], ldc)

        def _try_jit(E, alpha, payloads, lds, beta, spans) -> bool:
            jit_fn = jitted()
            indexed = [kind is AccessKind.Indexed for kind in kinds]
            if jit_fn is py_fn or not all(i or p.flags.c_contiguous for i, p in zip(indexed, payloads)):
                return False  # backend unavailable after all, or a flat buffer it cannot take
            # Row e of a staged table is batch element e, so the kernel's
            # table[e][idx] still holds.
            args = [_gather(p, E, span) if i else p for i, p, span in zip(indexed, payloads, spans)]
            lda, ldb, ldc = map(int, lds)
            jit_fn(int(E), float(alpha), args[0], lda, args[1], ldb, float(beta), args[2], ldc)
            if indexed[2]:
                _scatter(payloads[2], args[2], spans[2])
            return True

        def _run_lanes(E, alpha, payloads, lds, beta, spans) -> None:
            lanes = [
                None if kind is AccessKind.Constant else _stage_lanes(payload, kind, E, span)
                for payload, kind, span in zip(payloads, kinds, spans)
            ]
            # With E == 1 the kernel's A[e*sizeA+off] and B[e][off] address
            # row off of the staged arrays, so each statement runs on E lanes.
            args = [
                memoryview(payload) if kind is AccessKind.Constant
                else [staged] if kind is AccessKind.Indexed
                else staged
                for payload, kind, staged in zip(payloads, kinds, lanes)
            ]
            py_fn(1, alpha, args[0], lds[0], args[1], lds[1], beta, args[2], lds[2])
            if kinds[2] is AccessKind.Indexed:
                _scatter(payloads[2], lanes[2].T, spans[2])
            else:
                payloads[2][: E * spans[2]].reshape(E, spans[2])[...] = lanes[2].T

        wrapper.__wrapped__ = py_fn
        wrapper.spec = spec
        wrapper.kernel_name = name
        return wrapper

    return decorate
