"""Naive batched GEMM oracle.

``dgemm_ref`` is a plain triple loop over flat buffers; ``batched_ref``
resolves each batch element according to its operand's access kind and runs
``dgemm_ref`` E times.  Accumulation is always in ascending-k order and the
beta combine mirrors the generated kernels exactly, so a generated kernel and
the oracle produce bitwise-identical outputs when nothing reorders the sums.

This module is deliberately simple; its only job is to be obviously correct.
``_dgemm_flat`` is the definition of one GEMM.  So that large validation
runs finish in reasonable time, contiguous float64 buffers take a faster
form of the same arithmetic: the compiled twin of ``_dgemm_flat`` (same
statements, same order) when the optional JIT backend is present, and
otherwise ``_dgemm_rank1``, which runs the ascending-k sum as k rank-1
updates on (n, m) numpy views.  Every output element sees the same
multiply-then-add sequence on each path, so all three agree bit for bit.
Other buffer types run ``_dgemm_flat`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import AccessKind, KernelSpec, Layout, flat_float64_buffers, matrix_span
from .vectorize import jit_compile, jit_env_allowed

if TYPE_CHECKING:
    from .runtime import BatchedOperand

__all__ = ["GemmScalars", "dgemm_ref", "batched_ref"]


@dataclass(frozen=True)
class GemmScalars:
    """alpha/beta pair, constant across a whole batch."""

    alpha: float
    beta: float


def _dgemm_flat(col_major, n, m, k, alpha, a, lda, b, ldb, beta, c, ldc):
    # Triple loop, accumulators visited column-outer and summed in ascending
    # k, matching the unroll order of the generated kernels. beta == 0 never
    # reads C (overwrite semantics).
    for col in range(m):
        for row in range(n):
            acc = 0.0
            for t in range(k):
                if col_major:
                    av = a[t * lda + row]
                    bv = b[col * ldb + t]
                else:
                    av = a[row * lda + t]
                    bv = b[t * ldb + col]
                acc = av * bv + acc
            acc = acc * alpha
            if col_major:
                idx = col * ldc + row
            else:
                idx = row * ldc + col
            cv = c[idx] if beta != 0.0 else 0.0
            c[idx] = cv * beta + acc


def _dgemm_rank1(col_major, n, m, k, alpha, a, lda, b, ldb, beta, c, ldc):
    # _dgemm_flat's arithmetic on (rows, cols) views of contiguous buffers
    # that dgemm_ref has bounds-checked: the ascending-k loop becomes k
    # rank-1 updates, each one multiply and one add per output element.
    A = _matrix_view(a, n, k, lda, col_major)
    B = _matrix_view(b, k, m, ldb, col_major)
    C = _matrix_view(c, n, m, ldc, col_major)
    acc = 0.0
    for t in range(k):
        acc = A[:, t : t + 1] * B[t : t + 1, :] + acc
    acc = acc * alpha
    cv = C if beta != 0.0 else 0.0
    C[...] = cv * beta + acc


def _matrix_view(buf, rows, cols, ld, col_major):
    step = buf.itemsize
    strides = (step, ld * step) if col_major else (ld * step, step)
    return np.ndarray((rows, cols), buf.dtype, buf, 0, strides)


def _last_offset(rows, cols, ld, col_major):
    return (cols - 1) * ld + rows - 1 if col_major else (rows - 1) * ld + cols - 1


_dgemm_flat_jit = None


def _jitted_dgemm():
    global _dgemm_flat_jit
    if _dgemm_flat_jit is None:
        _dgemm_flat_jit = jit_compile(_dgemm_flat)
    return _dgemm_flat_jit


def dgemm_ref(
    layout: Layout,
    n: int,
    m: int,
    k: int,
    alpha: float,
    a,
    lda: int,
    b,
    ldb: int,
    beta: float,
    c,
    ldc: int,
) -> None:
    """Single GEMM over flat buffers: C := alpha*A@B + beta*C.

    ``a``, ``b`` and ``c`` are flat element buffers addressed per *layout*;
    ``c`` must not alias ``a`` or ``b``.  With beta == 0, C is overwritten
    without being read.  A buffer may end right after the last element it
    addresses; one shorter than that raises ``IndexError`` before any
    element is read or written.
    """
    if n < 1 or m < 1 or k < 1:
        raise ValueError(f"dimensions must be positive, got n={n} m={m} k={k}")
    col_major = layout is Layout.ColMajor
    min_lda, min_ldb, min_ldc = (n, k, n) if col_major else (k, m, m)
    if lda < min_lda or ldb < min_ldb or ldc < min_ldc:
        raise ValueError(
            f"leading dimensions (lda={lda}, ldb={ldb}, ldc={ldc}) below minima "
            f"({min_lda}, {min_ldb}, {min_ldc}) for {layout.value} n={n} m={m} k={k}"
        )
    for which, buf, rows, cols, ld in (
        ("a", a, n, k, lda), ("b", b, k, m, ldb), ("c", c, n, m, ldc)
    ):
        last = _last_offset(rows, cols, ld, col_major)
        if len(buf) <= last:
            raise IndexError(
                f"buffer {which} holds {len(buf)} elements, a {rows}x{cols} "
                f"{layout.value} matrix at ld={ld} addresses {last + 1}"
            )
    arrays = flat_float64_buffers((a, b, c))
    if arrays and jit_env_allowed():
        fn = _jitted_dgemm()
    elif arrays and all(buf.flags.c_contiguous for buf in (a, b, c)):
        fn = _dgemm_rank1
    else:
        fn = _dgemm_flat
    fn(col_major, n, m, k, float(alpha), a, lda, b, ldb, float(beta), c, ldc)


def _resolve(operand: "BatchedOperand", kind: AccessKind, e: int, span: int):
    """Flat buffer holding batch element *e* of *operand*."""
    if kind is AccessKind.Constant:
        return operand.data
    if kind is AccessKind.Strided:
        base = e * operand.span
        return operand.data[base : base + span]
    return operand.table[e]


def batched_ref(spec: KernelSpec, E: int, scalars: GemmScalars, a, b, c) -> None:
    """Batched oracle: E sequential ``dgemm_ref`` calls.

    ``a``, ``b``, ``c`` are batched operand descriptors
    (:class:`bbdgemm.runtime.BatchedOperand`) whose access kinds must match
    *spec*.  E == 0 touches no memory.
    """
    if E < 0:
        raise ValueError(f"batch size must be non-negative, got {E}")
    kinds = (spec.access_a, spec.access_b, spec.access_c)
    for which, operand, kind in zip(("A", "B", "C"), (a, b, c), kinds):
        if operand.kind is not kind:
            raise ValueError(
                f"operand {which} has access kind {operand.kind.name}, "
                f"spec {spec.name} expects {kind.name}"
            )
        if kind is AccessKind.Indexed and len(operand.table) < E:
            raise ValueError(
                f"operand {which} pointer table has {len(operand.table)} entries, need {E}"
            )
    shape = spec.shape
    spans = {which: matrix_span(spec, which, op.ld) for which, op in zip("ABC", (a, b, c))}
    for e in range(E):
        dgemm_ref(
            spec.layout,
            shape.n,
            shape.m,
            shape.k,
            scalars.alpha,
            _resolve(a, spec.access_a, e, spans["A"]),
            a.ld,
            _resolve(b, spec.access_b, e, spans["B"]),
            b.ld,
            scalars.beta,
            _resolve(c, spec.access_c, e, spans["C"]),
            c.ld,
        )
