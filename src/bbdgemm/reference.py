"""Naive batched GEMM oracle.

``dgemm_ref`` is a plain triple loop over flat buffers; ``batched_ref``
resolves each batch element according to its operand's access kind and runs
``dgemm_ref`` E times.  Accumulation is always in ascending-k order and the
beta combine mirrors the generated kernels exactly, so a generated kernel and
the oracle produce bitwise-identical outputs when nothing reorders the sums.

Bitwise equality stops at NaNs that meet: when an input NaN meets a NaN the
arithmetic makes (``inf * 0`` or ``inf - inf``), which of the two the
result carries is not fixed by IEEE 754.  x86 returns the first operand's,
and neither numpy nor a C compiler keeps the source order of a commutative
``*`` or ``+``, so this oracle and a compiled kernel may give NaNs of
different sign.  All other bits agree, and NaNs too when every NaN has one
payload, which is why the edge tests (``tests/test_runtime.py``,
``TestExplicitVectors``) use only the machine's own ``inf * 0``.

This module is deliberately simple; its only job is to be obviously correct,
so it uses numpy and plain Python only, never compiled kernels.
``_dgemm_flat`` is the definition of one GEMM.  ``bind_dgemm`` checks one
GEMM and returns it as a function of ``(alpha, beta)``; ``dgemm_ref`` is
that function called once, and a caller that repeats a GEMM (the proxy's
scalar loop nest) binds it once and runs it many times.  So that large
validation runs finish in reasonable time, C-contiguous float64 ndarrays
take ``_DgemmProducts`` on numpy views built at bind time: one broadcast
multiply forms all k*n*m products as a C-ordered (k, n, m) array, and one
``np.add.reduce`` over axis 0 from ``initial=0.0`` sums them.  With
n*m >= 2, numpy reduces that axis element by element in ascending k, so
every output element sees ``0.0 + p0 + p1 + ...``: the multiplies and adds
of ``_dgemm_flat``, in the same order, and the two agree bit for bit (each
add has its operands swapped, ``acc + product``, which only the NaN caveat
above can tell).  With n*m == 1, numpy makes the k axis its inner loop and
sums it pairwise, so a dot product never takes this path.  The one rule:
``n*m == 1 or n*m*k <= 32`` runs ``_dgemm_flat`` on memoryviews of the
ndarrays, whose items are Python floats; below that size the loop also
costs less than the product pass's fixed numpy work.  Other buffer types
(memoryviews, strided views) run ``_dgemm_flat`` on the buffers as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import AccessKind, KernelSpec, Layout, flat_float64_buffers, matrix_span

if TYPE_CHECKING:
    from .runtime import BatchedOperand

__all__ = ["GemmScalars", "bind_dgemm", "dgemm_ref", "batched_ref"]


@dataclass(frozen=True)
class GemmScalars:
    """alpha/beta pair, constant across a whole batch."""

    alpha: float
    beta: float


def _dgemm_flat(col_major, n, m, k, alpha, a, lda, b, ldb, beta, c, ldc):
    # Triple loop.  Each output element gets the generated kernels' sequence:
    # zero, one multiply-add per t in ascending t, alpha, then the beta
    # combine; the order across elements does not change any bit, which is
    # what lets _DgemmProducts form all products before any add.  beta == 0
    # never reads C (overwrite semantics).
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


class _DgemmProducts:
    """_dgemm_flat's arithmetic on views that bind_dgemm built over checked, contiguous buffers.

    A is viewed as (k, n, 1), B as (k, 1, m) and C as (n, m), with n*m >= 2.
    Each call forms every product in one broadcast multiply into a C-ordered
    array, products[t, row, col] = A[row, t] * B[t, col], and sums it over
    t with one ``np.add.reduce`` from ``initial=0.0``.  Its inner loop runs
    over the n*m elements, so each element's sum goes ``0.0 + p0 + p1 + ...``
    in ascending t, like the triple loop's ``av * bv + acc``; with n*m == 1
    numpy would sum t pairwise, and without order="C" the multiply may lay t
    out innermost (a ColMajor A of one row, say), with the same effect.
    Alpha scales the sums in place, and the beta combine writes C, in the
    loop's operand order.  No buffer is kept between calls.  A class with
    slots, not a closure: a caller may keep one per GEMM of a large loop nest.
    """

    __slots__ = ("A", "B", "C")

    def __init__(self, A, B, C):
        self.A, self.B, self.C = A, B, C

    def __call__(self, alpha, beta):
        C = self.C
        acc = np.add.reduce(np.multiply(self.A, self.B, order="C"), axis=0, initial=0.0)
        np.multiply(acc, float(alpha), acc)
        beta = float(beta)
        cv = C if beta != 0.0 else 0.0
        np.add(cv * beta, acc, C)


def _view(views, buf, shape, strides):
    """View of flat float64 *buf* at byte *strides*: the one *views* holds when it views *buf*."""
    if views is None:
        return np.ndarray(shape, np.float64, buf, 0, strides)
    key = (shape, strides)
    kept = views.get(key)
    if kept is None or kept[0] is not buf:
        kept = views[key] = (buf, np.ndarray(shape, np.float64, buf, 0, strides))
    return kept[1]


def _last_offset(rows, cols, ld, col_major):
    return (cols - 1) * ld + rows - 1 if col_major else (rows - 1) * ld + cols - 1


def bind_dgemm(
    layout: Layout,
    n: int,
    m: int,
    k: int,
    a,
    lda: int,
    b,
    ldb: int,
    c,
    ldc: int,
    *,
    views: dict | None = None,
):
    """Check one GEMM over flat buffers and return it as a function of ``(alpha, beta)``.

    The checks are :func:`dgemm_ref`'s, made here, before any element is
    read or written.  Each call of the returned run computes
    C := alpha*A@B + beta*C on these buffers with its own alpha and beta,
    converted by ``float()``, and keeps nothing between calls but the
    buffers and views bound here.  The buffers must keep their length while
    the run is kept.

    *views* is a dict a caller binding many GEMMs passes to every bind: for
    each view shape it holds the last buffer viewed so and the view, which
    the next bind over that same buffer reuses, so GEMMs that share a buffer
    share one view of it.  It changes no result.
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
    if flat_float64_buffers((a, b, c)) and all(buf.flags.c_contiguous for buf in (a, b, c)):
        # The product pass's fixed numpy cost outweighs the loop's work up to
        # 32 multiply-adds, and numpy pairwise-sums a lone dot product's
        # reduction axis (n*m == 1), so those shapes run _dgemm_flat, on
        # memoryviews, whose items are Python floats.
        if n * m == 1 or n * m * k <= 32:
            a, b, c = memoryview(a), memoryview(b), memoryview(c)
        else:
            # Byte strides of each matrix's row and column steps.
            if col_major:
                ar, ac, br, bc, cr, cc = 8, 8 * lda, 8, 8 * ldb, 8, 8 * ldc
            else:
                ar, ac, br, bc, cr, cc = 8 * lda, 8, 8 * ldb, 8, 8 * ldc, 8
            return _DgemmProducts(
                _view(views, a, (k, n, 1), (ac, ar, 0)),
                _view(views, b, (k, 1, m), (br, 0, bc)),
                _view(views, c, (n, m), (cr, cc)),
            )

    def run(alpha, beta):
        _dgemm_flat(col_major, n, m, k, float(alpha), a, lda, b, ldb, float(beta), c, ldc)

    return run


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
    element is read or written.  It is :func:`bind_dgemm`'s run, called once.
    """
    bind_dgemm(layout, n, m, k, a, lda, b, ldb, c, ldc)(alpha, beta)


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
