"""Batch-loop acceleration for generated kernels: compiled C, or numpy lanes.

Generated kernels carry a single loop over the batch index with a fully
unrolled body.  :func:`vectorize_batch_loop` is the source-level hint placed
on that loop's function.  It runs the batch loop in one of three ways, and
counts each call under the path that served it:

* ``compiled``: when a C compiler (``cc``) is on PATH and the switches
  below allow it, the kernel's C twin (:func:`bbdgemm.codegen.generate_c_source`)
  is built on the kernel's first compiled call and called through
  ``ctypes``; the compiler vectorizes the batch loop for the host.  A
  Strided or Constant buffer is passed by its address, and a Strided one's
  own span with it, an Indexed operand by an address array that C reads as
  ``X[e][off]``.  That is the address array of the operand's
  :class:`~bbdgemm.core.PointerTable` from the table's second use on, so a
  reused table is read and written in place, with no copy.  On a table's
  first use, whose addresses would cost more to read than its matrices to
  copy, or when its entries are not all C-contiguous, the matrices are
  copied into an ``(E, matrix span)`` array, C reads that array's row
  addresses, and C's rows are copied back.  A batch with a flat buffer that
  is not C-contiguous, or a read-only flat C, takes the next path.
* ``lanes``: every Strided or Indexed operand is staged as a ``(matrix
  span, E)`` array whose row ``off`` holds element ``off`` of every matrix,
  and the generated Python function runs once with E == 1 on those arrays.
  Each unrolled statement then computes all E batch elements as one numpy
  operation, and C is scattered back at the end.  A Strided operand is
  read, and a Strided C written back, through one ``(E, matrix span)``
  view whose rows are the operand's span apart and which ends at the last
  matrix.
* ``sequential``: the plain interpreted loop, for a Constant C that the
  compiled path does not serve, since every element accumulates into that
  one matrix in order (the C loop does so too; lanes would not).

Every path reads a Strided operand's matrix e at ``e*span``, with the span
the caller passes, and needs no more than ``(E-1)*span + matrix span``
elements of its buffer, the length :func:`bbdgemm.runtime.run_batched`
checks.  An Indexed C with a read-only entry is refused with ``ValueError``
before any path writes anything.

Lanes read operands as they were on entry, and the C loop lets element e
write C before element e+1 reads; both give the sequential loop's answer
because no batch element reads or writes what another writes.  That is the
operand contract that :func:`bbdgemm.runtime.run_batched` checks before it
calls a kernel; the wrapper assumes it and checks again only what a pointer
handed to C needs: dtype, rank, contiguity, length (and, for a Strided
operand, a span no shorter than its matrix) and, for C, writability.
A table caches all but its writability, so a reused table costs the wrapper
O(1), plus, for an Indexed C, one C-level scan of its entries' writable
flags, which the wrapper skips when the table is the one ``run_batched``
has just checked for this very call (:data:`bbdgemm.core.checked_c`).

Switches: ``BBDGEMM_JIT=0`` (or ``off``/``false``/``no``) turns the compiled
path off for the process; otherwise :func:`use_jit` turns it off and on
for the duration of a block.  Shared objects are built with ``-O3
-march=native -ffp-contract=off`` (no fast-math: contracting ``a*b + c``
into a fused multiply-add would change the bits) and cached in
``$XDG_CACHE_HOME/bbdgemm`` (default ``~/.cache/bbdgemm``) under the sha256
of the source, the flags, ``cc --version`` and the target ``-march=native``
resolves to, so a cache shared between different CPUs never loads another
CPU's object.  Each build or cache load is recorded in :data:`compile_log`,
never inside a call's timing once the kernel is loaded.

Calling the decorated kernel never changes numerics: every path executes
the same statements in the same order on IEEE doubles, and numpy's
elementwise multiply and add round exactly as scalar code does.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codegen import generate_c_source
from .core import (
    AccessKind,
    PointerTable,
    checked_c,
    flat_float64_buffers,
    matrix_span,
    parse_kernel_name,
)

__all__ = [
    "CompileEvent",
    "compile_log",
    "jit_available",
    "jit_enabled",
    "use_jit",
    "vectorize_batch_loop",
]

_override: bool | None = None

#: Flags of every kernel build.  No fast-math, and no FP contraction: GNU C
#: fuses ``a*b + c`` by default, which rounds once where the oracle rounds twice.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

_C_ARGTYPES = (
    ctypes.c_long, ctypes.c_double, ctypes.c_void_p, ctypes.c_long,
    ctypes.c_void_p, ctypes.c_long, ctypes.c_double, ctypes.c_void_p, ctypes.c_long,
    ctypes.c_long, ctypes.c_long, ctypes.c_long,
)


class CompileEvent(NamedTuple):
    """One kernel's shared object made ready: built (cache miss) or loaded (hit)."""

    kernel: str
    seconds: float
    cache_hit: bool


#: Every compile event of this process, in order.
compile_log: list[CompileEvent] = []


@functools.cache
def _find_compiler() -> str | None:
    return shutil.which("cc")


def jit_available() -> bool:
    """True when a C compiler, ``cc``, is on PATH."""
    return _find_compiler() is not None


def jit_enabled() -> bool:
    """True when decorated kernels will take the compiled path.

    ``BBDGEMM_JIT`` set to ``0``, ``off``, ``false`` or ``no`` is the master
    switch: it turns the path off for the process.  Otherwise
    :func:`use_jit` decides, and outside it the path is on.  Without a
    compiler it is off whatever the switches say.
    """
    if not jit_available():
        return False
    if os.environ.get("BBDGEMM_JIT", "").strip().lower() in ("0", "off", "false", "no"):
        return False
    return _override is not False


@contextmanager
def use_jit(on: bool):
    """Temporarily force the compiled path on or off."""
    global _override
    previous = _override
    _override = on
    try:
        yield
    finally:
        _override = previous


def _run(cc: str, *args: str) -> str:
    done = subprocess.run([cc, *args], capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        raise RuntimeError(f"{cc} {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout


@functools.cache
def _toolchain(cc: str) -> str:
    """``cc --version`` and the target options ``-march=native`` resolves to."""
    return _run(cc, "--version") + _run(cc, "-march=native", "-Q", "--help=target")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "bbdgemm"
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    return path


def _load_c_kernel(name: str):
    """The ctypes function of kernel *name*, built into the cache when missing."""
    started = time.perf_counter()
    cc = _find_compiler()
    source = generate_c_source(parse_kernel_name(name))
    key = hashlib.sha256("\0".join((source, " ".join(_CFLAGS), _toolchain(cc))).encode())
    directory = _cache_dir()
    target = directory / f"{name}-{key.hexdigest()}.so"
    hit = target.exists()
    if not hit:
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            c_file, so_file = Path(tmp) / f"{name}.c", Path(tmp) / f"{name}.so"
            c_file.write_text(source, encoding="utf-8")
            _run(cc, *_CFLAGS, "-o", str(so_file), str(c_file))
            os.replace(so_file, target)
    fn = getattr(ctypes.CDLL(str(target)), name)
    fn.argtypes, fn.restype = _C_ARGTYPES, None
    compile_log.append(CompileEvent(name, time.perf_counter() - started, hit))
    return fn


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


def _strided_rows(buffer, E: int, span: int, size: int, writeable: bool) -> np.ndarray:
    """``(E, size)`` view whose row e is ``buffer[e*span:][:size]``, a Strided operand's matrices.

    The view ends where the last matrix does, so it fits any buffer of
    ``(E-1)*span + size`` elements; a shorter buffer, or a span below
    ``size`` (rows that overlap), is refused with ``ValueError``.
    """
    needed = (E - 1) * span + size
    if span < size or len(buffer) < needed:
        raise ValueError(
            f"Strided buffer of {len(buffer)} elements with span {span}: "
            f"need span >= {size} and (E-1)*span + {size} = {needed} elements"
        )
    windows = np.lib.stride_tricks.sliding_window_view(buffer[:needed], size, writeable=writeable)
    return windows[::span]


def _stage_lanes(payload, kind: AccessKind, E: int, span: int, size: int) -> np.ndarray:
    """``(size, E)`` copy whose row ``off`` holds element ``off`` of every matrix."""
    if kind is AccessKind.Indexed:
        rows = _gather(payload, E, size)
    else:
        rows = _strided_rows(payload, E, span, size, writeable=False)
    return rows.T.copy()


def vectorize_batch_loop(name: str):
    """Decorator marking a generated kernel's batch loop for acceleration.

    *name* must be the kernel's own canonical name; the operand roles needed
    to stage pointer-table arguments, and the C twin, are recovered from it.
    Precondition: the operands are ones :func:`bbdgemm.runtime.run_batched`
    accepts (its module documents the contract), which a caller of the
    kernel itself must ensure.  Under that contract the decorated function
    gives exactly the undecorated one's results.  E <= 0 returns early and
    touches no memory on any path.  The wrapper's ``path_counts`` counts
    completed calls per path, and ``path_elements`` the batch elements
    those calls handled.  A kernel whose C twin fails to compile raises
    ``RuntimeError`` carrying the compiler's messages.
    """
    spec = parse_kernel_name(name)
    kinds = (spec.access_a, spec.access_b, spec.access_c)

    def decorate(py_fn):
        compiled = []
        compile_lock = threading.Lock()
        path_counts = Counter()
        path_elements = Counter()
        count_lock = threading.Lock()

        def c_kernel():
            with compile_lock:
                if not compiled:
                    compiled.append(_load_c_kernel(name))
            return compiled[0]

        @functools.wraps(py_fn)
        def wrapper(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
            if E <= 0:
                return
            if kinds[2] is AccessKind.Indexed and C is not checked_c.get():
                # Not the table run_batched has just checked: refuse a
                # read-only entry before any path writes one.
                C = C if isinstance(C, PointerTable) else PointerTable(C)
                C.check_writable("C")
            payloads = (A, B, C)
            lds = (lda, ldb, ldc)
            spans = (spanA, spanB, spanC)
            # Elements one matrix covers; a Strided operand's span may be longer.
            sizes = [matrix_span(spec, which, ld) for which, ld in zip("ABC", lds)]
            if jit_enabled() and _run_compiled(E, alpha, payloads, lds, beta, spans, sizes):
                path = "compiled"
            elif kinds[2] is not AccessKind.Constant:
                _run_lanes(E, alpha, payloads, lds, beta, spans, sizes)
                path = "lanes"
            else:
                # A Constant C accumulates over the batch in order: the plain
                # loop, on memoryviews, whose items are plain floats, faster
                # here than numpy scalars.
                args = [
                    [memoryview(m) for m in p] if kind is AccessKind.Indexed else memoryview(p)
                    for p, kind in zip(payloads, kinds)
                ]
                py_fn(E, alpha, args[0], lda, args[1], ldb, beta, args[2], ldc, *spans)
                path = "sequential"
            with count_lock:
                path_counts[path] += 1
                path_elements[path] += E

        def _run_compiled(E, alpha, payloads, lds, beta, spans, sizes) -> bool:
            # Pointers handed to C must address float64 memory long enough
            # for every element the loop touches, (E-1)*span + size for a
            # Strided operand, and writable for C; a flat buffer that is not
            # takes lanes instead.  An Indexed operand goes as an address
            # array read as X[e][off]: its table's own, or, for a table on
            # its first use or with entries C cannot read in place, that of
            # an (E, size) copy, with C copied back after.
            args, staged = [], {}
            for payload, kind, span, size, which in zip(payloads, kinds, spans, sizes, "ABC"):
                if kind is AccessKind.Indexed:
                    table = payload if isinstance(payload, PointerTable) else PointerTable(payload)
                    if not (len(table) >= E and table.flat_length() >= size):
                        return False
                    addresses = table.addresses_on_reuse()
                    if addresses is None or not table.contiguous:
                        rows = staged[which] = _gather(table, E, size)
                        addresses = rows.ctypes.data + np.arange(E, dtype=np.intp) * rows.strides[0]
                    args.append(addresses)
                elif not (
                    (kind is not AccessKind.Strided or span >= size)
                    and flat_float64_buffers(
                        [payload], (E - 1) * span + size if kind is AccessKind.Strided else size
                    )
                    and payload.flags.c_contiguous
                    and (which != "C" or payload.flags.writeable)
                ):
                    return False
                else:
                    args.append(payload)
            c_kernel()(
                int(E), float(alpha), args[0].ctypes.data, int(lds[0]),
                args[1].ctypes.data, int(lds[1]), float(beta), args[2].ctypes.data, int(lds[2]),
                *map(int, spans),
            )
            if "C" in staged:
                _scatter(payloads[2], staged["C"], sizes[2])
            return True

        def _run_lanes(E, alpha, payloads, lds, beta, spans, sizes) -> None:
            lanes = [
                None if kind is AccessKind.Constant else _stage_lanes(payload, kind, E, span, size)
                for payload, kind, span, size in zip(payloads, kinds, spans, sizes)
            ]
            # With E == 1 the kernel's A[e*spanA+off] and B[e][off] address
            # row off of the staged arrays, so each statement runs on E lanes.
            args = [
                memoryview(payload) if kind is AccessKind.Constant
                else [staged] if kind is AccessKind.Indexed
                else staged
                for payload, kind, staged in zip(payloads, kinds, lanes)
            ]
            py_fn(1, alpha, args[0], lds[0], args[1], lds[1], beta, args[2], lds[2], *spans)
            if kinds[2] is AccessKind.Indexed:
                _scatter(payloads[2], lanes[2].T, sizes[2])
            else:
                _strided_rows(payloads[2], E, spans[2], sizes[2], writeable=True)[...] = lanes[2].T

        wrapper.__wrapped__ = py_fn
        wrapper.spec = spec
        wrapper.kernel_name = name
        wrapper.path_counts = path_counts
        wrapper.path_elements = path_elements
        return wrapper

    return decorate
