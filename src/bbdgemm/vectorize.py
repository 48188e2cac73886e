"""Batch-loop acceleration for generated kernels: compiled C, or numpy lanes.

Generated kernels carry a single loop over the batch index with a fully
unrolled body.  :func:`vectorize_batch_loop` is the source-level hint placed
on that loop's function; :func:`batch_kernel` builds the same wrapper from a name.
It runs the batch loop in one of three ways, counting each call by path:

* ``compiled``: when a C compiler (``cc``) is on PATH and the switch
  below allows it, the kernel's C twin (:func:`bbdgemm.codegen.generate_c_source`)
  is built on the kernel's first compiled call and called through
  ``ctypes``.  The twin is vectorised within a batch element, not across
  the batch loop: it is printed as GNU C vector statements along C's
  contiguous dimension (a column of A, or a row of B, loaded as a vector
  and the other operand broadcast), so ``cc`` must accept GNU vector
  extensions, as gcc and clang do.  A Strided or Constant buffer is
  passed by its address, and a Strided one's own span with it, an Indexed
  operand by an address array that C reads as ``X[e][off]``.  That is the
  address array of the operand's :class:`~bbdgemm.core.PointerTable`, which
  :func:`table_reader` reads in one compiled pass, once per table, so a
  table is read and written in place from its first use, with no copy.
  The path runs only on memory it reads in place: a batch with a table
  whose entries are not all C-contiguous, or a flat buffer that is not
  C-contiguous, takes the next path.
* ``lanes``: every Strided or Indexed operand is copied into a ``(matrix
  span, E)`` array whose row ``off`` holds element ``off`` of every matrix,
  and the kernel's Python twin runs once with E == 1 on those arrays.
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
checks.  A C with a read-only buffer or entry is refused with
``ValueError`` before any path stages or writes anything.

Lanes read operands as they were on entry, and the C loop lets element e
write C before element e+1 reads; both give the sequential loop's answer
because no batch element reads or writes what another writes.  That is the
operand contract that :func:`bbdgemm.runtime.run_batched` checks before it
calls a kernel; the wrapper assumes it and checks again only what a pointer
handed to C needs: dtype, rank, contiguity, length (and, for a Strided
operand, a span no shorter than its matrix) and, for C, writability.
A table caches all but its writability, so a reused table costs the wrapper
O(1), plus one scan of C's writable flags (:func:`table_reader` for a table).
The wrapper is ``wrapper.bind(E, A, lda, B, ldb, C, ldc, spanA, spanB,
spanC)(alpha, beta)``: ``bind`` writes nothing, makes those checks and
chooses the path once, and returns the call as a function of alpha and
beta.  Each run of that function keeps one contract: it returns False,
with nothing run, when a flat operand changed its dtype, shape or strides
since ``bind``; it refuses a read-only C, naming it, before any write;
otherwise it runs, is counted, and returns True.  On the compiled path
with the table reader, the function is one call of ``run_prepared`` on a
record of the kernel's address and every other argument, which keeps the
contract in C and runs the kernel with the interpreter lock released.  On
every other path :func:`checked` keeps it around the run.
:func:`bbdgemm.runtime.run_batched` keeps the function for the calls that
repeat a checked one, and binds afresh on False.

The one switch is ``BBDGEMM_JIT=0`` (or ``off``/``false``/``no``), read once
per process by :func:`jit_enabled`: it turns the compiled path off, and no
compiler runs.  Shared objects are built with ``-O3
-march=native -ffp-contract=off`` (no fast-math: contracting ``a*b + c``
into a fused multiply-add would change the bits) and cached in
``$XDG_CACHE_HOME/bbdgemm`` (default ``~/.cache/bbdgemm``) under the sha256
of the source, the flags, ``cc --version`` and the target ``-march=native``
resolves to, so a cache shared between different CPUs never loads another
CPU's object.  The same switch, flags and cache serve
:func:`table_reader`, whose key also holds the numpy version and the
include directories of ``Python.h`` and numpy's headers, since it reads
numpy's array struct; without those headers pointer tables are read by
Python-level scans instead.  Each build or cache load is recorded in
:data:`compile_log`, the reader's as ``table_reader``, never inside a
call's timing once the kernel is loaded.

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
import sysconfig
import tempfile
import threading
import time
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .codegen import generate_c_source, generate_kernel_source
from .core import (
    AccessKind,
    PointerTable,
    flat_float64_buffers,
    matrix_span,
    parse_kernel_name,
    read_only_error,
)

__all__ = [
    "CompileEvent",
    "batch_kernel",
    "compile_log",
    "jit_available",
    "jit_enabled",
    "vectorize_batch_loop",
]

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


_OFF = ("0", "off", "false", "no")


@functools.cache
def jit_enabled() -> bool:
    """True when decorated kernels take the compiled path, decided once per process.

    Off when ``BBDGEMM_JIT`` is ``0``, ``off``, ``false`` or ``no`` on the
    first call, or when there is no compiler; on otherwise.  Later changes
    to the variable have no effect.
    """
    switch = os.environ.get("BBDGEMM_JIT", "")
    return switch.strip().lower() not in _OFF and _find_compiler() is not None


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


def _build_and_load(name: str, source: str, flags, load, *key_extra: str):
    """Library *load* opens from *source* built with *flags*, built into the cache when missing.

    The cache key is the sha256 of the source, the flags, the toolchain and
    *key_extra*; the build or load is recorded in :data:`compile_log` as *name*.
    """
    started = time.perf_counter()
    cc = _find_compiler()
    key = hashlib.sha256("\0".join((source, " ".join(flags), _toolchain(cc), *key_extra)).encode())
    directory = _cache_dir()
    target = directory / f"{name}-{key.hexdigest()}.so"
    hit = target.exists()
    if not hit:
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            c_file, so_file = Path(tmp) / f"{name}.c", Path(tmp) / f"{name}.so"
            c_file.write_text(source, encoding="utf-8")
            _run(cc, *flags, "-o", str(so_file), str(c_file))
            os.replace(so_file, target)
    library = load(str(target))
    compile_log.append(CompileEvent(name, time.perf_counter() - started, hit))
    return library


def _load_c_kernel(name: str):
    """The ctypes function of kernel *name*, built into the cache when missing."""
    source = generate_c_source(parse_kernel_name(name))
    fn = getattr(_build_and_load(name, source, _CFLAGS, ctypes.CDLL), name)
    fn.argtypes, fn.restype = _C_ARGTYPES, None
    return fn


def _python_twin(name: str):
    """Kernel *name*'s generated Python function, undecorated."""
    namespace = {}
    exec(compile(generate_kernel_source(parse_kernel_name(name)), f"<{name}>", "exec"), namespace)
    return namespace[name].__wrapped__


#: Reads a PointerTable, a tuple of ndarrays, with the interpreter lock held
#: (the library is opened with ``ctypes.PyDLL``).  Callers pass only tables
#: whose entries are all ndarrays.  ``prepared_call`` is :class:`_PreparedCall`.
_TABLE_READER_SOURCE = """\
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/ndarraytypes.h>

#define ENTRY(table, e) ((PyArrayObject *)PyTuple_GET_ITEM(table, e))

Py_ssize_t first_read_only(PyObject *table) {
    Py_ssize_t count = PyTuple_GET_SIZE(table);
    for (Py_ssize_t e = 0; e < count; ++e)
        if (!(PyArray_FLAGS(ENTRY(table, e)) & NPY_ARRAY_WRITEABLE))
            return e;
    return -1;
}

/* Entries are 1-D: each one's data address and byte stride, and whether
   every entry is C-contiguous by numpy's flag. */
int entries(PyObject *table, npy_intp *addresses, npy_intp *strides) {
    Py_ssize_t count = PyTuple_GET_SIZE(table);
    int contiguous = 1;
    for (Py_ssize_t e = 0; e < count; ++e) {
        PyArrayObject *entry = ENTRY(table, e);
        addresses[e] = (npy_intp)PyArray_DATA(entry);
        strides[e] = PyArray_STRIDES(entry)[0];
        contiguous &= (PyArray_FLAGS(entry) & NPY_ARRAY_C_CONTIGUOUS) != 0;
    }
    return contiguous;
}

/* Every C twin has this signature, with each operand's pointer as void. */
typedef void (*kernel_fn)(long, double, const void *, long, const void *, long,
                          double, void *, long, long, long, long);

/* A flat operand's ndarray and its dtype, length and stride when bound;
   array is NULL for a table. */
typedef struct {
    PyObject *array, *dtype;
    npy_intp length, stride;
} flat_buffer;

typedef struct {
    kernel_fn kernel;
    long E;
    const void *A, *B;
    void *C;
    long lda, ldb, ldc, spanA, spanB, spanC;
    flat_buffer flat[3];
    PyObject *writable; /* C's table, or a 1-tuple of C's buffer */
    long long *counts;  /* the kernel's compiled calls and elements */
} prepared_call;

static int changed(const flat_buffer *flat) {
    const PyArrayObject *array = (const PyArrayObject *)flat->array;
    return array != NULL
        && ((PyObject *)PyArray_DESCR(array) != flat->dtype || PyArray_NDIM(array) != 1
            || PyArray_DIMS(array)[0] != flat->length
            || PyArray_STRIDES(array)[0] != flat->stride);
}

Py_ssize_t run_prepared(prepared_call *call, double alpha, double beta) {
    for (int i = 0; i < 3; ++i)
        if (changed(&call->flat[i]))
            return -2;
    Py_ssize_t entry = first_read_only(call->writable);
    if (entry >= 0)
        return entry;
    Py_BEGIN_ALLOW_THREADS
    call->kernel(call->E, alpha, call->A, call->lda, call->B, call->ldb,
                 beta, call->C, call->ldc, call->spanA, call->spanB, call->spanC);
    Py_END_ALLOW_THREADS
    call->counts[0] += 1;
    call->counts[1] += call->E;
    return -1;
}
"""


class _FlatBuffer(ctypes.Structure):
    """A flat operand's ndarray, dtype, length and stride as bound; no array for a table."""

    _fields_ = [
        ("array", ctypes.py_object),
        ("dtype", ctypes.py_object),
        ("length", ctypes.c_ssize_t),
        ("stride", ctypes.c_ssize_t),
    ]


#: What ``run_prepared`` returns: a run made, or a flat buffer whose dtype,
#: shape or strides changed in place since ``bind``, with nothing run.
RAN, BUFFER_CHANGED = -1, -2


class _PreparedCall(ctypes.Structure):
    """A compiled call bound once, which the table reader's ``run_prepared`` runs.

    The C twin's address and every argument but alpha and beta; each flat
    operand's buffer with the dtype, length and stride it had; the buffers
    whose writable flags each run checks (C's table, or a 1-tuple of C's
    flat buffer); and the address of the kernel's two counters of compiled
    calls and elements, which each run bumps with the interpreter lock held.
    """

    _fields_ = [
        ("kernel", ctypes.c_void_p),
        ("E", ctypes.c_long),
        ("A", ctypes.c_void_p),
        ("B", ctypes.c_void_p),
        ("C", ctypes.c_void_p),
        *((name, ctypes.c_long) for name in ("lda", "ldb", "ldc", "spanA", "spanB", "spanC")),
        ("flat", _FlatBuffer * 3),
        ("writable", ctypes.py_object),
        ("counts", ctypes.POINTER(ctypes.c_longlong)),
    ]


@functools.cache
def _reader_includes() -> tuple[str, str] | None:
    """Directories holding ``Python.h`` and ``numpy/ndarraytypes.h``, or None when one is missing."""
    python, numpy = sysconfig.get_paths().get("include", ""), np.get_include()
    found = (Path(python) / "Python.h").is_file() and (
        Path(numpy) / "numpy" / "ndarraytypes.h"
    ).is_file()
    return (python, numpy) if found else None


def _load_table_reader():
    """The table reader's library, built into the cache when missing, with its ctypes signatures."""
    library = _build_and_load(
        "table_reader",
        _TABLE_READER_SOURCE,
        (*_CFLAGS, *(f"-I{include}" for include in _reader_includes())),
        ctypes.PyDLL,
        np.__version__,
    )
    library.first_read_only.argtypes = (ctypes.py_object,)
    library.first_read_only.restype = ctypes.c_ssize_t
    library.entries.argtypes = (ctypes.py_object, ctypes.c_void_p, ctypes.c_void_p)
    library.entries.restype = ctypes.c_int
    library.run_prepared.argtypes = (ctypes.POINTER(_PreparedCall), ctypes.c_double, ctypes.c_double)
    library.run_prepared.restype = ctypes.c_ssize_t
    return library


_reader: list = []
_reader_lock = threading.Lock()


def table_reader():
    """The compiled reader of pointer tables, or None where the compiled path may not build it.

    Its ``first_read_only(table)`` returns the index of the first entry
    whose writable flag is clear, or -1.  ``entries(table, addresses,
    strides)`` writes each entry's data address and byte stride into the
    intp arrays at those addresses, and returns 1 when every entry is
    C-contiguous by numpy's flag, else 0: every fact of
    :class:`~bbdgemm.core.PointerTable` but the shortest length, in one
    pass.  Both read numpy's array struct, so *table* must be a tuple of
    1-D ndarrays, and the build is keyed on the numpy version and both
    include directories.
    ``run_prepared(record, alpha, beta)`` is a whole compiled run of a
    :class:`_PreparedCall` that a kernel's ``bind`` built.  It returns
    :data:`BUFFER_CHANGED` if a flat operand's dtype, shape or strides
    changed since, then scans the record's C as ``first_read_only`` does and
    returns the first read-only entry's index; either way it has written
    nothing.  Otherwise it calls the C twin with the interpreter lock
    released, as ``ctypes.CDLL`` does, bumps the kernel's compiled counters
    with the lock held again, and returns :data:`RAN`.
    None when :func:`jit_enabled` is False or a header is missing; the
    reader is built or loaded on the first call that may use it.
    """
    if not jit_enabled() or _reader_includes() is None:
        return None
    if not _reader:
        with _reader_lock:
            if not _reader:
                _reader.append(_load_table_reader())
    return _reader[0]


def _pointer(array: np.ndarray) -> ctypes.c_void_p:
    """The address of *array*'s data, holding a reference to *array* so the memory outlives it."""
    return array.ctypes.data_as(ctypes.c_void_p)


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


def checked(run, payloads, kinds):
    """*run*, the call as a function of ``(alpha, beta)``, kept to a bound call's contract.

    *payloads* are A, B and C as a kernel takes them (a table as a
    :class:`~bbdgemm.core.PointerTable`), *kinds* their access kinds.  Each
    run returns False, with nothing run, when a flat operand's dtype, shape
    or strides changed in place since this call; refuses a read-only C,
    naming it, before *run* writes; otherwise runs *run* and returns True,
    as the table reader's ``run_prepared`` does in C.
    """
    flat = [
        (payload, (payload.dtype, payload.shape, payload.strides))
        for payload, kind in zip(payloads, kinds)
        if kind is not AccessKind.Indexed
    ]
    C, indexed_c = payloads[2], kinds[2] is AccessKind.Indexed
    reader = C._reader() if indexed_c else None

    def run_checked(alpha, beta):
        for buffer, bound in flat:
            if (buffer.dtype, buffer.shape, buffer.strides) != bound:
                return False
        if indexed_c:
            C.check_writable("C", reader)
        elif not C.flags.writeable:
            raise read_only_error("C")
        run(alpha, beta)
        return True

    return run_checked


class _PathCounts(Mapping):
    """A kernel's completed calls, or batch elements, per path, read live.

    The runs counted in Python, plus the compiled runs that the table
    reader's ``run_prepared`` counted in C, under ``"compiled"``.
    """

    def __init__(self, counted: Counter, compiled_counts, index: int):
        self._counted, self._compiled, self._index = counted, compiled_counts, index

    def _now(self) -> dict:
        now = dict(self._counted)
        in_c = self._compiled[self._index]
        if in_c:
            now["compiled"] = now.get("compiled", 0) + in_c
        return now

    def __getitem__(self, path: str) -> int:
        return self._now()[path]

    def __iter__(self):
        return iter(self._now())

    def __len__(self) -> int:
        return len(self._now())

    def __repr__(self) -> str:
        return repr(self._now())


def batch_kernel(name: str):
    """The wrapper of kernel *name*, built from the name alone: ``vectorize_batch_loop(name)()``."""
    return vectorize_batch_loop(name)()


def vectorize_batch_loop(name: str):
    """Decorator marking a generated kernel's batch loop for acceleration.

    *name* must be the kernel's own canonical name; the operand roles needed
    to stage pointer-table arguments, and the C twin, are recovered from it.
    The decorated function is the Python twin of the lanes and sequential
    paths; with none (:func:`batch_kernel`), their first bind generates it.
    Precondition: the operands are ones :func:`bbdgemm.runtime.run_batched`
    accepts (its module documents the contract), which a caller of the
    kernel itself must ensure.  Under that contract the decorated function
    gives exactly the undecorated one's results.  E <= 0 returns early and
    touches no memory on any path.  The wrapper's ``path_counts`` counts
    completed calls per path, and ``path_elements`` the batch elements
    those calls handled; both are read-only mappings that read the counts
    live.  Its ``bind`` takes the arguments but alpha and beta and returns
    the call as a function of ``(alpha, beta)``, its path chosen.  A kernel
    whose C twin fails to compile raises ``RuntimeError`` carrying the
    compiler's messages.
    """
    spec = parse_kernel_name(name)
    kinds = (spec.access_a, spec.access_b, spec.access_c)

    def decorate(py_fn=None):
        c_twin, py_twin = [], [] if py_fn is None else [py_fn]
        compile_lock = threading.Lock()
        # Runs counted in Python, under count_lock; run_prepared counts the
        # compiled runs it makes in compiled_counts, [calls, elements].
        counted_calls, counted_elements = Counter(), Counter()
        count_lock = threading.Lock()
        compiled_counts = (ctypes.c_longlong * 2)()

        def once(made, make):
            with compile_lock:
                if not made:
                    made.append(make(name))
            return made[0]

        def wrapper(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
            if E > 0 and not bind(E, A, lda, B, ldb, C, ldc, spanA, spanB, spanC)(alpha, beta):
                raise ValueError("a flat operand's dtype, shape or strides changed during the call")

        def bind(E, A, lda, B, ldb, C, ldc, spanA, spanB, spanC):
            """This call, E >= 1, as a function of ``(alpha, beta)``, its path chosen now.

            Whoever runs it keeps A, B and C alive while it keeps the
            function (tables made here for plain lists, and their address
            arrays, are kept by the function).  Each run keeps the contract
            of :func:`checked`: it returns False, with nothing run, when a
            flat operand's dtype, shape or strides changed since the bind;
            it refuses a read-only C buffer or entry, naming it, before any
            write; otherwise it stages what its path needs, writes C back,
            is counted in ``path_counts`` and ``path_elements``, and returns
            True.  On the compiled path with the table reader, each run is
            one call of the reader's ``run_prepared`` on a
            :class:`_PreparedCall` built here, which keeps that contract in C.
            """
            payloads = tuple(
                PointerTable(p) if kind is AccessKind.Indexed and not isinstance(p, PointerTable) else p
                for p, kind in zip((A, B, C), kinds)
            )
            lds, spans = (lda, ldb, ldc), (spanA, spanB, spanC)
            # Elements one matrix covers; a Strided operand's span may be longer.
            sizes = [matrix_span(spec, which, ld) for which, ld in zip("ABC", lds)]
            run = _bind_compiled(E, payloads, lds, spans, sizes) if jit_enabled() else None
            if run is not None:
                return run
            twin = once(py_twin, _python_twin)
            if kinds[2] is not AccessKind.Constant:
                path = "lanes"

                def run(alpha, beta):
                    _run_lanes(twin, E, alpha, payloads, lds, beta, spans, sizes)
            else:
                path = "sequential"

                def run(alpha, beta):
                    # A Constant C accumulates over the batch in order: the
                    # plain loop, on memoryviews, whose items are plain
                    # floats, faster here than numpy scalars.
                    args = [
                        [memoryview(m) for m in p] if kind is AccessKind.Indexed else memoryview(p)
                        for p, kind in zip(payloads, kinds)
                    ]
                    twin(E, alpha, args[0], lda, args[1], ldb, beta, args[2], ldc, *spans)

            return _kept(path, E, run, payloads)

        def _kept(path, E, run, payloads):
            """*run* counted under *path* after each run, and checked first (:func:`checked`)."""

            def counted(alpha, beta):
                run(alpha, beta)
                with count_lock:
                    counted_calls[path] += 1
                    counted_elements[path] += E

            return checked(counted, payloads, kinds)

        def _bind_compiled(E, payloads, lds, spans, sizes):
            """``run_in_c`` with the table reader, else the checked ctypes call; None for lanes.

            Pointers handed to C must address float64 memory long enough for
            every element the loop touches, (E-1)*span + size for a Strided
            operand, read in place: a flat buffer that is not, or a table
            whose entries are not all C-contiguous, gives None, and the next
            path serves.  An Indexed operand goes as its table's address
            array, read as X[e][off].
            """
            pointers = []
            for payload, kind, span, size in zip(payloads, kinds, spans, sizes):
                if kind is AccessKind.Indexed:
                    if not (len(payload) >= E and payload.flat_length() >= size and payload.contiguous):
                        return None
                    pointers.append(_pointer(payload.addresses))
                elif not (
                    (kind is not AccessKind.Strided or span >= size)
                    and flat_float64_buffers(
                        [payload], (E - 1) * span + size if kind is AccessKind.Strided else size
                    )
                    and payload.flags.c_contiguous
                ):
                    return None
                else:
                    pointers.append(_pointer(payload))
            fn = once(c_twin, _load_c_kernel)
            reader = table_reader()
            if reader is not None:
                indexed_c = kinds[2] is AccessKind.Indexed
                flat = [
                    _FlatBuffer() if kind is AccessKind.Indexed
                    else _FlatBuffer(payload, payload.dtype, len(payload), payload.strides[0])
                    for payload, kind in zip(payloads, kinds)
                ]
                record = _PreparedCall(
                    ctypes.cast(fn, ctypes.c_void_p), int(E), *pointers,
                    *(int(x) for x in (*lds, *spans)), (_FlatBuffer * 3)(*flat),
                    payloads[2] if indexed_c else (payloads[2],), compiled_counts,
                )
                # The record holds C's table or buffer and flat buffers, but
                # only the values of A's and B's pointers: it keeps what they
                # point into, the address arrays, and the tables.
                record.keep = pointers, payloads
                run_prepared = reader.run_prepared

                def run_in_c(alpha, beta):
                    code = run_prepared(record, alpha, beta)
                    if code == RAN:
                        return True
                    if code == BUFFER_CHANGED:
                        return False
                    raise read_only_error("C", code if indexed_c else None)

                return run_in_c
            e, lda, ldb, ldc, spanA, spanB, spanC = (
                ctypes.c_long(int(x)) for x in (E, *lds, *spans)
            )
            A, B, C = pointers

            def run(alpha, beta):
                fn(e, float(alpha), A, lda, B, ldb, float(beta), C, ldc, spanA, spanB, spanC)

            return _kept("compiled", E, run, payloads)

        def _run_lanes(twin, E, alpha, payloads, lds, beta, spans, sizes) -> None:
            lanes = [
                None if kind is AccessKind.Constant else _stage_lanes(payload, kind, E, span, size)
                for payload, kind, span, size in zip(payloads, kinds, spans, sizes)
            ]
            # With E == 1 the kernel's A[e*spanA+off] and B[e][off] address
            # row off of the lane arrays, so each statement runs on E lanes.
            args = [
                memoryview(payload) if kind is AccessKind.Constant
                else [rows] if kind is AccessKind.Indexed
                else rows
                for payload, kind, rows in zip(payloads, kinds, lanes)
            ]
            twin(1, alpha, args[0], lds[0], args[1], lds[1], beta, args[2], lds[2], *spans)
            if kinds[2] is AccessKind.Indexed:
                _scatter(payloads[2], lanes[2].T, sizes[2])
            else:
                _strided_rows(payloads[2], E, spans[2], sizes[2], writeable=True)[...] = lanes[2].T

        wrapper.__name__ = wrapper.__qualname__ = name
        if py_fn is not None:
            wrapper.__wrapped__ = py_fn
        wrapper.bind = bind
        wrapper.path_counts = _PathCounts(counted_calls, compiled_counts, 0)
        wrapper.path_elements = _PathCounts(counted_elements, compiled_counts, 1)
        return wrapper

    return decorate
