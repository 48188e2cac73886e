"""Shape and access-kind vocabulary shared by every other module.

A batched kernel is fully identified by a :class:`KernelSpec`: memory layout,
the (N, M, K) problem shape, and one access kind per operand.  The spec maps
one-to-one onto a kernel name such as ``bbdgemm_ColMajor_2_3_4_cis``; the
name is the key used by manifests, the dispatch table, and the CLI, and
:func:`parse_spec_fields` is the one grammar of its fields, which names,
manifests and chain files share.  :func:`flat_float64_buffers` is the
buffer test that the operand checks and the oracle share;
:class:`PointerTable` is an Indexed operand's table of buffers as a value;
:func:`sort_extents` finds overlap in byte extents, the contract's one rule.
"""

from __future__ import annotations

import enum
import functools
import threading
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Sequence

import numpy as np

__all__ = [
    "Layout",
    "AccessKind",
    "KernelShape",
    "KernelSpec",
    "OperandDims",
    "KernelNameError",
    "kernel_name",
    "parse_kernel_name",
    "parse_spec_fields",
    "operand_dims",
    "matrix_span",
    "flat_float64_buffers",
    "PointerTable",
    "read_only_error",
    "sort_extents",
    "OPERANDS",
]

#: Operand selectors, in the order their access suffixes appear in a name.
OPERANDS = ("A", "B", "C")


class Layout(enum.Enum):
    """Dense matrix storage order.

    ColMajor puts element (row r, col c) at offset ``c*ld + r``; RowMajor
    puts it at ``r*ld + c``.
    """

    ColMajor = "ColMajor"
    RowMajor = "RowMajor"


class AccessKind(enum.Enum):
    """How the E matrices of one batched operand are addressed.

    Constant: a single matrix shared by every batch element.
    Strided:  elements contiguous, element e at ``base + e*span``.
    Indexed:  elements reached through a pointer table of length E.
    """

    Constant = "c"
    Strided = "s"
    Indexed = "i"


_FLOAT64, _FLAT = {np.dtype(np.float64)}, {1}
_DTYPE, _NDIM = attrgetter("dtype"), attrgetter("ndim")


def flat_float64_buffers(buffers, size: int = 0) -> bool:
    """True when every buffer is a 1-D float64 ndarray of at least *size* elements.

    Each property is read by one C-level scan of the sequence, so no Python
    frame runs per buffer; a caller that must name the first bad buffer walks
    the sequence again only after this returns False.  True when empty.
    """
    return (
        all(map(isinstance, buffers, repeat(np.ndarray)))
        and _FLOAT64.issuperset(map(_DTYPE, buffers))
        and _FLAT.issuperset(map(_NDIM, buffers))
        and (size <= 0 or min(map(len, buffers), default=size) >= size)
    )


_ADDRESS, _STRIDES, _CONTIGUOUS, _WRITEABLE = (
    attrgetter("ctypes.data"), attrgetter("strides"), attrgetter("flags.c_contiguous"),
    attrgetter("flags.writeable"),
)

class PointerTable(tuple):
    """An Indexed operand's pointer table as a value: a tuple of its entries.

    Building one snapshots any sequence of buffers; a later change to that
    sequence does not reach the table.  Facts about the entries are computed
    on first use, once, under a lock, and cached on the value: the shortest
    length if every entry is a flat float64 ndarray, then each entry's
    address and stride and whether all are C-contiguous, and the sorted byte
    extents of its matrices per span.  They stay true as long as no entry is
    resized or reshaped in place.  Writability is not among them, since a
    flag can be flipped between calls: :meth:`check_writable` scans it every
    time.  The address array is what a compiled kernel reads as its
    ``double **`` argument.  Where the compiled path is on, the flags, the
    addresses and the strides are read by one compiled pass over the entries
    (:func:`bbdgemm.vectorize.table_reader`), about 1 ns per entry, so a
    compiled kernel reads even a table built for one call in place.
    """

    def __new__(cls, entries=()):
        table = super().__new__(cls, entries)
        table._lock = threading.RLock()
        table._facts = {}
        return table

    def __reduce__(self):
        # A copy or an unpickled table holds other buffers: its facts are
        # computed afresh, never carried over.
        return PointerTable, (tuple(self),)

    def _fact(self, key, compute):
        facts = self._facts
        if key not in facts:
            with self._lock:
                if key not in facts:
                    facts[key] = compute()
        return facts[key]

    def flat_length(self) -> int:
        """Shortest entry length when every entry is a flat float64 ndarray, else -1."""
        return self._fact(
            "flat_length",
            lambda: min(map(len, self), default=0) if flat_float64_buffers(self) else -1,
        )

    def _reader(self):
        """:func:`~bbdgemm.vectorize.table_reader` where every entry is an ndarray, else None."""
        if self.flat_length() < 0:
            return None
        # Imported at call time, since that module imports this one.
        from .vectorize import table_reader

        return table_reader()

    def check_writable(self, which: str, reader) -> None:
        """Raise ``ValueError`` naming the first entry of operand *which* that is read-only.

        One scan of the entries' flags per call, never cached: by *reader*,
        this table's :meth:`_reader` (a bound call resolves it once), or
        where that is None by ``map`` over the entries, which builds a numpy
        ``flags`` object per entry (about 70 ns each) and walks them again
        only to name the one at fault.
        """
        if reader is not None:
            entry = reader.first_read_only(self)
        elif all(map(_WRITEABLE, self)):
            entry = -1
        else:
            entry = list(map(_WRITEABLE, self)).index(False)
        if entry >= 0:
            raise read_only_error(which, entry)

    # The facts below assume flat_length() >= 0: every entry is a flat float64 ndarray.

    def _entries(self) -> tuple[np.ndarray, np.ndarray, bool]:
        """``(addresses, strides, contiguous)``: the reader's one pass, else a Python scan per fact."""

        def compute():
            reader = self._reader()
            if reader is None:
                return (
                    np.fromiter(map(_ADDRESS, self), np.intp, len(self)),
                    np.fromiter(chain.from_iterable(map(_STRIDES, self)), np.intp, len(self)),
                    all(map(_CONTIGUOUS, self)),
                )
            addresses, strides = np.empty(len(self), np.intp), np.empty(len(self), np.intp)
            contiguous = reader.entries(self, addresses.ctypes.data, strides.ctypes.data)
            return addresses, strides, bool(contiguous)

        return self._fact("entries", lambda: _read_only(compute()))

    @property
    def addresses(self) -> np.ndarray:
        """intp array: the address of each entry's first element."""
        return self._entries()[0]

    @property
    def strides(self) -> np.ndarray:
        """intp array: each entry's stride in bytes."""
        return self._entries()[1]

    @property
    def contiguous(self) -> bool:
        """True when every entry is C-contiguous, so ``entry[off]`` is at ``address + 8*off``."""
        return self._entries()[2]

    def extents(self, span: int) -> tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)``: the bytes ``entry[:span]`` spans, per entry, in table order."""
        first = self.addresses
        last = first + (span - 1) * self.strides
        return np.minimum(first, last), np.maximum(first, last) + 8

    def sorted_extents(self, span: int):
        """:func:`sort_extents` of :meth:`extents`, cached per span."""
        return self._fact(
            ("sorted_extents", span), lambda: _read_only(sort_extents(*self.extents(span)))
        )


def read_only_error(which: str, entry: int | None = None) -> ValueError:
    """The refusal of operand *which*: its table entry *entry*, or its flat buffer if None, is read-only."""
    where = "buffer" if entry is None else f"table entry {entry}"
    return ValueError(f"operand {which}: {where} is read-only")


def _read_only(fact):
    """*fact* with every ndarray in it made read-only, since all callers share it."""
    for array in fact if isinstance(fact, tuple) else (fact,):
        if isinstance(array, np.ndarray):
            array.flags.writeable = False
    return fact


def sort_extents(lo: np.ndarray, hi: np.ndarray):
    """``(lo, hi, clash)``: byte extents sorted by ``lo``, and the first overlap.

    *clash* is None when the extents are pairwise disjoint, else the
    ascending pair of the indices whose extents overlap first in address
    order.
    """
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    clash = np.flatnonzero(lo[1:] < hi[:-1])
    pair = tuple(sorted(order[clash[0] : clash[0] + 2].tolist())) if clash.size else None
    return lo, hi, pair


class KernelNameError(ValueError):
    """Raised when a kernel name or a spec's fields do not follow the naming grammar.

    *field* is the index (0-4) of the offending field among ``<Layout> <N>
    <M> <K> <abc>``, or None when the error covers the whole name.
    """

    def __init__(self, message: str, field: int | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class KernelShape:
    """Problem shape: C is n x m, A is n x k, B is k x m."""

    n: int
    m: int
    k: int

    def __post_init__(self) -> None:
        for field in ("n", "m", "k"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"shape dimension {field} must be a positive integer, got {value!r}")

    @property
    def volume(self) -> int:
        return self.n * self.m * self.k


@dataclass(frozen=True)
class KernelSpec:
    """Identity of one generated kernel: layout, shape, per-operand access."""

    layout: Layout
    shape: KernelShape
    access_a: AccessKind
    access_b: AccessKind
    access_c: AccessKind

    def __post_init__(self) -> None:
        if not isinstance(self.layout, Layout):
            raise ValueError(f"layout must be a Layout, got {self.layout!r}")
        if not isinstance(self.shape, KernelShape):
            raise ValueError(f"shape must be a KernelShape, got {self.shape!r}")
        for field in ("access_a", "access_b", "access_c"):
            value = getattr(self, field)
            if not isinstance(value, AccessKind):
                raise ValueError(f"{field} must be an AccessKind, got {value!r}")

    @property
    def access_string(self) -> str:
        """Three suffix letters, always in A, B, C order."""
        return self.access_a.value + self.access_b.value + self.access_c.value

    def access(self, which: str) -> AccessKind:
        _check_operand(which)
        return {"A": self.access_a, "B": self.access_b, "C": self.access_c}[which]

    @property
    def name(self) -> str:
        return kernel_name(self)

    @functools.cached_property
    def _operand_dims(self) -> dict[str, OperandDims]:
        # Derived once per spec value: a run_batched call reads them several times.
        s = self.shape
        dims = {}
        for which, (rows, cols) in zip(OPERANDS, ((s.n, s.k), (s.k, s.m), (s.n, s.m))):
            min_ld = rows if self.layout is Layout.ColMajor else cols
            dims[which] = OperandDims(rows=rows, cols=cols, min_ld=min_ld)
        return dims


@dataclass(frozen=True)
class OperandDims:
    """Row/column extent of one operand plus its minimal leading dimension."""

    rows: int
    cols: int
    min_ld: int


def _check_operand(which: str) -> None:
    if which not in OPERANDS:
        raise ValueError(f"operand selector must be one of {OPERANDS}, got {which!r}")


def kernel_name(spec: KernelSpec) -> str:
    """Return the canonical kernel name for *spec*.

    Format: ``bbdgemm_<Layout>_<N>_<M>_<K>_<abc>`` with decimal dimensions
    and the access suffixes for A, B, C in that order.
    """
    s = spec.shape
    return f"bbdgemm_{spec.layout.value}_{s.n}_{s.m}_{s.k}_{spec.access_string}"


def parse_spec_fields(fields: Sequence[str]) -> KernelSpec:
    """The :class:`KernelSpec` of the five fields ``<Layout> <N> <M> <K> <abc>``.

    This is the one grammar of a spec: kernel names, manifest lines and
    chain file lines all read their fields here.  The layout is a
    :class:`Layout`; each dimension is ASCII decimal, at least 1 and not
    zero-padded, so that every spec has one spelling; the access is three
    of ``c``/``s``/``i``, for A, B and C.  Raises :class:`KernelNameError`
    whose ``field`` is the index of the first offending field.
    """
    layout_token, n_token, m_token, k_token, access_token = fields
    try:
        layout = Layout(layout_token)
    except ValueError:
        raise KernelNameError(f"unknown layout {layout_token!r}", 0) from None
    dims = []
    for field, (label, token) in enumerate(zip("NMK", (n_token, m_token, k_token)), start=1):
        # ASCII digits only: str.isdigit alone also accepts digits such as ² and ４.
        if not (token.isascii() and token.isdigit()):
            raise KernelNameError(f"dimension {label} is not a decimal integer: {token!r}", field)
        value = int(token)
        if value < 1:
            raise KernelNameError(f"dimension {label} must be >= 1, got {token!r}", field)
        if token != str(value):
            raise KernelNameError(f"dimension {label} is zero-padded: {token!r}", field)
        dims.append(value)
    if len(access_token) != 3 or not set(access_token) <= {"c", "s", "i"}:
        raise KernelNameError(f"access string must be three of c/s/i, got {access_token!r}", 4)
    return KernelSpec(layout, KernelShape(*dims), *map(AccessKind, access_token))


def parse_kernel_name(name: str) -> KernelSpec:
    """Inverse of :func:`kernel_name`: the prefix, then :func:`parse_spec_fields`.

    Raises :class:`KernelNameError` identifying the offending field when the
    name does not follow the grammar.
    """
    parts = name.split("_")
    if len(parts) != 6:
        raise KernelNameError(
            f"expected 6 underscore-separated fields in kernel name, got {len(parts)} in {name!r}"
        )
    if parts[0] != "bbdgemm":
        raise KernelNameError(f"bad kernel name prefix {parts[0]!r} (expected 'bbdgemm')")
    return parse_spec_fields(parts[1:])


def operand_dims(spec: KernelSpec, which: str) -> OperandDims:
    """Dimensions of operand *which*: A is n x k, B is k x m, C is n x m."""
    _check_operand(which)
    return spec._operand_dims[which]


def matrix_span(spec: KernelSpec, which: str, ld: int) -> int:
    """Scalar slots one batch element occupies in a Strided operand.

    ColMajor spans ``cols*ld``; RowMajor spans ``rows*ld``.  *ld* must be at
    least the operand's minimal leading dimension.
    """
    dims = operand_dims(spec, which)
    if ld < dims.min_ld:
        raise ValueError(
            f"leading dimension {ld} below minimum {dims.min_ld} for operand {which} of {kernel_name(spec)}"
        )
    if spec.layout is Layout.ColMajor:
        return dims.cols * ld
    return dims.rows * ld
