"""Shape and access-kind vocabulary shared by every other module.

A batched kernel is fully identified by a :class:`KernelSpec`: memory layout,
the (N, M, K) problem shape, and one access kind per operand.  The spec maps
one-to-one onto a kernel name such as ``bbdgemm_ColMajor_2_3_4_cis``; the
name is the key used by manifests, the dispatch table, and the CLI.
:func:`is_decimal` and :func:`flat_float64_buffers` are the token and buffer
tests that the parsers, the operand checks and the oracle share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

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
    "operand_dims",
    "matrix_span",
    "is_decimal",
    "flat_float64_buffers",
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

    @property
    def suffix(self) -> str:
        return self.value

    @classmethod
    def from_suffix(cls, letter: str) -> "AccessKind":
        try:
            return cls(letter)
        except ValueError:
            raise KernelNameError(f"unknown access suffix letter {letter!r}") from None


def is_decimal(token: str) -> bool:
    """True when *token* is ASCII decimal digits ``[0-9]+``, the one spelling of a dimension.

    ``str.isdigit`` alone also accepts digits such as ``²`` and ``４``.
    """
    return token.isascii() and token.isdigit()


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
        and min(map(len, buffers), default=size) >= size
    )


class KernelNameError(ValueError):
    """Raised when a kernel name does not follow the naming grammar."""


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
        return self.access_a.suffix + self.access_b.suffix + self.access_c.suffix

    def access(self, which: str) -> AccessKind:
        _check_operand(which)
        return {"A": self.access_a, "B": self.access_b, "C": self.access_c}[which]

    @property
    def name(self) -> str:
        return kernel_name(self)


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


def parse_kernel_name(name: str) -> KernelSpec:
    """Inverse of :func:`kernel_name`.

    Raises :class:`KernelNameError` identifying the offending token when the
    name does not follow the grammar.
    """
    parts = name.split("_")
    if len(parts) != 6:
        raise KernelNameError(
            f"expected 6 underscore-separated fields in kernel name, got {len(parts)} in {name!r}"
        )
    prefix, layout_token, n_token, m_token, k_token, access_token = parts
    if prefix != "bbdgemm":
        raise KernelNameError(f"bad kernel name prefix {prefix!r} (expected 'bbdgemm')")
    try:
        layout = Layout(layout_token)
    except ValueError:
        raise KernelNameError(f"unknown layout {layout_token!r}") from None

    dims = []
    for label, token in (("N", n_token), ("M", m_token), ("K", k_token)):
        if not is_decimal(token):
            raise KernelNameError(f"dimension {label} is not a decimal integer: {token!r}")
        value = int(token)
        if value < 1:
            raise KernelNameError(f"dimension {label} must be >= 1, got {token!r}")
        if token != str(value):
            # Reject zero-padded forms like "07": they would break round-tripping.
            raise KernelNameError(f"dimension {label} is zero-padded: {token!r}")
        dims.append(value)

    if len(access_token) != 3:
        raise KernelNameError(
            f"access suffix must be exactly 3 letters for A, B, C, got {access_token!r}"
        )
    kinds = [AccessKind.from_suffix(letter) for letter in access_token]
    return KernelSpec(layout, KernelShape(*dims), *kinds)


def operand_dims(spec: KernelSpec, which: str) -> OperandDims:
    """Dimensions of operand *which*: A is n x k, B is k x m, C is n x m."""
    _check_operand(which)
    s = spec.shape
    rows, cols = {"A": (s.n, s.k), "B": (s.k, s.m), "C": (s.n, s.m)}[which]
    min_ld = rows if spec.layout is Layout.ColMajor else cols
    return OperandDims(rows=rows, cols=cols, min_ld=min_ld)


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
