"""Kernel source generation, manifests, dispatch tables, register pressure.

Each kernel is emitted as one Python module holding one fully-unrolled,
shape-specialized function: a single loop over the batch index ``e`` whose
body loads every operand element into a named local, runs every
multiply-accumulate in ascending-k order, applies alpha, then combines with
beta and stores.  There are no inner loops over the matrix dimensions and no
platform-specific constructs; the only concession to speed is the portable
:func:`bbdgemm.vectorize.vectorize_batch_loop` hint on the loop function.

The same kernel is also printed as one C function
(:func:`generate_c_source`), which the hint compiles on first use.  Both
printers emit one statement list, so the two forms make the same roundings
in the same order.

Generation is deterministic: the same spec always yields byte-identical
source, and dispatch tables preserve manifest order.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .core import (
    AccessKind,
    KernelShape,
    KernelSpec,
    Layout,
    is_decimal,
    kernel_name,
)

__all__ = [
    "DEFAULT_MAX_DIM",
    "KernelManifest",
    "ManifestError",
    "MachineModel",
    "PressureReport",
    "SPEC_FIELDS",
    "spec_lines",
    "parse_spec_tokens",
    "parse_manifest",
    "generate_kernel_source",
    "generate_c_source",
    "generate_dispatch_source",
    "write_kernel_package",
    "estimate_pressure",
    "pressure_report_rows",
]

#: Per-dimension cap on generated shapes; unbounded unrolling is unusable.
DEFAULT_MAX_DIM = 64

_GENERATED_HEADER = "# Generated by genkernels. Do not edit by hand.\n"


class ManifestError(ValueError):
    """Manifest syntax/validation error with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class KernelManifest:
    """Ordered, duplicate-free list of kernel specs to build."""

    entries: tuple[KernelSpec, ...]
    source: str = "<memory>"

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for spec in self.entries:
            name = kernel_name(spec)
            if name in seen:
                raise ValueError(f"duplicate kernel spec in manifest: {name}")
            seen.add(name)

    def names(self) -> tuple[str, ...]:
        return tuple(kernel_name(spec) for spec in self.entries)


_TOKEN = re.compile(r"\S+")

#: Fields of one manifest line; a chain file line starts with the same five.
SPEC_FIELDS = "Layout N M K abc"


def spec_lines(text: str, fields: str) -> Iterator[tuple[int, list[re.Match]]]:
    """Yield ``(line number, tokens)`` for each non-blank line of *text*.

    ``#`` starts a comment; skipped lines still count in line numbers.  Each
    line must hold one token per whitespace-separated name in *fields*.
    Tokens are ``re.Match`` objects so callers can report columns.
    """
    count = len(fields.split())
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        tokens = list(_TOKEN.finditer(line))
        if not tokens:
            continue
        if len(tokens) != count:
            column = tokens[count].start() + 1 if len(tokens) > count else len(line.rstrip()) + 1
            raise ManifestError(
                f"expected {count} fields ({fields}), got {len(tokens)}", lineno, column
            )
        yield lineno, tokens


def parse_spec_tokens(tokens: Sequence[re.Match], lineno: int) -> KernelSpec:
    """The :class:`KernelSpec` named by a line's ``<Layout> <N> <M> <K> <abc>`` tokens.

    Dimensions are ASCII decimal integers >= 1.  Raises :class:`ManifestError`
    at the offending token's line and column.
    """
    layout_tok, n_tok, m_tok, k_tok, access_tok = tokens
    try:
        layout = Layout(layout_tok.group())
    except ValueError:
        raise ManifestError(
            f"unknown layout {layout_tok.group()!r}", lineno, layout_tok.start() + 1
        ) from None
    dims = []
    for label, tok in (("N", n_tok), ("M", m_tok), ("K", k_tok)):
        value_text = tok.group()
        if not is_decimal(value_text):
            raise ManifestError(
                f"{label} is not a decimal integer: {value_text!r}", lineno, tok.start() + 1
            )
        value = int(value_text)
        if value < 1:
            raise ManifestError(f"{label} must be >= 1", lineno, tok.start() + 1)
        dims.append(value)
    access_text = access_tok.group()
    if len(access_text) != 3 or any(ch not in "csi" for ch in access_text):
        raise ManifestError(
            f"access string must be three of c/s/i, got {access_text!r}",
            lineno,
            access_tok.start() + 1,
        )
    return KernelSpec(layout, KernelShape(*dims), *(AccessKind(ch) for ch in access_text))


def parse_manifest(text: str, source: str = "<memory>") -> KernelManifest:
    """Parse manifest text: one ``<Layout> <N> <M> <K> <abc>`` spec per line.

    ``#`` starts a comment and blank lines are ignored.  Errors carry the
    offending line and column.
    """
    entries: list[KernelSpec] = []
    seen: dict[str, int] = {}
    for lineno, tokens in spec_lines(text, SPEC_FIELDS):
        spec = parse_spec_tokens(tokens, lineno)
        name = kernel_name(spec)
        if name in seen:
            raise ManifestError(
                f"duplicate spec {name} (first on line {seen[name]})", lineno, tokens[0].start() + 1
            )
        seen[name] = lineno
        entries.append(spec)
    return KernelManifest(tuple(entries), source=source)


class _Statement(NamedTuple):
    """One statement of a kernel's loop body, in no particular language.

    *form* selects the template a printer uses; *var* is the local it assigns
    (for ``store``, the local it stores), *args* the other locals it reads,
    and *operand*/*offset* the matrix element it loads or stores, if any.
    """

    form: str
    var: str
    args: tuple[str, ...] = ()
    operand: str | None = None
    offset: str | None = None


#: Statement templates per language: ``{0}`` is *var*, ``{1}``... are *args*,
#: ``{x}`` is the element expression.  Both sides of every ``+`` and ``*``
#: are in the same order in each language, so each rounds the same way.
_PYTHON_FORMS = {
    "load": "{0} = {x}",
    "zero": "{0} = 0.0",
    "madd": "{0} = {1} * {2} + {0}",
    "scale": "{0} = {0} * alpha",
    "read_c": "{0} = {x} if beta != 0.0 else 0.0",
    "combine": "{0} = {1} * beta + {0}",
    "store": "{x} = {0}",
}
_C_FORMS = {
    "load": "const double {0} = {x};",
    "zero": "double {0} = 0.0;",
    "madd": "{0} = {1} * {2} + {0};",
    "scale": "{0} = {0} * alpha;",
    "read_c": "const double {0} = beta != 0.0 ? {x} : 0.0;",
    "combine": "{0} = {1} * beta + {0};",
    "store": "{x} = {0};",
}


def _offset_expr(layout: Layout, r: int, c: int, ld_var: str) -> str:
    if layout is Layout.ColMajor:
        return f"({c}*{ld_var}+{r})"
    return f"({r}*{ld_var}+{c})"


def _load_expr(kind: AccessKind, operand: str, offset: str) -> str:
    """Batch element e's entry *offset* of *operand*, the same in every language."""
    if kind is AccessKind.Constant:
        return f"{operand}[{offset}]"
    if kind is AccessKind.Strided:
        return f"{operand}[e*span{operand}+{offset}]"
    return f"{operand}[e][{offset}]"


def _c_parameter(spec: KernelSpec, operand: str) -> str:
    """C declaration of *operand*: a pointer to doubles, or to an Indexed table's pointers."""
    const = "" if operand == "C" else "const "
    if spec.access(operand) is AccessKind.Indexed:
        return f"{const}double *const *restrict {operand}"
    return f"{const}double *restrict {operand}"


def _kernel_statements(
    spec: KernelSpec, max_dim: int
) -> tuple[list[_Statement], list[_Statement]]:
    """*spec*'s arithmetic as ``(before the batch loop, loop body)`` statements.

    This is the one definition of a kernel: every printer emits these
    statements in this order.  Accumulators are visited column-outer and
    summed in ascending k, so the summation order (and hence the bit
    pattern of the result) is fixed; beta == 0 never reads C.
    """
    shape = spec.shape
    if max(shape.n, shape.m, shape.k) > max_dim:
        raise ValueError(
            f"shape {shape.n}x{shape.m}x{shape.k} exceeds the per-dimension bound {max_dim}; "
            f"raise max_dim only if the unrolled output size is acceptable"
        )
    layout = spec.layout
    n, m, k = shape.n, shape.m, shape.k

    def loads(operand: str, rows: int, cols: int, ld_var: str) -> list[_Statement]:
        return [
            _Statement("load", f"v{operand}_{r}_{c}", (), operand, _offset_expr(layout, r, c, ld_var))
            for r in range(rows)
            for c in range(cols)
        ]

    # A constant across the batch only needs scalar slots: load it once.
    before = loads("A", n, k, "lda") if spec.access_a is AccessKind.Constant else []
    body = ([] if before else loads("A", n, k, "lda")) + loads("B", k, m, "ldb")
    for c in range(m):
        for r in range(n):
            acc = f"rC_{r}_{c}"
            body.append(_Statement("zero", acc))
            body += [_Statement("madd", acc, (f"vA_{r}_{t}", f"vB_{t}_{c}")) for t in range(k)]
            body.append(_Statement("scale", acc))
    for c in range(m):
        for r in range(n):
            acc, old = f"rC_{r}_{c}", f"vC_{r}_{c}"
            offset = _offset_expr(layout, r, c, "ldc")
            body += [
                _Statement("read_c", old, (), "C", offset),
                _Statement("combine", acc, (old,)),
                _Statement("store", acc, (), "C", offset),
            ]
    return before, body


def _print(statement: _Statement, forms: dict[str, str], spec: KernelSpec) -> str:
    """*statement* in the language of *forms*."""
    operand = statement.operand
    x = _load_expr(spec.access(operand), operand, statement.offset) if operand else ""
    return forms[statement.form].format(statement.var, *statement.args, x=x)


def generate_kernel_source(spec: KernelSpec, max_dim: int = DEFAULT_MAX_DIM) -> str:
    """Emit the Python module implementing *spec* as one unrolled kernel.

    Its signature is ``(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA,
    spanB, spanC)``: batch element e of a Strided operand X starts at
    ``X[e*spanX]``, and a Constant or Indexed operand's span is unused.
    """
    before, body = _kernel_statements(spec, max_dim)
    name = kernel_name(spec)
    out: list[str] = []
    out.append(_GENERATED_HEADER.rstrip("\n"))
    out.append("")
    out.append("from bbdgemm.vectorize import vectorize_batch_loop")
    out.append("")
    out.append("")
    out.append(f'@vectorize_batch_loop("{name}")')
    out.append(f"def {name}(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):")
    out += [f"    {_print(s, _PYTHON_FORMS, spec)}" for s in before]
    out.append("    for e in range(E):")
    out += [f"        {_print(s, _PYTHON_FORMS, spec)}" for s in body]
    out.append("")
    return "\n".join(out)


def generate_c_source(spec: KernelSpec, max_dim: int = DEFAULT_MAX_DIM) -> str:
    """Emit *spec*'s kernel as one C function, statement for statement.

    The function has :func:`generate_kernel_source`'s statements in its
    order, and the Python kernel's arguments::

        void <name>(long E, double alpha, <A>, long lda, <B>, long ldb,
                    double beta, <C>, long ldc, long spanA, long spanB, long spanC)

    A Constant or Strided operand X is ``const double *restrict X`` (C drops
    the ``const``): a Constant one is ``X[0:]`` for every element, and batch
    element e of a Strided one starts at ``X[e*spanX]``.  An Indexed operand
    is an array of matrix addresses, ``const double *const *restrict X``
    (for C, ``double *const *restrict C``), and element e is ``X[e][0:]``.
    A Constant or Indexed operand's span argument is unused.  ``restrict``
    holds under the operand contract: C is disjoint from A and B, which are
    only read.  Compiled without FP contraction or fast-math, every element
    gets the Python kernel's roundings in its order.
    """
    before, body = _kernel_statements(spec, max_dim)
    a, b, c = (_c_parameter(spec, operand) for operand in "ABC")
    out = [
        "/* Generated by bbdgemm. Do not edit by hand. */",
        "",
        f"void {kernel_name(spec)}(long E, double alpha, {a}, long lda, {b}, long ldb, "
        f"double beta, {c}, long ldc, long spanA, long spanB, long spanC)",
        "{",
    ]
    out += [f"    {_print(s, _C_FORMS, spec)}" for s in before]
    out.append("    for (long e = 0; e < E; e++) {")
    out += [f"        {_print(s, _C_FORMS, spec)}" for s in body]
    out += ["    }", "}", ""]
    return "\n".join(out)


def generate_dispatch_source(manifest: KernelManifest) -> str:
    """Emit the dispatch module mapping kernel names to generated functions."""
    names = manifest.names()
    out: list[str] = []
    out.append(_GENERATED_HEADER.rstrip("\n"))
    out.append('"""Dispatch table over the generated batched DGEMM kernels."""')
    out.append("")
    for name in names:
        out.append(f"from .{name} import {name}")
    if names:
        out.append("")
    out.append("")
    out.append("KERNELS = {")
    for name in names:
        out.append(f'    "{name}": {name},')
    out.append("}")
    out.append("")
    return "\n".join(out)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_kernel_package(
    manifest: KernelManifest, out_dir: str | Path, max_dim: int = DEFAULT_MAX_DIM
) -> list[Path]:
    """Write one module per kernel plus the dispatch ``__init__.py``.

    Files are written atomically (temp file + rename) so a crashed run never
    leaves a half-written module behind.  Returns the written paths.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for spec in manifest.entries:
        module_path = out_path / f"{kernel_name(spec)}.py"
        _write_atomic(module_path, generate_kernel_source(spec, max_dim=max_dim))
        written.append(module_path)
    init_path = out_path / "__init__.py"
    _write_atomic(init_path, generate_dispatch_source(manifest))
    written.append(init_path)
    return written


@dataclass(frozen=True)
class MachineModel:
    """Register-file sizes the pressure estimator reasons about."""

    vector_regs: int = 32
    scalar_fp_regs: int = 32

    def __post_init__(self) -> None:
        if self.vector_regs < 1 or self.scalar_fp_regs < 1:
            raise ValueError("register counts must be positive")

    @classmethod
    def x86_64_like(cls) -> "MachineModel":
        # Same vector register count but a smaller scalar FP file.
        return cls(vector_regs=32, scalar_fp_regs=16)


@dataclass(frozen=True)
class PressureReport:
    """Peak liveness estimate for one kernel under one machine model."""

    scalar_live: int
    vector_live: int
    predicted_spills: int


def estimate_pressure(spec: KernelSpec, model: MachineModel) -> PressureReport:
    """Static register-pressure heuristic for the unrolled loop body.

    Every B element and every C accumulator is live as a vector value across
    the whole body; A elements join them unless A is constant, in which case
    they only occupy scalar slots.  Spills are whatever does not fit:
    ``max(0, vector_live - vector_regs) + max(0, scalar_live - scalar_fp_regs)``.

    This is a peak-liveness model of the generated schema, not a compiler
    simulation: rematerialization and temporaries are ignored.  Its contract
    is monotonicity in the shape and a zero-spill small-shape regime, not
    exact per-compiler spill counts.
    """
    shape = spec.shape
    n, m, k = shape.n, shape.m, shape.k
    if spec.access_a is AccessKind.Constant:
        scalar_live = n * k
        vector_live = k * m + n * m
    else:
        scalar_live = 0
        vector_live = n * k + k * m + n * m
    predicted = max(0, vector_live - model.vector_regs) + max(
        0, scalar_live - model.scalar_fp_regs
    )
    return PressureReport(
        scalar_live=scalar_live, vector_live=vector_live, predicted_spills=predicted
    )


def pressure_report_rows(manifest: KernelManifest, model: MachineModel) -> list[dict]:
    """Per-kernel pressure rows for the ``--emit-report`` CSV."""
    rows = []
    for spec in manifest.entries:
        report = estimate_pressure(spec, model)
        rows.append(
            {
                "name": kernel_name(spec),
                "n": spec.shape.n,
                "m": spec.shape.m,
                "k": spec.shape.k,
                "access": spec.access_string,
                "scalar_live": report.scalar_live,
                "vector_live": report.vector_live,
                "predicted_spills": report.predicted_spills,
            }
        )
    return rows
