"""Kernel source generation, manifests, dispatch tables, register pressure.

Each kernel is emitted as one Python module holding one fully-unrolled,
shape-specialized function: a single loop over the batch index ``e`` whose
body loads every operand element into a named local, runs every
multiply-accumulate in ascending-k order, applies alpha, then combines with
beta and stores, each step over C's elements in the order C stores them.
There are no inner loops over the matrix dimensions and no
platform-specific constructs; the only concession to speed is the portable
:func:`bbdgemm.vectorize.vectorize_batch_loop` hint on the loop function.

The same kernel is also printed as one C function
(:func:`generate_c_source`), which the hint compiles on first use.  It is
explicitly vectorised within a batch element: each run of like statements
over a contiguous run of C becomes GNU C vector statements, so it needs a
compiler that accepts GNU vector extensions (gcc or clang).  Both printers
emit one statement list, and every element of C gets the same roundings in
the same order in both.

Generation is deterministic: the same spec always yields byte-identical
source, and dispatch tables preserve manifest order.  No generated module
ships: :func:`bbdgemm.vectorize.batch_kernel` builds a kernel from its name,
and ``genkernels`` writes kernel directories for ``load_kernel_dir``.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

from .core import (
    AccessKind,
    KernelNameError,
    KernelSpec,
    Layout,
    kernel_name,
    parse_spec_fields,
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
    "PRESSURE_REPORT_COLUMNS",
    "pressure_report_rows",
]

#: Per-dimension bound on generated shapes, the same for the Python kernel
#: and its C twin; unbounded unrolling is unusable.
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

    The grammar is :func:`~bbdgemm.core.parse_spec_fields`, the one kernel
    names follow.  Raises :class:`ManifestError` at the offending token's
    line and column.
    """
    try:
        return parse_spec_fields([tok.group() for tok in tokens])
    except KernelNameError as error:
        raise ManifestError(str(error), lineno, tokens[error.field].start() + 1) from None


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


#: One run of like statements, one per element of an accumulator group.
_Run = list[_Statement]


class _Group(NamedTuple):
    """The statements of one contiguous run of C's elements, as runs.

    *accumulate* is the zero run, one multiply-add run per t in ascending t,
    and the alpha run; *write* is the beta read run, the combine run and the
    store run.  Every run lists the group's elements in the same order.
    """

    accumulate: list[_Run]
    write: list[_Run]


#: Statement templates of the Python kernel: ``{0}`` is *var*, ``{1}``...
#: are *args*, ``{x}`` is the element expression.
_PYTHON_FORMS = {
    "load": "{0} = {x}",
    "zero": "{0} = 0.0",
    "madd": "{0} = {1} * {2} + {0}",
    "scale": "{0} = {0} * alpha",
    "read_c": "{0} = {x} if beta != 0.0 else 0.0",
    "combine": "{0} = {1} * beta + {0}",
    "store": "{x} = {0}",
}
#: The same templates for one chunk of a run in the C twin: ``{1}``, ``{2}``
#: are the madd's operand expressions, ``{t}`` the chunk's type and ``{z}``
#: its zero.  Both sides of every ``+`` and ``*`` are in the Python order,
#: so each element rounds the same way.
_C_FORMS = {
    "zero": "{t} {0} = {z};",
    "madd": "{0} = {1} * {2} + {0};",
    "scale": "{0} = {0} * alpha;",
    "read_c": "const {t} {0} = beta != 0.0 ? {x} : {z};",
    "combine": "{0} = {1} * beta + {0};",
    "store": "{x} = {0};",
}

#: Widths, in doubles, of the chunks the C twin splits a run into, widest first.
_CHUNK_WIDTHS = (8, 4, 2, 1)

#: Groups whose accumulations the C twin interleaves per t step, so that a
#: ColMajor column of A (a RowMajor row of B) loaded once serves each.  On
#: the proxy's kernels one, three, four and nine timed within 3% of two.
_GROUPS_PER_STEP = 2

#: Vector types of the C twin.  ``aligned(8)`` makes every vector load and
#: store unaligned-safe and ``may_alias`` lets them read and write doubles.
_C_VECTOR_TYPES = [
    f"typedef double v{w} __attribute__((vector_size({8 * w}), aligned(8), may_alias));"
    for w in _CHUNK_WIDTHS
    if w > 1
]


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


def _kernel_statements(spec: KernelSpec) -> tuple[list[_Statement], list[_Statement], list[_Group]]:
    """*spec*'s arithmetic: ``(loads before the batch loop, loads in it, groups)``.

    This is the one definition of a kernel.  Each accumulator ``rC_r_c``
    gets the same sequence: zero, one multiply-add per t in ascending t,
    alpha, the beta read of C (never reading C when beta == 0), combine,
    store.  That sequence fixes the bit pattern of the result; printers
    may only change the order across accumulators.  A group is one
    contiguous run of C's elements (the rows of one column for ColMajor,
    the columns of one row for RowMajor), so each run of a group's like
    statements reads one operand along contiguous memory (a column of A
    for ColMajor, a row of B for RowMajor) and the other at one element.
    A constant A is loaded once, before the loop.  A dimension above
    :data:`DEFAULT_MAX_DIM` raises ``ValueError``.
    """
    shape = spec.shape
    if max(shape.n, shape.m, shape.k) > DEFAULT_MAX_DIM:
        raise ValueError(
            f"shape {shape.n}x{shape.m}x{shape.k} exceeds the per-dimension bound {DEFAULT_MAX_DIM}"
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
    body_loads = ([] if before else loads("A", n, k, "lda")) + loads("B", k, m, "ldb")
    # (r, c) of C's elements, one group per contiguous run of C.
    if layout is Layout.ColMajor:
        cells = [[(r, c) for r in range(n)] for c in range(m)]
    else:
        cells = [[(r, c) for c in range(m)] for r in range(n)]
    groups = []
    for group in cells:
        accumulate = [[_Statement("zero", f"rC_{r}_{c}") for r, c in group]]
        for t in range(k):
            accumulate.append(
                [_Statement("madd", f"rC_{r}_{c}", (f"vA_{r}_{t}", f"vB_{t}_{c}")) for r, c in group]
            )
        accumulate.append([_Statement("scale", f"rC_{r}_{c}") for r, c in group])
        named = [(f"rC_{r}_{c}", f"vC_{r}_{c}", _offset_expr(layout, r, c, "ldc")) for r, c in group]
        write = [
            [_Statement("read_c", old, (), "C", offset) for _, old, offset in named],
            [_Statement("combine", acc, (old,)) for acc, old, _ in named],
            [_Statement("store", acc, (), "C", offset) for acc, _, offset in named],
        ]
        groups.append(_Group(accumulate, write))
    return before, body_loads, groups


def _print(statement: _Statement, spec: KernelSpec) -> str:
    """*statement* in Python."""
    operand = statement.operand
    x = _load_expr(spec.access(operand), operand, statement.offset) if operand else ""
    return _PYTHON_FORMS[statement.form].format(statement.var, *statement.args, x=x)


def generate_kernel_source(spec: KernelSpec) -> str:
    """Emit the Python module implementing *spec* as one unrolled kernel.

    Its signature is ``(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA,
    spanB, spanC)``: batch element e of a Strided operand X starts at
    ``X[e*spanX]``, and a Constant or Indexed operand's span is unused.
    The loop body loads every operand element into a local, then, group by
    group, zeroes, multiply-adds for each t and applies alpha; then, group
    by group, reads C, combines and stores.
    """
    before, body_loads, groups = _kernel_statements(spec)
    body = (
        body_loads
        + [s for group in groups for run in group.accumulate for s in run]
        + [s for group in groups for run in group.write for s in run]
    )
    name = kernel_name(spec)
    out: list[str] = []
    out.append(_GENERATED_HEADER.rstrip("\n"))
    out.append("")
    out.append("from bbdgemm.vectorize import vectorize_batch_loop")
    out.append("")
    out.append("")
    out.append(f'@vectorize_batch_loop("{name}")')
    out.append(f"def {name}(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):")
    out += [f"    {_print(s, spec)}" for s in before]
    out.append("    for e in range(E):")
    out += [f"        {_print(s, spec)}" for s in body]
    out.append("")
    return "\n".join(out)


def _chunks(run: _Run) -> Iterator[_Run]:
    """*run* split into consecutive chunks of :data:`_CHUNK_WIDTHS` statements, widest first."""
    start = 0
    while start < len(run):
        width = next(w for w in _CHUNK_WIDTHS if w <= len(run) - start)
        yield run[start : start + width]
        start += width


def _c_element(spec: KernelSpec, statement: _Statement, width: int) -> str:
    """The *width* elements of *statement*'s operand from its offset on: a double, or a vector."""
    x = _load_expr(spec.access(statement.operand), statement.operand, statement.offset)
    if width == 1:
        return x
    const = "" if statement.operand == "C" else "const "
    return f"*({const}v{width} *)&{x}"


def _lanes(local: str, width: int, widest: int) -> str:
    """The low *width* lanes of *local*, a vector of *widest* lanes: itself, a vector or a double."""
    if width == widest:
        return local
    if width == 1:
        return f"{local}[0]"
    return f"*(const v{width} *)&{local}"


def _print_chunk(
    chunk: _Run, located: dict[str, _Statement], spec: KernelSpec, broadcast: tuple[str, int] | None
) -> str:
    """One C statement doing *chunk*'s like statements on adjacent elements of C.

    A madd operand that changes along the chunk is read as one vector from
    its first element's address (*located* maps a local to its load); one
    that does not is read as a double, which C broadcasts, or, when it is
    *broadcast*'s ``(local, widest)``, as the low lanes of that vector local.
    """
    first, width = chunk[0], len(chunk)
    if first.form == "madd":
        args = [
            _lanes(arg, width, broadcast[1]) if broadcast and arg == broadcast[0]
            else _c_element(spec, located[arg], width if width > 1 and chunk[1].args[i] != arg else 1)
            for i, arg in enumerate(first.args)
        ]
    else:
        args = list(first.args)
    x = _c_element(spec, first, width) if first.operand else ""
    t, z = (f"v{width}", f"(v{width}){{0.0}}") if width > 1 else ("double", "0.0")
    return _C_FORMS[first.form].format(first.var, *args, x=x, t=t, z=z)


def _print_run(run: _Run, located: dict[str, _Statement], spec: KernelSpec) -> list[str]:
    """*run* in C: one statement per chunk.

    A madd run whose chunks have more than one width (20 = 8+8+4) first
    holds its broadcast operand in a vector local of the widest chunk's
    width, which every chunk reads, so the double is broadcast once, not
    once per width.
    """
    chunks = list(_chunks(run))
    widest = len(chunks[0])
    if run[0].form != "madd" or len(chunks[-1]) == widest:
        return [_print_chunk(chunk, located, spec, None) for chunk in chunks]
    local = next(arg for arg, other in zip(run[0].args, run[1].args) if arg == other)
    x = _c_element(spec, located[local], 1)
    return [f"const v{widest} {local} = {{{', '.join([x] * widest)}}};"] + [
        _print_chunk(chunk, located, spec, (local, widest)) for chunk in chunks
    ]


def generate_c_source(spec: KernelSpec) -> str:
    """Emit *spec*'s kernel as one C function, explicitly vectorised within a batch element.

    The function has the Python kernel's arguments::

        void <name>(long E, double alpha, <A>, long lda, <B>, long ldb,
                    double beta, <C>, long ldc, long spanA, long spanB, long spanC)

    A Constant or Strided operand X is ``const double *restrict X`` (C drops
    the ``const``): a Constant one is ``X[0:]`` for every element, and batch
    element e of a Strided one starts at ``X[e*spanX]``.  An Indexed operand
    is an array of matrix addresses, ``const double *const *restrict X``
    (for C, ``double *const *restrict C``), and element e is ``X[e][0:]``.
    A Constant or Indexed operand's span argument is unused.  ``restrict``
    holds under the operand contract: C is disjoint from A and B, which are
    only read.

    Each run of :func:`_kernel_statements`' like statements over a group is
    printed in chunks of 8, 4, 2 and 1 elements of C, each one statement on
    GNU C vectors (``v8``, ``v4``, ``v2``) or on a double: the operand
    along the group (a column of A for ColMajor, a row of B for RowMajor)
    is loaded as a vector from memory, unaligned, and the other is one
    double, broadcast.  Where a madd run's chunks have more than one width,
    that double is first held in a brace-initialised vector local of the
    widest width, and each chunk reads its low lanes.  Two groups are
    interleaved per t step, and each is read, combined and stored right
    after its alpha.  Every element keeps the Python kernel's statements,
    operand order and roundings, so with FP contraction and fast-math off
    the bits are the same.  It needs a compiler that accepts GNU vector
    extensions (gcc or clang).
    """
    before, body_loads, groups = _kernel_statements(spec)
    located = {s.var: s for s in before + body_loads}
    a, b, c = (_c_parameter(spec, operand) for operand in "ABC")
    out = [
        "/* Generated by bbdgemm. Do not edit by hand. */",
        "",
        *_C_VECTOR_TYPES,
        "",
        f"void {kernel_name(spec)}(long E, double alpha, {a}, long lda, {b}, long ldb, "
        f"double beta, {c}, long ldc, long spanA, long spanB, long spanC)",
        "{",
        "    for (long e = 0; e < E; e++) {",
    ]
    for first in range(0, len(groups), _GROUPS_PER_STEP):
        together = groups[first : first + _GROUPS_PER_STEP]
        runs = [run for step in zip(*(g.accumulate[:-1] for g in together)) for run in step]
        runs += [run for g in together for run in (g.accumulate[-1], *g.write)]
        out += [f"        {line}" for run in runs for line in _print_run(run, located, spec)]
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


def move_into_place(tmp: str | Path, path: str | Path) -> None:
    """``os.replace(tmp, path)``, *tmp* first given the umask's mode for a new file, not mkstemp's 0600."""
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(tmp, 0o666 & ~umask)
    os.replace(tmp, path)


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        move_into_place(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_kernel_package(manifest: KernelManifest, out_dir: str | Path) -> list[Path]:
    """Write one module per kernel plus the dispatch ``__init__.py``.

    Files are written atomically (temp file + rename) so a crashed run never
    leaves a half-written module behind.  Returns the written paths.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    files = {f"{kernel_name(spec)}.py": generate_kernel_source(spec) for spec in manifest.entries}
    files["__init__.py"] = generate_dispatch_source(manifest)
    for name, text in files.items():
        _write_atomic(out_path / name, text)
    return [out_path / name for name in files]


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


#: Columns of the ``--emit-report`` CSV, in order: the keys of each row
#: :func:`pressure_report_rows` gives.
PRESSURE_REPORT_COLUMNS = ("name", "n", "m", "k", "access") + tuple(
    field.name for field in fields(PressureReport)
)


def pressure_report_rows(manifest: KernelManifest, model: MachineModel) -> list[dict]:
    """Per-kernel pressure rows for the ``--emit-report`` CSV."""
    rows = []
    for spec in manifest.entries:
        shape = spec.shape
        values = (kernel_name(spec), shape.n, shape.m, shape.k, spec.access_string)
        values += astuple(estimate_pressure(spec, model))
        rows.append(dict(zip(PRESSURE_REPORT_COLUMNS, values)))
    return rows
