"""Mini local-integration proxy over per-cell tensor data.

The proxy mirrors the structure of a cell-based scientific code: every cell
owns a small tensor (a fixed-size set of independently allocated matrices),
and each timestep runs a short chain of GEMMs per tensor component.  Two
interchangeable variants are provided:

* ``scalar``  - the reference loop nest: cells outermost, components inner,
  one naive GEMM call per chain step, per-cell fixed-size scratch.
* ``vector``  - the loop-interchanged variant: the cell loop becomes the
  batch dimension of one ``run_batched`` call per chain step per component,
  with scratch grown dynamically to cover all cells.  Cell storage never
  moves, so a state builds its pointer tables (one per tensor binding and
  component), every other operand of its calls and its scratch on its first
  batched timestep and reuses them; so from the second timestep on, each
  call repeats a checked one (see :func:`~bbdgemm.runtime.run_batched`).

Both variants compute identical values; ``dump_state``/``compare_dumps``
provide the file-based validation used to demonstrate it.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codegen import SPEC_FIELDS, ManifestError, parse_spec_tokens, spec_lines
from .core import (
    AccessKind,
    KernelShape,
    KernelSpec,
    Layout,
    matrix_span,
    operand_dims,
)
from .reference import dgemm_ref
from .runtime import (
    BatchedOperand,
    KernelRegistry,
    ScratchBuffer,
    build_pointer_table,
    run_batched,
)

__all__ = [
    "TensorBatch",
    "ChainStep",
    "ProxyConfig",
    "ProxyState",
    "default_chain",
    "parse_chain",
    "build_state",
    "compute_local_integration_ref",
    "compute_local_integration_batched",
    "run_proxy_state",
    "run_proxy",
    "dump_state",
    "load_dump",
    "compare_dumps",
    "DumpComparison",
]

#: Binding names a chain step may reference.
CONSTANT_BINDINGS = ("op1", "op2")
TENSOR_BINDINGS = ("qin", "qout")
SCRATCH_BINDING = "scratch"
ALL_BINDINGS = CONSTANT_BINDINGS + TENSOR_BINDINGS + (SCRATCH_BINDING,)

_MAGIC = b"BBDQ"
_DUMP_VERSION = 1
_HEADER = struct.Struct("<4sIQIII")


@dataclass
class TensorBatch:
    """Per-cell tensor: a fixed-size array of independently allocated matrices."""

    matrices: list[np.ndarray]
    rows: int
    cols: int
    ld: int

    @property
    def component_count(self) -> int:
        return len(self.matrices)

    def component(self, index: int) -> np.ndarray:
        if not 0 <= index < len(self.matrices):
            raise ValueError(
                f"component {index} out of range [0, {len(self.matrices) - 1}]"
            )
        return self.matrices[index]


@dataclass(frozen=True)
class ChainStep:
    """One GEMM of the per-component chain: spec plus operand bindings."""

    spec: KernelSpec
    a_binding: str
    b_binding: str
    c_binding: str
    alpha: float = 1.0
    beta: float = 0.0

    def bindings(self) -> tuple[str, str, str]:
        return (self.a_binding, self.b_binding, self.c_binding)


def default_chain() -> tuple[ChainStep, ...]:
    """Two-step stand-in chain exercising all three access kinds.

    Step 1 projects each cell's tensor component through a shared 20x10
    constant into strided scratch; step 2 accumulates a 10x9 window of that
    scratch times a shared 9x9 constant back into the output tensor.
    """
    step1 = ChainStep(
        spec=KernelSpec(
            Layout.ColMajor,
            KernelShape(20, 9, 10),
            AccessKind.Constant,
            AccessKind.Indexed,
            AccessKind.Strided,
        ),
        a_binding="op1",
        b_binding="qin",
        c_binding="scratch",
        alpha=1.0,
        beta=0.0,
    )
    step2 = ChainStep(
        spec=KernelSpec(
            Layout.ColMajor,
            KernelShape(10, 9, 9),
            AccessKind.Strided,
            AccessKind.Constant,
            AccessKind.Indexed,
        ),
        a_binding="scratch",
        b_binding="op2",
        c_binding="qout",
        alpha=1.0,
        beta=1.0,
    )
    return (step1, step2)


@dataclass(frozen=True)
class ProxyConfig:
    """Full description of one proxy run."""

    cells: int = 10000
    timesteps: int = 6
    components: int = 4
    rows: int = 10
    cols: int = 9
    layout: Layout = Layout.ColMajor
    chain: tuple[ChainStep, ...] = field(default_factory=default_chain)
    mode: str = "vector"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.cells < 1 or self.timesteps < 1 or self.components < 1:
            raise ValueError("cells, timesteps and components must be positive")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("tensor dimensions must be positive")
        if self.mode not in ("scalar", "vector"):
            raise ValueError(f"mode must be 'scalar' or 'vector', got {self.mode!r}")
        if not self.chain:
            raise ValueError("chain must contain at least one step")
        object.__setattr__(self, "chain", tuple(self.chain))
        _validate_chain(self)

    @property
    def tensor_ld(self) -> int:
        return self.rows if self.layout is Layout.ColMajor else self.cols

    # Derived once per config, on first use, as a value kept beside the
    # fields: equality, repr and dataclasses.replace see the fields only.

    @functools.cached_property
    def scratch_per_element(self) -> int:
        """Scratch slots one cell needs: the widest scratch write in the chain."""
        spans = [
            matrix_span(step.spec, "C", operand_dims(step.spec, "C").min_ld)
            for step in self.chain
            if step.c_binding == SCRATCH_BINDING
        ]
        return max(spans, default=0)

    @functools.cached_property
    def scratch_ld(self) -> int:
        """Leading dimension of the scratch: that of the chain's first scratch write, else 1."""
        for step in self.chain:
            if step.c_binding == SCRATCH_BINDING:
                return operand_dims(step.spec, "C").min_ld
        return 1

    def constant_dims(self) -> dict[str, tuple[int, int, int]]:
        """(rows, cols, ld) of each constant binding used by the chain."""
        dims: dict[str, tuple[int, int, int]] = {}
        for step in self.chain:
            for which, binding in zip("ABC", step.bindings()):
                if binding in CONSTANT_BINDINGS:
                    od = operand_dims(step.spec, which)
                    dims[binding] = (od.rows, od.cols, od.min_ld)
        return dims


def _validate_chain(config: ProxyConfig) -> None:
    constant_dims: dict[str, tuple[int, int]] = {}
    scratch_shape: tuple[int, int, int] | None = None  # rows, cols, ld written
    for index, step in enumerate(config.chain):
        where = f"chain step {index} ({step.spec.name})"
        if step.spec.layout is not config.layout:
            raise ValueError(f"{where}: layout differs from the configured tensor layout")
        for which, binding in zip("ABC", step.bindings()):
            if binding not in ALL_BINDINGS:
                raise ValueError(
                    f"{where}: unknown binding {binding!r} for operand {which}; "
                    f"valid bindings: {', '.join(ALL_BINDINGS)}"
                )
            kind = step.spec.access(which)
            dims = operand_dims(step.spec, which)
            if binding in CONSTANT_BINDINGS:
                if kind is not AccessKind.Constant:
                    raise ValueError(f"{where}: binding {binding} requires a Constant operand")
                seen = constant_dims.setdefault(binding, (dims.rows, dims.cols))
                if seen != (dims.rows, dims.cols):
                    raise ValueError(
                        f"{where}: constant {binding} used as {dims.rows}x{dims.cols} "
                        f"but earlier as {seen[0]}x{seen[1]}"
                    )
            elif binding in TENSOR_BINDINGS:
                if kind is not AccessKind.Indexed:
                    raise ValueError(f"{where}: binding {binding} requires an Indexed operand")
                if (dims.rows, dims.cols) != (config.rows, config.cols):
                    raise ValueError(
                        f"{where}: operand {which} is {dims.rows}x{dims.cols} but tensor "
                        f"components are {config.rows}x{config.cols}"
                    )
            else:  # scratch
                if kind is not AccessKind.Strided:
                    raise ValueError(f"{where}: binding scratch requires a Strided operand")
                if which == "C":
                    if step.beta != 0.0 and scratch_shape is None:
                        raise ValueError(f"{where}: scratch accumulated before being written")
                    if scratch_shape is not None and scratch_shape[2] != dims.min_ld:
                        raise ValueError(
                            f"{where}: scratch rewritten with leading dimension "
                            f"{dims.min_ld}, earlier write used {scratch_shape[2]}"
                        )
                    scratch_shape = (dims.rows, dims.cols, dims.min_ld)
                else:
                    if scratch_shape is None:
                        raise ValueError(f"{where}: scratch read before being written")
                    w_rows, w_cols, _ = scratch_shape
                    if dims.rows > w_rows or dims.cols > w_cols:
                        raise ValueError(
                            f"{where}: scratch read window {dims.rows}x{dims.cols} exceeds "
                            f"written {w_rows}x{w_cols}"
                        )
        if step.c_binding != SCRATCH_BINDING and step.c_binding != "qout":
            raise ValueError(f"{where}: output operand C must bind scratch or qout")
        if step.c_binding in step.bindings()[:2]:
            raise ValueError(f"{where}: operand C aliases an input binding {step.c_binding!r}")


@dataclass
class ProxyState:
    """Mutable run state: input/output tensors per cell plus shared constants.

    ``pointer_tables`` holds one ``(qin, qout)`` pair of Indexed operands per
    component; the first batched timestep builds them and every later one
    reuses them, as it reuses ``scratch``.  Beside them it builds the
    operands of every chain step: the Constants, and one Strided operand
    per component and step over the scratch, built again when the scratch
    array changes.  Replacing a cell's matrices or a constant after that
    needs ``pointer_tables`` reset to None.
    """

    config: ProxyConfig
    qin: list[TensorBatch]
    qout: list[TensorBatch]
    constants: dict[str, np.ndarray]
    constant_lds: dict[str, int]
    pointer_tables: tuple[tuple[BatchedOperand, BatchedOperand], ...] | None = None
    scratch: ScratchBuffer = field(default_factory=ScratchBuffer)
    # (config, pointer_tables, scratch array) the step operands were built for, and they.
    _step_operands: tuple | None = field(default=None, init=False, repr=False, compare=False)


def build_state(config: ProxyConfig) -> ProxyState:
    """Allocate and seed all run data.

    Matrices are filled from one seeded uniform [-1, 1] stream in a fixed
    order (constants, then qin cell by cell, then qout), so a (seed, config)
    pair always yields bit-identical initial state.  Component matrices are
    allocated independently per cell: matrices of the same component across
    cells are deliberately not contiguous.
    """
    rng = np.random.default_rng(config.seed)
    constants: dict[str, np.ndarray] = {}
    constant_lds: dict[str, int] = {}
    used_constants = config.constant_dims()
    for name in CONSTANT_BINDINGS:
        if name not in used_constants:
            continue
        rows, cols, ld = used_constants[name]
        constants[name] = rng.uniform(-1.0, 1.0, rows * cols)
        constant_lds[name] = ld

    def tensor_cells() -> list[TensorBatch]:
        span = config.tensor_ld * (
            config.cols if config.layout is Layout.ColMajor else config.rows
        )
        return [
            TensorBatch(
                matrices=[
                    rng.uniform(-1.0, 1.0, span) for _ in range(config.components)
                ],
                rows=config.rows,
                cols=config.cols,
                ld=config.tensor_ld,
            )
            for _ in range(config.cells)
        ]

    qin = tensor_cells()
    qout = tensor_cells()
    return ProxyState(
        config=config, qin=qin, qout=qout, constants=constants, constant_lds=constant_lds
    )


def _resolve_ref_operand(
    state: ProxyState, binding: str, cell: int, component: int, scratch: np.ndarray
):
    if binding in CONSTANT_BINDINGS:
        return state.constants[binding], state.constant_lds[binding]
    if binding == "qin":
        return state.qin[cell].component(component), state.qin[cell].ld
    if binding == "qout":
        return state.qout[cell].component(component), state.qout[cell].ld
    return scratch, None  # ld filled in by the caller from the writing step


def compute_local_integration_ref(config: ProxyConfig, state: ProxyState) -> None:
    """Reference loop nest: per cell, per component, run the chain's GEMMs."""
    scratch = np.zeros(max(config.scratch_per_element, 1), dtype=np.float64)
    scratch_ld = config.scratch_ld
    for cell in range(config.cells):
        for component in range(config.components):
            for step in config.chain:
                shape = step.spec.shape
                buffers = []
                for which, binding in zip("ABC", step.bindings()):
                    buf, ld = _resolve_ref_operand(state, binding, cell, component, scratch)
                    if ld is None:
                        ld = scratch_ld
                    buffers.append((buf, ld))
                (a, lda), (b, ldb), (c, ldc) = buffers
                dgemm_ref(
                    step.spec.layout,
                    shape.n,
                    shape.m,
                    shape.k,
                    step.alpha,
                    a,
                    lda,
                    b,
                    ldb,
                    step.beta,
                    c,
                    ldc,
                )


def compute_local_integration_batched(
    config: ProxyConfig,
    state: ProxyState,
    scratch: ScratchBuffer,
    registry: KernelRegistry | None = None,
) -> None:
    """Loop-interchanged variant: one batched call per chain step per component.

    *scratch* must have been sized via :meth:`ScratchBuffer.ensure` for
    E == cells; an undersized buffer is a checked programming error.  The
    pointer tables and the other operands are *state*'s, built by the first
    call, the scratch operands again when *scratch*'s array changes.
    """
    per_element = config.scratch_per_element
    needed = config.cells * per_element
    if scratch.capacity < needed:
        raise ValueError(
            f"scratch undersized: capacity {scratch.capacity} < required {needed}; "
            f"call scratch.ensure(cells, per_element) first"
        )
    if state.pointer_tables is None:
        state.pointer_tables = tuple(
            (build_pointer_table(state.qin, component), build_pointer_table(state.qout, component))
            for component in range(config.components)
        )
    built_for = (config, state.pointer_tables, scratch.array)
    built = state._step_operands
    if built is None or any(map(operator.is_not, built[0], built_for)):
        built = (built_for, _build_step_operands(config, state, scratch.array[:needed]))
        state._step_operands = built
    for operands in built[1]:
        for step, (a, b, c) in zip(config.chain, operands):
            run_batched(
                step.spec,
                config.cells,
                step.alpha,
                a,
                b,
                step.beta,
                c,
                registry=registry,
            )


def _build_step_operands(config: ProxyConfig, state: ProxyState, scratch_flat: np.ndarray):
    """``(a, b, c)`` of each chain step, per component: the state's tables, and a Constant per constant.

    Each step gets a Strided operand of its own over *scratch_flat*, so
    every call has a C of its own to keep its checked contract on.
    """
    constants = {
        name: BatchedOperand.constant(data, ld=state.constant_lds[name])
        for name, data in state.constants.items()
    }
    scratch_ld, per_element = config.scratch_ld, config.scratch_per_element
    components = []
    for tables in state.pointer_tables:
        steps = []
        for step in config.chain:
            scratch = BatchedOperand.strided(scratch_flat, ld=scratch_ld, span=per_element)
            bound = dict(zip(TENSOR_BINDINGS, tables), **constants, scratch=scratch)
            steps.append(tuple(bound[binding] for binding in step.bindings()))
        components.append(tuple(steps))
    return tuple(components)


def run_proxy_state(
    config: ProxyConfig,
    state: ProxyState,
    registry: KernelRegistry | None = None,
    timesteps: int | None = None,
) -> None:
    """Advance *state* by the configured number of timesteps.

    Each timestep runs the local-integration phase in the configured mode.
    """
    steps = config.timesteps if timesteps is None else timesteps
    for _ in range(steps):
        if config.mode == "vector":
            # Allocation step before each timestep; a no-op once grown.
            state.scratch.ensure(config.cells, config.scratch_per_element)
            compute_local_integration_batched(config, state, state.scratch, registry=registry)
        else:
            compute_local_integration_ref(config, state)


def run_proxy(config: ProxyConfig, registry: KernelRegistry | None = None) -> ProxyState:
    """Build fresh state for *config* and run it to completion."""
    state = build_state(config)
    run_proxy_state(config, state, registry=registry)
    return state


@dataclass(frozen=True)
class DumpComparison:
    max_abs_diff: float
    passed: bool


def dump_state(state: ProxyState, path: str | Path) -> None:
    """Write every cell's output tensor to *path* in the binary dump format.

    Layout: magic ``BBDQ``, u32 version, u64 cells, u32 components, u32
    rows, u32 cols (all little-endian), then cells x components matrices as
    column-major float64.  The encoding is bit-exact.
    """
    config = state.config
    header = _HEADER.pack(
        _MAGIC, _DUMP_VERSION, config.cells, config.components, config.rows, config.cols
    )
    with open(path, "wb") as handle:
        handle.write(header)
        for cell in state.qout:
            for component in range(config.components):
                handle.write(_column_major_bytes(cell.component(component), config))


def _column_major_bytes(flat: np.ndarray, config: ProxyConfig) -> bytes:
    rows, cols, ld = config.rows, config.cols, config.tensor_ld
    if config.layout is Layout.ColMajor:
        matrix = flat[: cols * ld].reshape(cols, ld)[:, :rows]
        ordered = matrix.reshape(-1)
    else:
        matrix = flat[: rows * ld].reshape(rows, ld)[:, :cols]
        ordered = matrix.T.reshape(-1)
    return np.ascontiguousarray(ordered, dtype="<f8").tobytes()


def load_dump(path: str | Path):
    """Read a dump file back as (cells, components, rows, cols, data).

    ``data`` has shape (cells, components, rows, cols) with each matrix
    decoded from its column-major encoding.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated dump header")
    magic, version, cells, components, rows, cols = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != _DUMP_VERSION:
        raise ValueError(f"{path}: unsupported dump version {version}")
    expected = _HEADER.size + cells * components * rows * cols * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size)
    # column-major per matrix: decoded as (cols, rows) then transposed
    data = data.reshape(cells, components, cols, rows).transpose(0, 1, 3, 2)
    return cells, components, rows, cols, data


def compare_dumps(path_a: str | Path, path_b: str | Path, tol: float) -> DumpComparison:
    """Maximum absolute element difference between two dumps, checked vs *tol*."""
    cells_a, comps_a, rows_a, cols_a, data_a = load_dump(path_a)
    cells_b, comps_b, rows_b, cols_b, data_b = load_dump(path_b)
    shape_a = (cells_a, comps_a, rows_a, cols_a)
    shape_b = (cells_b, comps_b, rows_b, cols_b)
    if shape_a != shape_b:
        raise ValueError(
            f"dump shape mismatch: {path_a} has {shape_a}, {path_b} has {shape_b}"
        )
    if data_a.size == 0:
        return DumpComparison(max_abs_diff=0.0, passed=True)
    max_abs_diff = float(np.max(np.abs(data_a - data_b)))
    return DumpComparison(max_abs_diff=max_abs_diff, passed=max_abs_diff <= tol)


def infer_tensor_dims(chain: tuple[ChainStep, ...]) -> tuple[int, int] | None:
    """(rows, cols) implied by the chain's tensor bindings, if any."""
    for step in chain:
        for which, binding in zip("ABC", step.bindings()):
            if binding in TENSOR_BINDINGS:
                dims = operand_dims(step.spec, which)
                return dims.rows, dims.cols
    return None


#: ASCII decimal float literal; ``float()`` alone also reads ``1_0``, ``４``, ``nan`` and ``inf``.
_FLOAT = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_chain(text: str) -> tuple[ChainStep, ...]:
    """Parse a chain file: one step per line.

    Grammar: a manifest spec ``<Layout> <N> <M> <K> <abc>`` followed by
    ``<a-binding> <b-binding> <c-binding> <alpha> <beta>``; ``#`` comments
    and blank lines ignored.  alpha and beta are finite ASCII decimal float
    literals.  Errors are :class:`ManifestError` carrying the line and
    column, as in a manifest.
    """
    steps: list[ChainStep] = []
    for lineno, tokens in spec_lines(text, SPEC_FIELDS + " a b c alpha beta"):
        scalars = []
        for tok in tokens[8:]:
            value = float(tok.group()) if _FLOAT.fullmatch(tok.group()) else math.nan
            if not math.isfinite(value):
                raise ManifestError(
                    f"alpha/beta must be numbers, got {tok.group()!r}", lineno, tok.start() + 1
                )
            scalars.append(value)
        bindings = (tok.group() for tok in tokens[5:8])
        steps.append(ChainStep(parse_spec_tokens(tokens[:5], lineno), *bindings, *scalars))
    if not steps:
        raise ValueError("chain file declares no steps")
    return tuple(steps)
