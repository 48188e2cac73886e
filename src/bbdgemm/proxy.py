"""Mini local-integration proxy over per-cell tensor data.

The proxy mirrors the structure of a cell-based scientific code: every cell
owns a small tensor (a fixed-size set of independently allocated matrices),
and each timestep runs a short chain of GEMMs per tensor component.  The
chain is the one description of the data: :func:`chain_shapes` derives the
layout, the tensor components' shape, each constant's shape and the
scratch's from it once per config.  Two interchangeable variants are
provided:

* ``scalar``  - the reference loop nest: cells outermost, components inner,
  one naive GEMM per chain step, one cell's worth of scratch.
* ``vector``  - the loop-interchanged variant: the cell loop becomes the
  batch dimension of one ``run_batched`` call per chain step per component,
  with scratch grown dynamically to cover all cells.

Cell storage never moves, so a :class:`ProxyState` binds the calls of a
timestep once, on its first timestep in either mode, and reuses them: the
scalar mode's GEMMs bound by :func:`~bbdgemm.reference.bind_dgemm`, run
with the step's alpha and beta, or the vector mode's batched calls over
pointer tables built once, so that from the second timestep on each call
repeats a checked one (see :func:`~bbdgemm.runtime.run_batched`).

Both variants compute identical values; ``dump_state``/``compare_dumps``
provide the file-based validation used to demonstrate it.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

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
# dgemm_ref stays importable here: the benchmark's trace (perfbench/spans.py)
# wraps ``proxy.dgemm_ref`` by name.
from .reference import bind_dgemm, dgemm_ref
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
    "ChainShapes",
    "chain_shapes",
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


class ChainShapes(NamedTuple):
    """What a chain fixes of the proxy's data (see :func:`chain_shapes`)."""

    layout: Layout
    #: Shape of every tensor component.
    rows: int
    cols: int
    #: (rows, cols, ld) of each constant binding the chain uses.
    constants: dict[str, tuple[int, int, int]]
    #: Leading dimension of the scratch: that of the chain's scratch writes, else 1.
    scratch_ld: int
    #: Scratch slots one cell needs: the widest scratch write in the chain.
    scratch_per_element: int

    @property
    def tensor_ld(self) -> int:
        """Leading dimension of every tensor component: minimal for its layout."""
        return self.rows if self.layout is Layout.ColMajor else self.cols


def chain_shapes(chain: tuple[ChainStep, ...]) -> ChainShapes:
    """Check *chain*'s steps against each other and return the shapes they fix.

    The first step fixes the layout and the first ``qin``/``qout`` operand
    the tensor components' shape; every later step and operand must agree.
    """
    layout = chain[0].spec.layout
    tensor: tuple[int, int] | None = None
    constants: dict[str, tuple[int, int, int]] = {}
    written: tuple[int, int, int] | None = None  # rows, cols, ld of the scratch written
    per_element = 0
    for index, step in enumerate(chain):
        where = f"chain step {index} ({step.spec.name})"
        if step.spec.layout is not layout:
            raise ValueError(f"{where}: layout differs from step 0's {layout.name}")
        for which, binding in zip("ABC", step.bindings()):
            if binding not in ALL_BINDINGS:
                raise ValueError(
                    f"{where}: unknown binding {binding!r} for operand {which}; "
                    f"valid bindings: {', '.join(ALL_BINDINGS)}"
                )
            kind = step.spec.access(which)
            dims = operand_dims(step.spec, which)
            shape = (dims.rows, dims.cols)
            if binding in CONSTANT_BINDINGS:
                if kind is not AccessKind.Constant:
                    raise ValueError(f"{where}: binding {binding} requires a Constant operand")
                seen = constants.setdefault(binding, (*shape, dims.min_ld))
                if seen[:2] != shape:
                    raise ValueError(
                        f"{where}: constant {binding} used as {dims.rows}x{dims.cols} "
                        f"but earlier as {seen[0]}x{seen[1]}"
                    )
            elif binding in TENSOR_BINDINGS:
                if kind is not AccessKind.Indexed:
                    raise ValueError(f"{where}: binding {binding} requires an Indexed operand")
                if tensor is None:
                    tensor = shape
                if shape != tensor:
                    raise ValueError(
                        f"{where}: operand {which} is {dims.rows}x{dims.cols} but tensor "
                        f"components are {tensor[0]}x{tensor[1]}"
                    )
            else:  # scratch
                if kind is not AccessKind.Strided:
                    raise ValueError(f"{where}: binding scratch requires a Strided operand")
                if which == "C":
                    if step.beta != 0.0 and written is None:
                        raise ValueError(f"{where}: scratch accumulated before being written")
                    if written is not None and written[2] != dims.min_ld:
                        raise ValueError(
                            f"{where}: scratch rewritten with leading dimension "
                            f"{dims.min_ld}, earlier write used {written[2]}"
                        )
                    written = (*shape, dims.min_ld)
                    per_element = max(per_element, matrix_span(step.spec, "C", dims.min_ld))
                else:
                    if written is None:
                        raise ValueError(f"{where}: scratch read before being written")
                    if dims.rows > written[0] or dims.cols > written[1]:
                        raise ValueError(
                            f"{where}: scratch read window {dims.rows}x{dims.cols} exceeds "
                            f"written {written[0]}x{written[1]}"
                        )
        if step.c_binding != SCRATCH_BINDING and step.c_binding != "qout":
            raise ValueError(f"{where}: output operand C must bind scratch or qout")
        if step.c_binding in step.bindings()[:2]:
            raise ValueError(f"{where}: operand C aliases an input binding {step.c_binding!r}")
    if tensor is None:
        raise ValueError("chain binds no qin or qout, so nothing it computes reaches a dump")
    scratch_ld = written[2] if written else 1
    return ChainShapes(layout, *tensor, constants, scratch_ld, per_element)


@dataclass(frozen=True)
class ProxyConfig:
    """Full description of one proxy run.

    The chain is the one description of the data: its layout and every
    operand's shape are derived from it by :func:`chain_shapes` when the
    config is built, and kept as ``shapes`` beside the fields.  Equality,
    repr, pickling and ``dataclasses.replace`` see the fields only.
    """

    cells: int = 10000
    timesteps: int = 6
    components: int = 4
    chain: tuple[ChainStep, ...] = field(default_factory=default_chain)
    mode: str = "vector"
    seed: int = 42

    def __post_init__(self) -> None:
        if self.cells < 1 or self.timesteps < 1 or self.components < 1:
            raise ValueError("cells, timesteps and components must be positive")
        if self.mode not in ("scalar", "vector"):
            raise ValueError(f"mode must be 'scalar' or 'vector', got {self.mode!r}")
        if not self.chain:
            raise ValueError("chain must contain at least one step")
        object.__setattr__(self, "chain", tuple(self.chain))
        object.__setattr__(self, "shapes", chain_shapes(self.chain))

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass
class ProxyState:
    """Mutable run state: input/output tensors per cell plus shared constants.

    The state owns what is bound over its data.  Each mode binds the calls
    of one timestep over the cells' matrices and the constants on its first
    timestep, keeps them in ``_bound`` with what they were bound for, and
    reuses them on every later timestep bound for the same.  Vector mode
    binds ``(spec, a, b, c, alpha, beta)`` per component and chain step for
    the config and the array of ``scratch``, which it grows itself: a
    component's two pointer tables, a Constant per constant and a Strided
    operand per call over the scratch.  Scalar mode binds each GEMM of its
    loop nest with :func:`~bbdgemm.reference.bind_dgemm`, over a scratch of
    its own, for the config.  After replacing a cell's matrices or a
    constant, call :meth:`unbind`; the next timestep of either mode then
    binds afresh.
    """

    config: ProxyConfig
    qin: list[TensorBatch]
    qout: list[TensorBatch]
    constants: dict[str, np.ndarray]
    constant_lds: dict[str, int]
    scratch: ScratchBuffer = field(default_factory=ScratchBuffer)
    # ((bind, *what it bound for), the calls it bound), compared by identity.
    _bound: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def unbind(self) -> None:
        """Drop the calls bound over the cells' matrices and the constants."""
        self._bound = None

    def _calls(self, bind, *key):
        """The calls ``bind(self, *key)`` returns, bound again only when not bound for *key*."""
        key = (bind, *key)
        if self._bound is None or any(map(operator.is_not, self._bound[0], key)):
            self._bound = (key, bind(self, *key[1:]))
        return self._bound[1]


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
    used_constants = config.shapes.constants
    for name in CONSTANT_BINDINGS:
        if name not in used_constants:
            continue
        rows, cols, ld = used_constants[name]
        constants[name] = rng.uniform(-1.0, 1.0, rows * cols)
        constant_lds[name] = ld

    shapes = config.shapes

    def tensor_cells() -> list[TensorBatch]:
        span = shapes.rows * shapes.cols
        return [
            TensorBatch(
                matrices=[
                    rng.uniform(-1.0, 1.0, span) for _ in range(config.components)
                ],
                rows=shapes.rows,
                cols=shapes.cols,
                ld=shapes.tensor_ld,
            )
            for _ in range(config.cells)
        ]

    qin = tensor_cells()
    qout = tensor_cells()
    return ProxyState(
        config=config, qin=qin, qout=qout, constants=constants, constant_lds=constant_lds
    )


def _resolve_ref_operand(
    config: ProxyConfig,
    state: ProxyState,
    binding: str,
    cell: int,
    component: int,
    scratch: np.ndarray,
):
    """``(buffer, ld)`` of *binding* for one cell and component."""
    if binding in CONSTANT_BINDINGS:
        return state.constants[binding], state.constant_lds[binding]
    if binding == "qin":
        return state.qin[cell].component(component), state.qin[cell].ld
    if binding == "qout":
        return state.qout[cell].component(component), state.qout[cell].ld
    return scratch, config.shapes.scratch_ld


def compute_local_integration_ref(config: ProxyConfig, state: ProxyState) -> None:
    """Reference loop nest: per cell, per component, run the chain's GEMMs.

    *state* binds every GEMM once for *config*
    (:func:`~bbdgemm.reference.bind_dgemm`) over a scratch of its own; each
    call runs the bound GEMMs in cell, component, step order.
    """
    for run, alpha, beta in state._calls(_bind_ref_runs, config):
        run(alpha, beta)


def _bind_ref_runs(state: ProxyState, config: ProxyConfig) -> list:
    """``(run, alpha, beta)`` of every GEMM of the loop nest, in the order it runs them.

    All binds share one dict of views, so the GEMMs of every cell share one
    view of each constant and of the scratch; only those of a cell's own
    matrices are the cell's.
    """
    scratch = np.zeros(max(config.shapes.scratch_per_element, 1), dtype=np.float64)
    views: dict = {}
    runs = []
    for cell in range(config.cells):
        for component in range(config.components):
            for step in config.chain:
                shape = step.spec.shape
                (a, lda), (b, ldb), (c, ldc) = (
                    _resolve_ref_operand(config, state, binding, cell, component, scratch)
                    for binding in step.bindings()
                )
                run = bind_dgemm(
                    step.spec.layout, shape.n, shape.m, shape.k, a, lda, b, ldb, c, ldc,
                    views=views,
                )
                runs.append((run, step.alpha, step.beta))
    return runs


def compute_local_integration_batched(
    config: ProxyConfig,
    state: ProxyState,
    registry: KernelRegistry | None = None,
) -> None:
    """Loop-interchanged variant: one batched call per chain step per component.

    Grows ``state.scratch`` to cover every cell (nothing happens once it
    does), then runs the calls *state* binds for *config* and the scratch's
    array; so from the second timestep on, each call repeats a checked one.
    """
    state.scratch.ensure(config.cells, config.shapes.scratch_per_element)
    calls = state._calls(_bind_batched_calls, config, state.scratch.array)
    for spec, a, b, c, alpha, beta in calls:
        run_batched(spec, config.cells, alpha, a, b, beta, c, registry=registry)


def _bind_batched_calls(state: ProxyState, config: ProxyConfig, scratch: np.ndarray) -> list:
    """``(spec, a, b, c, alpha, beta)`` of each batched call, per component and chain step.

    A component's ``qin`` and ``qout`` are its two pointer tables, built
    here; the constants are one Constant each, and each call gets a Strided
    operand of its own over *scratch*, so every call has a C of its own to
    keep its checked contract on.
    """
    constants = {
        name: BatchedOperand.constant(data, ld=state.constant_lds[name])
        for name, data in state.constants.items()
    }
    scratch_ld, per_element = config.shapes.scratch_ld, config.shapes.scratch_per_element
    flat = scratch[: config.cells * per_element]
    calls = []
    for component in range(config.components):
        tables = (
            build_pointer_table(state.qin, component), build_pointer_table(state.qout, component)
        )
        for step in config.chain:
            operand = dict(
                zip(TENSOR_BINDINGS, tables),
                **constants,
                scratch=BatchedOperand.strided(flat, ld=scratch_ld, span=per_element),
            )
            calls.append((step.spec, *map(operand.get, step.bindings()), step.alpha, step.beta))
    return calls


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
            compute_local_integration_batched(config, state, registry=registry)
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
    config, shapes = state.config, state.config.shapes
    header = _HEADER.pack(
        _MAGIC, _DUMP_VERSION, config.cells, config.components, shapes.rows, shapes.cols
    )
    with open(path, "wb") as handle:
        handle.write(header)
        for cell in state.qout:
            for component in range(config.components):
                handle.write(_column_major_bytes(cell.component(component), shapes))


def _column_major_bytes(flat: np.ndarray, shapes: ChainShapes) -> bytes:
    rows, cols, ld = shapes.rows, shapes.cols, shapes.tensor_ld
    if shapes.layout is Layout.ColMajor:
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
