"""Batched small-matrix DGEMM from generated, fully-unrolled kernels.

The package generates one shape-specialized kernel per (layout, N, M, K,
access-kinds) combination: a single loop over the batch with a fully
unrolled body, as Python and as a C twin that a C compiler turns into
long-vector code; without a compiler the Python runs as numpy lanes.  A naive reference implementation,
a register-pressure estimator, a cell-based proxy application, and a
correctness-gated benchmark harness round out the library.
"""

from .core import (
    AccessKind,
    KernelNameError,
    KernelShape,
    KernelSpec,
    Layout,
    OperandDims,
    kernel_name,
    matrix_span,
    operand_dims,
    parse_kernel_name,
)
from .codegen import (
    DEFAULT_MAX_DIM,
    KernelManifest,
    MachineModel,
    ManifestError,
    PressureReport,
    estimate_pressure,
    generate_dispatch_source,
    generate_kernel_source,
    parse_manifest,
    write_kernel_package,
)
from .reference import GemmScalars, batched_ref, dgemm_ref
from .runtime import (
    BatchedOperand,
    KernelRegistry,
    ScratchBuffer,
    build_pointer_table,
    default_registry,
    load_kernel_dir,
    pack_strided,
    run_batched,
    unpack_strided,
)
from .vectorize import enable_jit, jit_available, jit_enabled, use_jit

__version__ = "0.1.0"

__all__ = [
    "AccessKind",
    "BatchedOperand",
    "DEFAULT_MAX_DIM",
    "GemmScalars",
    "KernelManifest",
    "KernelNameError",
    "KernelRegistry",
    "KernelShape",
    "KernelSpec",
    "Layout",
    "MachineModel",
    "ManifestError",
    "OperandDims",
    "PressureReport",
    "ScratchBuffer",
    "batched_ref",
    "build_pointer_table",
    "default_registry",
    "dgemm_ref",
    "enable_jit",
    "estimate_pressure",
    "generate_dispatch_source",
    "generate_kernel_source",
    "jit_available",
    "jit_enabled",
    "kernel_name",
    "load_kernel_dir",
    "matrix_span",
    "operand_dims",
    "pack_strided",
    "parse_kernel_name",
    "parse_manifest",
    "run_batched",
    "unpack_strided",
    "use_jit",
    "write_kernel_package",
    "__version__",
]
