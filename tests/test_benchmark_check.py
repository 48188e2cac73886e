"""The benchmark's bitwise output check catches a kernel that returns wrong values.

The benchmark (``perfbench/``) wraps every kernel in a registry that runs the
real kernel, then adds 1 to C, and expects the run to fail.  The wrapper
here forwards the kernel's whole signature, so each failure is the check's
verdict on wrong values, never a call that raised.
"""

import sys
from pathlib import Path

import pytest

from bbdgemm.core import PointerTable
from bbdgemm.runtime import KernelRegistry

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

#: Cell counts and batch size small enough for in-process runs.
SMALL = {"proxy_vector": 16, "proxy_scalar": 16, "small_batch": 64}


def perturbing(registry: KernelRegistry) -> KernelRegistry:
    """Registry whose kernels run the real kernel, then add 1 to each C matrix."""

    def wrong(kernel):
        def perturbed(*args):
            kernel(*args)
            C = args[7]
            for matrix in C if isinstance(C, PointerTable) else [C]:
                matrix[0] += 1.0

        return perturbed

    return KernelRegistry({name: wrong(registry.lookup(name)) for name in registry.names()})


@pytest.mark.parametrize("workload", list(SMALL))
def test_perturbed_kernel_fails_the_bitwise_check(tmp_path, workload):
    result = workloads.run(workload, seed=5, seconds=0.05, trace=False, out_dir=tmp_path,
                           wrap_registry=perturbing, size=SMALL[workload])
    assert result["failed"] > 0 and result["errors"]
    for error in result["errors"]:
        assert "Traceback" not in error and "differs from" in error, error
    assert result["metrics"]["round_vs_ref"]["value"] is None
