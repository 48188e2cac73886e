import pytest

from bbdgemm import kernel_name, vectorize
from bbdgemm.core import AccessKind, matrix_span, operand_dims
from bbdgemm.runtime import BatchedOperand, KernelRegistry


def build_kernel(spec):
    """*spec*'s kernel, built from its name as the package builds its own."""
    return vectorize.batch_kernel(kernel_name(spec))


def build_registry(*specs):
    return KernelRegistry({kernel_name(s): build_kernel(s) for s in specs})


def make_operands(spec, E, rng):
    """Random operands at minimal leading dimensions.

    Indexed tables are permuted views into one pool so entries are disjoint
    but not in address order.
    """
    operands = []
    for which in "ABC":
        kind = spec.access(which)
        ld = operand_dims(spec, which).min_ld
        span = matrix_span(spec, which, ld)
        if kind is AccessKind.Constant:
            operands.append(BatchedOperand.constant(rng.uniform(-1.0, 1.0, span), ld))
        elif kind is AccessKind.Strided:
            operands.append(BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * span), ld, span))
        else:
            pool = rng.uniform(-1.0, 1.0, max(E, 1) * span)
            order = rng.permutation(E) if E else []
            table = [pool[o * span : (o + 1) * span] for o in order]
            operands.append(BatchedOperand.indexed(table, ld))
    return tuple(operands)


def jit_switch(monkeypatch):
    """``switch(False)`` puts decorated kernels on numpy lanes until *monkeypatch* undoes it.

    The compiled path is on or off for the whole process; a test that needs
    lanes on a host with ``cc`` substitutes :func:`bbdgemm.vectorize.jit_enabled`.
    ``switch(True)`` gives the process's own decision back.
    """
    decided = vectorize.jit_enabled

    def switch(on: bool) -> None:
        monkeypatch.setattr(vectorize, "jit_enabled", decided if on else lambda: False)

    return switch


@pytest.fixture
def set_jit(monkeypatch):
    """:func:`jit_switch` for the rest of the test."""
    return jit_switch(monkeypatch)
