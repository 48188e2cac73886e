import copy
import gc
import itertools
import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
import weakref
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbdgemm import core, runtime as runtime_mod, vectorize
from bbdgemm.bench import clone_operand, output_elements
from bbdgemm.codegen import DEFAULT_MAX_DIM
from bbdgemm.core import (
    AccessKind,
    KernelShape,
    KernelSpec,
    Layout,
    PointerTable,
    kernel_name,
    matrix_span,
    operand_dims,
    sort_extents,
)
from bbdgemm.reference import GemmScalars, batched_ref
from bbdgemm.runtime import (
    BatchedOperand,
    KernelRegistry,
    ScratchBuffer,
    _byte_extents,
    _check_disjoint,
    build_pointer_table,
    run_batched,
)
from bbdgemm.vectorize import jit_available, use_jit

from conftest import build_kernel, build_registry, make_operands

needs_cc = pytest.mark.skipif(not jit_available(), reason="no C compiler (cc) on PATH")
has_reader_headers = vectorize._reader_includes() is not None
has_reader = jit_available() and has_reader_headers
needs_reader = pytest.mark.skipif(
    not has_reader, reason="no C compiler (cc), Python.h or numpy's headers for the table reader"
)


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


S_CIS = spec(Layout.ColMajor, 2, 3, 4, "cis")


class FakeCell:
    def __init__(self, matrices, ld):
        self.matrices = matrices
        self.ld = ld

    @property
    def component_count(self):
        return len(self.matrices)

    def component(self, index):
        if not 0 <= index < len(self.matrices):
            raise ValueError(f"component {index} out of range")
        return self.matrices[index]


@contextmanager
def on_path(path):
    """Registry factory for one execution path of ``run_batched``.

    ``lanes`` runs the generated kernels with the compiled path off;
    ``compiled`` runs their C twins (the test is skipped without a
    compiler); ``fallback`` has an empty registry, so the reference fallback
    serves the call.  Each factory call decorates its kernels afresh.
    """
    if path == "compiled" and not jit_available():
        pytest.skip("no C compiler (cc) on PATH")
    with use_jit(path == "compiled"):
        yield (lambda s: KernelRegistry({})) if path == "fallback" else build_registry


PATHS = ["lanes", "compiled", "fallback"]


def buffers_of(*operands):
    """Every array the operands hold: table entries, or the flat buffer."""
    return [m for op in operands for m in (op.table if op.kind is AccessKind.Indexed else [op.data])]


class TestRunBatched:
    def test_dispatches_to_generated_kernel(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(1)
        E = 19
        a, b, c = make_operands(S_CIS, E, rng)
        c_ref = clone_operand(c)
        run_batched(S_CIS, E, 2.0, a, b, 1.0, c, registry=registry)
        assert registry.fallback_count == 0
        batched_ref(S_CIS, E, GemmScalars(2.0, 1.0), a, b, c_ref)
        got = output_elements(S_CIS, E, c)
        want = output_elements(S_CIS, E, c_ref)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_missing_kernel_falls_back(self):
        registry = KernelRegistry({})
        rng = np.random.default_rng(2)
        E = 5
        a, b, c = make_operands(S_CIS, E, rng)
        c_ref = clone_operand(c)
        run_batched(S_CIS, E, 1.0, a, b, 0.0, c, registry=registry)
        assert registry.fallback_count == 1
        batched_ref(S_CIS, E, GemmScalars(1.0, 0.0), a, b, c_ref)
        assert np.array_equal(output_elements(S_CIS, E, c), output_elements(S_CIS, E, c_ref))

    def test_empty_batch_no_access_no_fallback(self):
        registry = KernelRegistry({})
        a = BatchedOperand.constant(np.full(8, np.nan), 2)
        b = BatchedOperand.indexed([], 4)
        c = BatchedOperand.strided(np.full(6, 3.0), 2, 6)
        run_batched(S_CIS, 0, 1.0, a, b, 0.0, c, registry=registry)
        assert registry.fallback_count == 0
        assert np.all(c.data == 3.0)

    def test_operand_kind_mismatch(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(3)
        a, b, c = make_operands(S_CIS, 3, rng)
        bad_a = BatchedOperand.strided(np.zeros(3 * 8), 2, 8)
        with pytest.raises(ValueError, match="expects Constant"):
            run_batched(S_CIS, 3, 1.0, bad_a, b, 0.0, c, registry=registry)

    def test_ld_violation(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(4)
        a, b, c = make_operands(S_CIS, 3, rng)
        a = replace(a, ld=1)
        with pytest.raises(ValueError, match="below minimum"):
            run_batched(S_CIS, 3, 1.0, a, b, 0.0, c, registry=registry)

    def test_short_table_rejected(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(5)
        a, b, c = make_operands(S_CIS, 3, rng)
        short = BatchedOperand.indexed(b.table[:-1], b.ld)
        with pytest.raises(ValueError, match="pointer table"):
            run_batched(S_CIS, 3, 1.0, a, short, 0.0, c, registry=registry)

    def test_inputs_never_mutated(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(6)
        E = 7
        a, b, c = make_operands(S_CIS, E, rng)
        a_before = np.array(a.data)
        b_before = [np.array(entry) for entry in b.table]
        for jit in (False, True):
            with use_jit(jit):
                run_batched(S_CIS, E, 1.0, a, b, 1.0, c, registry=registry)
        assert np.array_equal(a.data, a_before)
        for entry, before in zip(b.table, b_before):
            assert np.array_equal(np.asarray(entry), before)

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "access, padded",
        [("sss", "A"), ("sss", "B"), ("sss", "C"), ("ssc", "B")],
        ids=["padded_a", "padded_b", "padded_c", "padded_b_constant_c"],
    )
    def test_padded_spans_on_every_path(self, path, access, padded):
        # One operand's span is 3 longer than its matrix; every Strided
        # buffer ends at its last matrix.  Each path gives the oracle's bytes,
        # padding untouched, and no kernel path falls back.  A Constant C
        # takes the sequential loop where lanes would serve the others.
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5

        def build():
            rng = np.random.default_rng(23)
            operands = []
            for which in "ABC":
                ld = operand_dims(s, which).min_ld
                size = matrix_span(s, which, ld)
                if s.access(which) is AccessKind.Constant:
                    operands.append(BatchedOperand.constant(rng.uniform(-1.0, 1.0, size), ld))
                    continue
                span = size + 3 if which == padded else size
                data = rng.uniform(-1.0, 1.0, (E - 1) * span + size)
                operands.append(BatchedOperand.strided(data, ld, span))
            return operands

        got, want = build(), build()
        with on_path(path) as registry_for:
            registry = registry_for(s)
            run_batched(s, E, 1.5, got[0], got[1], 0.5, got[2], registry=registry)
        batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
        assert [m.tobytes() for m in buffers_of(*got)] == [m.tobytes() for m in buffers_of(*want)]
        if path == "fallback":
            assert registry.fallback_count == 1
        else:
            served = "sequential" if path == "lanes" and access == "ssc" else path
            assert registry.fallback_count == 0
            assert registry.lookup(kernel_name(s)).path_counts == {served: 1}

    @pytest.mark.parametrize("path", PATHS)
    def test_strided_buffer_needs_only_up_to_the_last_matrix(self, path):
        # span 7 > the 2x2 matrix span 4: the last matrix ends at element
        # (E-1)*7 + 4 = 18, so an 18-element C is enough and 17 is not
        s = spec(Layout.ColMajor, 2, 2, 2, "ccs")
        rng = np.random.default_rng(20)
        a = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 4), 2)
        b = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 4), 2)
        c = BatchedOperand.strided(rng.uniform(-1.0, 1.0, 18), 2, 7)
        c_ref = clone_operand(c)
        with on_path(path) as registry_for:
            registry = registry_for(s)
            run_batched(s, 3, 1.5, a, b, 0.5, c, registry=registry)
            short = BatchedOperand.strided(c.data[:17].copy(), 2, 7)
            with pytest.raises(ValueError, match=r"^operand C: buffer holds 17 elements, need \(E-1\)\*span \+ 4 = 18$"):
                run_batched(s, 3, 1.5, a, b, 0.5, short, registry=registry)
        batched_ref(s, 3, GemmScalars(1.5, 0.5), a, b, c_ref)
        assert c.data.tobytes() == c_ref.data.tobytes()
        assert registry.fallback_count == (1 if path == "fallback" else 0)

    @pytest.mark.parametrize("path", ["lanes", "compiled"])
    @pytest.mark.parametrize("length", ["one_matrix", "one_short"])
    def test_direct_call_refuses_a_short_strided_buffer(self, path, length):
        # Called directly, past run_batched's check, a Strided A that ends
        # before its last matrix is refused before C is written, not read
        # as fewer matrices (one matrix would broadcast over every lane).
        s = spec(Layout.ColMajor, 2, 3, 4, "scs")
        E = 3
        a, b, c = make_operands(s, E, np.random.default_rng(54))
        size = matrix_span(s, "A", a.ld)
        needed = (E - 1) * size + size
        short = a.data[: size if length == "one_matrix" else needed - 1].copy()
        before = c.data.tobytes()
        with on_path(path) as registry_for:
            kernel = registry_for(s).lookup(kernel_name(s))
            with pytest.raises(ValueError, match=rf"need span >= {size} and \(E-1\)\*span \+ {size} = {needed} elements$"):
                kernel(E, 1.0, short, a.ld, b.data, b.ld, 1.0, c.data, c.ld, size, b.data.size, c.span)
        assert c.data.tobytes() == before
        assert kernel.path_counts == {}

    def test_non_minimal_leading_dims(self):
        # every operand padded: ld = min_ld + 2, spans derived from the lds
        from bbdgemm.core import matrix_span, operand_dims

        s = spec(Layout.ColMajor, 2, 3, 4, "sss")
        registry = build_registry(s)
        rng = np.random.default_rng(15)
        E = 6
        operands = []
        for which in "ABC":
            ld = operand_dims(s, which).min_ld + 2
            span = matrix_span(s, which, ld)
            operands.append(BatchedOperand.strided(rng.uniform(-1, 1, E * span), ld, span))
        a, b, c = operands
        c_ref = clone_operand(c)
        with use_jit(False):
            run_batched(s, E, 1.0, a, b, 1.0, c, registry=registry)
        assert registry.fallback_count == 0
        batched_ref(s, E, GemmScalars(1.0, 1.0), a, b, c_ref)
        assert np.array_equal(c.data, c_ref.data)

    def test_float32_buffer_rejected(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(16)
        a, b, c = make_operands(S_CIS, 2, rng)
        a = replace(a, data=a.data.astype(np.float32))
        with pytest.raises(ValueError, match="float64"):
            run_batched(S_CIS, 2, 1.0, a, b, 0.0, c, registry=registry)

    @pytest.mark.parametrize("which", ["B", "C"])
    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda m: m.astype(np.float32), "must be a flat float64 ndarray, got ndarray"),
            (lambda m: m.reshape(2, -1), "must be a flat float64 ndarray, got ndarray"),
            (lambda m: m.tolist(), "must be a flat float64 ndarray, got list"),
            (lambda m: m[:-1].copy(), "holds {short} elements, need {span}"),
        ],
        ids=["float32", "2d", "list", "one_short"],
    )
    def test_bad_table_entry_rejected(self, which, spoil, message):
        # entries 2 and 3 are both bad: the error names the first, and no
        # output is written before the check
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        registry = build_registry(s)
        a, b, c = make_operands(s, 5, np.random.default_rng(18))
        table = list({"B": b, "C": c}[which].table)
        span = len(table[2])
        table[2], table[3] = spoil(table[2]), spoil(table[3])
        spoiled = BatchedOperand.indexed(table, b.ld if which == "B" else c.ld)
        b, c = (spoiled, c) if which == "B" else (b, spoiled)
        c_before = [np.array(m).tobytes() for m in c.table]
        message = message.format(short=span - 1, span=span)
        with pytest.raises(ValueError, match=rf"operand {which}: table entry 2 {message}"):
            run_batched(s, 5, 1.0, a, b, 1.0, c, registry=registry)
        assert [np.array(m).tobytes() for m in c.table] == c_before

    @pytest.mark.parametrize("entries", ["longer_than_span", "strided_views"])
    def test_lanes_stage_irregular_table_entries(self, entries, monkeypatch):
        # Indexed A and C whose entries hold more than one matrix, or are
        # non-contiguous views of a pool, still run as lanes and give the
        # oracle's bytes; elements past a matrix stay as they were.
        s = spec(Layout.ColMajor, 2, 3, 4, "ici")
        E = 7
        gathered = []
        gather = vectorize._gather
        monkeypatch.setattr(
            vectorize, "_gather", lambda *args: gathered.append(args) or gather(*args)
        )

        def build():
            rng = np.random.default_rng(19)
            operands, memory = [], []
            for which in "ABC":
                ld = operand_dims(s, which).min_ld
                span = matrix_span(s, which, ld)
                if s.access(which) is AccessKind.Constant:
                    operands.append(BatchedOperand.constant(rng.uniform(-1.0, 1.0, span), ld))
                    continue
                if entries == "longer_than_span":
                    table = [rng.uniform(-1.0, 1.0, span + 3) for _ in range(E)]
                    memory += table
                else:
                    pool = rng.uniform(-1.0, 1.0, 2 * E * span)
                    table = [pool[2 * e * span : 2 * (e + 1) * span : 2] for e in range(E)]
                    memory.append(pool)
                operands.append(BatchedOperand.indexed(table, ld))
            return operands, memory

        (a, b, c), got = build()
        (a_ref, b_ref, c_ref), want = build()
        with use_jit(False):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=build_registry(s))
        assert len(gathered) == 2  # A and C were staged as lanes
        batched_ref(s, E, GemmScalars(1.5, 0.5), a_ref, b_ref, c_ref)
        assert [m.tobytes() for m in got] == [m.tobytes() for m in want]

    def test_default_registry_covers_default_manifest(self):
        from pathlib import Path

        from bbdgemm.codegen import parse_manifest
        from bbdgemm.runtime import default_registry

        manifest_path = Path(__file__).resolve().parents[1] / "manifests" / "default.manifest"
        manifest = parse_manifest(manifest_path.read_text(encoding="utf-8"))
        registry = default_registry()
        for name in manifest.names():
            assert name in registry

    def test_jit_and_pure_paths_agree_bitwise(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(8)
        E = 41
        a, b, c = make_operands(S_CIS, E, rng)
        c_jit = clone_operand(c)
        with use_jit(False):
            run_batched(S_CIS, E, 1.25, a, b, 0.75, c, registry=registry)
        with use_jit(True):
            run_batched(S_CIS, E, 1.25, a, b, 0.75, c_jit, registry=registry)
        assert np.array_equal(output_elements(S_CIS, E, c), output_elements(S_CIS, E, c_jit))

    def test_concurrent_calls_with_disjoint_outputs(self):
        # reentrancy: workers share one registry (and one lazily compiled
        # kernel) but own their operands, each used twice, so the second
        # call runs the one kept on its C.  The compiled path releases the
        # interpreter lock around each kernel, and its counts stay exact.
        registry = build_registry(S_CIS)
        served = "compiled" if vectorize.jit_enabled() else "lanes"
        start = threading.Barrier(4)
        failures = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                start.wait(timeout=30)
                for _ in range(5):
                    a, b, c = make_operands(S_CIS, 32, rng)
                    c_ref = clone_operand(c)
                    for _ in range(2):
                        run_batched(S_CIS, 32, 1.0, a, b, 1.0, c, registry=registry)
                        batched_ref(S_CIS, 32, GemmScalars(1.0, 1.0), a, b, c_ref)
                    if c.data.tobytes() != c_ref.data.tobytes():
                        failures.append(seed)
            except Exception as error:  # surfaced below; threads must not die silently
                failures.append((seed, error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert registry.fallback_count == 0
        kernel = registry.lookup(kernel_name(S_CIS))
        assert kernel.path_counts == {served: 40}
        assert kernel.path_elements == {served: 40 * 32}

    @needs_cc
    @pytest.mark.parametrize("access", ["ccc", "cci", "cic", "cii", "icc", "ici", "iic", "iii"])
    def test_jit_staging_type_combinations(self, access):
        # flat buffers vs staged pointer tables are the two argument types
        # the compiled kernels ever see; cover every operand combination
        s = spec(Layout.ColMajor, 2, 1, 3, access)
        registry = build_registry(s)
        rng = np.random.default_rng(17)
        E = 9
        a, b, c = make_operands(s, E, rng)
        c_pure = clone_operand(c)
        with use_jit(True):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
        with use_jit(False):
            run_batched(s, E, 1.5, a, b, 0.5, c_pure, registry=registry)
        assert registry.fallback_count == 0
        assert registry.lookup(kernel_name(s)).path_counts["compiled"] == 1
        assert np.array_equal(output_elements(s, E, c), output_elements(s, E, c_pure))


def c_repeating_one_buffer():
    s = spec(Layout.ColMajor, 2, 2, 2, "cci")
    identity = np.array([1.0, 0.0, 0.0, 1.0])
    shared = np.zeros(4)
    a = BatchedOperand.constant(identity.copy(), 2)
    b = BatchedOperand.constant(identity.copy(), 2)
    return s, 4, a, b, BatchedOperand.indexed([shared] * 4, 2)


def c_overlapping_a(through_memoryview):
    # A's element e is C's element e - 1.  C is a plain view of the pool, or
    # an array over a memoryview of it, whose allocation numpy cannot name.
    def build():
        s = spec(Layout.ColMajor, 2, 3, 3, "iis")
        E, span = 6, 6  # A is 2x3 and C is 2x3 at ld 2
        rng = np.random.default_rng(31)
        pool = rng.uniform(-1.0, 1.0, (E + 1) * span)
        c_data = np.frombuffer(memoryview(pool)) if through_memoryview else pool
        starts = [E] + list(range(E - 1))
        a = BatchedOperand.indexed([pool[i * span : (i + 1) * span] for i in starts], 2)
        b = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 9) for _ in range(E)], 3)
        return s, E, a, b, BatchedOperand.strided(c_data[: E * span], 2, span)

    return build


def c_overlapping_b():
    # B's element e (3x3) starts where C's element e (2x3) does.
    s = spec(Layout.ColMajor, 2, 3, 3, "cis")
    E, span = 5, 6
    rng = np.random.default_rng(33)
    pool = rng.uniform(-1.0, 1.0, E * span + 3)
    a = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 6), 2)
    b = BatchedOperand.indexed([pool[e * span : e * span + 9] for e in range(E)], 3)
    return s, E, a, b, BatchedOperand.strided(pool[: E * span], 2, span)


def read_only_c_overlapping_a():
    s, E, a, b, c = c_overlapping_a(False)()
    c.data.flags.writeable = False
    return s, E, a, b, c


def read_only_strided_c():
    s = spec(Layout.ColMajor, 2, 3, 4, "cis")
    a, b, c = make_operands(s, 5, np.random.default_rng(34))
    c.data.flags.writeable = False
    return s, 5, a, b, c


def read_only_indexed_c_entry_3():
    s = spec(Layout.ColMajor, 2, 3, 4, "cii")
    a, b, c = make_operands(s, 5, np.random.default_rng(35))
    c.table[3].flags.writeable = False
    return s, 5, a, b, c


class TestOperandContract:
    """Batches that break the operand contract are refused before any write.

    Each would compute differently on lanes than in the sequential loop (or,
    read-only, fail part-way through it), so every path refuses it the same
    way: ``ValueError`` naming operand C, no byte changed, no fallback counted.
    The overlap rule comes first: a C that is also read-only is refused as
    overlapping.
    """

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "build, message",
        [
            (c_repeating_one_buffer, "operand C: the matrices of batch elements 0 and 1 overlap"),
            (c_overlapping_a(False), "operand C overlaps operand A"),
            (c_overlapping_a(True), "operand C overlaps operand A"),
            (c_overlapping_b, "operand C overlaps operand B"),
            (read_only_c_overlapping_a, "operand C overlaps operand A"),
            (read_only_strided_c, "operand C: buffer is read-only"),
            (read_only_indexed_c_entry_3, "operand C: table entry 3 is read-only"),
        ],
        ids=[
            "indexed_c_repeating_one_buffer",
            "c_overlapping_a_view",
            "c_overlapping_a_memoryview",
            "c_overlapping_b",
            "read_only_c_overlapping_a",
            "read_only_strided_c",
            "read_only_indexed_c_entry_3",
        ],
    )
    def test_refused_before_any_write(self, path, build, message):
        s, E, a, b, c = build()
        before = [m.tobytes() for m in buffers_of(a, b, c)]
        with on_path(path) as registry_for:
            registry = registry_for(s)
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_batched(s, E, 1.0, a, b, 1.0, c, registry=registry)
        assert [m.tobytes() for m in buffers_of(a, b, c)] == before
        assert registry.fallback_count == 0

    @pytest.mark.parametrize("path", PATHS)
    def test_entry_made_read_only_after_first_use_is_refused(self, path):
        # Writability is scanned on every call, not cached with the table's
        # other facts: a flag flipped after the table was used and reused
        # (so the compiled path reads it in place) is still refused.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 6
        a, b, c = make_operands(s, E, np.random.default_rng(49))
        with on_path(path) as registry_for:
            registry = registry_for(s)
            for _ in range(2):
                run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            fallbacks = registry.fallback_count
            c.table[4].flags.writeable = False
            before = [m.tobytes() for m in buffers_of(a, b, c)]
            with pytest.raises(ValueError, match="^operand C: table entry 4 is read-only$"):
                run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
        assert [m.tobytes() for m in buffers_of(a, b, c)] == before
        assert registry.fallback_count == fallbacks

    @pytest.mark.parametrize("path", ["lanes", "compiled"])
    @pytest.mark.parametrize("c_kind, uses", [("i", 1), ("i", 2), ("s", 1), ("c", 1)])
    def test_direct_call_refuses_a_read_only_c_entry_before_any_write(self, path, c_kind, uses):
        # Called directly, past run_batched's check, a read-only entry past
        # the first, or a read-only Strided or Constant buffer, is refused
        # with the contract's message before C is staged or written, on
        # either kernel path, not when a write reaches it, with the table's
        # addresses read before (uses == 2) or not.
        s = spec(Layout.ColMajor, 2, 3, 4, "ci" + c_kind)
        E = 4
        a, b, c = make_operands(s, E, np.random.default_rng(53))
        if c_kind == "i":
            C = PointerTable(m.copy() for m in c.table)
            C[2].flags.writeable = False
            message = "table entry 2"
        else:
            C = c.data.copy()
            C.flags.writeable = False
            message = "buffer"
        before = [m.tobytes() for m in (C if c_kind == "i" else [C])]
        with on_path(path) as registry_for:
            kernel = registry_for(s).lookup(kernel_name(s))
            for _ in range(uses - 1):
                C.addresses
            with pytest.raises(ValueError, match=f"^operand C: {message} is read-only$"):
                kernel(E, 1.0, a.data, a.ld, b.table, b.ld, 1.0, C, c.ld, 8, 12, 6)
        assert [m.tobytes() for m in (C if c_kind == "i" else [C])] == before
        assert kernel.path_counts == {}

    @pytest.mark.parametrize("E", [1, 2, 7])
    @pytest.mark.parametrize("step", [8, -8, 0, 4, -4, -2, 12, 24])
    @pytest.mark.parametrize("padding", [0, 1, 2, 5])
    def test_strided_c_layout_is_decided_as_by_sorting(self, E, step, padding):
        # A Strided C's own overlap is decided by sorting its byte extents,
        # and refused with the first pair in address order.  Steps
        # of 0 and 4 bytes, and negative ones, come from as_strided views;
        # padding 0 is span == matrix span.
        s = spec(Layout.ColMajor, 2, 3, 4, "ccs")
        min_span = matrix_span(s, "C", 2)
        span = min_span + padding
        count = (E - 1) * span + min_span
        pool = np.zeros(count * 3 + 8)
        start = pool[count * 3 + 4 :] if step < 0 else pool
        data = np.lib.stride_tricks.as_strided(start, shape=(count,), strides=(step,))
        a, b, _ = make_operands(s, E, np.random.default_rng(50))
        c = BatchedOperand.strided(data, 2, span)
        spans = [op.validate(which, s, E) for which, op in zip("ABC", (a, b, c))]
        clash = sort_extents(*_byte_extents(c, min_span, E))[2]
        want = None if clash is None else (
            f"operand C: the matrices of batch elements {clash[0]} and {clash[1]} overlap"
        )
        try:
            _check_disjoint(E, (a, b, c), spans)
        except ValueError as error:
            got = str(error)
        else:
            got = None
        assert got == want
        assert (got is None) == (E == 1 or (padding + 1) * abs(step) >= 8)

    @settings(max_examples=150, deadline=None)
    @given(
        E=st.integers(1, 5),
        offsets=st.lists(st.integers(0, 60), min_size=10, max_size=10),
        own=st.lists(st.booleans(), min_size=11, max_size=11),
        b_offset=st.integers(0, 32),
        read_only=st.sets(st.integers(0, 9), max_size=1),
        padding=st.one_of(st.none(), st.integers(0, 3)),
    )
    def test_paths_agree_or_refuse_alike(self, E, offsets, own, b_offset, read_only, padding):
        # Each A and C entry is a view of one pool at a random offset, or an
        # allocation of its own (own[e] for A, own[5 + e] for C), so C may
        # overlap itself or A; one C entry may be read-only.  B is Constant
        # (padding None) or Strided, its span padded past its matrix, in a
        # buffer that ends at its last matrix, from the pool at b_offset or
        # of its own (own[10]).  Every path runs the call, or refuses it with
        # the same message, exactly when a pairwise comparison of byte
        # extents finds C overlapping itself, A or B, or else C is read-only:
        # the overlap rule is checked first, writability by the run.
        s = spec(Layout.ColMajor, 2, 2, 2, "ici" if padding is None else "isi")
        b_length = 4 if padding is None else (E - 1) * (4 + padding) + 4

        def build():
            rng = np.random.default_rng(36)
            pool = rng.uniform(-1.0, 1.0, 64)

            def take(index, offset, length=4):
                return rng.uniform(-1.0, 1.0, length) if own[index] else pool[offset : offset + length]

            a = BatchedOperand.indexed([take(e, offsets[e]) for e in range(E)], 2)
            b_data = take(10, b_offset, b_length)
            if padding is None:
                b = BatchedOperand.constant(b_data, 2)
            else:
                b = BatchedOperand.strided(b_data, 2, 4 + padding)
            c_table = [take(5 + e, offsets[5 + e]) for e in range(E)]
            for e in read_only & set(range(E)):
                c_table[e].flags.writeable = False
            operands = (a, b, BatchedOperand.indexed(c_table, 2))
            return operands, [pool, *buffers_of(*operands)]

        def extents(operand):
            if operand.kind is AccessKind.Indexed:
                starts = [m.ctypes.data for m in operand.table]
            elif operand.kind is AccessKind.Strided:
                starts = [operand.data.ctypes.data + 8 * e * operand.span for e in range(E)]
            else:
                starts = [operand.data.ctypes.data]
            return [(start, start + 32) for start in starts]

        def overlap(first, second):
            return any(lo < other_hi and other_lo < hi for lo, hi in first for other_lo, other_hi in second)

        outcomes = []
        paths = PATHS if jit_available() else ["lanes", "fallback"]
        for path in paths:
            operands, buffers = build()
            with on_path(path) as registry_for:
                try:
                    run_batched(s, E, 1.5, *operands[:2], 0.5, operands[2], registry=registry_for(s))
                except ValueError as error:
                    outcomes.append(("refused", str(error), [m.tobytes() for m in buffers]))
                else:
                    outcomes.append(("ran", "", [m.tobytes() for m in buffers]))
        assert outcomes[1:] == outcomes[:1] * (len(paths) - 1)
        kind, message, got = outcomes[0]
        (a, b, c), buffers = build()
        c_extents = extents(c)
        if any(overlap([x], c_extents[e + 1 :]) for e, x in enumerate(c_extents)):
            want = "operand C: the matrices of batch elements"
        elif overlap(extents(a), c_extents):
            want = "operand C overlaps operand A"
        elif overlap(extents(b), c_extents):
            want = "operand C overlaps operand B"
        elif read_only & set(range(E)):
            want = f"operand C: table entry {min(read_only)} is read-only"
        else:
            want = ""
        assert message.startswith(want) and (kind == "ran") == (want == "")
        if kind == "refused":
            assert got == [m.tobytes() for m in buffers]
        else:
            batched_ref(s, E, GemmScalars(1.5, 0.5), a, b, c)
            assert got == [m.tobytes() for m in buffers]

    @pytest.mark.parametrize("access", [a + b + c for a in "csi" for b in "csi" for c in "csi"])
    def test_generated_loop_runs_sequentially_only_for_constant_c(self, access, monkeypatch):
        # A spy under the decorator records the E each generated function
        # receives: 1 when the batch runs as lanes, E in the plain loop.
        seen = []
        decorate_with = vectorize.vectorize_batch_loop

        def spying(name):
            def decorate(py_fn):
                return decorate_with(name)(lambda E, *args: seen.append(E) or py_fn(E, *args))

            return decorate

        monkeypatch.setattr(vectorize, "vectorize_batch_loop", spying)
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        a, b, c = make_operands(s, 7, np.random.default_rng(37))
        with use_jit(False):
            run_batched(s, 7, 1.0, a, b, 1.0, c, registry=build_registry(s))
        assert seen == [7 if s.access_c is AccessKind.Constant else 1]


class TestSequentialWhenLanesWouldDiffer:
    """A Constant C, the one output the contract lets batch elements share.

    Every element accumulates into the same matrix, so lanes would differ
    from the loop; the call must keep the sequential loop's answer, which
    is the oracle's.  ``SERVED`` is the kernel path that must serve it.
    """

    PATH = "lanes"
    SERVED = "sequential"

    def test_constant_c_accumulates_over_batch(self):
        s = spec(Layout.ColMajor, 3, 2, 2, "sic")
        E = 5

        def build():
            rng = np.random.default_rng(32)
            a = BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * 6), 3, 6)
            b = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 4) for _ in range(E)], 2)
            return a, b, BatchedOperand.constant(rng.uniform(-1.0, 1.0, 6), 3)

        got, want = build(), build()
        with on_path(self.PATH) as registry_for:
            registry = registry_for(s)
            run_batched(s, E, 1.0, got[0], got[1], 1.0, got[2], registry=registry)
        assert registry.fallback_count == 0
        assert registry.lookup(kernel_name(s)).path_counts == {self.SERVED: 1}
        assert registry.lookup(kernel_name(s)).path_elements == {self.SERVED: E}
        batched_ref(s, E, GemmScalars(1.0, 1.0), *want)
        assert got[2].data.tobytes() == want[2].data.tobytes()


class TestCompiledStagingWhenLanesWouldDiffer(TestSequentialWhenLanesWouldDiffer):
    """The same batch on the C path, whose loop accumulates in order too."""

    PATH = "compiled"
    SERVED = "compiled"


ACCESS_TRIPLES = ["".join(t) for t in itertools.product("csi", repeat=3)]
#: Shapes of the parity sample, taken in turn; all from the criterion-1 lattice.
PARITY_SHAPES = [(1, 1, 1), (2, 3, 4), (4, 4, 4), (3, 1, 2)]
#: (E, alpha, beta): accumulate, overwrite over NaN, scale, and alpha == 0.
PARITY_CALLS = [(1, 1.0, 1.0), (7, 1.0, 0.0), (256, 0.5, 0.25), (1000, 0.0, 1.0)]

#: Runs in a fresh interpreter: one call of a shipped kernel on the C path,
#: then prints the compile events and every compiler command that ran.
CACHE_PROBE = """
import json, subprocess
import numpy as np
from bbdgemm import vectorize
from bbdgemm.kernels import KERNELS

commands = []
run = subprocess.run
subprocess.run = lambda args, *rest, **kw: commands.append(args) or run(args, *rest, **kw)
E = 3
c = np.zeros(4 * E)
KERNELS["bbdgemm_ColMajor_2_2_2_cis"](
    E, 1.0, np.ones(4), 2, [np.ones(4) for _ in range(E)], 2, 0.0, c, 2, 4, 4, 4
)
print(json.dumps({"events": vectorize.compile_log, "commands": commands, "c": c.tolist()}))
"""


@needs_cc
class TestCompiledPath:
    """The C twins of generated kernels: parity, build cache and build lock."""

    def test_lattice_sample_matches_oracle_bytewise(self):
        # Both layouts x all 27 access triples (54 kernels, shapes taken in
        # turn from PARITY_SHAPES), each at every PARITY_CALLS batch size,
        # on operands holding signed zeros, with C all NaN when beta == 0.
        events = len(vectorize.compile_log)
        rng = np.random.default_rng(44)
        for i, (layout, access) in enumerate(itertools.product(Layout, ACCESS_TRIPLES)):
            s = spec(layout, *PARITY_SHAPES[i % len(PARITY_SHAPES)], access)
            registry = build_registry(s)
            for E, alpha, beta in PARITY_CALLS:
                a, b, c = make_operands(s, E, rng)
                for buffer in buffers_of(a, b, c):
                    buffer[::3], buffer[1::5] = 0.0, -0.0
                for buffer in buffers_of(c) if beta == 0.0 else []:
                    buffer[...] = np.nan
                c_ref = clone_operand(c)
                with use_jit(True):
                    run_batched(s, E, alpha, a, b, beta, c, registry=registry)
                batched_ref(s, E, GemmScalars(alpha, beta), a, b, c_ref)
                got, want = buffers_of(c), buffers_of(c_ref)
                assert [m.tobytes() for m in got] == [m.tobytes() for m in want], (
                    f"{kernel_name(s)} E={E}"
                )
            assert registry.lookup(kernel_name(s)).path_counts == {"compiled": len(PARITY_CALLS)}
        built = vectorize.compile_log[events:]
        print(
            f"\nC parity sample: {len(built)} kernels made ready in "
            f"{sum(e.seconds for e in built):.1f} s "
            f"({sum(not e.cache_hit for e in built)} built, {sum(e.cache_hit for e in built)} cached)"
        )

    @pytest.mark.parametrize(
        "entries",
        ["pooled_views", "longer_than_span", "read_only_a_b", "shared_a_b", "non_contiguous"],
    )
    def test_reused_indexed_operands_are_read_in_place(self, entries, monkeypatch):
        # From a table's first use, C reads every contiguous table through
        # its address array: no staging copy, no write-back, and the oracle's
        # bytes, elements past a matrix included.  A table whose entries are
        # not C-contiguous is served by lanes, with the same bytes.
        s = spec(Layout.ColMajor, 3, 3, 3, "iii")
        E = 9
        staged = []
        for helper in ("_gather", "_scatter"):
            original = getattr(vectorize, helper)
            monkeypatch.setattr(
                vectorize, helper, lambda *args, f=original, n=helper: staged.append(n) or f(*args)
            )

        def build():
            # Views take A's, B's and C's matrices from one pool, in turn.
            rng = np.random.default_rng(46)
            step = 2 if entries == "non_contiguous" else 1
            span = matrix_span(s, "A", 3)  # 9, as for B and C
            pool = rng.uniform(-1.0, 1.0, 3 * step * E * span)
            operands = []
            for offset, which in zip(range(0, pool.size, step * E * span), "ABC"):
                if entries == "longer_than_span":
                    table = [rng.uniform(-1.0, 1.0, span + 3) for _ in range(E)]
                else:
                    starts = offset + step * span * rng.permutation(E)
                    table = [pool[o : o + step * span : step] for o in starts]
                for entry in table if entries == "read_only_a_b" and which != "C" else []:
                    entry.flags.writeable = False
                operands.append(BatchedOperand.indexed(table, 3))
            if entries == "shared_a_b":
                operands[1] = operands[0]
            return operands

        got, lanes, want = build(), build(), build()
        registry = build_registry(s)
        with use_jit(True):
            for _ in range(2):
                run_batched(s, E, 1.5, got[0], got[1], 0.5, got[2], registry=registry)
        copied = 2 * (["_gather"] * 3 + ["_scatter"]) if entries == "non_contiguous" else []
        assert staged == copied
        path = "lanes" if entries == "non_contiguous" else "compiled"
        assert registry.lookup(kernel_name(s)).path_counts == {path: 2}
        with use_jit(False):
            for _ in range(2):
                run_batched(s, E, 1.5, lanes[0], lanes[1], 0.5, lanes[2], registry=registry)
        for _ in range(2):
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
        expected = [m.tobytes() for m in buffers_of(*want)]
        assert [m.tobytes() for m in buffers_of(*got)] == expected
        assert [m.tobytes() for m in buffers_of(*lanes)] == expected

    @needs_reader
    def test_a_table_is_read_in_place_from_its_first_use(self, monkeypatch):
        # The table reader reads each Indexed table's addresses once, on its
        # first call, in one compiled pass: no entry's address is read in
        # Python, and no matrix is copied, on that call or later ones.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 6
        rng = np.random.default_rng(47)
        a, b, c = make_operands(s, E, rng)
        a, c = (BatchedOperand.indexed([m.copy() for m in op.table], op.ld) for op in (a, c))
        want = [clone_operand(op) for op in (a, b, c)]
        reads, python_reads, copies = [], [], []
        with use_jit(True):
            reader = vectorize.table_reader()
        counting = SimpleNamespace(
            first_read_only=reader.first_read_only,
            entries=lambda table, *out: reads.append(table) or reader.entries(table, *out),
            run_prepared=reader.run_prepared,
        )
        monkeypatch.setattr(vectorize, "table_reader", lambda: counting)
        read_address = core._ADDRESS
        monkeypatch.setattr(core, "_ADDRESS", lambda m: python_reads.append(m) or read_address(m))
        gather = vectorize._gather
        monkeypatch.setattr(vectorize, "_gather", lambda *args: copies.append(args) or gather(*args))
        registry = build_registry(s)
        seen = []
        with use_jit(True):
            for _ in range(3):
                run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
                seen.append((len(reads), len(python_reads), len(copies)))
                batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
        assert seen == [(2, 0, 0)] * 3
        # The overlap rule reads C's table first, then A's.
        assert reads[0] is c.table and reads[1] is a.table
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 3}
        assert [m.tobytes() for m in c.table] == [m.tobytes() for m in want[2].table]

    @pytest.mark.parametrize("uses", [1, 2])
    def test_direct_call_never_writes_a_read_only_c_entry(self, uses):
        # Called directly, past run_batched's contract check, the kernel
        # still refuses to write through a read-only C entry, whether the
        # table's addresses were read before (uses == 2) or not: before it
        # chooses a path.
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        E = 4
        a, b, c = make_operands(s, E, np.random.default_rng(48))
        frozen = bytes(len(c.table[0]) * 8)
        table = PointerTable([np.frombuffer(frozen), *c.table[1:]])
        kernel = build_registry(s).lookup(kernel_name(s))
        with use_jit(True):
            for _ in range(uses - 1):
                table.addresses
            with pytest.raises(ValueError, match="read-only"):
                kernel(E, 1.0, a.data, a.ld, b.table, b.ld, 1.0, table, c.ld, 8, 12, 6)
        assert frozen == bytes(len(frozen))
        assert kernel.path_counts == {}

    @needs_reader
    @pytest.mark.parametrize("how", ["direct", "bound"])
    def test_plain_list_operands_stay_readable_until_the_run(self, how):
        # Indexed operands given as plain lists are wrapped in tables made
        # for the call; the call keeps the address arrays it hands to C.
        # A bound call is run after a collection and after small arrays that
        # would reuse freed address arrays' memory, each pointing at zeros.
        s = spec(Layout.ColMajor, 2, 3, 4, "iii")
        E = 6
        a, b, c = make_operands(s, E, np.random.default_rng(49))
        want = [clone_operand(op) for op in (a, b, c)]
        A, B, C = (list(op.table) for op in (a, b, c))
        spans = [matrix_span(s, which, op.ld) for which, op in zip("ABC", (a, b, c))]
        kernel = build_registry(s).lookup(kernel_name(s))
        with use_jit(True):
            if how == "direct":
                kernel(E, 1.5, A, a.ld, B, b.ld, 0.5, C, c.ld, *spans)
            else:
                run = kernel.bind(E, A, a.ld, B, b.ld, C, c.ld, *spans)
                gc.collect()
                zeros = np.zeros(max(spans))
                decoys = [np.full(E, zeros.ctypes.data, dtype=np.intp) for _ in range(64)]
                run(1.5, 0.5)
                del decoys
        batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
        assert [m.tobytes() for m in C] == [m.tobytes() for m in want[2].table]
        assert kernel.path_counts == {"compiled": 1}

    def test_no_compiler_takes_lanes_with_the_same_bytes(self, monkeypatch):
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        got = make_operands(s, 9, np.random.default_rng(45))
        want = tuple(clone_operand(op) for op in got)
        with use_jit(True):
            run_batched(s, 9, 1.5, *got[:2], 0.5, got[2], registry=build_registry(s))
        monkeypatch.setattr(vectorize, "_find_compiler", lambda: None)
        assert not vectorize.jit_available() and not vectorize.jit_enabled()
        registry = build_registry(s)
        with use_jit(True):  # the switch cannot turn on a missing compiler
            run_batched(s, 9, 1.5, *want[:2], 0.5, want[2], registry=registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"lanes": 1}
        assert registry.lookup(kernel_name(s)).path_elements == {"lanes": 9}
        assert [m.tobytes() for m in got[2].table] == [m.tobytes() for m in want[2].table]

    def test_environment_is_the_master_switch(self, monkeypatch):
        monkeypatch.setenv("BBDGEMM_JIT", "off")
        with use_jit(True):
            assert not vectorize.jit_enabled()
        monkeypatch.delenv("BBDGEMM_JIT")
        assert vectorize.jit_enabled()
        with use_jit(False):
            assert not vectorize.jit_enabled()

    def test_the_switch_is_read_on_every_call(self, monkeypatch):
        # Setting and deleting BBDGEMM_JIT through os.environ takes effect
        # on the next call, and so does a plain mapping put in its place.
        monkeypatch.delenv("BBDGEMM_JIT", raising=False)
        seen = [vectorize.jit_enabled()]
        os.environ["BBDGEMM_JIT"] = " False "
        try:
            seen.append(vectorize.jit_enabled())
            os.environ["BBDGEMM_JIT"] = "1"
            seen.append(vectorize.jit_enabled())
            os.environ["BBDGEMM_JIT"] = "no"
            seen.append(vectorize.jit_enabled())
        finally:
            del os.environ["BBDGEMM_JIT"]
        seen.append(vectorize.jit_enabled())
        assert seen == [True, False, True, False, True]
        monkeypatch.setattr(os, "environ", {"BBDGEMM_JIT": "off"})
        assert not vectorize.jit_enabled()
        del os.environ["BBDGEMM_JIT"]
        assert vectorize.jit_enabled()

    def test_second_process_loads_from_the_cache(self, tmp_path):
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), BBDGEMM_JIT="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
        )
        runs = []
        for _ in range(2):
            done = subprocess.run(
                [sys.executable, "-c", CACHE_PROBE], env=env, capture_output=True, text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        first, second = runs
        # The call reads B's table, so the table reader is made ready first.
        names = ["table_reader"] * has_reader_headers + ["bbdgemm_ColMajor_2_2_2_cis"]
        assert [event[:3:2] for event in first["events"]] == [[name, False] for name in names]
        assert sum("-shared" in command for command in first["commands"]) == len(names)
        assert [event[:3:2] for event in second["events"]] == [[name, True] for name in names]
        assert not any("-shared" in command for command in second["commands"])
        assert first["c"] == second["c"] == [2.0] * 12
        assert [p.suffix for p in (tmp_path / "bbdgemm").iterdir()] == [".so"] * len(names)
        assert (tmp_path / "bbdgemm").stat().st_mode & 0o777 == 0o700

    def test_threads_compile_a_fresh_kernel_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        s = spec(Layout.ColMajor, 3, 2, 4, "sis")
        kernel = build_kernel(s)
        registry = KernelRegistry({kernel_name(s): kernel})
        events = len(vectorize.compile_log)
        start = threading.Barrier(4)
        failures = []

        def worker(seed):
            try:
                a, b, c = make_operands(s, 50, np.random.default_rng(seed))
                c_ref = clone_operand(c)
                start.wait(timeout=30)
                run_batched(s, 50, 1.0, a, b, 1.0, c, registry=registry)
                batched_ref(s, 50, GemmScalars(1.0, 1.0), a, b, c_ref)
                if c.data.tobytes() != c_ref.data.tobytes():
                    failures.append(seed)
            except Exception as error:  # surfaced below; threads must not die silently
                failures.append((seed, error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with use_jit(True):
                threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        built = [e for e in vectorize.compile_log[events:] if e.kernel == kernel_name(s)]
        assert [e.cache_hit for e in built] == [False]
        assert kernel.path_counts == {"compiled": 4}
        assert kernel.path_elements == {"compiled": 200}


#: Lengths of C's contiguous dimension the edge tests cover: every chunk of
#: the C twin's vector statements (8, 4, 2, 1) and every tail after them.
GROUP_LENGTHS = [*range(1, 18), 20]
#: Values mixed into the edge tests' operands.  The one NaN is the one this
#: machine's arithmetic makes (inf * 0), so every NaN a path computes has the
#: same bits: IEEE 754 leaves open which NaN operand a result carries, and
#: neither numpy nor the C compiler fixes the operand order of ``a * b``.
SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.inf * 0.0])


def with_specials(operands, rng):
    """*operands* with about one element in eight of each buffer replaced by a special value."""
    for buffer in buffers_of(*operands):
        hit = rng.random(buffer.shape) < 0.125
        buffer[hit] = rng.choice(SPECIALS, int(hit.sum()))
    return operands


def one_double_past_a_line(values):
    """A copy of *values* whose first element sits 8 bytes past a 64-byte boundary."""
    raw = np.empty(values.size + 16)
    skip = (-raw.ctypes.data % 64) // 8 + 1
    out = raw[skip : skip + values.size]
    out[...] = values
    assert out.ctypes.data % 64 == 8
    return out


@needs_cc
class TestExplicitVectors:
    """The C twin's vector statements: every chunk and tail, IEEE edge values, unaligned operands."""

    def run_both(self, s, E, alpha, beta, a, b, c, registry):
        c_ref = clone_operand(c)
        with use_jit(True):
            run_batched(s, E, alpha, a, b, beta, c, registry=registry)
        batched_ref(s, E, GemmScalars(alpha, beta), a, b, c_ref)
        assert [m.tobytes() for m in buffers_of(c)] == [m.tobytes() for m in buffers_of(c_ref)], (
            f"{kernel_name(s)} alpha={alpha} beta={beta}"
        )

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("c_kind", list("csi"))
    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("length", GROUP_LENGTHS)
    def test_every_group_length_gives_the_oracle_bytes(self, length, layout, c_kind):
        # Three groups of *length* elements (a pair and one alone); A and B
        # take each access kind in turn.  A Constant C accumulates over the
        # batch in order.  Each alpha and beta, on operands holding signed
        # zeros, infinities and NaN.
        a_kind, b_kind = "csi"[length % 3], "csi"[length // 3 % 3]
        n, m = (length, 3) if layout is Layout.ColMajor else (3, length)
        s = spec(layout, n, m, 2, a_kind + b_kind + c_kind)
        registry = build_registry(s)
        rng = np.random.default_rng(length)
        calls = list(itertools.product((1.0, -0.0), (0.0, -0.0, 1.0, 0.37)))
        for alpha, beta in calls:
            self.run_both(s, 3, alpha, beta, *with_specials(make_operands(s, 3, rng), rng), registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": len(calls)}

    def test_a_kernel_at_the_shape_bound(self):
        # N = 64, the one per-dimension bound: the Python kernel and its C
        # twin are generated under the same bound, so the twin builds and runs.
        s = spec(Layout.ColMajor, DEFAULT_MAX_DIM, 2, 1, "sis")
        registry = build_registry(s)
        self.run_both(s, 5, 1.5, 0.5, *make_operands(s, 5, np.random.default_rng(64)), registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 1}

    @pytest.mark.parametrize("layout", list(Layout))
    def test_strided_buffers_one_double_past_a_line(self, layout):
        s = spec(layout, 10, 9, 9, "sss")
        E = 5
        a, b, c = (
            BatchedOperand.strided(one_double_past_a_line(op.data), op.ld, op.span)
            for op in make_operands(s, E, np.random.default_rng(61))
        )
        registry = build_registry(s)
        self.run_both(s, E, 1.5, 0.5, a, b, c, registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 1}

    @pytest.mark.parametrize("lda, span", [(10, 91), (21, 191)], ids=["odd_span", "odd_ld"])
    def test_odd_padded_strided_a(self, lda, span):
        # The proxy's 10x9x9 sci kernel: batch element e of A starts e*span
        # elements in, and each column of A lda elements after the last.
        s = spec(Layout.ColMajor, 10, 9, 9, "sci")
        E = 6
        rng = np.random.default_rng(62)
        a = BatchedOperand.strided(rng.uniform(-1.0, 1.0, (E - 1) * span + matrix_span(s, "A", lda)),
                                   lda, span)
        _, b, c = make_operands(s, E, rng)
        registry = build_registry(s)
        self.run_both(s, E, 1.0, 1.0, a, b, c, registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 1}

    @pytest.mark.parametrize("layout", list(Layout))
    def test_indexed_views_at_odd_offsets(self, layout):
        s = spec(layout, 20, 9, 10, "iii")
        E = 7
        rng = np.random.default_rng(63)
        operands = []
        for which in "ABC":
            ld = operand_dims(s, which).min_ld
            size = matrix_span(s, which, ld)
            pool = rng.uniform(-1.0, 1.0, 2 * E * (size + 1) + size)
            table = [pool[start : start + size] for start in range(1, 2 * E * (size + 1), 2 * (size + 1))]
            assert all(entry.ctypes.data % 16 == 8 for entry in table)
            operands.append(BatchedOperand.indexed(table, ld))
        registry = build_registry(s)
        self.run_both(s, E, 1.5, 0.5, *operands, registry)
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 1}


class _Tagged(np.ndarray):
    """An ndarray subclass, to stand in a pointer table as an entry."""


class TestTableReader:
    """The compiled reader of a table's writable flags and addresses, and the scans it replaces."""

    @needs_reader
    def test_reader_loads_where_cc_and_headers_are_present(self):
        with use_jit(True):
            assert vectorize.table_reader() is not None
        with use_jit(False):
            assert vectorize.table_reader() is None
        assert "table_reader" in [event.kernel for event in vectorize.compile_log]

    @needs_reader
    def test_build_cache_is_keyed_on_the_numpy_version(self, tmp_path, monkeypatch):
        # A second load is a cache hit; another numpy version builds another
        # object.  Every build or load is logged under the one name.
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        events = len(vectorize.compile_log)
        table = PointerTable([np.zeros(2), np.zeros(3)])
        table[1].flags.writeable = False
        names = []
        for version in (np.__version__, np.__version__, np.__version__ + "+other"):
            monkeypatch.setattr(np, "__version__", version)
            assert vectorize._load_table_reader().first_read_only(table) == 1
            names.append(sorted(path.name for path in (tmp_path / "bbdgemm").iterdir()))
        assert len(names[0]) == 1 and names[0][0].startswith("table_reader-")
        assert names[1] == names[0]
        assert len(names[2]) == 2 and names[0][0] in names[2]
        logged = [(event.kernel, event.cache_hit) for event in vectorize.compile_log[events:]]
        assert logged == [("table_reader", False), ("table_reader", True), ("table_reader", False)]

    @pytest.mark.parametrize("compiler", ["cc", "gcc", "clang"])
    def test_reader_source_compiles_warning_free(self, compiler, tmp_path):
        # The reader's source, run_prepared included, builds with every
        # warning an error, with the package's flags and against both
        # include directories, under each compiler found on PATH.
        if shutil.which(compiler) is None:
            pytest.skip(f"no {compiler} on PATH")
        if not has_reader_headers:
            pytest.skip("no Python.h or numpy's headers")
        source = tmp_path / "table_reader.c"
        source.write_text(vectorize._TABLE_READER_SOURCE)
        includes = [f"-I{directory}" for directory in vectorize._reader_includes()]
        done = subprocess.run(
            [compiler, "-Wall", "-Wextra", "-Werror", *vectorize._CFLAGS, *includes,
             "-o", str(tmp_path / "table_reader.so"), str(source)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @needs_reader
    @pytest.mark.parametrize(
        "kind", ["contiguous", "every_other", "reversed", "one_wide_stride", "subclass", "own_data", "mixed"]
    )
    def test_both_sources_of_table_facts_agree(self, kind, monkeypatch):
        # The reader's one pass and the Python-level scans give the same
        # addresses, strides and contiguity: numpy's c_contiguous flag, so
        # a length-1 entry is contiguous whatever its stride.
        pool = np.arange(64.0)
        kinds = {
            "contiguous": (lambda o: pool[o : o + 4], [8] * 3, True),
            "every_other": (lambda o: pool[o : o + 8 : 2], [16] * 3, False),
            "reversed": (lambda o: pool[o + 3 : o - 1 if o else None : -1], [-8] * 3, False),
            "one_wide_stride": (lambda o: pool[o : o + 2 : 2], [16] * 3, True),
            "subclass": (lambda o: pool[o : o + 4].view(_Tagged), [8] * 3, True),
            "own_data": (lambda o: pool[o : o + 4].copy(), [8] * 3, True),
        }
        if kind == "mixed":
            entries = [kinds[name][0](8 * i) for i, name in enumerate(kinds)]
            strides, contiguous = [8, 16, -8, 16, 8, 8], False
        else:
            build, strides, contiguous = kinds[kind]
            entries = [build(o) for o in (0, 20, 40)]

        def facts():
            table = PointerTable(entries)
            return table.addresses.tolist(), table.strides.tolist(), table.contiguous

        with use_jit(True):
            compiled = facts()
            monkeypatch.setattr(vectorize, "table_reader", lambda: None)
            scanned = facts()
        assert compiled == scanned == ([e.ctypes.data for e in entries], strides, contiguous)

    @pytest.mark.parametrize("E", [1, 2, 900])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_both_scans_refuse_the_same_entry(self, E, where, monkeypatch):
        # With and without the reader, a read-only C entry (and the first
        # of two) is refused with the same message before any byte is
        # written: by run_batched on each path and by a direct kernel call.
        # The table holds an entry that owns its data, views of a pool, and
        # an ndarray subclass.  Its addresses are each entry's either way.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        bad = {"first": 0, "middle": E // 2, "last": E - 1}[where]
        a, b, c = make_operands(s, E, np.random.default_rng(56))
        entries = list(c.table)
        entries[0] = entries[0].copy()
        entries[E // 2] = entries[E // 2].view(_Tagged)
        for e in {bad, E - 1}:
            entries[e].flags.writeable = False
        c = BatchedOperand.indexed(entries, c.ld)
        calls = [("lanes", False), ("fallback", True)]
        calls += [("compiled", True), ("direct", True)] if jit_available() else []

        def refusals():
            messages = []
            for path, jit in calls:
                registry = KernelRegistry({}) if path == "fallback" else build_registry(s)
                before = [m.tobytes() for m in buffers_of(a, b, c)]
                with use_jit(jit), pytest.raises(ValueError) as refused:
                    if path == "direct":
                        kernel = registry.lookup(kernel_name(s))
                        kernel(E, 1.5, a.table, a.ld, b.data, b.ld, 0.5, c.table, c.ld, 8, 12, 6)
                    else:
                        run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
                messages.append(str(refused.value))
                assert [m.tobytes() for m in buffers_of(a, b, c)] == before
                assert registry.fallback_count == 0
            with use_jit(True):
                assert PointerTable(entries).addresses.tolist() == [e.ctypes.data for e in entries]
            return messages

        with_reader = refusals()
        monkeypatch.setattr(vectorize, "table_reader", lambda: None)
        without_reader = refusals()
        assert with_reader == without_reader == [f"operand C: table entry {bad} is read-only"] * len(calls)


def padded_sci_operands(E, seed):
    """Strided A with room for ld 3, Constant B and Indexed C of ColMajor 2x3x4 "sci"."""
    rng = np.random.default_rng(seed)
    a = BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * 12), 2, 12)
    b = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 12), 4)
    c = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 6) for _ in range(E)], 2)
    return [a, b, c]


class TestPreparedCall:
    """A call that repeats the last one on its C reuses its checked contract, and nothing stale."""

    @staticmethod
    def count(monkeypatch, target, name):
        calls = []
        original = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *args, **kw: calls.append(args) or original(*args, **kw))
        return calls

    @staticmethod
    def operands(access, E, seed):
        if access == "sci":
            return padded_sci_operands(E, seed)
        return list(make_operands(spec(Layout.ColMajor, 2, 3, 4, access), E, np.random.default_rng(seed)))

    @pytest.mark.parametrize("path", PATHS)
    def test_a_repeat_makes_no_contract_check_and_reads_the_switch_once(self, path, monkeypatch):
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 6
        a, b, c = make_operands(s, E, np.random.default_rng(60))
        want = [clone_operand(op) for op in (a, b, c)]
        validated = self.count(monkeypatch, BatchedOperand, "validate")
        disjoint = self.count(monkeypatch, runtime_mod, "_check_disjoint")
        prepared = self.count(monkeypatch, runtime_mod, "_prepare")
        switch = self.count(monkeypatch, vectorize, "jit_enabled")
        with on_path(path) as registry_for:
            registry = registry_for(s)
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
            assert (len(validated), len(disjoint), len(prepared)) == (3, 1, 1)
            seen = []
            for alpha, beta in [(0.5, 1.0), (-1.0, 0.0), (2.0, 0.25)]:
                validated.clear(), disjoint.clear(), prepared.clear(), switch.clear()
                run_batched(s, E, alpha, a, b, beta, c, registry=registry)
                batched_ref(s, E, GemmScalars(alpha, beta), *want)
                seen.append((len(validated), len(disjoint), len(prepared), len(switch)))
        assert seen == [(0, 0, 0, 1)] * 3
        assert [m.tobytes() for m in c.table] == [m.tobytes() for m in want[2].table]
        if path == "fallback":
            assert registry.fallback_count == 4
        else:
            assert registry.lookup(kernel_name(s)).path_counts == {path: 4}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "change",
        [
            "a_ld", "a_data", "c_table", "fewer_elements", "registry", "use_jit",
            "a_shape_in_place", "a_dtype_in_place",
        ],
    )
    def test_a_change_prepares_afresh(self, path, change, monkeypatch):
        # After a first call, each change makes the next call check the
        # contract again: it gives batched_ref's bytes, or today's refusal
        # with nothing written.
        if change == "use_jit" and not jit_available():
            pytest.skip("no C compiler (cc) on PATH: the switch cannot flip")
        access = "scs" if change == "fewer_elements" else "sci"
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5
        got, want = self.operands(access, E, 61), self.operands(access, E, 61)
        prepared = self.count(monkeypatch, runtime_mod, "_prepare")
        jit = path == "compiled"
        with on_path(path) as registry_for:
            registry = registry_for(s)
            run_batched(s, E, 1.5, *got[:2], 0.5, got[2], registry=registry)
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
            refusal = None
            if change == "a_ld":
                for operands in (got, want):
                    operands[0] = replace(operands[0], ld=3)
            elif change == "a_data":
                for operands in (got, want):
                    operands[0] = replace(operands[0], data=operands[0].data[::-1].copy())
            elif change == "c_table":
                for operands in (got, want):
                    operands[2] = replace(
                        operands[2], table=PointerTable(m.copy() for m in operands[2].table)
                    )
            elif change == "fewer_elements":
                E -= 2
            elif change == "registry":
                registry = registry_for(s)
            elif change == "use_jit":
                jit = not jit
            else:
                refusal = "operand A: buffer must be a flat float64 ndarray, got ndarray"
                if change == "a_shape_in_place":
                    got[0].data.shape = (2, -1)
                else:
                    got[0].data.dtype = np.int64
            before = [m.tobytes() for m in buffers_of(*got)]
            fallbacks = registry.fallback_count
            with use_jit(jit):
                if refusal:
                    with pytest.raises(ValueError, match=f"^{refusal}$"):
                        run_batched(s, E, 0.5, *got[:2], 1.0, got[2], registry=registry)
                else:
                    run_batched(s, E, 0.5, *got[:2], 1.0, got[2], registry=registry)
                    batched_ref(s, E, GemmScalars(0.5, 1.0), *want)
        assert len(prepared) == 2
        if refusal:
            assert [m.tobytes() for m in buffers_of(*got)] == before
            assert registry.fallback_count == fallbacks
        else:
            assert [m.tobytes() for m in buffers_of(*got)] == [m.tobytes() for m in buffers_of(*want)]

    @pytest.mark.parametrize("access", ["sci", "ics"])
    def test_each_fact_is_matched_alone(self, access):
        # Changing any one fact a repeat is matched on fails the match, and
        # restoring it matches again: the call's spec, E, A, B and registry.
        # A flat buffer's shape changed in place is the kept runner's to
        # find: it returns False and writes nothing.  No operand field can
        # change: each assignment is refused.
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5
        a, b, c = operands = self.operands(access, E, 67)
        registry = build_registry(s)
        with use_jit(False):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            prepared = c._prepared

            def repeats(*call):
                return runtime_mod._repeats(prepared, *(call or (s, E, a, b, registry)))

            missed = [
                index for index, call in enumerate([
                    (spec(Layout.RowMajor, 2, 3, 4, access), E, a, b, registry),
                    (s, E - 1, a, b, registry),
                    (s, E, copy.copy(a), b, registry),
                    (s, E, a, copy.copy(b), registry),
                    (s, E, a, b, build_registry(s)),
                ]) if repeats(*call)
            ]
            for which, operand in zip("ABC", operands):
                for field in ("kind", "ld", "span", "table", "data"):
                    with pytest.raises(FrozenInstanceError):
                        setattr(operand, field, getattr(operand, field))
                if operand.kind is not AccessKind.Indexed:
                    shape = operand.data.shape
                    operand.data.shape = (1, -1)
                    before = [m.tobytes() for m in buffers_of(*operands)]
                    if prepared.runner(0.5, 1.0) is not False:
                        missed.append((which, "shape"))
                    if [m.tobytes() for m in buffers_of(*operands)] != before:
                        missed.append((which, "written"))
                    operand.data.shape = shape
            assert missed == []
            assert repeats()

    @pytest.mark.parametrize(
        "served",
        ["lanes", "sequential", "compiled", "compiled_without_reader", "without_bind", "fallback"],
    )
    def test_every_kept_runner_keeps_one_contract(self, served, monkeypatch):
        # Whatever serves the call, the runner run_batched keeps returns
        # True with batched_ref's bytes; returns False, with nothing written
        # or counted, after a flat A is reshaped in place; and refuses a
        # read-only C by name, with nothing written and no call or fallback
        # counted.  The same runner then runs again once C is writable.
        if served.startswith("compiled") and not jit_available():
            pytest.skip("no C compiler (cc) on PATH")
        if served == "compiled_without_reader":
            monkeypatch.setattr(vectorize, "table_reader", lambda: None)
        access = "sic" if served == "sequential" else "sci"
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5
        got, want = self.operands(access, E, 69), self.operands(access, E, 69)
        kernel = build_registry(s).lookup(kernel_name(s))
        registry = KernelRegistry(
            {} if served == "fallback"
            else {kernel_name(s): (lambda *args: kernel(*args)) if served == "without_bind" else kernel}
        )

        def state():
            return [m.tobytes() for m in buffers_of(*got)], dict(kernel.path_counts), registry.fallback_count

        with use_jit(served not in ("lanes", "sequential")):
            run = runtime_mod._prepare(s, E, *got[:2], got[2], registry).runner
            assert run(1.5, 0.5) is True
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
            after_first = state()
            assert after_first[0] == [m.tobytes() for m in buffers_of(*want)]
            shape = got[0].data.shape
            got[0].data.shape = (1, -1)
            assert run(0.5, 1.0) is False
            assert state() == after_first
            got[0].data.shape = shape
            if access == "sci":
                flags, message = got[2].table[E - 1].flags, f"table entry {E - 1}"
            else:
                flags, message = got[2].data.flags, "buffer"
            flags.writeable = False
            with pytest.raises(ValueError, match=f"^operand C: {message} is read-only$"):
                run(0.5, 1.0)
            assert state() == after_first
            flags.writeable = True
            assert run(-1.0, 0.25) is True
            batched_ref(s, E, GemmScalars(-1.0, 0.25), *want)
        path = {
            "compiled_without_reader": "compiled",
            "without_bind": "compiled" if jit_available() else "lanes",
        }.get(served, served)
        assert state() == (
            [m.tobytes() for m in buffers_of(*want)],
            {} if served == "fallback" else {path: 2},
            2 if served == "fallback" else 0,
        )

    @pytest.mark.parametrize("served", ["bind", "without_bind", "fallback"])
    def test_a_kept_call_does_not_keep_its_c(self, served):
        # C holds its kept call, so the call must not hold C: once the
        # caller drops C it is freed by reference counting alone, with the
        # cycle collector off.
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        kernel = build_registry(s).lookup(kernel_name(s))
        entry = {"bind": kernel, "without_bind": lambda *args: kernel(*args)}.get(served)
        registry = KernelRegistry({} if entry is None else {kernel_name(s): entry})
        a, b, c = make_operands(s, 4, np.random.default_rng(70))
        run_batched(s, 4, 1.0, a, b, 0.0, c, registry=registry)
        kept = weakref.ref(c)
        gc.disable()
        try:
            del c
            assert kept() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("caller", ["run_batched", "direct"])
    def test_a_run_refused_right_after_its_bind_raises(self, caller, monkeypatch):
        # A runner returns False when a flat operand changed since its bind,
        # which between a bind and its first run only another thread can
        # cause; both callers that bind and run at once then raise, with
        # nothing written and no run or fallback counted.
        s = spec(Layout.ColMajor, 2, 3, 4, "cis")
        kernel = build_registry(s).lookup(kernel_name(s))
        a, b, c = make_operands(s, 5, np.random.default_rng(71))
        before = [m.tobytes() for m in buffers_of(a, b, c)]

        def refused(alpha, beta):
            return False

        # A registry entry whose bind gives that runner; the kernel's own
        # bind gives it when vectorize.checked, which keeps its runs, does.
        registry = KernelRegistry({kernel_name(s): SimpleNamespace(bind=lambda *args: refused)})
        with use_jit(False), pytest.raises(ValueError, match="changed during the call"):
            if caller == "run_batched":
                run_batched(s, 5, 1.0, a, b, 0.5, c, registry=registry)
            else:
                monkeypatch.setattr(vectorize, "checked", lambda run, payloads, kinds: refused)
                kernel(5, 1.0, a.data, a.ld, b.table, b.ld, 0.5, c.data, c.ld, 8, 12, 6)
        assert [m.tobytes() for m in buffers_of(a, b, c)] == before
        assert dict(kernel.path_counts) == {} and registry.fallback_count == 0

    @needs_reader
    @pytest.mark.parametrize("access", ["cis", "cii"])
    def test_a_compiled_repeat_is_one_c_call(self, access, monkeypatch):
        # With the table reader, a compiled repeat makes one ctypes call,
        # the reader's run_prepared, with this call's alpha and beta: no
        # other call of the reader, no contract check and no Python-level
        # scan of C.  That call runs and counts the kernel.  The call is
        # never kept by vectorize.checked, whose runs check in Python.
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5
        a, b, c = make_operands(s, E, np.random.default_rng(66))
        want = [clone_operand(op) for op in (a, b, c)]
        registry = build_registry(s)
        calls = []
        with use_jit(True):
            reader = vectorize.table_reader()

        def counted(name):
            function = getattr(reader, name)
            return lambda *args: calls.append((name, *args[1:])) or function(*args)

        counting = SimpleNamespace(
            **{name: counted(name) for name in ("first_read_only", "entries", "run_prepared")}
        )
        monkeypatch.setattr(vectorize, "table_reader", lambda: counting)
        kept = self.count(monkeypatch, vectorize, "checked")
        with use_jit(True):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
            del calls[:]
            prepared = self.count(monkeypatch, runtime_mod, "_prepare")
            scans = self.count(monkeypatch, PointerTable, "check_writable")
            for alpha, beta in [(0.5, 1.0), (-1.0, 0.0)]:
                run_batched(s, E, alpha, a, b, beta, c, registry=registry)
                batched_ref(s, E, GemmScalars(alpha, beta), *want)
        assert calls == [("run_prepared", 0.5, 1.0), ("run_prepared", -1.0, 0.0)]
        assert (len(prepared), len(scans), len(kept)) == (0, 0, 0)
        assert [m.tobytes() for m in buffers_of(c)] == [m.tobytes() for m in buffers_of(want[2])]
        assert registry.lookup(kernel_name(s)).path_counts == {"compiled": 3}
        assert registry.lookup(kernel_name(s)).path_elements == {"compiled": 3 * E}

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("access", ["cis", "cii"])
    def test_c_made_read_only_after_a_call_is_refused(self, path, access, monkeypatch):
        # The one check a repeat makes: C's writable flags, read again
        # on every call, before any write and without counting a fallback.
        s = spec(Layout.ColMajor, 2, 3, 4, access)
        E = 5
        a, b, c = make_operands(s, E, np.random.default_rng(62))
        prepared = self.count(monkeypatch, runtime_mod, "_prepare")
        with on_path(path) as registry_for:
            registry = registry_for(s)
            for _ in range(2):
                run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            if access == "cis":
                c.data.flags.writeable = False
                message = "operand C: buffer is read-only"
            else:
                c.table[E - 1].flags.writeable = False
                message = f"operand C: table entry {E - 1} is read-only"
            before = [m.tobytes() for m in buffers_of(a, b, c)]
            fallbacks = registry.fallback_count
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
        assert len(prepared) == 1
        assert [m.tobytes() for m in buffers_of(a, b, c)] == before
        assert registry.fallback_count == fallbacks

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "calls",
        [[(0.0, 0.0), (0.0, -0.0)], [(0.0, -0.0), (-0.0, -0.0)]],
        ids=["beta", "alpha"],
    )
    def test_a_negative_zero_after_zero_is_its_own(self, path, calls):
        # 0.0 == -0.0, so a scalar kept with the call would pass for the
        # other: each run takes alpha and beta from its own call.  With
        # alpha 0 every element is a signed zero, and the second call's
        # signs differ from the first's.
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        E = 4
        got = make_operands(s, E, np.random.default_rng(63))
        want = [clone_operand(op) for op in got]
        seen = []
        with on_path(path) as registry_for:
            registry = registry_for(s)
            for alpha, beta in calls:
                run_batched(s, E, alpha, *got[:2], beta, got[2], registry=registry)
                batched_ref(s, E, GemmScalars(alpha, beta), *want)
                seen.append([m.tobytes() for m in want[2].table])
                assert [m.tobytes() for m in got[2].table] == seen[-1]
        assert seen[0] != seen[1]

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("duplicate", ["pickle", "deepcopy"])
    def test_a_copy_of_c_prepares_afresh(self, path, duplicate, monkeypatch):
        s = spec(Layout.ColMajor, 2, 3, 4, "sci")
        E = 5
        a, b, c = padded_sci_operands(E, 64)
        prepared = self.count(monkeypatch, runtime_mod, "_prepare")
        with on_path(path) as registry_for:
            registry = registry_for(s)
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            copied = pickle.loads(pickle.dumps(c)) if duplicate == "pickle" else copy.deepcopy(c)
            want = clone_operand(copied)
            assert copied._prepared is None and c._prepared is not None
            run_batched(s, E, 0.5, a, b, 1.0, copied, registry=registry)
            run_batched(s, E, 0.5, a, b, 1.0, c, registry=registry)
        batched_ref(s, E, GemmScalars(0.5, 1.0), a, b, want)
        assert len(prepared) == 2
        assert [m.tobytes() for m in copied.table] == [m.tobytes() for m in want.table]
        assert [m.tobytes() for m in copied.table] == [m.tobytes() for m in c.table]

    def test_operands_compare_by_identity(self):
        # An operand equals only itself and hashes by identity, as a repeat
        # is matched; a replaced operand, even with every field kept, is
        # another value.
        a, b, c = make_operands(S_CIS, 3, np.random.default_rng(68))
        for operand in (a, b, c):
            kept = replace(operand)
            assert operand == operand and operand != kept
            assert {operand: 1}[operand] == 1 and hash(operand) != hash(kept)

    def test_a_kernel_without_bind_sees_every_call(self):
        # A function wrapped around a kernel, such as a tracer's, is called
        # with every argument on each run, the current alpha and beta too.
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        E = 4
        a, b, c = make_operands(s, E, np.random.default_rng(65))
        kernel = build_registry(s).lookup(kernel_name(s))
        calls = []
        registry = KernelRegistry({kernel_name(s): lambda *args: calls.append(args) or kernel(*args)})
        for alpha in (1.0, 2.0, 3.0):
            run_batched(s, E, alpha, a, b, 0.5, c, registry=registry)
        assert [(args[0], args[1], args[6], len(args)) for args in calls] == [
            (E, alpha, 0.5, 12) for alpha in (1.0, 2.0, 3.0)
        ]
        assert sum(kernel.path_counts.values()) == 3


class TestProxyChain:
    """The proxy's two kernels on its operands, bit for bit, on both kernel paths."""

    @pytest.mark.parametrize("path", ["compiled", "lanes"])
    def test_chain_matches_oracle_bytewise(self, path):
        # 20_9_10_cis (beta 0) projects separately allocated Indexed entries
        # into a span-180 Strided scratch of NaN; 10_9_9_sci (beta 1) reads a
        # 10x9 window of it at lda 20 and accumulates into other Indexed
        # entries.  Two timesteps, so the tables' facts are both computed
        # (first use) and reused.
        E = 900
        project = spec(Layout.ColMajor, 20, 9, 10, "cis")
        accumulate = spec(Layout.ColMajor, 10, 9, 9, "sci")

        def build():
            rng = np.random.default_rng(54)
            qin = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 90) for _ in range(E)], 10)
            qout = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 90) for _ in range(E)], 10)
            op1 = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 200), 20)
            op2 = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 81), 9)
            scratch = BatchedOperand.strided(np.full(E * 180, np.nan), 20, 180)
            return qin, qout, op1, op2, scratch

        qin, qout, op1, op2, scratch = build()
        ref_qin, ref_qout, ref_op1, ref_op2, ref_scratch = build()
        with on_path(path) as registry_for:
            registry = registry_for(project, accumulate)
            for _ in range(2):
                run_batched(project, E, 1.0, op1, qin, 0.0, scratch, registry=registry)
                run_batched(accumulate, E, 1.0, scratch, op2, 1.0, qout, registry=registry)
                batched_ref(project, E, GemmScalars(1.0, 0.0), ref_op1, ref_qin, ref_scratch)
                batched_ref(accumulate, E, GemmScalars(1.0, 1.0), ref_scratch, ref_op2, ref_qout)
                assert scratch.data.tobytes() == ref_scratch.data.tobytes()
                assert [m.tobytes() for m in qout.table] == [m.tobytes() for m in ref_qout.table]
        served = {"compiled": 2} if path == "compiled" else {"lanes": 2}
        assert [registry.lookup(s.name).path_counts for s in (project, accumulate)] == [served] * 2
        assert registry.fallback_count == 0


class TestPointerTable:
    def make_cells(self, count=3, components=4, rows=2, cols=3):
        rng = np.random.default_rng(10)
        return [
            FakeCell([rng.uniform(-1, 1, rows * cols) for _ in range(components)], rows)
            for _ in range(count)
        ]

    def test_table_in_cell_order(self):
        cells = self.make_cells(3)
        operand = build_pointer_table(cells, 0)
        assert operand.kind is AccessKind.Indexed
        assert len(operand.table) == 3
        for e in range(3):
            assert operand.table[e] is cells[e].matrices[0]

    def test_component_out_of_range(self):
        cells = self.make_cells(2, components=4)
        with pytest.raises(ValueError, match=r"range \[0, 3\]"):
            build_pointer_table(cells, 4)

    def test_permuting_cells_permutes_table(self):
        cells = self.make_cells(5)
        operand = build_pointer_table(cells, 2)
        perm = [4, 2, 0, 3, 1]
        permuted = build_pointer_table([cells[p] for p in perm], 2)
        for e, p in enumerate(perm):
            assert permuted.table[e] is operand.table[p]

    def test_no_cells(self):
        with pytest.raises(ValueError, match="zero cells"):
            build_pointer_table([], 0)


class TestTableValue:
    """``BatchedOperand.indexed`` snapshots its table into a PointerTable value."""

    def test_mutating_the_source_list_changes_nothing(self):
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        registry = build_registry(s)
        a, b, c = make_operands(s, 6, np.random.default_rng(21))
        source = list(c.table)
        c = BatchedOperand.indexed(source, c.ld)
        c_ref = clone_operand(c)
        first, stranger = source[0], np.zeros(len(source[0]))
        source[0] = stranger
        source.append(np.zeros(len(first)))
        del source[1]
        assert len(c.table) == 6 and c.table[0] is first
        run_batched(s, 6, 1.5, a, b, 0.5, c, registry=registry)
        batched_ref(s, 6, GemmScalars(1.5, 0.5), a, b, c_ref)
        assert [m.tobytes() for m in c.table] == [m.tobytes() for m in c_ref.table]
        assert not stranger.any()

    def test_entries_are_scanned_once_across_calls(self, monkeypatch):
        # After the first call, validate reads the table's cached facts; only
        # C's writability is scanned per call.
        scans = []
        scan = core.flat_float64_buffers
        monkeypatch.setattr(
            core, "flat_float64_buffers", lambda buffers, *rest: scans.append(buffers) or scan(buffers, *rest)
        )
        registry = build_registry(S_CIS)
        a, b, c = make_operands(S_CIS, 8, np.random.default_rng(22))
        for _ in range(3):
            run_batched(S_CIS, 8, 1.0, a, b, 1.0, c, registry=registry)
        assert [scanned is b.table for scanned in scans] == [True]

    def test_c_writability_is_scanned_once_per_call(self, monkeypatch):
        # run_batched scans an Indexed C's writable flags once on every
        # call, in the kept runner: in Python with the table reader's scan
        # where there is one, or, on the compiled path with that reader,
        # inside the run's one C call (no Python-level scan; see the next
        # test), and the kernel's bound call does not scan them again.  A plain
        # function wrapped around the kernel has no bind of its own, so it
        # is called with every argument and the kernel scans C again, as a
        # direct kernel call does: in its one C call where the reader is
        # there, else once in Python.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 6
        a, b, c = make_operands(s, E, np.random.default_rng(51))
        scans = []
        check = PointerTable.check_writable
        monkeypatch.setattr(
            PointerTable, "check_writable", lambda table, *args: scans.append(table) or check(table, *args)
        )

        def count(call):
            scans.clear()
            call()
            assert all(table is c.table for table in scans)
            return len(scans)

        kernel = build_registry(s).lookup(kernel_name(s))
        wrapped = KernelRegistry({kernel_name(s): lambda *args: kernel(*args)})
        seen = {}
        for path, registry in [
            ("compiled", KernelRegistry({kernel_name(s): kernel})),
            ("lanes", build_registry(s)),
            ("fallback", KernelRegistry({})),
            ("wrapped", wrapped),
        ]:
            with use_jit(path != "lanes"):
                seen[path] = [
                    count(lambda: run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry))
                    for _ in range(3)
                ]
        with use_jit(True):
            seen["direct"] = [
                count(lambda: kernel(E, 1.5, a.table, a.ld, b.data, b.ld, 0.5, c.table, c.ld, 8, 12, 6))
                for _ in range(2)
            ]
        assert seen == {
            "compiled": [0, 0, 0] if has_reader else [1, 1, 1],
            "lanes": [1, 1, 1], "fallback": [1, 1, 1],
            "wrapped": [1, 1, 1] if has_reader else [2, 2, 2],
            "direct": [0, 0] if has_reader else [1, 1],
        }
        # Without a C compiler the JIT-enabled calls fall through to lanes.
        assert kernel.path_counts == {"compiled" if jit_available() else "lanes": 8}

    @needs_reader
    def test_a_compiled_repeat_refuses_a_read_only_entry_in_its_one_c_call(self, monkeypatch):
        # A compiled repeat scans C's writable flags in the same C call that
        # runs the kernel.  An entry flipped read-only before a repeat (the
        # first, a middle one, the last) is refused by name, with every C
        # byte as it was and no call counted; flipped back, the next repeat
        # runs and gives batched_ref's bytes.  No repeat prepares again.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 7
        a, b, c = make_operands(s, E, np.random.default_rng(54))
        want = [clone_operand(op) for op in (a, b, c)]
        registry = build_registry(s)
        kernel = registry.lookup(kernel_name(s))
        prepared = TestPreparedCall.count(monkeypatch, runtime_mod, "_prepare")
        with use_jit(True):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
            batched_ref(s, E, GemmScalars(1.5, 0.5), *want)
            for entry in (0, E // 2, E - 1):
                c.table[entry].flags.writeable = False
                before = [m.tobytes() for m in c.table]
                counts = (dict(kernel.path_counts), dict(kernel.path_elements))
                with pytest.raises(ValueError, match=f"^operand C: table entry {entry} is read-only$"):
                    run_batched(s, E, 0.5, a, b, 1.0, c, registry=registry)
                assert [m.tobytes() for m in c.table] == before
                assert (dict(kernel.path_counts), dict(kernel.path_elements)) == counts
                c.table[entry].flags.writeable = True
                run_batched(s, E, 0.5, a, b, 1.0, c, registry=registry)
                batched_ref(s, E, GemmScalars(0.5, 1.0), *want)
                assert [m.tobytes() for m in c.table] == [m.tobytes() for m in want[2].table]
        assert len(prepared) == 1
        assert kernel.path_counts == {"compiled": 4}
        assert kernel.path_elements == {"compiled": 4 * E}

    @pytest.mark.parametrize("path", ["lanes", "compiled"])
    def test_direct_call_after_run_batched_scans_c_itself(self, path):
        # A table run_batched has just checked and run is, called directly
        # with an entry flipped read-only in between, refused before any
        # write: the kernel scans C on every direct call.
        s = spec(Layout.RowMajor, 2, 3, 4, "ici")
        E = 5
        a, b, c = make_operands(s, E, np.random.default_rng(52))
        with on_path(path) as registry_for:
            registry = registry_for(s)
            kernel = registry.lookup(kernel_name(s))
            run_batched(s, E, 1.0, a, b, 0.0, c, registry=registry)
            c.table[3].flags.writeable = False
            before = [m.tobytes() for m in buffers_of(a, b, c)]
            with pytest.raises(ValueError, match="^operand C: table entry 3 is read-only$"):
                kernel(E, 1.0, a.table, a.ld, b.data, b.ld, 0.0, c.table, c.ld, 8, 12, 6)
        assert [m.tobytes() for m in buffers_of(a, b, c)] == before
        assert kernel.path_counts == {path: 1}

    def test_a_deep_copy_computes_its_own_facts(self):
        table = PointerTable([np.zeros(4), np.ones(4)])
        copied = copy.deepcopy(table)
        assert isinstance(copied, PointerTable)
        assert set(table.addresses.tolist()).isdisjoint(copied.addresses.tolist())
        assert [m.tobytes() for m in copied] == [m.tobytes() for m in table]
        assert not table.addresses.flags.writeable

    def test_facts_are_computed_once_under_threads(self, monkeypatch):
        # Threads that ask for the table's facts at once, each in its own
        # order, share one pass over the entries, and one array per fact.
        pool = np.arange(400.0)
        table = PointerTable(pool[o : o + 4] for o in range(0, 400, 4))
        passes = TestPreparedCall.count(monkeypatch, PointerTable, "_reader")
        facts = {
            "addresses": lambda: table.addresses,
            "strides": lambda: table.strides,
            "contiguous": lambda: table.contiguous,
            "extents": lambda: table.sorted_extents(4),
        }
        start = threading.Barrier(4)
        seen = []

        def worker(turn):
            start.wait(timeout=30)
            order = list(facts)[turn:] + list(facts)[:turn]
            seen.append({name: facts[name]() for name in order})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(turn,)) for turn in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        assert len(passes) == 1
        assert all(got[name] is seen[0][name] for got in seen for name in ("addresses", "strides", "extents"))
        assert [got["contiguous"] for got in seen] == [True] * 4
        assert seen[0]["addresses"].tolist() == [pool.ctypes.data + 8 * o for o in range(0, 400, 4)]
        assert seen[0]["strides"].tolist() == [8] * 100
        assert seen[0]["extents"][2] is None  # the 100 matrices are pairwise disjoint


class TestScratch:
    def test_capacity_postcondition(self):
        buf = ScratchBuffer()
        buf.ensure(10000, 180)
        assert buf.capacity >= 10000 * 180

    def test_repeated_ensure_is_noop(self):
        buf = ScratchBuffer()
        buf.ensure(10000, 180)
        backing = buf.array
        buf.ensure(10000, 180)
        assert buf.array is backing

    def test_zero_batch(self):
        buf = ScratchBuffer()
        buf.ensure(0, 64)
        assert buf.capacity >= 0

    def test_never_shrinks(self):
        buf = ScratchBuffer()
        buf.ensure(1000, 8)
        grown = buf.capacity
        buf.ensure(1, 1)
        assert buf.capacity == grown

    def test_geometric_growth(self):
        buf = ScratchBuffer()
        buf.ensure(3, 1)
        first = buf.capacity
        buf.ensure(4, 1)
        assert buf.capacity >= first
        assert buf.capacity in (first, first * 2)

    def test_alignment(self):
        buf = ScratchBuffer()
        buf.ensure(100, 7)
        assert buf.array.ctypes.data % 64 == 0

    def test_alignment_holds_across_growth(self):
        buf = ScratchBuffer()
        for E in (1, 3, 100, 1000):
            buf.ensure(E, 7)
            assert buf.array.ctypes.data % 64 == 0
        with pytest.raises(TypeError):
            ScratchBuffer(alignment=64)
