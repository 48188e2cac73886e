import functools

import numpy as np
import pytest

from bbdgemm import vectorize
from bbdgemm.core import AccessKind, KernelShape, KernelSpec, Layout, matrix_span, operand_dims
from bbdgemm.reference import GemmScalars, batched_ref
from bbdgemm.runtime import (
    BatchedOperand,
    KernelRegistry,
    ScratchBuffer,
    build_pointer_table,
    ensure_scratch,
    pack_strided,
    run_batched,
    unpack_strided,
)
from bbdgemm.vectorize import enable_jit, jit_available, use_jit

from conftest import build_registry, copy_operand, make_operands, output_elements


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


class TestRunBatched:
    def test_dispatches_to_generated_kernel(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(1)
        E = 19
        a, b, c = make_operands(S_CIS, E, rng)
        c_ref = copy_operand(c)
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
        c_ref = copy_operand(c)
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
        a.ld = 1
        with pytest.raises(ValueError, match="below minimum"):
            run_batched(S_CIS, 3, 1.0, a, b, 0.0, c, registry=registry)

    def test_short_table_rejected(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(5)
        a, b, c = make_operands(S_CIS, 3, rng)
        b.table.pop()
        with pytest.raises(ValueError, match="pointer table"):
            run_batched(S_CIS, 3, 1.0, a, b, 0.0, c, registry=registry)

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

    def test_padded_strided_span_takes_reference_path(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(7)
        E = 4
        a, b, c = make_operands(S_CIS, E, rng)
        padded_span = c.span + 3
        padded = np.zeros(E * padded_span)
        for e in range(E):
            padded[e * padded_span : e * padded_span + c.span] = c.data[
                e * c.span : (e + 1) * c.span
            ]
        c_padded = BatchedOperand.strided(padded, c.ld, padded_span)
        c_ref = copy_operand(c)
        run_batched(S_CIS, E, 1.0, a, b, 1.0, c_padded, registry=registry)
        assert registry.fallback_count == 1  # generated kernels assume minimal spans
        batched_ref(S_CIS, E, GemmScalars(1.0, 1.0), a, b, c_ref)
        for e in range(E):
            got = c_padded.data[e * padded_span : e * padded_span + c.span]
            want = c_ref.data[e * c.span : (e + 1) * c.span]
            assert np.array_equal(got, want)

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
        c_ref = copy_operand(c)
        with use_jit(False):
            run_batched(s, E, 1.0, a, b, 1.0, c, registry=registry)
        assert registry.fallback_count == 0
        batched_ref(s, E, GemmScalars(1.0, 1.0), a, b, c_ref)
        assert np.array_equal(c.data, c_ref.data)

    def test_float32_buffer_rejected(self):
        registry = build_registry(S_CIS)
        rng = np.random.default_rng(16)
        a, b, c = make_operands(S_CIS, 2, rng)
        a.data = a.data.astype(np.float32)
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
        table = {"B": b, "C": c}[which].table
        span = len(table[2])
        table[2], table[3] = spoil(table[2]), spoil(table[3])
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
        c_jit = copy_operand(c)
        with use_jit(False):
            run_batched(S_CIS, E, 1.25, a, b, 0.75, c, registry=registry)
        with use_jit(True):
            run_batched(S_CIS, E, 1.25, a, b, 0.75, c_jit, registry=registry)
        assert np.array_equal(output_elements(S_CIS, E, c), output_elements(S_CIS, E, c_jit))

    def test_concurrent_calls_with_disjoint_outputs(self):
        # reentrancy: workers share one registry (and one lazily compiled
        # kernel) but own their operands
        import threading

        registry = build_registry(S_CIS)
        failures = []

        def worker(seed):
            try:
                rng = np.random.default_rng(seed)
                for _ in range(5):
                    a, b, c = make_operands(S_CIS, 32, rng)
                    c_ref = copy_operand(c)
                    run_batched(S_CIS, 32, 1.0, a, b, 1.0, c, registry=registry)
                    batched_ref(S_CIS, 32, GemmScalars(1.0, 1.0), a, b, c_ref)
                    got = output_elements(S_CIS, 32, c)
                    want = output_elements(S_CIS, 32, c_ref)
                    if np.max(np.abs(got - want)) > 1e-12:
                        failures.append(seed)
            except Exception as error:  # surfaced below; threads must not die silently
                failures.append((seed, error))

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert registry.fallback_count == 0

    @pytest.mark.skipif(not jit_available(), reason="JIT backend not installed")
    @pytest.mark.parametrize("access", ["ccc", "cci", "cic", "cii", "icc", "ici", "iic", "iii"])
    def test_jit_staging_type_combinations(self, access):
        # flat buffers vs staged pointer tables are the two argument types
        # the compiled kernels ever see; cover every operand combination
        s = spec(Layout.ColMajor, 2, 1, 3, access)
        registry = build_registry(s)
        rng = np.random.default_rng(17)
        E = 9
        a, b, c = make_operands(s, E, rng)
        c_pure = copy_operand(c)
        with use_jit(True):
            run_batched(s, E, 1.5, a, b, 0.5, c, registry=registry)
        with use_jit(False):
            run_batched(s, E, 1.5, a, b, 0.5, c_pure, registry=registry)
        assert registry.fallback_count == 0
        assert np.array_equal(output_elements(s, E, c), output_elements(s, E, c_pure))


class TestSequentialWhenLanesWouldDiffer:
    """Batches whose elements read what earlier elements wrote.

    Lane execution computes every element from the operands as they were on
    entry, so these calls must keep the sequential loop's answer, which is
    the oracle's.
    """

    @pytest.fixture(autouse=True)
    def path(self):
        enable_jit(False)

    @staticmethod
    def run_both(s, E, alpha, beta, build):
        # build() returns fresh (a, b, c, memory) with any aliasing intact;
        # memory is the array holding every element C can reach.
        got, want = build(), build()
        run_batched(s, E, alpha, *got[:2], beta, got[2], registry=build_registry(s))
        batched_ref(s, E, GemmScalars(alpha, beta), *want[:3])
        assert got[3].tobytes() == want[3].tobytes()
        return got[3]

    def test_indexed_c_repeating_one_buffer(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cci")
        identity = np.array([1.0, 0.0, 0.0, 1.0])

        def build():
            shared = np.zeros(4)
            a = BatchedOperand.constant(identity.copy(), 2)
            b = BatchedOperand.constant(identity.copy(), 2)
            return a, b, BatchedOperand.indexed([shared] * 4, 2), shared

        result = self.run_both(s, 4, 1.0, 1.0, build)
        assert np.array_equal(result, 4.0 * identity)

    @pytest.mark.parametrize("through_memoryview", [False, True])
    def test_c_overlapping_a(self, through_memoryview):
        # A's element e is C's element e - 1, so element e reads what
        # element e - 1 wrote.  C is a plain view of the pool, or an array
        # over a memoryview of it, whose allocation numpy cannot name.
        s = spec(Layout.ColMajor, 2, 3, 3, "iis")
        E = 6
        span = 6  # A is 2x3 and C is 2x3 at ld 2

        def build():
            rng = np.random.default_rng(31)
            pool = rng.uniform(-1.0, 1.0, (E + 1) * span)
            c_data = np.frombuffer(memoryview(pool)) if through_memoryview else pool
            starts = [E] + list(range(E - 1))
            a = BatchedOperand.indexed([pool[i * span : (i + 1) * span] for i in starts], 2)
            b = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 9) for _ in range(E)], 3)
            c = BatchedOperand.strided(c_data[: E * span], 2, span)
            return a, b, c, pool

        self.run_both(s, E, 1.0, 0.5, build)

    def test_constant_c_accumulates_over_batch(self):
        s = spec(Layout.ColMajor, 3, 2, 2, "sic")
        E = 5

        def build():
            rng = np.random.default_rng(32)
            a = BatchedOperand.strided(rng.uniform(-1.0, 1.0, E * 6), 3, 6)
            b = BatchedOperand.indexed([rng.uniform(-1.0, 1.0, 4) for _ in range(E)], 2)
            c = BatchedOperand.constant(rng.uniform(-1.0, 1.0, 6), 3)
            return a, b, c, c.data

        self.run_both(s, E, 1.0, 1.0, build)


class TestCompiledStagingWhenLanesWouldDiffer(TestSequentialWhenLanesWouldDiffer):
    """The same batches through the compiled path, which stages pointer tables.

    The stand-in for the compiled kernel is the generated loop itself, so the
    staging is exercised without the JIT backend; each test registry
    decorates its kernel afresh, so no earlier compilation is reused.
    """

    @pytest.fixture(autouse=True)
    def path(self, monkeypatch):
        monkeypatch.setattr(vectorize, "jit_enabled", lambda: True)
        monkeypatch.setattr(vectorize, "jit_compile", functools.partial)


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


class TestPackStrided:
    def test_round_trip_bitwise(self):
        s = spec(Layout.ColMajor, 3, 2, 4, "ics")
        dims = operand_dims(s, "A")
        rng = np.random.default_rng(11)
        E = 9
        table = [rng.uniform(-1, 1, dims.cols * dims.min_ld) for _ in range(E)]
        source = BatchedOperand.indexed(table, dims.min_ld)
        originals = [entry.copy() for entry in table]
        packed = pack_strided(source, dims, dims.min_ld, s.layout)
        for entry in table:
            entry[:] = 0.0
        unpack_strided(packed, dims, source, s.layout)
        for entry, original in zip(table, originals):
            assert np.array_equal(entry, original)

    def test_single_element_equals_source(self):
        s = spec(Layout.ColMajor, 2, 3, 2, "icc")
        dims = operand_dims(s, "A")
        rng = np.random.default_rng(12)
        matrix = rng.uniform(-1, 1, dims.cols * dims.min_ld)
        packed = pack_strided(BatchedOperand.indexed([matrix], dims.min_ld), dims, dims.min_ld, s.layout)
        assert np.array_equal(packed.data, matrix)

    def test_repadding_preserves_elements(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "icc")
        dims = operand_dims(s, "A")
        matrix = np.array([1.0, 2.0, 3.0, 4.0])
        packed = pack_strided(BatchedOperand.indexed([matrix], 2), dims, 5, s.layout)
        assert packed.span == 10
        assert packed.data[0] == 1.0 and packed.data[1] == 2.0
        assert packed.data[5] == 3.0 and packed.data[6] == 4.0

    def test_row_major_round_trip(self):
        s = spec(Layout.RowMajor, 2, 3, 4, "ics")
        dims = operand_dims(s, "A")
        rng = np.random.default_rng(13)
        table = [rng.uniform(-1, 1, dims.rows * dims.min_ld) for _ in range(4)]
        originals = [t.copy() for t in table]
        source = BatchedOperand.indexed(table, dims.min_ld)
        packed = pack_strided(source, dims, dims.min_ld + 2, s.layout)
        for t in table:
            t[:] = np.nan
        unpack_strided(packed, dims, source, s.layout)
        for t, original in zip(table, originals):
            assert np.array_equal(t, original)

    def test_packed_equals_indexed_through_run_batched(self):
        s = spec(Layout.ColMajor, 2, 3, 4, "cii")
        s_packed = spec(Layout.ColMajor, 2, 3, 4, "cis")
        registry = build_registry(s, s_packed)
        rng = np.random.default_rng(14)
        E = 12
        a, b, c = make_operands(s, E, rng)
        c_dims = operand_dims(s, "C")
        c_packed = pack_strided(c, c_dims, c_dims.min_ld, s.layout)
        with use_jit(False):
            run_batched(s, E, 1.0, a, b, 1.0, c, registry=registry)
            run_batched(s_packed, E, 1.0, a, b, 1.0, c_packed, registry=registry)
        assert registry.fallback_count == 0
        got_indexed = output_elements(s, E, c)
        got_packed = output_elements(s_packed, E, c_packed)
        assert np.max(np.abs(got_indexed - got_packed)) <= 1e-12

    def test_requires_indexed_source(self):
        with pytest.raises(ValueError, match="Indexed"):
            pack_strided(
                BatchedOperand.strided(np.zeros(4), 2, 2),
                operand_dims(S_CIS, "C"),
                2,
                Layout.ColMajor,
            )


class TestScratch:
    def test_capacity_postcondition(self):
        buf = ScratchBuffer()
        ensure_scratch(buf, 10000, 180)
        assert buf.capacity >= 10000 * 180

    def test_repeated_ensure_is_noop(self):
        buf = ScratchBuffer()
        ensure_scratch(buf, 10000, 180)
        backing = buf.array
        ensure_scratch(buf, 10000, 180)
        assert buf.array is backing

    def test_zero_batch(self):
        buf = ScratchBuffer()
        ensure_scratch(buf, 0, 64)
        assert buf.capacity >= 0

    def test_never_shrinks(self):
        buf = ScratchBuffer()
        ensure_scratch(buf, 1000, 8)
        grown = buf.capacity
        ensure_scratch(buf, 1, 1)
        assert buf.capacity == grown

    def test_geometric_growth(self):
        buf = ScratchBuffer()
        ensure_scratch(buf, 3, 1)
        first = buf.capacity
        ensure_scratch(buf, 4, 1)
        assert buf.capacity >= first
        assert buf.capacity in (first, first * 2)

    def test_alignment(self):
        buf = ScratchBuffer(alignment=64)
        ensure_scratch(buf, 100, 7)
        assert buf.array.ctypes.data % 64 == 0

    def test_bad_alignment(self):
        with pytest.raises(ValueError, match="alignment"):
            ScratchBuffer(alignment=10)
