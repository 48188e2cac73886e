import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbdgemm import reference
from bbdgemm.bench import clone_operand, output_elements
from bbdgemm.core import AccessKind, KernelShape, KernelSpec, Layout
from bbdgemm.reference import GemmScalars, _dgemm_flat, _dgemm_products, batched_ref, dgemm_ref
from bbdgemm.runtime import BatchedOperand

from conftest import make_operands


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


class TestDgemmRef:
    def test_scalar_product(self):
        c = np.array([999.0])
        dgemm_ref(Layout.ColMajor, 1, 1, 1, 1.0, np.array([2.0]), 1, np.array([3.0]), 1, 0.0, c, 1)
        assert c[0] == 6.0

    def test_alpha_zero_beta_one_is_identity(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        c = rng.uniform(-1, 1, 4)
        before = c.copy()
        dgemm_ref(Layout.ColMajor, 2, 2, 2, 0.0, a, 2, b, 2, 1.0, c, 2)
        assert np.array_equal(c, before)

    def test_two_by_two_known_product(self):
        # A = [[1,2],[3,4]], B = [[5,6],[7,8]]; expected A@B computed with a
        # separate dense matmul below and hand-checked: [[19,22],[43,50]].
        a2 = np.array([[1.0, 2.0], [3.0, 4.0]])
        b2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(a2 @ b2, np.array([[19.0, 22.0], [43.0, 50.0]]))
        a = a2.T.reshape(-1).copy()  # column-major flattening
        b = b2.T.reshape(-1).copy()
        c = np.zeros(4)
        dgemm_ref(Layout.ColMajor, 2, 2, 2, 1.0, a, 2, b, 2, 0.0, c, 2)
        assert np.array_equal(c, np.array([19.0, 43.0, 22.0, 50.0]))

    def test_row_major_matches_dense(self):
        rng = np.random.default_rng(3)
        n, m, k = 3, 4, 5
        a2 = rng.uniform(-1, 1, (n, k))
        b2 = rng.uniform(-1, 1, (k, m))
        c = np.zeros(n * m)
        dgemm_ref(
            Layout.RowMajor, n, m, k, 1.0, a2.reshape(-1).copy(), k,
            b2.reshape(-1).copy(), m, 0.0, c, m,
        )
        assert np.allclose(c.reshape(n, m), a2 @ b2, atol=1e-13)

    def test_padded_leading_dims(self):
        # same data written at ld > min rows must give the same result
        rng = np.random.default_rng(4)
        a2 = rng.uniform(-1, 1, (2, 3))
        b2 = rng.uniform(-1, 1, (3, 2))
        a_pad = np.zeros(5 * 3)
        for col in range(3):
            a_pad[col * 5 : col * 5 + 2] = a2[:, col]
        b_flat = b2.T.reshape(-1).copy()
        c_pad = np.full(7 * 2, -1.0)
        dgemm_ref(Layout.ColMajor, 2, 2, 3, 1.0, a_pad, 5, b_flat, 3, 0.0, c_pad, 7)
        got = np.array([[c_pad[col * 7 + r] for col in range(2)] for r in range(2)])
        assert np.allclose(got, a2 @ b2, atol=1e-13)

    def test_ascending_k_accumulation_order(self):
        # contributions [1e16, 1, -1e16]: ascending-order sum is exactly 0.0,
        # any other order leaves 1.0 behind
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([1e16, 1.0, -1e16])
        c = np.array([123.0])
        dgemm_ref(Layout.ColMajor, 1, 1, 3, 1.0, a, 1, b, 3, 0.0, c, 1)
        assert c[0] == 0.0

    def test_beta_zero_overwrites_non_finite(self):
        a, b = np.array([2.0]), np.array([3.0])
        c = np.array([np.nan])
        dgemm_ref(Layout.ColMajor, 1, 1, 1, 1.0, a, 1, b, 1, 0.0, c, 1)
        assert c[0] == 6.0

    def test_ld_violation(self):
        with pytest.raises(ValueError, match="leading dimensions"):
            dgemm_ref(
                Layout.ColMajor, 2, 2, 2, 1.0, np.zeros(4), 1, np.zeros(4), 2, 0.0, np.zeros(4), 2
            )

    def test_bad_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            dgemm_ref(
                Layout.ColMajor, 0, 2, 2, 1.0, np.zeros(4), 2, np.zeros(4), 2, 0.0, np.zeros(4), 2
            )


def gemm_buffers(rng, col_major, n, m, k, pad):
    """Random a, b, c with signed zeros, at leading dimensions min + *pad*."""
    lda, ldb, ldc = (n + pad, k + pad, n + pad) if col_major else (k + pad, m + pad, m + pad)
    sizes = (k * lda, m * ldb, m * ldc) if col_major else (n * lda, k * ldb, n * ldc)
    buffers = []
    for size in sizes:
        buf = rng.uniform(-1.0, 1.0, size)
        buf[::3] = -0.0
        buf[1::5] = 0.0
        buffers.append(buf)
    return buffers, (lda, ldb, ldc)


# Operand values of the property below: with these, inf * 0, overflow
# (1e308 * 1e308) and inf - inf all occur.  Every NaN is then the machine's
# own, so NaN bits must agree too (see the reference module docstring).
EDGE_VALUES = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308])


def edge_buffers(rng, col_major, n, m, k, pad, share):
    """gemm_buffers with each element replaced by an EDGE_VALUES one at rate *share*."""
    buffers, lds = gemm_buffers(rng, col_major, n, m, k, pad)
    for buf in buffers:
        edge = rng.random(len(buf)) < share
        buf[edge] = rng.choice(EDGE_VALUES, int(edge.sum()))
    return buffers, lds


def run_both(col_major, n, m, k, alpha, buffers, lds, beta):
    """C after _dgemm_products and after _dgemm_flat, as bytes."""
    (a, b, c), (lda, ldb, ldc) = buffers, lds
    c_flat = c.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        _dgemm_products(col_major, n, m, k, alpha, a, lda, b, ldb, beta, c, ldc)
        _dgemm_flat(col_major, n, m, k, alpha, a, lda, b, ldb, beta, c_flat, ldc)
    return c.tobytes(), c_flat.tobytes()


class TestDgemmProducts:
    """The oracle's one-multiply product pass against the triple loop it stands in for."""

    SHAPES = sorted(itertools.product(range(1, 5), repeat=3)) + [(10, 9, 9), (20, 9, 10)]
    SCALARS = ((1.3, 0.7), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (-1.0, 0.0), (0.5, -0.0))

    @pytest.mark.parametrize("col_major", [True, False])
    def test_bytewise_equal_to_flat_loop(self, col_major):
        rng = np.random.default_rng(41)
        for (n, m, k), pad, (alpha, beta) in itertools.product(
            self.SHAPES, (0, 2), self.SCALARS
        ):
            (a, b, c), lds = gemm_buffers(rng, col_major, n, m, k, pad)
            if beta == 0.0:
                c[:] = np.nan  # must be overwritten without being read
            products, flat = run_both(col_major, n, m, k, alpha, (a, b, c), lds, beta)
            assert products == flat, (n, m, k, pad, alpha, beta)

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 20),) * 3),
        col_major=st.booleans(),
        pad=st.sampled_from((0, 2)),
        share=st.sampled_from((0.0, 0.05, 0.3, 1.0)),
        alpha=st.sampled_from((1.3, -1.0, 0.0, -0.0, np.inf, 1e308)),
        beta=st.sampled_from((0.7, 1.0, 0.0, -0.0, -np.inf, 1e308)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_values_bytewise_equal_to_flat_loop(
        self, dims, col_major, pad, share, alpha, beta, seed
    ):
        n, m, k = dims
        rng = np.random.default_rng(seed)
        buffers, lds = edge_buffers(rng, col_major, n, m, k, pad, share)
        products, flat = run_both(col_major, n, m, k, alpha, buffers, lds, beta)
        assert products == flat

    @pytest.mark.parametrize("a, b, want", [
        ([np.inf], [0.0], np.nan),  # inf * 0
        ([1e308], [1e308], np.inf),  # overflow
        ([1e308, -np.inf], [1e308, 1.0], np.nan),  # inf - inf
    ], ids=["inf-times-zero", "overflow", "inf-minus-inf"])
    def test_each_edge_of_the_property_occurs(self, a, b, want):
        # one row of A against one column of B, so C is the dot product
        k, c = len(a), np.zeros(1)
        products, flat = run_both(True, 1, 1, k, 1.0, (np.array(a), np.array(b), c), (1, k, 1), 0.0)
        assert products == flat
        assert np.array_equal(c, [want], equal_nan=True)

    @pytest.mark.parametrize("as_view, path", [
        (lambda buf: buf, "_dgemm_products"),
        (lambda buf: memoryview(buf), "_dgemm_flat"),
        (lambda buf: np.repeat(buf, 2)[::2], "_dgemm_flat"),
    ], ids=["contiguous", "memoryview", "every-other"])
    def test_dgemm_ref_picks_the_path_by_buffer(self, monkeypatch, as_view, path):
        calls = []
        for name in ("_dgemm_products", "_dgemm_flat"):
            fn = getattr(reference, name)
            monkeypatch.setattr(
                reference, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args)
            )
        rng = np.random.default_rng(44)
        (a, b, c), lds = gemm_buffers(rng, True, 3, 4, 2, pad=0)
        want = c.copy()
        _dgemm_flat(True, 3, 4, 2, 1.5, a, lds[0], b, lds[1], 0.5, want, lds[2])
        a, b, c_in = as_view(a), as_view(b), as_view(c)
        dgemm_ref(Layout.ColMajor, 3, 4, 2, 1.5, a, lds[0], b, lds[1], 0.5, c_in, lds[2])
        assert calls == [path]
        assert np.asarray(c_in).tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout", list(Layout))
    def test_buffers_ending_at_last_addressed_element_accepted(self, layout):
        col_major = layout is Layout.ColMajor
        n, m, k = 3, 4, 2
        rng = np.random.default_rng(42)
        full, lds = gemm_buffers(rng, col_major, n, m, k, pad=2)
        # each matrix's trailing padding is cut off: the buffers are shorter
        # than cols*ld (ColMajor) or rows*ld (RowMajor)
        a, b, c = (buf[: len(buf) - 2] for buf in full)
        c_flat = c.copy()
        dgemm_ref(layout, n, m, k, 1.5, a, lds[0], b, lds[1], 0.5, c, lds[2])
        _dgemm_flat(col_major, n, m, k, 1.5, a, lds[0], b, lds[1], 0.5, c_flat, lds[2])
        assert c.tobytes() == c_flat.tobytes()

    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("short", range(3))
    def test_too_short_buffer_refused_untouched(self, layout, short):
        col_major = layout is Layout.ColMajor
        n, m, k = 3, 4, 2
        rng = np.random.default_rng(43)
        full, lds = gemm_buffers(rng, col_major, n, m, k, pad=2)
        # every buffer is a view into a parent whose tail past the view is
        # NaN; the short one stops one element before its last addressed one
        parents, views = [], []
        for i, buf in enumerate(full):
            keep = len(buf) - 3 if i == short else len(buf)
            parent = np.concatenate([buf[:keep], np.full(4, np.nan)])
            parents.append(parent)
            views.append(parent[:keep])
        before = [parent.tobytes() for parent in parents]
        with pytest.raises(IndexError, match="addresses"):
            dgemm_ref(layout, n, m, k, 1.0, views[0], lds[0], views[1], lds[1], 1.0,
                      views[2], lds[2])
        assert [parent.tobytes() for parent in parents] == before


class TestBatchedRef:
    def test_empty_batch_touches_nothing(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cis")
        a = BatchedOperand.constant(np.full(4, np.nan), 2)
        b = BatchedOperand.indexed([], 2)
        c = BatchedOperand.strided(np.full(8, 7.0), 2, 4)
        batched_ref(s, 0, GemmScalars(1.0, 0.0), a, b, c)
        assert np.all(c.data == 7.0)

    def test_constant_a_repeats_across_batch(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "ccs")
        rng = np.random.default_rng(5)
        a = BatchedOperand.constant(rng.uniform(-1, 1, 4), 2)
        b = BatchedOperand.constant(rng.uniform(-1, 1, 4), 2)
        c = BatchedOperand.strided(np.zeros(12), 2, 4)
        batched_ref(s, 3, GemmScalars(1.0, 0.0), a, b, c)
        first = c.data[0:4].copy()
        assert np.array_equal(c.data[4:8], first)
        assert np.array_equal(c.data[8:12], first)

    def test_large_batch_matches_per_call_loop(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cis")
        rng = np.random.default_rng(42)
        a, b, c = make_operands(s, 1000, rng)
        c_loop = clone_operand(c)
        batched_ref(s, 1000, GemmScalars(1.0, 1.0), a, b, c)
        for e in range(1000):
            dgemm_ref(
                s.layout, 2, 2, 2, 1.0, a.data, a.ld, b.table[e], b.ld, 1.0,
                c_loop.data[e * 4 : e * 4 + 4], c_loop.ld,
            )
        assert np.array_equal(
            output_elements(s, 1000, c), output_elements(s, 1000, c_loop)
        )

    def test_single_element_is_bitwise_dgemm_ref(self):
        s = spec(Layout.ColMajor, 3, 4, 5, "iii")
        rng = np.random.default_rng(9)
        a, b, c = make_operands(s, 1, rng)
        c_direct = clone_operand(c)
        batched_ref(s, 1, GemmScalars(1.2, 0.4), a, b, c)
        dgemm_ref(
            s.layout, 3, 4, 5, 1.2, a.table[0], a.ld, b.table[0], b.ld, 0.4,
            c_direct.table[0], c_direct.ld,
        )
        assert np.array_equal(np.asarray(c.table[0]), np.asarray(c_direct.table[0]))

    def test_permuting_indexed_batch_permutes_outputs(self):
        s = spec(Layout.ColMajor, 2, 3, 2, "cii")
        rng = np.random.default_rng(13)
        E = 16
        a, b, c = make_operands(s, E, rng)
        c2 = clone_operand(c)
        batched_ref(s, E, GemmScalars(1.0, 0.0), a, b, c)
        perm = rng.permutation(E)
        b_perm = BatchedOperand.indexed([b.table[p] for p in perm], b.ld)
        c_perm = BatchedOperand.indexed([c2.table[p] for p in perm], c2.ld)
        batched_ref(s, E, GemmScalars(1.0, 0.0), a, b_perm, c_perm)
        for e in range(E):
            assert np.array_equal(np.asarray(c.table[e]), np.asarray(c2.table[e]))

    def test_repeated_indexed_input_entries_allowed(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "ics")
        rng = np.random.default_rng(21)
        shared = rng.uniform(-1, 1, 4)
        a = BatchedOperand.indexed([shared, shared, shared], 2)
        b = BatchedOperand.constant(rng.uniform(-1, 1, 4), 2)
        c = BatchedOperand.strided(np.zeros(12), 2, 4)
        batched_ref(s, 3, GemmScalars(1.0, 0.0), a, b, c)
        assert np.array_equal(c.data[0:4], c.data[8:12])

    def test_kind_mismatch_rejected(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cis")
        a = BatchedOperand.strided(np.zeros(8), 2, 4)
        b = BatchedOperand.indexed([np.zeros(4)], 2)
        c = BatchedOperand.strided(np.zeros(4), 2, 4)
        with pytest.raises(ValueError, match="access kind"):
            batched_ref(s, 1, GemmScalars(1.0, 0.0), a, b, c)

    def test_short_pointer_table_rejected(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cis")
        a = BatchedOperand.constant(np.zeros(4), 2)
        b = BatchedOperand.indexed([np.zeros(4)], 2)
        c = BatchedOperand.strided(np.zeros(20), 2, 4)
        with pytest.raises(ValueError, match="table"):
            batched_ref(s, 5, GemmScalars(1.0, 0.0), a, b, c)
