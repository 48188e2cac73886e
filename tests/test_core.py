import importlib
import pkgutil
import random

import pytest
from hypothesis import given, settings, strategies as st

import bbdgemm
from bbdgemm.core import (
    AccessKind,
    KernelNameError,
    KernelShape,
    KernelSpec,
    Layout,
    kernel_name,
    matrix_span,
    operand_dims,
    parse_kernel_name,
)


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


kernel_specs = st.builds(
    spec,
    st.sampled_from(list(Layout)),
    st.integers(1, 64),
    st.integers(1, 64),
    st.integers(1, 64),
    st.text(alphabet="csi", min_size=3, max_size=3),
)


class TestKernelName:
    def test_listing_example(self):
        s = spec(Layout.ColMajor, 2, 3, 4, "cis")
        assert kernel_name(s) == "bbdgemm_ColMajor_2_3_4_cis"

    def test_implementation_example(self):
        s = spec(Layout.ColMajor, 2, 2, 2, "cis")
        assert kernel_name(s) == "bbdgemm_ColMajor_2_2_2_cis"

    def test_row_major_all_strided(self):
        s = spec(Layout.RowMajor, 1, 1, 1, "sss")
        assert kernel_name(s) == "bbdgemm_RowMajor_1_1_1_sss"

    def test_suffix_order_is_a_b_c(self):
        s = spec(Layout.ColMajor, 5, 6, 7, "sic")
        name = kernel_name(s)
        assert name.endswith("_sic")
        assert s.access_a is AccessKind.Strided
        assert s.access_b is AccessKind.Indexed
        assert s.access_c is AccessKind.Constant

    def test_dimension_order_is_n_m_k(self):
        assert kernel_name(spec(Layout.ColMajor, 9, 8, 7, "ccc")) == "bbdgemm_ColMajor_9_8_7_ccc"


class TestParseKernelName:
    def test_parses_listing_example(self):
        s = parse_kernel_name("bbdgemm_ColMajor_2_3_4_cis")
        assert s == spec(Layout.ColMajor, 2, 3, 4, "cis")

    def test_unknown_suffix_letter(self):
        with pytest.raises(KernelNameError, match="three of c/s/i, got 'cix'") as caught:
            parse_kernel_name("bbdgemm_ColMajor_2_3_4_cix")
        assert caught.value.field == 4

    def test_bad_prefix(self):
        with pytest.raises(KernelNameError, match="prefix"):
            parse_kernel_name("dgemm_ColMajor_2_3_4_cis")

    def test_unknown_layout(self):
        with pytest.raises(KernelNameError, match="layout"):
            parse_kernel_name("bbdgemm_BlockMajor_2_3_4_cis")

    def test_non_integer_dimension(self):
        with pytest.raises(KernelNameError, match="M"):
            parse_kernel_name("bbdgemm_ColMajor_2_x_4_cis")

    def test_zero_dimension(self):
        with pytest.raises(KernelNameError, match="N"):
            parse_kernel_name("bbdgemm_ColMajor_0_3_4_cis")

    @pytest.mark.parametrize("token", ["\u00b2", "\uff14"], ids=["superscript", "full-width"])
    def test_non_ascii_digit_dimension(self, token):
        # str.isdigit() is true for both; int() reads the full-width one as 4
        with pytest.raises(KernelNameError, match=f"N is not a decimal integer: '{token}'"):
            parse_kernel_name(f"bbdgemm_ColMajor_{token}_2_2_cis")

    def test_zero_padded_dimension(self):
        with pytest.raises(KernelNameError, match="zero-padded"):
            parse_kernel_name("bbdgemm_ColMajor_02_3_4_cis")

    def test_wrong_field_count(self):
        with pytest.raises(KernelNameError, match="fields") as caught:
            parse_kernel_name("bbdgemm_ColMajor_2_3_cis")
        assert caught.value.field is None

    def test_access_length(self):
        with pytest.raises(KernelNameError, match="three of c/s/i, got 'cisc'") as caught:
            parse_kernel_name("bbdgemm_ColMajor_2_3_4_cisc")
        assert caught.value.field == 4

    def test_round_trip_100_random_specs(self):
        rng = random.Random(42)
        for _ in range(100):
            s = spec(
                rng.choice(list(Layout)),
                rng.randint(1, 64),
                rng.randint(1, 64),
                rng.randint(1, 64),
                "".join(rng.choice("csi") for _ in range(3)),
            )
            assert parse_kernel_name(kernel_name(s)) == s

    @given(kernel_specs)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, s):
        assert parse_kernel_name(kernel_name(s)) == s


class TestOperandDims:
    def test_a_dims(self):
        d = operand_dims(spec(Layout.ColMajor, 2, 3, 4, "cis"), "A")
        assert (d.rows, d.cols, d.min_ld) == (2, 4, 2)

    def test_c_dims(self):
        d = operand_dims(spec(Layout.ColMajor, 2, 3, 4, "cis"), "C")
        assert (d.rows, d.cols, d.min_ld) == (2, 3, 2)

    def test_row_major_min_ld_is_cols(self):
        d = operand_dims(spec(Layout.RowMajor, 2, 3, 4, "cis"), "B")
        assert (d.rows, d.cols, d.min_ld) == (4, 3, 3)

    def test_bad_selector(self):
        with pytest.raises(ValueError, match="selector"):
            operand_dims(spec(Layout.ColMajor, 2, 3, 4, "cis"), "D")

    @given(kernel_specs)
    @settings(max_examples=100, deadline=None)
    def test_gemm_conformance(self, s):
        a = operand_dims(s, "A")
        b = operand_dims(s, "B")
        c = operand_dims(s, "C")
        assert a.cols == b.rows
        assert a.rows == c.rows
        assert b.cols == c.cols


class TestMatrixSpan:
    def test_listing_span(self):
        assert matrix_span(spec(Layout.ColMajor, 2, 2, 2, "cis"), "C", 2) == 4

    def test_padded_ld(self):
        assert matrix_span(spec(Layout.ColMajor, 2, 3, 4, "cis"), "C", 2) == 6

    def test_ld_below_minimum(self):
        with pytest.raises(ValueError, match="below minimum"):
            matrix_span(spec(Layout.ColMajor, 2, 3, 4, "cis"), "C", 1)

    def test_row_major_span_uses_rows(self):
        assert matrix_span(spec(Layout.RowMajor, 2, 3, 4, "cis"), "A", 5) == 10


class TestShapes:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            KernelShape(2, 0, 2)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            KernelShape(2.0, 1, 1)


class TestPublicSurface:
    @pytest.mark.parametrize(
        "module_name",
        ["bbdgemm"] + [f"bbdgemm.{info.name}" for info in pkgutil.iter_modules(bbdgemm.__path__)],
    )
    def test_every_exported_name_resolves(self, module_name):
        module = importlib.import_module(module_name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == []
