import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bbdgemm.bench import clone_operand, output_elements
from bbdgemm.codegen import (
    DEFAULT_MAX_DIM,
    KernelManifest,
    MachineModel,
    ManifestError,
    estimate_pressure,
    generate_c_source,
    generate_dispatch_source,
    generate_kernel_source,
    parse_manifest,
    pressure_report_rows,
    write_kernel_package,
)
from bbdgemm.core import AccessKind, KernelShape, KernelSpec, Layout, matrix_span
from bbdgemm.reference import GemmScalars, batched_ref
from bbdgemm.runtime import load_kernel_dir
from bbdgemm.vectorize import use_jit

from conftest import build_kernel, make_operands


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


MAC_LINE = re.compile(r"^\s+rC_\d+_\d+ = vA_\d+_\d+ \* vB_\d+_\d+ \+ rC_\d+_\d+$")
ALPHA_LINE = re.compile(r"^\s+rC_(\d+)_(\d+) = rC_\1_\2 \* alpha$")
STORE_LINE = re.compile(r"^\s+C\[[^\]]+\](\[[^\]]+\])? = rC_\d+_\d+$")
COND_LOAD_LINE = re.compile(r"^\s+vC_\d+_\d+ = C\[.+\] if beta != 0\.0 else 0\.0$")
IN_LOOP_LOAD = re.compile(r"^        v([AB])_\d+_\d+ = [AB]\[")


def count_lines(source, pattern):
    return sum(1 for line in source.splitlines() if pattern.match(line))


class TestGeneratedSource:
    def test_addressing_forms(self):
        source = generate_kernel_source(spec(Layout.ColMajor, 2, 2, 2, "cis"))
        assert "A[(0*lda+0)]" in source
        assert "B[e][(0*ldb+0)]" in source
        assert "C[e*spanC+(0*ldc+0)]" in source
        assert "(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):" in source
        assert "size" not in source

    def test_deterministic(self):
        s = spec(Layout.RowMajor, 3, 5, 2, "sic")
        assert generate_kernel_source(s) == generate_kernel_source(s)

    def test_minimal_kernel_statement_counts(self):
        source = generate_kernel_source(spec(Layout.ColMajor, 1, 1, 1, "ccc"))
        assert count_lines(source, MAC_LINE) == 1
        assert count_lines(source, ALPHA_LINE) == 1
        assert count_lines(source, COND_LOAD_LINE) == 1
        assert source.count("* beta +") == 1
        assert count_lines(source, STORE_LINE) == 1

    @pytest.mark.parametrize(
        "layout,n,m,k,access",
        [
            (Layout.ColMajor, 2, 2, 2, "cis"),
            (Layout.ColMajor, 3, 4, 5, "sss"),
            (Layout.RowMajor, 4, 2, 3, "iii"),
            (Layout.RowMajor, 2, 5, 1, "csi"),
            (Layout.ColMajor, 5, 1, 4, "icc"),
        ],
    )
    def test_statement_count_closed_forms(self, layout, n, m, k, access):
        s = spec(layout, n, m, k, access)
        source = generate_kernel_source(s)
        assert count_lines(source, MAC_LINE) == n * m * k
        assert count_lines(source, ALPHA_LINE) == n * m
        assert count_lines(source, STORE_LINE) == n * m
        assert count_lines(source, COND_LOAD_LINE) == n * m
        expected_loads = (0 if s.access_a is AccessKind.Constant else n * k) + k * m
        assert count_lines(source, IN_LOOP_LOAD) == expected_loads

    def test_constant_a_loads_hoisted(self):
        source = generate_kernel_source(spec(Layout.ColMajor, 2, 3, 4, "cis"))
        hoisted = [
            line for line in source.splitlines() if re.match(r"^    vA_\d+_\d+ = A\[", line)
        ]
        assert len(hoisted) == 2 * 4
        assert not any(
            re.match(r"^        vA_", line) for line in source.splitlines()
        )

    def test_single_batch_loop_no_dim_loops(self):
        source = generate_kernel_source(spec(Layout.ColMajor, 4, 4, 4, "sss"))
        loops = [line for line in source.splitlines() if "for " in line]
        assert loops == ["    for e in range(E):"]

    @pytest.mark.parametrize("layout,access", [(Layout.ColMajor, "cis"), (Layout.RowMajor, "sic")])
    def test_c_twin_prints_the_same_statements(self, layout, access):
        # Line by line, the C function is the Python kernel with C spelling:
        # declarations on first assignment and a ternary for the beta test.
        # Elements are addressed alike, a Strided one through its spanX.
        s = spec(layout, 3, 2, 4, access)
        python = generate_kernel_source(s).split(":\n", 1)[1].splitlines()
        c_lines = generate_c_source(s).split("{\n", 1)[1].splitlines()
        respelled = []
        for line in c_lines[:-2]:
            line = re.sub(r"^(\s+)(const )?double ", r"\1", line.rstrip(";"))
            line = re.sub(r"= beta != 0\.0 \? (.+) : 0\.0$", r"= \1 if beta != 0.0 else 0.0", line)
            line = line.replace("for (long e = 0; e < E; e++) {", "for e in range(E):")
            respelled.append(line)
        assert respelled == python
        assert c_lines[-2:] == ["    }", "}"]

    def test_shape_bound(self):
        with pytest.raises(ValueError, match="bound"):
            generate_kernel_source(spec(Layout.ColMajor, DEFAULT_MAX_DIM + 1, 1, 1, "ccc"))
        generate_kernel_source(
            spec(Layout.ColMajor, DEFAULT_MAX_DIM + 1, 1, 1, "ccc"), max_dim=DEFAULT_MAX_DIM + 1
        )

    @pytest.mark.parametrize(
        "layout,access",
        [
            (Layout.ColMajor, "cis"),
            (Layout.ColMajor, "ssi"),
            (Layout.RowMajor, "ics"),
            (Layout.RowMajor, "ccc"),
            (Layout.ColMajor, "iii"),
        ],
    )
    def test_generated_matches_oracle(self, layout, access):
        s = spec(layout, 3, 2, 4, access)
        kernel = build_kernel(s)
        rng = np.random.default_rng(77)
        E = 33
        a, b, c = make_operands(s, E, rng)
        c_ref = clone_operand(c)
        with use_jit(False):
            kernel(E, 1.5, a.payload(), a.ld, b.payload(), b.ld, 0.5, c.payload(), c.ld,
                   *(matrix_span(s, which, op.ld) for which, op in zip("ABC", (a, b, c))))
        batched_ref(s, E, GemmScalars(1.5, 0.5), a, b, c_ref)
        assert np.array_equal(
            output_elements(s, E, c), output_elements(s, E, c_ref)
        )


class TestManifest:
    def test_single_line(self):
        manifest = parse_manifest("ColMajor 2 3 4 cis\n")
        assert manifest.entries == (spec(Layout.ColMajor, 2, 3, 4, "cis"),)

    def test_comments_and_blanks(self):
        assert parse_manifest("# comment\n\n").entries == ()
        manifest = parse_manifest("ColMajor 1 1 1 ccc  # trailing\n\n# x\nRowMajor 2 2 2 sss\n")
        assert manifest.names() == (
            "bbdgemm_ColMajor_1_1_1_ccc",
            "bbdgemm_RowMajor_2_2_2_sss",
        )

    def test_zero_dimension(self):
        with pytest.raises(ManifestError, match="K must be >= 1"):
            parse_manifest("ColMajor 2 3 0 cis")

    def test_unknown_layout_has_position(self):
        with pytest.raises(ManifestError, match="line 2, column 1"):
            parse_manifest("ColMajor 1 1 1 ccc\nDiagMajor 2 3 4 cis\n")

    def test_bad_access_column(self):
        try:
            parse_manifest("ColMajor 2 3 4 cqs")
        except ManifestError as error:
            assert error.line == 1
            assert error.column == 16
        else:
            pytest.fail("expected ManifestError")

    def test_wrong_field_count(self):
        with pytest.raises(ManifestError, match="5 fields"):
            parse_manifest("ColMajor 2 3 4\n")

    def test_non_integer_dimension(self):
        with pytest.raises(ManifestError, match="decimal"):
            parse_manifest("ColMajor 2 three 4 cis")

    def test_duplicate_reports_both_lines(self):
        with pytest.raises(ManifestError, match="first on line 1"):
            parse_manifest("ColMajor 2 3 4 cis\nColMajor 2 3 4 cis\n")

    def test_manifest_type_rejects_duplicates(self):
        s = spec(Layout.ColMajor, 2, 3, 4, "cis")
        with pytest.raises(ValueError, match="bbdgemm_ColMajor_2_3_4_cis"):
            KernelManifest((s, s))


class TestDispatch:
    def test_three_specs_in_order(self, tmp_path):
        manifest = parse_manifest("ColMajor 2 3 4 cis\nRowMajor 1 1 1 sss\nColMajor 2 2 2 ccc\n")
        write_kernel_package(manifest, tmp_path / "kernels")
        registry = load_kernel_dir(tmp_path / "kernels")
        assert len(registry) == 3
        assert "bbdgemm_RowMajor_1_1_1_sss" in registry

    def test_dispatch_source_order_and_registry(self):
        manifest = parse_manifest("ColMajor 2 3 4 cis\nRowMajor 1 1 1 sss\n")
        source = generate_dispatch_source(manifest)
        first = source.index("bbdgemm_ColMajor_2_3_4_cis")
        second = source.index("bbdgemm_RowMajor_1_1_1_sss")
        assert first < second

    def test_empty_manifest_is_valid_source(self, tmp_path):
        write_kernel_package(KernelManifest(()), tmp_path / "kernels")
        registry = load_kernel_dir(tmp_path / "kernels")
        assert len(registry) == 0

    def test_written_files_are_importable_and_named(self, tmp_path):
        manifest = parse_manifest("ColMajor 2 2 2 cis\n")
        written = write_kernel_package(manifest, tmp_path / "k2")
        names = {p.name for p in written}
        assert names == {"bbdgemm_ColMajor_2_2_2_cis.py", "__init__.py"}
        registry = load_kernel_dir(tmp_path / "k2")
        kernel = registry.lookup("bbdgemm_ColMajor_2_2_2_cis")
        assert kernel is not None and callable(kernel)


def psource_symbols(s):
    """Independent pressure oracle: count distinct value names in the source."""
    source = generate_kernel_source(s)
    hoisted = set(re.findall(r"^    (vA_\d+_\d+) =", source, re.MULTILINE))
    in_loop_a = set(re.findall(r"^        (vA_\d+_\d+) =", source, re.MULTILINE))
    b_values = set(re.findall(r"(vB_\d+_\d+) =", source))
    accumulators = set(re.findall(r"(rC_\d+_\d+) = 0\.0", source))
    return len(hoisted), len(in_loop_a) + len(b_values) + len(accumulators)


class TestPressure:
    def test_small_shape_no_spills(self):
        report = estimate_pressure(spec(Layout.ColMajor, 2, 2, 2, "cis"), MachineModel(32, 32))
        assert (report.scalar_live, report.vector_live, report.predicted_spills) == (4, 8, 0)

    def test_matches_source_symbol_count(self):
        for s in (
            spec(Layout.ColMajor, 2, 2, 2, "cis"),
            spec(Layout.ColMajor, 5, 4, 3, "sss"),
            spec(Layout.RowMajor, 3, 3, 3, "ccc"),
            spec(Layout.ColMajor, 20, 9, 10, "csi"),
        ):
            scalar, vector = psource_symbols(s)
            report = estimate_pressure(s, MachineModel())
            assert (report.scalar_live, report.vector_live) == (scalar, vector)

    def test_worst_shape_spills_heavily(self):
        report = estimate_pressure(spec(Layout.ColMajor, 20, 9, 10, "csi"), MachineModel(32, 32))
        assert report.vector_live == 10 * 9 + 20 * 9 == 270
        assert report.scalar_live == 20 * 10 == 200
        # vector pressure alone exceeds the register file by 238; constant-A
        # scalars overflow the scalar file by another 168
        assert report.vector_live - 32 == 238
        assert report.predicted_spills == 238 + 168 == 406

    def test_ladder_non_decreasing(self):
        model = MachineModel(32, 32)
        ladder = [(2, 2, 2), (5, 5, 5), (10, 9, 9), (20, 9, 10)]
        spills = [
            estimate_pressure(spec(Layout.ColMajor, n, m, k, "cis"), model).predicted_spills
            for n, m, k in ladder
        ]
        assert spills == sorted(spills)
        assert spills[0] == 0
        assert spills[-1] > 0

    def test_x86_preset_spills_at_least_as_much(self):
        s = spec(Layout.ColMajor, 10, 9, 9, "cis")
        narrow = estimate_pressure(s, MachineModel.x86_64_like())
        wide = estimate_pressure(s, MachineModel())
        assert narrow.predicted_spills >= wide.predicted_spills

    @given(
        st.integers(1, 32),
        st.integers(1, 32),
        st.integers(1, 32),
        st.integers(0, 8),
        st.integers(0, 8),
        st.integers(0, 8),
        st.text(alphabet="csi", min_size=3, max_size=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_shape(self, n, m, k, dn, dm, dk, access):
        model = MachineModel(32, 32)
        small = estimate_pressure(spec(Layout.ColMajor, n, m, k, access), model)
        large = estimate_pressure(
            spec(Layout.ColMajor, n + dn, m + dm, k + dk, access), model
        )
        assert large.predicted_spills >= small.predicted_spills

    def test_report_rows(self):
        manifest = parse_manifest("ColMajor 2 2 2 cis\nColMajor 20 9 10 csi\n")
        rows = pressure_report_rows(manifest, MachineModel())
        assert [row["name"] for row in rows] == list(manifest.names())
        assert rows[0]["predicted_spills"] == 0
        assert set(rows[0]) == {
            "name", "n", "m", "k", "access", "scalar_live", "vector_live", "predicted_spills",
        }
