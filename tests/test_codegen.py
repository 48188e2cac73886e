import itertools
import os
import re
import shutil
import subprocess
from pathlib import Path

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
from bbdgemm.core import (
    AccessKind,
    KernelNameError,
    KernelShape,
    KernelSpec,
    Layout,
    matrix_span,
    parse_kernel_name,
)
from bbdgemm.reference import GemmScalars, batched_ref
from bbdgemm.runtime import load_kernel_dir

from conftest import build_kernel, make_operands


ROOT = Path(__file__).resolve().parents[1]


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


MAC_LINE = re.compile(r"^\s+rC_\d+_\d+ = vA_\d+_\d+ \* vB_\d+_\d+ \+ rC_\d+_\d+$")
ALPHA_LINE = re.compile(r"^\s+rC_(\d+)_(\d+) = rC_\1_\2 \* alpha$")
STORE_LINE = re.compile(r"^\s+C\[[^\]]+\](\[[^\]]+\])? = rC_\d+_\d+$")
COND_LOAD_LINE = re.compile(r"^\s+vC_\d+_\d+ = C\[.+\] if beta != 0\.0 else 0\.0$")
IN_LOOP_LOAD = re.compile(r"^        v([AB])_\d+_\d+ = [AB]\[")


#: Valid tokens of each of a spec's five fields, and tokens no field takes.
#: None holds an underscore, whitespace or ``#``.
FIELD_TOKENS = (["ColMajor", "RowMajor"], *[["1", "2", "9", "64"]] * 3, ["cis", "sss", "ici"])
BAD_TOKENS = ["DiagMajor", "colmajor", "0", "00", "07", "-4", "+4", "x", "\u00b2", "\uff14", "1e1",
              "cix", "ci", "cisc", "CIS", "c"]
#: Five fields, each a valid token of its own field or any token at all.
spec_fields = st.tuples(*(
    st.one_of(st.sampled_from(valid), st.sampled_from(sum(FIELD_TOKENS, BAD_TOKENS)))
    for valid in FIELD_TOKENS
))


def count_lines(source, pattern):
    return sum(1 for line in source.splitlines() if pattern.match(line))


#: Each accumulator statement of the loop body: form, then (r, c) of C and, for a madd, t.
ACC_FORMS = [
    ("zero", re.compile(r"^        rC_(\d+)_(\d+) = 0\.0$")),
    ("madd", re.compile(r"^        rC_(\d+)_(\d+) = vA_\1_(\d+) \* vB_\3_\2 \+ rC_\1_\2$")),
    ("scale", re.compile(r"^        rC_(\d+)_(\d+) = rC_\1_\2 \* alpha$")),
    ("read_c", re.compile(r"^        vC_(\d+)_(\d+) = C\[.+\] if beta != 0\.0 else 0\.0$")),
    ("combine", re.compile(r"^        rC_(\d+)_(\d+) = vC_\1_\2 \* beta \+ rC_\1_\2$")),
    ("store", re.compile(r"^        C\[.+\] = rC_(\d+)_(\d+)$")),
]


def accumulator_statements(source):
    """``(form, r, c, t)`` of each accumulator statement, in source order (t is None but for madd)."""
    found = []
    for line in source.splitlines():
        for form, pattern in ACC_FORMS:
            match = pattern.match(line)
            if match:
                r, c, *t = map(int, match.groups())
                found.append((form, r, c, t[0] if t else None))
    return found


#: Statements of a C twin's loop body, each on one chunk of C's elements.
C_TYPE = r"(?P<type>v[248]|double)"
C_ZERO = r"(?:\(v[248]\)\{0\.0\}|0\.0)"
C_STATEMENTS = [
    ("broadcast", r"^const (?P<type>v[248]) (?P<local>v[AB]_\d+_\d+) = \{(?P<lanes>[^{}]+)\};$"),
    ("zero", rf"^{C_TYPE} (?P<acc>rC_\d+_\d+) = {C_ZERO};$"),
    ("read_c", rf"^const {C_TYPE} (?P<old>vC_\d+_\d+) = beta != 0\.0 \? (?P<x>.+) : {C_ZERO};$"),
    ("scale", r"^(?P<acc>rC_\d+_\d+) = (?P=acc) \* alpha;$"),
    ("combine", r"^(?P<acc>rC_\d+_\d+) = (?P<old>vC_\d+_\d+) \* beta \+ (?P=acc);$"),
    ("madd", r"^(?P<acc>rC_\d+_\d+) = (?P<a>.+) \* (?P<b>.+) \+ (?P=acc);$"),
    ("store", r"^(?P<x>.+) = (?P<acc>rC_\d+_\d+);$"),
]
#: One operand expression: a double, or a vector read from that element's address on.
C_ELEMENT = re.compile(
    r"^(?:\*\((?:const )?v(?P<width>[248]) \*\)&)?(?P<operand>[ABC])"
    r"(?:\[e\*span(?P=operand)\+|\[e\]\[|\[)\((?P<outer>\d+)\*ld[abc]\+(?P<inner>\d+)\)\]$"
)
#: The low lanes of a broadcast local: all of them, a narrower vector, or lane 0.
C_LOCAL = re.compile(
    r"^(?:\*\(const v(?P<width>[24]) \*\)&)?(?P<local>v[AB]_\d+_\d+)(?P<lane0>\[0\])?$"
)


def c_twin_accumulator_statements(source, layout):
    """Each accumulator's statements in a C twin, expanded from its chunks' lanes.

    Returns ``{(r, c): [entry, ...]}`` in source order.  ``("madd", (A, r, t),
    (B, t, c))`` names the elements a multiply-add reads, in its order;
    ``("read_c", (C, r, c))`` and ``("store", (C, r, c))`` the element of C.
    Every loop-body line must be one of :data:`C_STATEMENTS`.  A broadcast
    local is expanded lane by lane: each lane must be one double, and a
    madd may read only lanes the local was declared with.
    """
    body = source.split("for (long e = 0; e < E; e++) {\n", 1)[1].split("\n    }\n}", 1)[0]
    widths, found, locals_ = {}, {}, {}

    def cells(r, c, width):
        # Lane i sits i elements on along C's contiguous dimension.
        return [(r + i, c) if layout is Layout.ColMajor else (r, c + i) for i in range(width)]

    def elements(expr, width):
        if local := C_LOCAL.match(expr):
            lanes = locals_[local["local"]]
            read = 1 if local["lane0"] else int(local["width"] or len(lanes))
            assert not (local["lane0"] and local["width"]) and read == width <= len(lanes), expr
            return lanes[:width]
        x = C_ELEMENT.match(expr)
        outer, inner = int(x["outer"]), int(x["inner"])
        first = (inner, outer) if layout is Layout.ColMajor else (outer, inner)
        if x["width"] is None:
            return [(x["operand"], *first)] * width
        assert int(x["width"]) == width, expr
        return [(x["operand"], *cell) for cell in cells(*first, width)]

    for line in body.splitlines():
        form, match = next(
            (form, match) for form, pattern in C_STATEMENTS
            if (match := re.match(pattern, line.strip()))
        )
        fields = match.groupdict()
        if form == "broadcast":
            lanes = [lane for expr in fields["lanes"].split(", ") for lane in elements(expr, 1)]
            assert len(lanes) == int(fields["type"][1]) and len(set(lanes)) == 1, line
            locals_[fields["local"]] = lanes
            continue
        name = fields.get("acc") or fields["old"]
        if fields.get("type"):
            widths[name] = 1 if fields["type"] == "double" else int(fields["type"][1])
        width = widths[name]
        if form == "combine":
            assert fields["old"] == name.replace("rC", "vC") and widths[fields["old"]] == width
        if form == "madd":
            entries = [("madd", a, b) for a, b in zip(elements(fields["a"], width),
                                                      elements(fields["b"], width))]
        elif form in ("read_c", "store"):
            entries = [(form, x) for x in elements(fields["x"], width)]
        else:
            entries = [(form,)] * width
        r, c = map(int, name.split("_")[1:])
        for cell, entry in zip(cells(r, c, width), entries, strict=True):
            found.setdefault(cell, []).append(entry)
    return found


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

    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("length,access", [(1, "cis"), (3, "sic"), (7, "ics"), (10, "ssi"),
                                               (20, "iii")])
    def test_c_twin_gives_each_accumulator_the_python_sequence(self, layout, length, access):
        # C's contiguous dimension is *length* long, so every chunk width
        # (8, 4, 2, 1) and tail occurs; three groups make one pair and one
        # group on its own.  Each C statement, expanded to its lanes, must
        # give every accumulator the Python kernel's sequence.
        n, m, k = (length, 3, 4) if layout is Layout.ColMajor else (3, length, 4)
        s = spec(layout, n, m, k, access)
        found = c_twin_accumulator_statements(generate_c_source(s), layout)
        assert sorted(found) == sorted(itertools.product(range(n), range(m)))
        for (r, c), own in found.items():
            assert own == (
                [("zero",)] + [("madd", ("A", r, t), ("B", t, c)) for t in range(k)]
                + [("scale",), ("read_c", ("C", r, c)), ("combine",), ("store", ("C", r, c))]
            ), (r, c)

    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("n,m,k,access", [(3, 2, 4, "cis"), (4, 3, 2, "sci"), (2, 5, 3, "iii"),
                                              (1, 3, 2, "ccc"), (5, 1, 1, "ssi")])
    def test_statements_run_along_c_contiguous_dimension(self, layout, n, m, k, access):
        found = accumulator_statements(generate_kernel_source(spec(layout, n, m, k, access)))
        assert len(found) == n * m * (k + 5)
        # Each accumulator: zero, madds in ascending t, alpha, read, combine, store.
        for r, c in itertools.product(range(n), range(m)):
            own = [(form, t) for form, rr, cc, t in found if (rr, cc) == (r, c)]
            assert own == (
                [("zero", None)] + [("madd", t) for t in range(k)]
                + [(form, None) for form in ("scale", "read_c", "combine", "store")]
            )
        # Across accumulators, each run of like statements walks C's
        # contiguous dimension: a column's rows (ColMajor), a row's columns
        # (RowMajor), in ascending order.
        runs = [list(run) for _, run in itertools.groupby(found, key=lambda s: (s[0], s[3]))]
        contiguous, other = (n, m) if layout is Layout.ColMajor else (m, n)
        for run in runs:
            cells = [(r, c) if layout is Layout.ColMajor else (c, r) for _, r, c, _ in run]
            assert [inner for inner, _ in cells] == list(range(contiguous))
            assert len({outer for _, outer in cells}) == 1
        # Per group: zero, one run per t, alpha; then, group by group, read,
        # combine, store, all after the last alpha.
        forms = [(run[0][0], run[0][3]) for run in runs]
        accumulate = [("zero", None)] + [("madd", t) for t in range(k)] + [("scale", None)]
        write = [("read_c", None), ("combine", None), ("store", None)]
        assert forms == accumulate * other + write * other

    @pytest.mark.parametrize("compiler", ["cc", "gcc", "clang"])
    def test_c_twins_are_plain_c99(self, compiler, tmp_path):
        # Every manifest kernel, and both layouts x all 27 access triples at
        # one small shape, compile warning-free as C99 with GNU vector
        # extensions, under each compiler found on PATH.
        if shutil.which(compiler) is None:
            pytest.skip(f"no {compiler} on PATH")
        manifest = parse_manifest((ROOT / "manifests" / "default.manifest").read_text())
        specs = list(manifest.entries) + [
            spec(layout, 3, 2, 4, "".join(access))
            for layout, access in itertools.product(Layout, itertools.product("csi", repeat=3))
        ]
        files = []
        for s in specs:
            files.append(tmp_path / f"{s.name}.c")
            files[-1].write_text(generate_c_source(s))
        done = subprocess.run(
            [compiler, "-std=c99", "-Wall", "-Wextra", "-Wno-unused-parameter", "-Werror",
             "-fsyntax-only", *map(str, files)],
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=300,
        )
        assert done.returncode == 0, done.stderr

    def test_shape_bound(self):
        # One bound for both printers: a Python kernel never lacks its C twin.
        for generate in (generate_kernel_source, generate_c_source):
            for dims in itertools.permutations((DEFAULT_MAX_DIM + 1, 1, 1)):
                with pytest.raises(ValueError, match=f"per-dimension bound {DEFAULT_MAX_DIM}$"):
                    generate(spec(Layout.ColMajor, *dims, "ccc"))
            generate(spec(Layout.ColMajor, DEFAULT_MAX_DIM, 1, 1, "ccc"))

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
    def test_generated_matches_oracle(self, layout, access, set_jit):
        s = spec(layout, 3, 2, 4, access)
        kernel = build_kernel(s)
        rng = np.random.default_rng(77)
        E = 33
        a, b, c = make_operands(s, E, rng)
        c_ref = clone_operand(c)
        set_jit(False)
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

    def test_zero_padded_dimension(self):
        with pytest.raises(ManifestError, match="line 1, column 12: dimension M is zero-padded: '07'"):
            parse_manifest("ColMajor 2 07 4 cis")

    @given(spec_fields)
    @settings(max_examples=300, deadline=None)
    def test_names_and_manifests_share_one_grammar(self, fields):
        # The same five fields as a kernel name and as a manifest line give
        # the same spec, or both are refused at the same field.
        try:
            named = parse_kernel_name("bbdgemm_" + "_".join(fields))
        except KernelNameError as error:
            named = error
        line = " ".join(fields)
        try:
            listed = parse_manifest(line).entries[0]
        except ManifestError as error:
            listed = error
        if isinstance(named, KernelSpec):
            assert listed == named
        else:
            assert isinstance(listed, ManifestError), listed
            columns = [token.start() + 1 for token in re.finditer(r"\S+", line)]
            assert listed.column == columns[named.field]
            assert str(listed).endswith(str(named))

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
        umask = os.umask(0o022)
        try:
            written = write_kernel_package(manifest, tmp_path / "k2")
        finally:
            os.umask(umask)
        names = {p.name for p in written}
        assert names == {"bbdgemm_ColMajor_2_2_2_cis.py", "__init__.py"}
        # the mode the umask gives a new file, not mkstemp's 0600
        assert [p.stat().st_mode & 0o777 for p in written] == [0o644, 0o644]
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
