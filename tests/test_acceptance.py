"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy criteria (1, 2, 5) stay within their stated budgets on a
laptop-class machine; the first run pays one-time kernel compilation that
the JIT backend caches on disk.
"""

import hashlib
import itertools
import random
import time

import numpy as np
import pytest

from bbdgemm.bench import (
    amdahl_max_speedup,
    clone_operand,
    emit_csv,
    format_report,
    output_elements,
    read_csv,
    run_benchmark,
)
from bbdgemm.codegen import (
    MachineModel,
    estimate_pressure,
    generate_c_source,
    generate_kernel_source,
    parse_manifest,
)
from bbdgemm.core import (
    AccessKind,
    KernelShape,
    KernelSpec,
    Layout,
    kernel_name,
    parse_kernel_name,
)
from bbdgemm.proxy import ProxyConfig, compare_dumps, dump_state, load_dump, run_proxy
from bbdgemm.reference import GemmScalars, batched_ref
from bbdgemm.runtime import KernelRegistry, default_registry, run_batched

from conftest import build_kernel, make_operands


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


def report(line):
    print(f"\n{line}")


LATTICE_SHAPES = sorted(itertools.product(range(1, 5), repeat=3)) + [(10, 9, 9), (20, 9, 10)]
ACCESS_TRIPLES = ["".join(t) for t in itertools.product("csi", repeat=3)]
BATCH_SIZES = (0, 1, 7, 256, 1000)
# alpha/beta pairing per batch size: covers accumulate, overwrite, scaling,
# and the alpha == 0 identity across the lattice
SCALAR_PAIRS = ((1.0, 1.0), (1.0, 0.0), (0.5, 0.25), (1.0, 1.0), (0.0, 1.0))


def test_criterion_1_oracle_equivalence_lattice(set_jit):
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    combos = 0
    set_jit(False)  # interpreted kernels: summation order identical to the oracle
    for layout in Layout:
        for access in ACCESS_TRIPLES:
            for n, m, k in LATTICE_SHAPES:
                s = spec(layout, n, m, k, access)
                registry = KernelRegistry({kernel_name(s): build_kernel(s)})
                combos += 1
                for E, (alpha, beta) in zip(BATCH_SIZES, SCALAR_PAIRS):
                    a, b, c = make_operands(s, E, rng)
                    c_ref = clone_operand(c)
                    run_batched(s, E, alpha, a, b, beta, c, registry=registry)
                    batched_ref(s, E, GemmScalars(alpha, beta), a, b, c_ref)
                    got = output_elements(s, E, c)
                    want = output_elements(s, E, c_ref)
                    if E:
                        diff = float(np.max(np.abs(got - want))) if got.size else 0.0
                        assert diff <= 1e-12, f"{kernel_name(s)} E={E}: diff {diff}"
                        # scalar builds preserve summation order exactly
                        assert np.array_equal(got, want), f"{kernel_name(s)} E={E}"
                assert registry.fallback_count == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"lattice took {elapsed:.0f}s, budget is 5 minutes"
    report(
        f"ACCEPTANCE 1 oracle-equivalence: PASS - {combos} kernels x {len(BATCH_SIZES)} "
        f"batch sizes matched batched_ref within 1e-12 (bitwise) in {elapsed:.0f}s"
    )


def test_criterion_2_proxy_validation_threshold(tmp_path):
    started = time.perf_counter()
    registry = default_registry()
    fallback_before = registry.fallback_count
    ref_state = run_proxy(ProxyConfig(mode="scalar"), registry=registry)
    vec_state = run_proxy(ProxyConfig(mode="vector"), registry=registry)
    assert registry.fallback_count == fallback_before, "default chain must not fall back"
    ref_dump = tmp_path / "reference.bin"
    vec_dump = tmp_path / "batched.bin"
    dump_state(ref_state, ref_dump)
    dump_state(vec_state, vec_dump)
    result = compare_dumps(ref_dump, vec_dump, tol=1e-6)
    assert result.max_abs_diff < 1e-6, f"max_abs_diff {result.max_abs_diff}"
    assert result.passed
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"proxy validation took {elapsed:.0f}s, budget is 2 minutes"
    report(
        f"ACCEPTANCE 2 validation-threshold: PASS - 10000 cells x 6 timesteps, "
        f"max|ref - batched| = {result.max_abs_diff:.2e} < 1e-6 in {elapsed:.0f}s"
    )


def test_criterion_3_register_pressure_model():
    model = MachineModel(32, 32)
    small = estimate_pressure(spec(Layout.ColMajor, 2, 2, 2, "cis"), model)
    assert small.predicted_spills == 0
    ladder = [(2, 2, 2), (5, 5, 5), (10, 9, 9), (20, 9, 10)]
    spills = [
        estimate_pressure(spec(Layout.ColMajor, n, m, k, "cis"), model).predicted_spills
        for n, m, k in ladder
    ]
    assert spills == sorted(spills), f"ladder not monotone: {spills}"
    assert spills[-1] > 0
    report(
        f"ACCEPTANCE 3 register-pressure: PASS - 2_2_2_cis spills 0; "
        f"ladder {' -> '.join(str(s) for s in spills)} non-decreasing, worst > 0"
    )


#: sha256 of each default kernel's generated Python source and C source.
TWIN_SHA256 = {
    "bbdgemm_ColMajor_2_2_2_cis": [
        "eda2c1e58fbfdf44b126d52ee9089b95cdc2ca750e0128da2714996b235371bf",
        "20648a8d12752916f9b810618cdbd33064586d9c712d8880a0f2d320f83f8f06",
    ],
    "bbdgemm_ColMajor_10_9_9_csi": [
        "ae9e682ce0e530092642aa254ede3ddd6ccebb9590450a60bff58a2d6a71346f",
        "87767e5e934ed62a0db911b9f1b0a59e3178d633ad859645f4acc073f2035709",
    ],
    "bbdgemm_ColMajor_20_9_10_csi": [
        "8bc073c84ca64d870f935a2c2ea147eb71584ce301c3c29489077921f8e3b972",
        "5db4294c3bec17c85945fd9cbb2a53c850a2ee5c032317d5ea536e4527f0da38",
    ],
    "bbdgemm_ColMajor_20_9_10_cis": [
        "6c0aa7fe0e5cb0c45012c56f0d8e59188d4f554782233a0808c0da950424bb4a",
        "2ad334f10b4f2fc5cdcb94b2b4f74426a5230ca5a130bd5a96c8b66b8bb42495",
    ],
    "bbdgemm_ColMajor_10_9_9_sci": [
        "8aa474b641973d2bc0efd6473eeaed1f20b1aef2289707094a4ad0034ff550f7",
        "d842905821d07a433db1febe659a00da5c9bd79b0e02e31d1442d8e1854d9c8b",
    ],
}


def test_criterion_4_naming_and_formats(tmp_path):
    # naming round-trip over 100 random specs
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

    # dump-file round-trip, bit-exact
    state = run_proxy(ProxyConfig(cells=7, timesteps=1, mode="scalar"))
    first, second = tmp_path / "one.bin", tmp_path / "two.bin"
    dump_state(state, first)
    load_dump(first)
    dump_state(state, second)
    assert first.read_bytes() == second.read_bytes()
    assert compare_dumps(first, second, tol=0.0).max_abs_diff == 0.0

    # CSV round-trip parse equality
    from bbdgemm.bench import BenchRecord

    records = [
        BenchRecord("bbdgemm_ColMajor_2_2_2_cis", 10000, 5, 123456, 654321,
                    654321 / 123456, 4.4e-16, False),
        BenchRecord("bbdgemm_ColMajor_20_9_10_csi", 10000, 5, 999, 100,
                    100 / 999, 0.0, True),
    ]
    csv_path = tmp_path / "records.csv"
    emit_csv(records, csv_path)
    assert read_csv(csv_path) == records

    # generated source is byte-identical across runs, and each default
    # kernel's Python twin and C twin keep their pinned sha256
    from pathlib import Path

    manifest = parse_manifest(Path("manifests/default.manifest").read_text())
    for s in manifest.entries:
        source = generate_kernel_source(s)
        assert source == generate_kernel_source(s)
        digests = [hashlib.sha256(text.encode()).hexdigest() for text in (source, generate_c_source(s))]
        assert digests == TWIN_SHA256[kernel_name(s)], kernel_name(s)
    assert list(TWIN_SHA256) == list(manifest.names())
    report(
        "ACCEPTANCE 4 naming-and-formats: PASS - 100-case name round-trip, "
        "bit-exact dump round-trip, CSV round-trip, pinned twin sources"
    )


def test_criterion_5_benchmark_methodology(tmp_path):
    bench_specs = [
        spec(Layout.ColMajor, 2, 2, 2, "cis"),
        spec(Layout.ColMajor, 10, 9, 9, "csi"),
        spec(Layout.ColMajor, 20, 9, 10, "csi"),
    ]
    registry = default_registry()
    records, details = [], []
    for s in bench_specs:
        record, detail = run_benchmark(s, E=10000, reps=5, registry=registry, seed=42)
        records.append(record)
        details.append(detail)
    for record in records:
        assert record.max_abs_diff <= 1e-12
        assert record.fallback_used is False
        assert record.reps == 5 and record.E == 10000
    csv_path = tmp_path / "bench.csv"
    emit_csv(records, csv_path)
    assert read_csv(csv_path) == records
    # speedups are reported, never asserted: magnitudes are machine-dependent
    summary = format_report(records, details)
    report("ACCEPTANCE 5 benchmark-methodology: PASS - CSV well-formed, every row "
           "diff <= 1e-12, no fallback; measured speedups below are informational")
    print(summary)


def test_criterion_6_amdahl_sanity():
    bound = amdahl_max_speedup(0.5353)
    assert abs(bound - 2.15) < 0.01
    report(
        f"ACCEPTANCE 6 amdahl-sanity: PASS - optimizing a 53.53% fraction caps "
        f"overall speedup at {bound:.4f}x (within 0.01 of 2.15)"
    )
