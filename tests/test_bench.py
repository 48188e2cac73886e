import time

import numpy as np
import pytest

from bbdgemm import bench
from bbdgemm.bench import (
    BenchRecord,
    FallbackDisallowed,
    amdahl_max_speedup,
    emit_csv,
    format_report,
    read_csv,
    run_benchmark,
)
from bbdgemm.core import AccessKind, KernelShape, KernelSpec, Layout, kernel_name
from bbdgemm.runtime import KernelRegistry
from bbdgemm.vectorize import jit_available

from conftest import build_registry


def spec(layout, n, m, k, access):
    return KernelSpec(layout, KernelShape(n, m, k), *(AccessKind(ch) for ch in access))


S222 = spec(Layout.ColMajor, 2, 2, 2, "cis")


def record(name="bbdgemm_ColMajor_2_2_2_cis", speedup=2.0, fallback=False):
    return BenchRecord(
        name=name,
        E=100,
        reps=5,
        median_ns_batched=1000,
        median_ns_percall=int(1000 * speedup),
        speedup=speedup,
        max_abs_diff=1e-15,
        fallback_used=fallback,
    )


def wrong_value(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
    for e in range(E):
        C[e * spanC] = 1e9


def nan_everywhere(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
    C[: E * spanC] = np.nan


class TestBenchmark:
    def test_record_fields_and_gate(self, set_jit):
        registry = build_registry(S222)
        set_jit(False)
        rec, detail = run_benchmark(S222, 64, reps=3, registry=registry, seed=5)
        assert rec.name == kernel_name(S222)
        assert rec.E == 64 and rec.reps == 3
        assert rec.max_abs_diff <= 1e-12
        assert rec.fallback_used is False
        assert rec.speedup == rec.median_ns_percall / rec.median_ns_batched
        assert len(detail.batched_samples_ns) == 3
        assert len(detail.percall_samples_ns) == 3
        assert detail.batched_inner_iters >= 1
        assert detail.stddev_ns_batched >= 0.0

    @pytest.mark.parametrize(
        "jit, path",
        [
            (False, "lanes"),
            pytest.param(
                True, "compiled",
                marks=pytest.mark.skipif(not jit_available(), reason="no C compiler (cc) on PATH"),
            ),
        ],
    )
    def test_report_names_the_serving_path(self, jit, path, set_jit):
        registry = build_registry(S222)
        set_jit(jit)
        rec, detail = run_benchmark(S222, 64, reps=2, registry=registry, seed=5)
        assert detail.path == path
        assert f"path {path}" in format_report([rec], [detail])

    @pytest.mark.parametrize(
        "broken", [wrong_value, nan_everywhere], ids=["wrong_value", "nan_everywhere"]
    )
    def test_broken_kernel_refused(self, broken):
        registry = KernelRegistry({kernel_name(S222): broken})
        with pytest.raises(ValueError, match="refusing to benchmark"):
            run_benchmark(S222, 16, reps=2, registry=registry)

    def test_kernel_one_ulp_off_refused(self):
        # Rows are gated on bytes: one element one ulp away from the
        # oracle's is refused, and the message still gives max|diff|.
        real = build_registry(S222).lookup(kernel_name(S222))

        def one_ulp_off(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC):
            real(E, alpha, A, lda, B, ldb, beta, C, ldc, spanA, spanB, spanC)
            C[0] = np.nextafter(C[0], np.inf)

        registry = KernelRegistry({kernel_name(S222): one_ulp_off})
        with pytest.raises(ValueError, match=r"max\|diff\| [0-9.]+e-1[0-9]\); refusing to benchmark"):
            run_benchmark(S222, 16, reps=2, registry=registry)

    def test_fallback_disallowed_before_timing(self, monkeypatch):
        def no_timing(unit, reps):
            raise AssertionError("timed a run that needed the fallback")

        monkeypatch.setattr(bench, "_measure", no_timing)
        with pytest.raises(FallbackDisallowed, match="dispatch table"):
            run_benchmark(S222, 4, reps=2, registry=KernelRegistry({}), seed=1)

    def test_fallback_marked_when_allowed(self, set_jit):
        set_jit(False)
        rec, _ = run_benchmark(
            S222, 16, reps=2, registry=KernelRegistry({}), allow_fallback=True
        )
        assert rec.fallback_used is True

    def test_percall_baseline_is_the_oracle_loop(self, monkeypatch, set_jit):
        # The per-call figure times batched_ref alone, on one copy of C:
        # after the correctness check's call come two warm-ups, the
        # calibration runs (1 + 2 + ... + inner) and reps * inner samples.
        oracle = bench.batched_ref
        outputs = []
        def counting_ref(spec, E, scalars, a, b, c):
            outputs.append(c)
            return oracle(spec, E, scalars, a, b, c)
        monkeypatch.setattr(bench, "batched_ref", counting_ref)
        set_jit(False)
        _, detail = run_benchmark(S222, 8, reps=3, registry=build_registry(S222))
        inner = detail.percall_inner_iters
        assert len(outputs) == 1 + 2 + (2 * inner - 1) + 3 * inner
        assert len({id(c) for c in outputs[1:]}) == 1

    def test_reps_must_be_positive(self):
        with pytest.raises(ValueError, match="reps"):
            run_benchmark(S222, 8, reps=0, registry=build_registry(S222))


class TestCsv:
    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        text = path.read_text(encoding="utf-8")
        assert text == (
            "name,E,reps,median_ns_batched,median_ns_percall,speedup,max_abs_diff,fallback_used\n"
        )

    def test_three_records_four_lines(self, tmp_path):
        path = tmp_path / "three.csv"
        emit_csv([record(), record(speedup=3.5), record(fallback=True)], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv([record()], path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    def test_round_trip_equality(self, tmp_path):
        path = tmp_path / "roundtrip.csv"
        records = [
            record(),
            record(name="bbdgemm_ColMajor_20_9_10_csi", speedup=0.731528361),
            record(fallback=True),
        ]
        emit_csv(records, path)
        assert read_csv(path) == records

    def test_cell_formats(self, tmp_path):
        # Ints plainly, floats by repr, booleans as true/false: the cells
        # tools/perfbench_pairs.py reads back with json.loads.
        path = tmp_path / "cells.csv"
        emit_csv([record(speedup=0.1), record(name="a,b", fallback=True)], path)
        assert path.read_bytes() == (
            b"name,E,reps,median_ns_batched,median_ns_percall,speedup,max_abs_diff,fallback_used\n"
            b"bbdgemm_ColMajor_2_2_2_cis,100,5,1000,100,0.1,1e-15,false\n"
            b'"a,b",100,5,1000,2000,2.0,1e-15,true\n'
        )

    @pytest.mark.parametrize(
        "row",
        [
            "n,1.5,5,1000,2000,2.0,1e-15,false",
            "n,100,,1000,2000,2.0,1e-15,false",
            "n,100,5,1000,2000,fast,1e-15,false",
            "n,100,5,1000,2000,2.0,1e-15,maybe",
            "n,100",
        ],
        ids=["float_E", "empty_reps", "word_speedup", "maybe_fallback", "short"],
    )
    def test_malformed_row_is_named(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        emit_csv([], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(row + "\n")
        with pytest.raises(ValueError, match=r"^malformed CSV row \['n', "):
            read_csv(path)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)


class TestAmdahl:
    def test_published_fraction(self):
        assert abs(amdahl_max_speedup(0.5353) - 2.15) < 0.01

    def test_zero_fraction(self):
        assert amdahl_max_speedup(0.0) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            amdahl_max_speedup(1.0)
        with pytest.raises(ValueError):
            amdahl_max_speedup(-0.1)


class TestReport:
    def test_trend_note_when_small_shape_loses(self):
        records = [
            record(name="bbdgemm_ColMajor_2_2_2_cis", speedup=1.0),
            record(name="bbdgemm_ColMajor_20_9_10_csi", speedup=4.0),
        ]
        assert "did not beat" in format_report(records)

    def test_no_note_when_small_shape_wins(self):
        records = [
            record(name="bbdgemm_ColMajor_2_2_2_cis", speedup=9.0),
            record(name="bbdgemm_ColMajor_20_9_10_csi", speedup=1.1),
        ]
        assert "did not beat" not in format_report(records)

    def test_fallback_rows_excluded_from_trend(self):
        records = [
            record(name="bbdgemm_ColMajor_2_2_2_cis", speedup=1.0, fallback=True),
            record(name="bbdgemm_ColMajor_20_9_10_csi", speedup=4.0),
        ]
        report = format_report(records)
        assert "did not beat" not in report
        assert "[fallback]" in report

    def test_amdahl_line(self):
        report = format_report([record()], gemm_fraction=0.5353)
        assert "2.152" in report


def test_measure_keeps_slow_first_calls_out_of_its_samples():
    # Two slow calls (a lazy build, a table's first facts) set neither the
    # repeat count nor a sample.
    calls = []

    def unit():
        calls.append(None)
        if len(calls) <= 2:
            time.sleep(0.005)
        else:
            until = time.perf_counter_ns() + 10_000
            while time.perf_counter_ns() < until:
                pass

    samples, inner = bench._measure(unit, 5)
    assert inner > 1
    assert len(samples) == 5 and max(samples) < 1_000_000
