import re

import numpy as np
import pytest

from bbdgemm.cli import bench_main, genkernels_main, proxy_main
from bbdgemm.proxy import load_dump
from bbdgemm.vectorize import jit_available


CHAIN = (
    "ColMajor 4 2 3 cis op1 qin scratch 1.0 0.0\n"
    "ColMajor 3 2 2 sci scratch op2 qout 1.0 1.0\n"
)


@pytest.fixture(autouse=True)
def _no_jit(monkeypatch):
    # CLI behaviour under test is independent of the JIT backend; keep the
    # small runs on the interpreted path.
    monkeypatch.setenv("BBDGEMM_JIT", "0")


class TestGenkernels:
    def test_generates_package_and_report(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\nRowMajor 3 1 2 sss\n", encoding="utf-8")
        report = tmp_path / "report.csv"
        rc = genkernels_main(
            ["--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
             "--emit-report", str(report)]
        )
        assert rc == 0
        assert (tmp_path / "out" / "__init__.py").exists()
        assert (tmp_path / "out" / "bbdgemm_RowMajor_3_1_2_sss.py").exists()
        lines = report.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "name,n,m,k,access,scalar_live,vector_live,predicted_spills"
        assert len(lines) == 3

    def test_manifest_error_is_reported(self, tmp_path, capsys):
        manifest = tmp_path / "bad.manifest"
        manifest.write_text("ColMajor 2 2 0 cis\n", encoding="utf-8")
        rc = genkernels_main(["--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "K must be >= 1" in capsys.readouterr().err

    def test_max_dim_enforced(self, tmp_path, capsys):
        # The bound is fixed at 64, for the Python kernel and its C twin
        # alike: a larger shape is refused, and there is no option to raise it.
        manifest = tmp_path / "big.manifest"
        manifest.write_text("ColMajor 65 1 1 ccc\n", encoding="utf-8")
        rc = genkernels_main(["--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "exceeds the per-dimension bound 64" in capsys.readouterr().err
        with pytest.raises(SystemExit) as caught:
            genkernels_main(
                ["--manifest", str(manifest), "--out-dir", str(tmp_path / "out"), "--max-dim", "65"]
            )
        assert caught.value.code == 2
        assert "--max-dim" in capsys.readouterr().err


class TestProxyCli:
    def test_scalar_vector_dumps_compare_equal(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text(CHAIN, encoding="utf-8")
        ref_dump = tmp_path / "ref.bin"
        vec_dump = tmp_path / "vec.bin"
        args = ["--cells", "11", "--timesteps", "2", "--seed", "3", "--chain", str(chain)]
        assert proxy_main(args + ["--mode", "scalar", "--dump", str(ref_dump)]) == 0
        rc = proxy_main(
            args
            + ["--mode", "vector", "--dump", str(vec_dump), "--compare", str(ref_dump)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        cells, components, rows, cols, data = load_dump(vec_dump)
        assert (cells, components, rows, cols) == (11, 4, 3, 2)
        assert np.all(np.isfinite(data))

    def test_prints_paths_and_compile_log(self, monkeypatch, capsys):
        if not jit_available():
            pytest.skip("no C compiler (cc) on PATH")
        monkeypatch.setenv("BBDGEMM_JIT", "1")
        assert proxy_main(["--cells", "2", "--timesteps", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("bbdgemm_ColMajor_20_9_10_cis", "bbdgemm_ColMajor_10_9_9_sci"):
            assert re.search(rf"^{name}: \d+ calls compiled \(\d+ elements\)$", out, re.M)
            assert re.search(rf"^compile {name}: [0-9.]+ s \(cache (hit|miss)\)$", out, re.M)

    def test_fallback_warning_names_the_kernels_not_built(self, tmp_path, capsys):
        # The shipped kernels lack the second step's: its 4 calls (one per
        # component) fall back, and the first step's run on kernels.
        chain = tmp_path / "chain.txt"
        chain.write_text(
            "ColMajor 20 9 10 cis op1 qin scratch 1.0 0.0\n"
            "ColMajor 10 9 5 sci scratch op2 qout 1.0 1.0\n",
            encoding="utf-8",
        )
        args = ["--cells", "3", "--timesteps", "1", "--seed", "1", "--chain", str(chain)]
        assert proxy_main(args) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^warning: 4 batched calls used the reference fallback, since these kernels "
            r"were not built: bbdgemm_ColMajor_10_9_5_sci$",
            out,
            re.M,
        )

    def test_compare_requires_dump(self, tmp_path, capsys):
        rc = proxy_main(
            ["--cells", "2", "--timesteps", "1", "--mode", "scalar", "--seed", "1",
             "--compare", str(tmp_path / "x.bin")]
        )
        assert rc == 1
        assert "--compare requires --dump" in capsys.readouterr().err

    def test_custom_chain_dims_must_match_tensors(self, tmp_path, capsys):
        chain = tmp_path / "chain.txt"
        chain.write_text("ColMajor 4 2 3 cii op1 qin qout 1.0 0.0\n", encoding="utf-8")
        rc = proxy_main(
            ["--cells", "4", "--timesteps", "1", "--mode", "scalar", "--seed", "1",
             "--chain", str(chain)]
        )
        assert rc == 1
        assert "tensor components" in capsys.readouterr().err


class TestBenchCli:
    def test_csv_and_report(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\n", encoding="utf-8")
        kernel_dir = tmp_path / "kernels"
        assert genkernels_main(["--manifest", str(manifest), "--out-dir", str(kernel_dir)]) == 0
        csv_path = tmp_path / "bench.csv"
        rc = bench_main(
            ["--manifest", str(manifest), "--batch", "40", "--reps", "2",
             "--kernel-dir", str(kernel_dir), "--csv", str(csv_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "path lanes" in out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("bbdgemm_ColMajor_2_2_2_cis,40,2,")

    def test_missing_kernel_fails_without_allow_fallback(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 3 3 3 ccc\n", encoding="utf-8")
        empty_dir = tmp_path / "none"
        (empty_dir / "__init__.py").parent.mkdir()
        (empty_dir / "__init__.py").write_text("KERNELS = {}\n", encoding="utf-8")
        rc = bench_main(
            ["--manifest", str(manifest), "--batch", "8", "--reps", "2",
             "--kernel-dir", str(empty_dir)]
        )
        assert rc == 1
        assert "dispatch table" in capsys.readouterr().err

    def test_baseline_flag_is_refused(self, tmp_path, capsys):
        # The oracle's per-call loop is the only baseline; there is no flag.
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exited:
            bench_main(["--manifest", str(manifest), "--baseline", "external"])
        assert exited.value.code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_allow_fallback_flag(self, tmp_path):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 3 3 3 ccc\n", encoding="utf-8")
        empty_dir = tmp_path / "none"
        empty_dir.mkdir()
        (empty_dir / "__init__.py").write_text("KERNELS = {}\n", encoding="utf-8")
        csv_path = tmp_path / "out.csv"
        rc = bench_main(
            ["--manifest", str(manifest), "--batch", "8", "--reps", "2",
             "--kernel-dir", str(empty_dir), "--allow-fallback", "--csv", str(csv_path)]
        )
        assert rc == 0
        assert "true" in csv_path.read_text(encoding="utf-8").splitlines()[1]
