import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bbdgemm import proxy as proxy_mod
from bbdgemm import vectorize
from bbdgemm.cli import bench_main, genkernels_main, proxy_main
from bbdgemm.proxy import load_dump
from bbdgemm.vectorize import jit_available


CHAIN = (
    "ColMajor 4 2 3 cis op1 qin scratch 1.0 0.0\n"
    "ColMajor 3 2 2 sci scratch op2 qout 1.0 1.0\n"
)


@pytest.fixture(autouse=True)
def _no_jit(set_jit):
    # CLI behaviour under test is independent of the JIT backend; keep the
    # small runs on the interpreted path.
    set_jit(False)


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

    def test_unreadable_manifest_is_reported(self, tmp_path, capsys):
        rc = genkernels_main(["--manifest", "/nonexistent", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert re.fullmatch(r"genkernels: \[Errno 2\] .*'/nonexistent'\n", capsys.readouterr().err)

    def test_unwritable_report_is_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\n", encoding="utf-8")
        rc = genkernels_main(
            ["--manifest", str(manifest), "--out-dir", str(tmp_path / "out"),
             "--emit-report", "/nonexistent/x.csv"]
        )
        assert rc == 1
        assert re.fullmatch(
            r"genkernels: \[Errno 2\] .*'/nonexistent/x.csv'\n", capsys.readouterr().err
        )

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

    def test_prints_paths_and_compile_log(self, set_jit, capsys):
        if not jit_available():
            pytest.skip("no C compiler (cc) on PATH")
        set_jit(True)
        assert proxy_main(["--cells", "2", "--timesteps", "1", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        for name in ("bbdgemm_ColMajor_20_9_10_cis", "bbdgemm_ColMajor_10_9_9_sci"):
            assert re.search(rf"^{name}: \d+ calls compiled \(\d+ elements\)$", out, re.M)
            assert re.search(rf"^compile {name}: [0-9.]+ s \(cache (hit|miss)\)$", out, re.M)

    def test_a_lanes_process_dump_matches_at_tol_0(self, set_jit, tmp_path, capsys):
        # The proxy run in a process started with BBDGEMM_JIT=0 takes lanes
        # and builds nothing; this process's own path (compiled where there
        # is cc) gives the same bytes, at --tol 0.
        args = ["--cells", "60", "--timesteps", "2", "--mode", "vector"]
        lanes, cache = tmp_path / "lanes.bin", tmp_path / "cache"
        env = dict(os.environ, BBDGEMM_JIT="0", XDG_CACHE_HOME=str(cache))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from bbdgemm.cli import proxy_main; "
             "sys.exit(proxy_main(sys.argv[1:]))", *args, "--dump", str(lanes)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert re.search(r"^\S+: \d+ calls lanes ", done.stdout, re.M)
        assert not re.search(r"^compile |calls compiled", done.stdout, re.M)
        assert not cache.exists()
        set_jit(True)
        rc = proxy_main(args + ["--dump", str(tmp_path / "own.bin"), "--compare", str(lanes), "--tol", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        path = "compiled" if vectorize.jit_enabled() else "lanes"
        assert re.search(rf"^\S+: \d+ calls {path} ", out, re.M)
        assert re.search(r"max\|diff\| = 0\.000e\+00 \(tol 0\) PASS$", out, re.M)

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

    def test_compare_requires_dump(self, tmp_path, capsys, monkeypatch):
        # Refused before any timestep runs.
        def not_run(*args, **kwargs):
            raise AssertionError("run_proxy called")

        monkeypatch.setattr(proxy_mod, "run_proxy", not_run)
        rc = proxy_main(
            ["--cells", "2", "--timesteps", "1", "--mode", "scalar", "--seed", "1",
             "--compare", str(tmp_path / "x.bin")]
        )
        assert rc == 1
        assert "--compare requires --dump" in capsys.readouterr().err

    def test_row_major_chain_file_runs_in_both_modes(self, tmp_path, capsys):
        # The chain file alone fixes the layout and the tensor shape.
        chain = tmp_path / "chain.txt"
        chain.write_text(CHAIN.replace("ColMajor", "RowMajor"), encoding="utf-8")
        ref_dump, vec_dump = tmp_path / "ref.bin", tmp_path / "vec.bin"
        args = ["--cells", "5", "--timesteps", "2", "--seed", "3", "--chain", str(chain)]
        assert proxy_main(args + ["--mode", "scalar", "--dump", str(ref_dump)]) == 0
        rc = proxy_main(
            args + ["--mode", "vector", "--dump", str(vec_dump), "--compare", str(ref_dump),
                    "--tol", "0"]
        )
        assert rc == 0
        assert re.search(r"max\|diff\| = 0\.000e\+00 \(tol 0\) PASS$", capsys.readouterr().out, re.M)
        assert load_dump(vec_dump)[:4] == (5, 4, 3, 2)

    @pytest.mark.parametrize("option", ["--chain", "--compare", "--dump"])
    def test_unreadable_file_is_reported(self, option, tmp_path, capsys):
        # A chain or dump to compare that cannot be read, or a dump that
        # cannot be written, is reported in one line, not a traceback.
        args = ["--cells", "2", "--timesteps", "1", "--mode", "scalar", "--seed", "1"]
        if option == "--compare":
            args += ["--dump", str(tmp_path / "out.bin")]
        path = "/nonexistent/out.bin" if option == "--dump" else "/nonexistent"
        assert proxy_main(args + [option, path]) == 1
        assert re.fullmatch(rf"proxy: \[Errno 2\] .*'{path}'\n", capsys.readouterr().err)

    def test_compare_with_a_dump_of_another_shape_is_reported(self, tmp_path, capsys):
        args = ["--timesteps", "1", "--mode", "scalar", "--seed", "1"]
        assert proxy_main(args + ["--cells", "2", "--dump", str(tmp_path / "two.bin")]) == 0
        rc = proxy_main(
            args + ["--cells", "3", "--dump", str(tmp_path / "three.bin"),
                    "--compare", str(tmp_path / "two.bin")]
        )
        assert rc == 1
        assert re.fullmatch(r"proxy: dump shape mismatch: .*\n", capsys.readouterr().err)

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

    @pytest.mark.parametrize("option", ["--manifest", "--kernel-dir"])
    def test_unreadable_input_is_reported(self, option, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\n", encoding="utf-8")
        if option == "--manifest":
            args = ["--manifest", "/nonexistent"]
        else:
            args = ["--manifest", str(manifest), "--kernel-dir", "/nonexistent"]
        assert bench_main(args) == 1
        assert re.fullmatch(r"bench: .*/nonexistent.*\n", capsys.readouterr().err)

    def test_unwritable_csv_is_reported(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_text("ColMajor 2 2 2 cis\n", encoding="utf-8")
        rc = bench_main(
            ["--manifest", str(manifest), "--batch", "4", "--reps", "1",
             "--csv", "/nonexistent/x.csv"]
        )
        assert rc == 1
        assert re.fullmatch(r"bench: \[Errno 2\] .*'/nonexistent/x.csv'\n", capsys.readouterr().err)

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
