"""Compare the C twins of two trees: kernel times, build times, instruction mix, perfbench pairs.

Run from the repository root::

    python3 tools/bench_explicit_vectors.py --parent <rev> --out BENCH_explicit_vectors.json
    python3 tools/bench_explicit_vectors.py --parent <rev> --out BENCH_explicit_vectors.json \
        --label held_out_seed --pairs 3 --run-args '--workload proxy_vector --seed 1313'

The old tree is ``git archive <rev>`` unpacked into a temporary directory and
the new tree is this checkout.  Each tree prints the C twin of every kernel
below (its own ``bbdgemm.codegen.generate_c_source``, in a subprocess); both
are built with the flags the package uses and called directly through
ctypes on the same operands, old and new interleaved round by round.  The
outputs of the two builds are compared byte for byte.  The script then
times cold builds, counts instructions in ``cc -S`` output, and runs
``perfbench/run.py`` (at its defaults, or with ``--run-args``) in both
trees, alternating which goes first, ``--pairs`` times.  Each run is stored
in ``--out`` under its ``--label``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from io import BytesIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from bbdgemm.core import AccessKind, matrix_span, operand_dims, parse_kernel_name  # noqa: E402
from bbdgemm.vectorize import _C_ARGTYPES, _CFLAGS  # noqa: E402

#: (kernel, E, operands): the proxy's two kernels on proxy-shaped operands
#: (900 separately allocated Indexed matrices, a Strided scratch of span 180
#: read through a 10x9 window at lda 20), and the five small_batch kernels.
KERNELS = [
    ("bbdgemm_ColMajor_20_9_10_cis", 900, "proxy"),
    ("bbdgemm_ColMajor_10_9_9_sci", 900, "proxy"),
    ("bbdgemm_ColMajor_2_2_2_cis", 10000, "minimal"),
    ("bbdgemm_ColMajor_4_4_4_sis", 10000, "minimal"),
    ("bbdgemm_ColMajor_3_4_2_ssi", 10000, "minimal"),
    ("bbdgemm_ColMajor_4_3_3_sss", 10000, "minimal"),
    ("bbdgemm_RowMajor_2_3_4_ici", 10000, "minimal"),
]
#: Proxy operands: (ld, span) per Strided operand, ld per other operand.
PROXY_LDS = {
    "bbdgemm_ColMajor_20_9_10_cis": {"A": (20, None), "B": (10, None), "C": (20, 180)},
    "bbdgemm_ColMajor_10_9_9_sci": {"A": (20, 180), "B": (9, None), "C": (10, None)},
}
PRINT_SOURCES = (
    "import json, sys\n"
    "from bbdgemm.codegen import generate_c_source\n"
    "from bbdgemm.core import parse_kernel_name\n"
    "print(json.dumps({n: generate_c_source(parse_kernel_name(n)) for n in sys.argv[1:]}))\n"
)
STACK = re.compile(r"\(%r[sb]p\)")


def c_sources(tree: Path) -> dict[str, str]:
    """Each kernel's C twin as *tree*'s codegen prints it."""
    done = subprocess.run(
        [sys.executable, "-c", PRINT_SOURCES, *(name for name, _, _ in KERNELS)],
        cwd=tree, env={"PYTHONPATH": str(tree / "src")}, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def build(source: str, path: Path) -> float:
    """Seconds to build *source* into the shared object *path*."""
    c_file = path.with_suffix(".c")
    c_file.write_text(source)
    started = time.perf_counter()
    subprocess.run(["cc", *_CFLAGS, "-o", str(path), str(c_file)], check=True)
    return time.perf_counter() - started


def instruction_mix(source: str, workdir: Path) -> dict[str, int]:
    """Static counts in ``cc -S`` output; the function is one batch loop, so counts are per element."""
    c_file = workdir / "mix.c"
    c_file.write_text(source)
    flags = [flag for flag in _CFLAGS if flag != "-shared"]
    asm = subprocess.run(["cc", *flags, "-S", "-o", "-", str(c_file)],
                         check=True, capture_output=True, text=True).stdout
    lines = [line.split(None, 1) for line in asm.splitlines() if line.startswith("\t")]
    ops = [(parts[0], parts[1] if len(parts) > 1 else "") for parts in lines]
    count = {name: sum(op == name for op, _ in ops) for name in ("vmulpd", "vaddpd", "vpermpd")}
    count["stack_moves"] = sum(op.startswith("vmov") and bool(STACK.search(args)) for op, args in ops)
    return count


def operands(name: str, E: int, style: str, rng):
    """Arrays for each of A, B, C (kept alive by the caller) and the ctypes arguments but alpha, beta."""
    spec = parse_kernel_name(name)
    keep, args = [], []
    for which in "ABC":
        kind = spec.access(which)
        ld, span = PROXY_LDS[name][which] if style == "proxy" else (operand_dims(spec, which).min_ld, None)
        size = matrix_span(spec, which, ld)
        if kind is AccessKind.Constant:
            data = rng.uniform(-1.0, 1.0, size)
            keep.append(data)
            pointer = data.ctypes.data
        elif kind is AccessKind.Strided:
            span = span or size
            data = rng.uniform(-1.0, 1.0, (E - 1) * span + size)
            keep.append(data)
            pointer = data.ctypes.data
        else:
            entries = [rng.uniform(-1.0, 1.0, size) for _ in range(E)]
            table = np.array([entry.ctypes.data for entry in entries], dtype=np.intp)
            keep.append((entries, table))
            pointer = table.ctypes.data
        args.append((pointer, ld, span or 0))
    (a, lda, sa), (b, ldb, sb), (c, ldc, sc) = args
    return keep, (E, a, lda, b, ldb, c, ldc, sa, sb, sc)


def c_bytes(keep) -> bytes:
    c = keep[2]
    return b"".join(m.tobytes() for m in c[0]) if isinstance(c, tuple) else c.tobytes()


def load(path: Path):
    fn = getattr(ctypes.CDLL(str(path)), path.stem)
    fn.argtypes, fn.restype = _C_ARGTYPES, None
    return fn


def time_kernels(old: dict, new: dict, workdir: Path, rounds: int, calls: int) -> dict:
    """Per-call microseconds of old and new builds on the same operands, interleaved by round."""
    out = {}
    for name, E, style in KERNELS:
        fns = {}
        for side, sources in (("old", old), ("new", new)):
            directory = workdir / side
            directory.mkdir(exist_ok=True)
            build(sources[name], directory / f"{name}.so")
            fns[side] = load(directory / f"{name}.so")
        results = {}
        for side in fns:
            keep, (E_, a, lda, b, ldb, c, ldc, sa, sb, sc) = operands(name, E, style, np.random.default_rng(1))
            fns[side](E_, 1.0, a, lda, b, ldb, 0.5, c, ldc, sa, sb, sc)
            results[side] = c_bytes(keep)
        keep, (E_, a, lda, b, ldb, c, ldc, sa, sb, sc) = operands(name, E, style, np.random.default_rng(2))
        samples = {"old": [], "new": []}
        for index in range(rounds):
            for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
                fn = fns[side]
                started = time.perf_counter()
                for _ in range(calls):
                    fn(E_, 1.0, a, lda, b, ldb, 1.0, c, ldc, sa, sb, sc)
                samples[side].append((time.perf_counter() - started) / calls * 1e6)
        spec = parse_kernel_name(name)
        flops = 2 * spec.shape.n * spec.shape.m * spec.shape.k * E
        row = {"E": E, "operands": style, "bitwise_equal": results["old"] == results["new"]}
        for side in ("old", "new"):
            row[f"{side}_us_min"] = round(min(samples[side]), 2)
            row[f"{side}_us_median"] = round(statistics.median(samples[side]), 2)
            row[f"{side}_gflops_at_min"] = round(flops / min(samples[side]) / 1e3, 2)
        row["new_over_old_median"] = round(row["new_us_median"] / row["old_us_median"], 3)
        row["new_faster_rounds"] = sum(n < o for o, n in zip(samples["old"], samples["new"]))
        row["rounds"] = rounds
        out[name] = row
        print(name, row, flush=True)
    return out


def cold_builds(old: dict, new: dict, workdir: Path, repeats: int) -> dict:
    """Median seconds of *repeats* builds of each kernel, old and new alternating."""
    out = {}
    for name, _, _ in KERNELS:
        seconds = {"old": [], "new": []}
        for index in range(repeats):
            for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
                sources = old if side == "old" else new
                seconds[side].append(build(sources[name], workdir / f"cold-{side}-{name}.so"))
        out[name] = {side: round(statistics.median(values), 3) for side, values in seconds.items()}
    return out


def perfbench_pairs(old_tree: Path, new_tree: Path, pairs: int, run_args: list[str]) -> list[dict]:
    """Metrics of ``perfbench/run.py *run_args*``, *pairs* times per tree, first tree alternating."""
    out = []
    for index in range(pairs):
        pair = {"first": "old" if index % 2 == 0 else "new"}
        for side in ("old", "new") if index % 2 == 0 else ("new", "old"):
            tree = old_tree if side == "old" else new_tree
            done = subprocess.run([sys.executable, "perfbench/run.py", *run_args], cwd=tree,
                                  capture_output=True, text=True)
            summary = json.loads(done.stdout.strip().splitlines()[-1])
            pair[side] = {"exit": done.returncode, "failed": summary["failed"],
                          "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}
        out.append(pair)
        print(json.dumps(pair), flush=True)
    return out


def summarise(pairs: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and in how many pairs the new tree read lower."""
    out = {}
    for metric in pairs[0]["old"]["metrics"]:
        old = [p["old"]["metrics"][metric] for p in pairs]
        new = [p["new"]["metrics"][metric] for p in pairs]
        q_old, q_new = statistics.quantiles(old, n=4), statistics.quantiles(new, n=4)
        out[metric] = {
            "old": {"median": round(statistics.median(old), 4), "q1": round(q_old[0], 4), "q3": round(q_old[2], 4)},
            "new": {"median": round(statistics.median(new), 4), "q1": round(q_new[0], 4), "q3": round(q_new[2], 4)},
            "new_over_old_median": round(statistics.median(new) / statistics.median(old), 4),
            "new_lower_in_pairs": f"{sum(n < o for o, n in zip(old, new))} of {len(pairs)}",
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the old tree")
    parser.add_argument("--out", required=True,
                        help="JSON file that holds each run under its --label; other labels are kept")
    parser.add_argument("--label", default="main")
    parser.add_argument("--run-args", default="", help="arguments for perfbench/run.py, e.g. '--seed 7'")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--cold-repeats", type=int, default=5)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        old_tree = workdir / "old"
        old_tree.mkdir()
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        tarfile.open(fileobj=BytesIO(archive)).extractall(old_tree)
        old, new = c_sources(old_tree), c_sources(ROOT)
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True).stdout.splitlines()[0]
        result = {
            "command": (
                f"python3 tools/bench_explicit_vectors.py --parent {args.parent} --rounds {args.rounds}"
                f" --calls {args.calls} --cold-repeats {args.cold_repeats} --pairs {args.pairs}"
                f" --label {args.label} --run-args '{args.run_args}'"
            ),
            "parent": args.parent,
            "host": {"machine": platform.machine(), "python": platform.python_version(),
                     "numpy": np.__version__, "cc": cc, "cflags": " ".join(_CFLAGS)},
            "kernel_calls_us": time_kernels(old, new, workdir, args.rounds, args.calls),
            "cold_build_s": cold_builds(old, new, workdir, args.cold_repeats),
            "instructions_per_element": {
                name: {"old": instruction_mix(old[name], workdir), "new": instruction_mix(new[name], workdir)}
                for name, _, _ in KERNELS
            },
        }
        if args.pairs:
            pairs = perfbench_pairs(old_tree, ROOT, args.pairs, args.run_args.split())
            result["perfbench_summary"] = summarise(pairs)
            result["perfbench_pairs"] = pairs
    out = Path(args.out)
    runs = json.loads(out.read_text()) if out.exists() else {}
    runs[args.label] = result
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
