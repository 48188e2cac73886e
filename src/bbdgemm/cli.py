"""Command-line entry points: ``genkernels``, ``proxy``, and ``bench``."""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from pathlib import Path

from . import bench as bench_mod
from . import codegen, proxy as proxy_mod, vectorize
from .core import kernel_name
from .runtime import default_registry, load_kernel_dir


def genkernels_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="genkernels",
        description="Generate fully-unrolled batched DGEMM kernels from a manifest.",
    )
    parser.add_argument("--manifest", required=True, help="manifest file, one spec per line")
    parser.add_argument("--out-dir", required=True, help="directory for the generated package")
    parser.add_argument(
        "--emit-report",
        metavar="CSV-PATH",
        help="also write a per-kernel register-pressure report",
    )
    args = parser.parse_args(argv)

    try:
        text = Path(args.manifest).read_text(encoding="utf-8")
        manifest = codegen.parse_manifest(text, source=args.manifest)
        written = codegen.write_kernel_package(manifest, args.out_dir)
    except (OSError, ValueError) as error:
        print(f"genkernels: {error}", file=sys.stderr)
        return 1
    print(f"generated {len(manifest.entries)} kernels into {args.out_dir}")
    if args.emit_report:
        rows = codegen.pressure_report_rows(manifest, codegen.MachineModel())
        try:
            with open(args.emit_report, "w", encoding="utf-8", newline="") as handle:
                writer = csv.DictWriter(
                    handle, fieldnames=codegen.PRESSURE_REPORT_COLUMNS, lineterminator="\n"
                )
                writer.writeheader()
                writer.writerows(rows)
        except OSError as error:
            print(f"genkernels: {error}", file=sys.stderr)
            return 1
        print(f"pressure report written to {args.emit_report}")
    return 0


def proxy_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxy",
        description="Mini local-integration proxy: per-cell reference loop vs batched kernels.",
    )
    parser.add_argument("--cells", type=int, default=10000)
    parser.add_argument("--timesteps", type=int, default=6)
    parser.add_argument("--mode", choices=["scalar", "vector"], default="vector")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--dump", metavar="PATH", help="write the output tensors to PATH")
    parser.add_argument(
        "--chain", metavar="PATH", help="chain file overriding the built-in two-step chain"
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        help="compare this run's dump against an existing dump (requires --dump)",
    )
    parser.add_argument(
        "--tol", type=float, default=1e-6, help="tolerance for --compare (default %(default)s)"
    )
    args = parser.parse_args(argv)
    if not math.isfinite(args.tol) or args.tol < 0:
        parser.error(f"argument --tol: must be a finite number >= 0, got {args.tol:g}")
    if args.compare and not args.dump:
        print("proxy: --compare requires --dump", file=sys.stderr)
        return 1

    try:
        kwargs = {}
        if args.chain:
            kwargs["chain"] = proxy_mod.parse_chain(Path(args.chain).read_text(encoding="utf-8"))
        config = proxy_mod.ProxyConfig(
            cells=args.cells,
            timesteps=args.timesteps,
            mode=args.mode,
            seed=args.seed,
            **kwargs,
        )
    except (OSError, ValueError) as error:
        print(f"proxy: {error}", file=sys.stderr)
        return 1
    registry = default_registry()
    fallback_before = registry.fallback_count
    state = proxy_mod.run_proxy(config, registry=registry)
    fallbacks = registry.fallback_count - fallback_before
    print(
        f"ran {config.timesteps} timesteps over {config.cells} cells in {config.mode} mode "
        f"(chain of {len(config.chain)}, {config.components} components, seed {config.seed})"
    )
    for name in registry.names():
        kernel = registry.lookup(name)
        counts = getattr(kernel, "path_counts", {})
        if counts:
            print(f"{name}: " + ", ".join(
                f"{n} calls {path} ({kernel.path_elements[path]} elements)"
                for path, n in sorted(counts.items())
            ))
    for event in vectorize.compile_log:
        cache = "hit" if event.cache_hit else "miss"
        print(f"compile {event.kernel}: {event.seconds:.3f} s (cache {cache})")
    if config.mode == "vector" and fallbacks:
        missing = sorted({step.spec.name for step in config.chain} - set(registry.names()))
        print(
            f"warning: {fallbacks} batched calls used the reference fallback, since these "
            f"kernels were not built: {', '.join(missing)}"
        )
    if not args.dump:
        return 0
    try:
        proxy_mod.dump_state(state, args.dump)
        print(f"dump written to {args.dump}")
        if not args.compare:
            return 0
        result = proxy_mod.compare_dumps(args.dump, args.compare, args.tol)
    except (OSError, ValueError) as error:
        print(f"proxy: {error}", file=sys.stderr)
        return 1
    verdict = "PASS" if result.passed else "FAIL"
    print(
        f"compare vs {args.compare}: max|diff| = {result.max_abs_diff:.3e} "
        f"(tol {args.tol:g}) {verdict}"
    )
    return 0 if result.passed else 2


def _pin_to_one_cpu() -> None:
    # keeps timing samples on one core; silently skipped where unsupported
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
    except (AttributeError, OSError):
        pass


def bench_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench",
        description="Correctness-gated benchmark of batched kernels vs per-call GEMM loops.",
    )
    parser.add_argument("--manifest", required=True, help="manifest of specs to benchmark")
    parser.add_argument("--batch", type=int, default=10000, help="batch size E (default %(default)s)")
    parser.add_argument("--reps", type=int, default=5, help="samples per timing (default %(default)s)")
    parser.add_argument("--csv", metavar="PATH", help="write records to PATH")
    parser.add_argument(
        "--allow-fallback",
        action="store_true",
        help="benchmark specs missing from the dispatch table via the reference fallback",
    )
    parser.add_argument(
        "--kernel-dir",
        metavar="PATH",
        help="use kernels generated into PATH instead of the default kernels",
    )
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    for option, value in (("--batch", args.batch), ("--reps", args.reps)):
        if value < 1:
            parser.error(f"argument {option}: must be at least 1, got {value}")

    try:
        text = Path(args.manifest).read_text(encoding="utf-8")
        manifest = codegen.parse_manifest(text, source=args.manifest)
        registry = load_kernel_dir(args.kernel_dir) if args.kernel_dir else default_registry()
    except (OSError, ValueError) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 1
    csv_tmp = None
    if args.csv:
        # The records go to a file beside --csv, made before any spec is
        # timed, so an unwritable path fails first, and renamed over --csv
        # once all are in, so a failed run leaves --csv as it was.
        csv_path = Path(args.csv)
        try:
            fd, csv_tmp = tempfile.mkstemp(dir=csv_path.parent, prefix=csv_path.name, suffix=".tmp")
        except OSError as error:
            print(f"bench: {OSError(error.errno, error.strerror, args.csv)}", file=sys.stderr)
            return 1
        os.close(fd)
    _pin_to_one_cpu()
    try:
        records = []
        details = []
        for spec in manifest.entries:
            try:
                record, detail = bench_mod.run_benchmark(
                    spec,
                    args.batch,
                    args.reps,
                    registry=registry,
                    seed=args.seed,
                    allow_fallback=args.allow_fallback,
                )
            except (bench_mod.FallbackDisallowed, ValueError) as error:
                print(f"bench: {kernel_name(spec)}: {error}", file=sys.stderr)
                return 1
            records.append(record)
            details.append(detail)
        print(bench_mod.format_report(records, details))
        if csv_tmp:
            try:
                bench_mod.emit_csv(records, csv_tmp)
                codegen.move_into_place(csv_tmp, csv_path)
            except OSError as error:
                print(f"bench: {error}", file=sys.stderr)
                return 1
            print(f"csv written to {args.csv}")
        return 0
    finally:
        if csv_tmp and os.path.exists(csv_tmp):
            os.unlink(csv_tmp)
