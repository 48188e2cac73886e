import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("tool", sorted(p.name for p in (ROOT / "tools").glob("*.py")))
def test_tool_help_runs(tool):
    # Each tool imports package internals or another tool's helpers; --help
    # imports them all, so a rename breaks this test rather than the tool's next use.
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), "--help"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def pairs_tool():
    spec = importlib.util.spec_from_file_location("perfbench_pairs", ROOT / "tools" / "perfbench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def synthetic_pairs(metric, old, new):
    return [
        {"first": "old" if i % 2 == 0 else "new",
         "old": {"exit": 0, "failed": 0, "metrics": {metric: o}},
         "new": {"exit": 0, "failed": 0, "metrics": {metric: n}}}
        for i, (o, n) in enumerate(zip(old, new))
    ]


TIGHT = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
WIDE = [0.5, 1.5, 1.0, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 1.0]


@pytest.mark.parametrize(
    "old, new, expected",
    [
        (TIGHT, [v * 1.3 for v in TIGHT], "worse"),
        (WIDE, [v * 1.3 for v in WIDE], "worse"),
        (TIGHT, [v * 1.2 for v in TIGHT], "within bound"),
        (TIGHT, [v * 0.5 for v in TIGHT], "within bound"),
        (WIDE, WIDE[::-1], "unresolved"),
        (WIDE, [v * 0.9 for v in WIDE], "unresolved"),
        (WIDE, [0.4] * 10, "within bound"),
    ],
    ids=["worse", "worse-wide", "within", "better", "unresolved", "unresolved-better-median",
         "wide-but-every-new-better"],
)
def test_summarise_gives_end_to_end_metrics_a_verdict(old, new, expected):
    # setup_s is lower-is-better with a bound of 0.25 in BENCHMARK.json;
    # the per-layer metric beside it gets no verdict.
    listed = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert (listed["setup_s"]["better"], listed["setup_s"]["bound"]) == ("lower", 0.25)
    pairs = synthetic_pairs("proxy_vector.setup_s", old, new)
    for pair in pairs:
        pair["new"]["metrics"]["proxy_vector.runtime.validate_ms"] = 1.0
        pair["old"]["metrics"]["proxy_vector.runtime.validate_ms"] = 1.0
    summary = pairs_tool().summarise(pairs)
    assert summary["proxy_vector.setup_s"]["verdict"] == expected
    assert "verdict" not in summary["proxy_vector.runtime.validate_ms"]


@pytest.mark.parametrize(
    "new, expected", [(0.7, "worse"), (0.8, "within bound"), (1.5, "within bound")]
)
def test_verdict_follows_higher_is_better(new, expected):
    assert pairs_tool().verdict(TIGHT, [new] * 10, "higher", 0.25) == expected
