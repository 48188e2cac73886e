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
