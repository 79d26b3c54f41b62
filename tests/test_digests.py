"""``tools/digests.py --parent REV`` run against this checkout's own HEAD."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "digests.py"


def _git(*args: str) -> str:
    try:
        run = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except FileNotFoundError:
        return ""
    return run.stdout.strip() if run.returncode == 0 else ""


def test_parent_head_matches_every_line():
    if _git("rev-parse", "--show-toplevel") != str(ROOT):
        pytest.skip("not a git checkout")
    if _git("status", "--porcelain", "--", "src"):
        pytest.skip("src has uncommitted changes, so HEAD's src is not this tree's")
    run = subprocess.run([sys.executable, str(DIGESTS), "--parent", "HEAD", "--files", "5"],
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[-1] == "0 of 28 lines differ from HEAD"
    assert lines[-2].startswith("classify (30 generated pair files, all outcomes)")
    assert len(lines) == 29 and not any(line.endswith("DIFFERS") for line in lines)
