"""tools/run_digest.py's command line."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "run_digest.py"


@pytest.mark.parametrize("args", [["0"], ["-3"], ["abc"], ["2.5"], ["4", "5"]])
def test_run_digest_rejects_a_size_that_is_not_one_positive_integer(args):
    proc = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "usage: run_digest.py [SIZE], SIZE a positive integer (default 400)\n"
