"""tools/run_digest.py's command line."""

import importlib.util
import subprocess
import sys
from collections import Counter
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


@pytest.fixture(scope="module")
def tool():
    """The tool imported as a module; the search path it extends is restored."""
    path = list(sys.path)
    spec = importlib.util.spec_from_file_location("run_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def test_exits_line_takes_every_exit_at_every_tol(tool):
    halts, _, runs = tool.exits_digest()
    assert halts == Counter({name: len(tool.TOLS) for name in tool.HALTS})
    assert runs == len(tool.EXIT_PROBLEMS) * len(tool.TOLS)


def test_subspaces_line_is_taken_outside_the_lapack_count(tool):
    # final_submanifold factors by QR and run does not, so a subspace taken
    # inside the count would show in its qr entry.
    _, _, _, runs, halts, lapack = tool.run_digests(1)
    assert sum(halts.values()) == runs > 0
    assert lapack["qr"] == 0 and lapack["svd-full"] > 0
