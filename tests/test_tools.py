"""The measurement scripts under tools/ at their smallest sizes: each must
still run against the package's internals and report a passing sweep."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run(script, *args):
    """The stdout lines of ``tools/script`` run with ``args``."""
    out = subprocess.run([sys.executable, str(TOOLS / script), *args],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("script,args,rows", [
    ("sweep_scaling.py", ["100"], ["einstein-d3", "mobius"]),
    ("load_scaling.py", ["1"], ["g8xz1"]),
])
def test_scaling_tool_reports_passing_sweeps(script, args, rows):
    header, *lines = run(script, *args)
    assert header.split()[-1] == "passed"
    assert [line.split()[0] for line in lines] == rows
    assert all(line.split()[-1] == "True" for line in lines)


def test_boundary_residuals_pass_away_from_the_boundary():
    # at 1 - |x|/c = 1e-2 every check stays within the default tolerance
    lines = run("boundary_residuals.py")
    worst = [line for line in lines if line.startswith("worst")]
    assert len(worst) == 1
    assert not worst[0].split()[1].endswith("*")


def test_report_diff_finds_no_difference_against_itself():
    # both roots are this checkout: every call of the fixed list runs
    # twice and must give the same exit code, stdout, stderr and --out
    root = str(TOOLS.parent)
    *diffs, total = run("report_diff.py", root, root)
    assert diffs == []
    count, of, calls, *_ = total.split()
    assert (count, of) == ("0", "of") and int(calls) >= 685 + 192
