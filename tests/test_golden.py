"""Golden ``--out`` reports of every subcommand on the bundled tables.

Each case runs ``gyrokit.cli.main`` from the repository root, so the model
and chain paths in the ``_config`` record are stable, and compares the
``--out`` bytes with ``tests/golden/<case>.jsonl`` and the exit code and
stderr with ``tests/golden/exit.json``.  The files are the behaviour
oracle of refactors; rewrite them with ``python tests/test_golden.py``
only when a change to the reports is intended.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from gyrokit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def table(name):
    return ["--model", f"table:src/gyrokit/tables/{name}.json"]


def chain(name):
    return ["--chain", f"tests/golden/chains/{name}.json"]


SWAPPED = ["--model", "table:tests/golden/tables/g8-swapped.json"]

CASES = {
    "check-z4": ["check", *table("z4")],
    "check-klein4": ["check", *table("klein4"), "--seed", "3"],
    "check-g8": ["check", *table("g8")],
    "check-g8-swapped": ["check", *SWAPPED],
    "identities-z4": ["identities", *table("z4")],
    "identities-klein4": ["identities", *table("klein4")],
    "identities-g8": ["identities", *table("g8"), "--samples", "50"],
    "identities-g8-swapped": ["identities", *SWAPPED],
    "cosets-z4": ["cosets", *table("z4"), "--subset", "0,2"],
    "cosets-z4-nonsub": ["cosets", *table("z4"), "--subset", "0,1"],
    "cosets-klein4": ["cosets", *table("klein4"), "--subset", "0,1"],
    "cosets-g8": ["cosets", *table("g8"), "--subset", "0,1"],
    "cosets-g8-order4": ["cosets", *table("g8"), "--subset", "0,1,4,5"],
    "cosets-g8-nonsub": ["cosets", *table("g8"), "--subset", "0,2"],
    "cosets-g8-non-l": ["cosets", *table("g8"), "--subset", "0,3"],
    "metric-z4-pairs": ["metric", *table("z4"), *chain("z4-weak"),
                        "--pairs", "0:1,0:2", "--depth", "4"],
    "metric-z4-quotient": ["metric", *table("z4"), *chain("z4-adm"),
                           "--subset", "0,2", "--quotient", "--depth", "4"],
    "metric-z4-invalid": ["metric", *table("z4"), *chain("z4-bad")],
    "metric-z4-depth0": ["metric", *table("z4"), *chain("z4-weak"),
                         "--depth", "0"],
    "metric-klein4-quotient": ["metric", *table("klein4"), *chain("klein4-adm"),
                               "--pairs", "1:2,2:3", "--subset", "0,1",
                               "--quotient", "--depth", "3"],
    "metric-g8-pairs": ["metric", *table("g8"), *chain("g8-adm"),
                        "--pairs", "0:1,2:3,4:7", "--depth", "5"],
    "metric-g8-quotient": ["metric", *table("g8"), *chain("g8-tail01"),
                           "--subset", "0,1", "--quotient", "--depth", "6"],
    "metric-g8-hull-quotient": ["metric", *table("g8"), *chain("g8-hull"),
                                "--pairs", "3:6", "--subset", "0",
                                "--quotient", "--depth", "6"],
    "metric-g8-asymmetric": ["metric", *table("g8"), *chain("g8-asym")],
    "metric-g8-containment": ["metric", *table("g8"), *chain("g8-containment")],
    "hull-z4": ["hull", *table("z4"), "--subset", "0,1,2,3", "--depth", "4"],
    "hull-klein4": ["hull", *table("klein4"), "--subset", "0,1,2,3"],
    "hull-g8": ["hull", *table("g8"), "--subset", "0,1,2,3,4,5,6,7",
                "--depth", "6"],
    "hull-g8-order4": ["hull", *table("g8"), "--subset", "0,1,4,5",
                       "--depth", "3"],
    "intersect-z4": ["intersect", *table("z4"), *chain("z4-adm"),
                     *chain("z4-adm")],
    "intersect-klein4": ["intersect", *table("klein4"), *chain("klein4-adm")],
    "intersect-g8": ["intersect", *table("g8"), *chain("g8-adm"),
                     *chain("g8-tail01"), *chain("g8-hull")],
    "microassoc-z4": ["microassoc", *table("z4"), "--vset", "0,1,2,3",
                      "--wset", "0,2"],
    "microassoc-klein4": ["microassoc", *table("klein4"), "--vset", "0,1"],
    "microassoc-g8": ["microassoc", *table("g8"), "--vset", "0,1,4,5",
                      "--wset", "0,1"],
    "microassoc-g8-counterexample": ["microassoc", *table("g8"),
                                     "--vset", "0,1,3"],
}


def run(argv, out: Path):
    """(exit code, --out bytes or None, stderr) of one run from the root."""
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(out)])
    finally:
        os.chdir(cwd)
    return code, out.read_bytes() if out.exists() else None, err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_report(case, tmp_path):
    code, out, err = run(CASES[case], tmp_path / "r.jsonl")
    want = json.loads((GOLDEN / "exit.json").read_text())[case]
    assert (code, err) == (want["exit"], want["stderr"])
    path = GOLDEN / f"{case}.jsonl"
    assert out == (path.read_bytes() if path.exists() else None)


if __name__ == "__main__":
    import tempfile

    exits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in sorted(CASES.items()):
            out_path = Path(tmp) / f"{case}.jsonl"
            code, out, err = run(argv, out_path)
            exits[case] = {"exit": code, "stderr": err}
            (GOLDEN / f"{case}.jsonl").unlink(missing_ok=True)
            if out is not None:
                (GOLDEN / f"{case}.jsonl").write_bytes(out)
    (GOLDEN / "exit.json").write_text(json.dumps(exits, indent=1,
                                                 sort_keys=True) + "\n")
