#!/usr/bin/env python3
"""Byte-identity of gyrokit CLI runs between two checkouts.

    python3 tools/report_diff.py OLD_ROOT NEW_ROOT

Runs one fixed list of CLI calls against each tree: all calls of a tree
in one fresh Python process that imports gyrokit from ``ROOT/src`` and
runs from ``ROOT``, so that relative model and chain paths read the same
in both.  The two processes run side by side.  Prints each call whose
exit code, stdout, stderr or ``--out`` bytes differ, then the number of
differences; exits 1 when there is any, and 2 when a tree has no
``src/gyrokit`` or its process fails.

The calls are:

- every case of ``tests/golden`` (``tests/test_golden.py`` of this
  checkout);
- ``metric`` on every chain under ``tests/golden/chains`` at depths 0-16
  and 20: bare, with ``--pairs``, and with ``--quotient`` over subsets of
  its table;
- ``hull`` of the whole carrier of each bundled table, and of two balls in
  each ball model, at depths 0, 1, 4, 10 and 62;
- ``metric`` on Einstein d=3, Einstein d=2 at c = 1.5 and Moebius, on the
  third-radius hull chains of those balls, at depths 0-15 and seeds 0
  and 7;
- ``check``, ``identities``, ``cosets`` and ``hull`` on corrupted g8 x Z_k
  tables of order up to 64: ``check`` and ``identities`` sweep them
  unvalidated, ``cosets`` and ``hull`` refuse them at load with exit 2
  and a message that names the defect;
- ``check``, ``identities``, ``cosets``, ``hull`` and ``microassoc`` on
  the same g8 x Z_k, valid, as it is and relabeled by a seeded permutation
  that keeps 0 at 0, with the (relabeled) subgroups S2 x {0} and S4 x Z_k
  as subsets: ``microassoc`` with W = V = S4 x Z_k, with W = S2 x {0} in
  it, and with W = V = {0, 1, 3} x Z_k, which is not gyration-invariant
  and fails; and ``metric --quotient`` at depth 6 on the chain [G, H, H],
  H = S4 x Z_k, with H as the subset;
- ``metric`` on z4 with chain documents that each hold one bad member
  (1.5, true, -1 or 4), which the CLI refuses with exit 2 and a message
  that names the member.

Each table and chain is written once to a temporary directory that both
trees read, as its path is in the ``_config`` record.

Calls with ``--depth`` above 62 are refused by the CLI and left out, and
so are ``metric`` calls above depth 20: a tree that builds all 2^depth
rows of a finite family could not run them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
FINITE_DEPTHS = [*range(17), 20]
HULL_DEPTHS = [0, 1, 4, 10, 62]
RADIAL_DEPTHS = range(16)
SEEDS = [0, 7]
SUBSETS = {"z4": ["0", "0,2"], "klein4": ["0", "0,1"],
           "g8": ["0", "0,1", "0,1,4,5"]}
PAIRS = {"z4": "0:1,1:3", "klein4": "1:2,2:3", "g8": "0:1,2:3,4:7,3:6"}
BALL_MODELS = {  # name: (model flags, c)
    "einstein-d3": (["--model", "einstein"], 1.0),
    "einstein-d2": (["--model", "einstein", "--dim", "2", "--c", "1.5"], 1.5),
    "mobius": (["--model", "mobius"], 1.0),
}
BALLS = [0.8, 0.5]  # ball radii as fractions of c
CORRUPT_FACTORS = [1, 2, 3, 6, 8]  # g8 x Z_k of order 8 ... 64
CORRUPTIONS = ["row-swapped", "cell-overwritten", "row-permuted",
               "column-swapped"]
BAD_MEMBERS = ["1.5", "true", "-1", "4"]  # as JSON text

# run from a tree's root with its src/ on the path; reads the calls from
# the JSON list of argvs at argv[1], prints [exit, stdout, stderr, --out
# text] per call as one JSON list
CHILD = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
from gyrokit.cli import main

results = []
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "r.jsonl"
    for argv in json.loads(Path(sys.argv[1]).read_text()):
        so, se = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                code = main(argv + ["--out", str(out)])
            except (Exception, SystemExit) as e:  # a traceback differs too
                code = f"raised {type(e).__name__}: {e}"
        results.append([code, so.getvalue(), se.getvalue(),
                        out.read_text() if out.exists() else None])
        out.unlink(missing_ok=True)
json.dump(results, sys.stdout)
"""
FIELDS = ("exit", "stdout", "stderr", "--out")


def depth_of(argv: list[str]) -> int:
    return int(argv[argv.index("--depth") + 1]) if "--depth" in argv else 10


def radial_chain(tmp: Path, name: str, c: float, ball: float) -> str:
    """A third-radius hull chain of 16 radii from ``ball`` c, written to
    ``tmp``: r_{n+1} = c tanh(artanh(r_n / c) / 3)."""
    radii = [ball * c]
    while len(radii) < 16:
        radii.append(c * math.tanh(math.atanh(radii[-1] / c) / 3.0))
    path = tmp / f"{name}-{ball}.json"
    path.write_text(json.dumps({"flavor": "admissible", "radii": radii}))
    return str(path)


def product_table(k: int):
    """g8 x Z_k; the pair (a, b) has index k a + b."""
    g8 = np.array(json.loads(
        (HERE / "src" / "gyrokit" / "tables" / "g8.json").read_text())["table"])
    i = np.arange(8 * k)
    return g8[i[:, None] // k, i // k] * k + (i[:, None] + i) % k


def corrupted_tables(tmp: Path) -> list[str]:
    """The paths of g8 x Z_k, for k in ``CORRUPT_FACTORS``, broken in row
    or column n - 3 as by ``corrupted`` in ``tests/test_engine.py`` and
    written to ``tmp``."""
    paths = []
    for k in CORRUPT_FACTORS:
        n, r = 8 * k, 8 * k - 3
        base = product_table(k)
        for kind in CORRUPTIONS:
            T = base.copy()
            if kind == "row-swapped":
                T[r, [0, n - 1]] = T[r, [n - 1, 0]]
            elif kind == "cell-overwritten":
                T[r, 0] = T[r, 5]
            elif kind == "row-permuted":
                T[r] = np.roll(T[r], 1)
            else:
                T[:, [r, n - 1]] = T[:, [n - 1, r]]
            path = tmp / f"g8xz{k}-{kind}.json"
            path.write_text(json.dumps({"order": n, "table": T.tolist()}))
            paths.append(str(path))
    return paths


def product_tables(tmp: Path) -> list[tuple[str, ...]]:
    """For k in ``CORRUPT_FACTORS``: the paths of g8 x Z_k as it is and
    relabeled by the permutation p of its indices, 0 kept and the rest
    drawn with seed k, written to ``tmp``, each with its subgroups
    S2 x {0} and S4 x Z_k and the lift {0, 1, 3} x Z_k of the g8 set
    that is not gyration-invariant, relabeled alike, as subsets, and the
    path of the admissible chain [G, S4 x Z_k, S4 x Z_k] on it."""
    out = []
    for k in CORRUPT_FACTORS:
        n = 8 * k
        rest = 1 + np.random.default_rng(k).permutation(n - 1)
        for name, p in ((f"g8xz{k}", np.arange(n)),
                        (f"g8xz{k}-relabeled", np.concatenate([[0], rest]))):
            q = np.argsort(p)
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(
                {"order": n, "table": p[product_table(k)[q][:, q]].tolist()}))
            subsets = [p[[k * a + b for a in S for b in Z]]
                       for S, Z in (([0, 1], [0]), ([0, 1, 4, 5], range(k)),
                                    ([0, 1, 3], range(k)))]
            h = sorted(subsets[1].tolist())
            chain = tmp / f"{name}-ghh.json"
            chain.write_text(json.dumps(
                {"flavor": "admissible", "sets": [list(range(n)), h, h]}))
            out.append((str(path), str(chain),
                        *(",".join(map(str, sorted(s.tolist())))
                          for s in subsets)))
    return out


def bad_chains(tmp: Path) -> list[str]:
    """The paths of weak chains on z4, each with one member of
    ``BAD_MEMBERS`` in its second set, written to ``tmp``."""
    paths = []
    for i, member in enumerate(BAD_MEMBERS):
        path = tmp / f"z4-bad-member-{i}.json"
        path.write_text('{"flavor": "weak", "sets": [[0, 1, 2, 3], [0, %s]]}'
                        % member)
        paths.append(str(path))
    return paths


def call_list(tmp: Path) -> list[list[str]]:
    sys.path[:0] = [str(HERE / "src"), str(HERE / "tests")]
    from test_golden import CASES

    calls = list(CASES.values())
    for path in sorted((HERE / "tests" / "golden" / "chains").glob("*.json")):
        table = path.stem.split("-")[0]
        base = ["metric", "--model", f"table:src/gyrokit/tables/{table}.json",
                "--chain", f"tests/golden/chains/{path.name}"]
        for depth in FINITE_DEPTHS:
            at = base + ["--depth", str(depth)]
            calls += [at, at + ["--pairs", PAIRS[table]]]
            calls += [at + ["--subset", s, "--quotient"] for s in SUBSETS[table]]
    for table in SUBSETS:
        model = ["--model", f"table:src/gyrokit/tables/{table}.json"]
        n = 8 if table == "g8" else 4
        calls += [["hull", *model, "--subset", ",".join(map(str, range(n))),
                   "--depth", str(d)] for d in HULL_DEPTHS]
    for name, (model, c) in BALL_MODELS.items():
        for ball in BALLS:
            calls += [["hull", *model, "--subset", f"ball:{ball * c}",
                       "--depth", str(d)] for d in HULL_DEPTHS]
            chain = radial_chain(tmp, name, c, ball)
            calls += [["metric", *model, "--chain", chain, "--depth", str(d),
                       "--seed", str(seed)]
                      for d in RADIAL_DEPTHS for seed in SEEDS]
    for path in corrupted_tables(tmp):
        model = ["--model", f"table:{path}"]
        calls += [["check", *model], ["identities", *model],
                  ["cosets", *model, "--subset", "0,1"],
                  ["hull", *model, "--subset", "0,1"]]
    for path, ghh, s2, s4, v013 in product_tables(tmp):
        model = ["--model", f"table:{path}"]
        calls += [["check", *model], ["identities", *model],
                  ["cosets", *model, "--subset", s2],
                  ["hull", *model, "--subset", s4],
                  ["microassoc", *model, "--vset", s4],
                  ["microassoc", *model, "--vset", s4, "--wset", s2],
                  ["microassoc", *model, "--vset", v013],
                  ["metric", *model, "--chain", ghh, "--subset", s4,
                   "--quotient", "--depth", "6"]]
    calls += [["metric", "--model", "table:src/gyrokit/tables/z4.json",
               "--chain", chain] for chain in bad_chains(tmp)]
    return [argv for argv in calls if depth_of(argv) <= 62
            and (argv[0] != "metric" or depth_of(argv) <= 20)]


def start_tree(root: Path, calls: Path) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.Popen([sys.executable, "-c", CHILD, str(calls)],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            text=True)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(a).resolve() for a in args]
    for root in roots:
        if not (root / "src" / "gyrokit").is_dir():
            print(f"error: no src/gyrokit under {root}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        calls = call_list(Path(tmp))
        path = Path(tmp) / "calls.json"
        path.write_text(json.dumps(calls))
        procs = [start_tree(root, path) for root in roots]
        outs = [proc.communicate()[0] for proc in procs]
    for root, proc in zip(roots, procs):
        if proc.returncode:
            print(f"error: the calls failed to run in {root}", file=sys.stderr)
            return 2
    results = [json.loads(out) for out in outs]
    diffs = 0
    for argv, a, b in zip(calls, *results):
        fields = [f for f, x, y in zip(FIELDS, a, b) if x != y]
        if fields:
            diffs += 1
            print(f"differs in {', '.join(fields)}: gyrokit {' '.join(argv)}")
    print(f"{diffs} of {len(calls)} calls differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
