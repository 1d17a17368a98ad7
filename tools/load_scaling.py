#!/usr/bin/env python3
"""Stage times and peak memory of finite tables as the order grows.

    python3 tools/load_scaling.py [K ...]

For each k (``FACTORS`` unless factors are given) builds the direct
product g8 x Z_k (order n = 8k) and loads it with ``FiniteTable``, which
stores each distinct gyration once (``P``, with the ids ``gid``) and
validates the axioms.  The load's n^3 cost is building ``gid``, by the
gyration formula over every triple; the validation of a gyrogroup takes
tests of O(k n^2) cost, and the n^3 axiom sweep runs only on a table that
is rejected, which these are not.  In the same process it then times the
gyration-orbit partition ``gyr_orbits``, ``admissible_hull`` of
the whole carrier to depth ``DEPTH``, and ``build_dyadic_family`` to that
depth (which validates the chain) and ``prenorm_laws_check`` on the fixed
admissible chain

    [G, S4 x Z_k, S2 x Z_k, S2 x {0}, {0}]

with the g8 subgroups S4 and S2 of ``tests/golden/chains/g8-adm.json``.
Last it times ``is_L_subgyrogroup`` and ``left_cosets`` of H = S4 x Z_k
(``cosets``), ``micro_assoc_check`` with W = V = H (``micro``), and
``check_identities`` on the table (``identities``).
Each order runs in a fresh Python process, so that its peak resident
memory (``getrusage``'s ``ru_maxrss``) is its own; the process's imports
and the product table count towards it.  Prints the number k of
distinct gyrations (2 for every g8 x Z_k), the seconds of each stage,
the peak MiB per order, and whether the prenorm laws, the partition
into two cosets, micro-associativity and the identities all passed.

This is a reported measurement, not a test: nothing here gates anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FACTORS = [16, 32, 64]  # n = 128, 256, 512
DEPTH = 10
S4, S2 = [0, 1, 4, 5], [0, 1]  # the g8 sets of tests/golden/chains/g8-adm.json

# run in a fresh process with argv[1] = k; prints {"n", "k", "load_s",
# "orbits_s", "hull_s", "family_s", "laws_s", "cosets_s", "micro_s",
# "identities_s", "peak_mib", "passed"}
CHILD = f"""
import json, resource, sys, time
import numpy as np
from gyrokit import (FiniteSet, FiniteTable, admissible_hull,
                     build_dyadic_family, chain_load, check_identities,
                     is_L_subgyrogroup, left_cosets, micro_assoc_check,
                     prenorm_laws_check)
from gyrokit.models import table_load
import importlib.resources

g8 = table_load((importlib.resources.files("gyrokit") / "tables"
                 / "g8.json").read_text())
k = int(sys.argv[1])
i = np.arange(8 * k)
a, b = i // k, i % k
T = g8.table[a[:, None], a[None, :]] * k + (b[:, None] + b[None, :]) % k
out = {{"n": 8 * k}}

def timed(stage, f):
    t0 = time.perf_counter()
    r = f()
    out[stage + "_s"] = time.perf_counter() - t0
    return r

def lift(S, Z):
    return [g * k + z for g in S for z in Z]

model = timed("load", lambda: FiniteTable(T, name=f"g8xz{{k}}"))
out["k"] = len(model.P)
timed("orbits", lambda: model.gyr_orbits)
full = FiniteSet.of(np.ones(8 * k, dtype=bool))
timed("hull", lambda: admissible_hull(model, full, depth={DEPTH}))
chain = chain_load(model, {{"flavor": "admissible", "sets": [
    list(range(8 * k)), lift({S4}, range(k)), lift({S2}, range(k)),
    lift({S2}, [0]), [0]]}})
family = timed("family", lambda: build_dyadic_family(model, chain,
                                                     depth={DEPTH}))
laws = timed("laws", lambda: prenorm_laws_check(model, family))
H = FiniteSet(8 * k, indices=lift({S4}, range(k)))
ok = timed("cosets", lambda: is_L_subgyrogroup(model, H)[0]
           and len(left_cosets(model, H).cosets) == 2)
micro = timed("micro", lambda: micro_assoc_check(model, H, H))
ids = timed("identities", lambda: check_identities(model))
out["passed"] = (family.report.passed and all(r.passed for r in laws)
                 and ok and micro.passed and ids.passed)
out["peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps(out))
"""


def load(k: int) -> dict:
    """Load g8 x Z_k in a fresh process and return its measurements."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(k)],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    factors = [int(a) for a in argv] or FACTORS
    cols = ["load", "orbits", "hull", "family", "laws", "cosets", "micro",
            "identities"]
    width = {c: max(10, len(c) + 4) for c in cols}
    print(f"{'table':<10}{'n':>6}{'k':>6}"
          + "".join(f"{c + ' s':>{width[c]}}" for c in cols)
          + f"{'peak MiB':>11}{'passed':>8}")
    for k in factors:
        r = load(k)
        print(f"{'g8xz' + str(k):<10}{r['n']:>6}{r['k']:>6}"
              + "".join(f"{r[c + '_s']:>{width[c]}.2f}" for c in cols)
              + f"{r['peak_mib']:>11.0f}{str(r['passed']):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
