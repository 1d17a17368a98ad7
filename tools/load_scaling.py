#!/usr/bin/env python3
"""Load time and peak memory of finite tables as the order grows.

    python3 tools/load_scaling.py

For each k in ``FACTORS`` builds the direct product g8 x Z_k (order
n = 8k) and loads it with ``FiniteTable``, which computes the gyration
tensor and runs the exhaustive axiom sweep.  Each load runs in a fresh
Python process, so that its peak resident memory (``getrusage``'s
``ru_maxrss``) is its own; the process's imports and the product table
count towards it.  Prints the load seconds and the peak MiB per order.

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

# run in a fresh process with argv[1] = k; prints {"n", "load_s", "peak_mib"}
CHILD = """
import json, resource, sys, time
import numpy as np
from gyrokit import FiniteTable
from gyrokit.models import table_load
import importlib.resources

g8 = table_load((importlib.resources.files("gyrokit") / "tables"
                 / "g8.json").read_text())
k = int(sys.argv[1])
i = np.arange(8 * k)
a, b = i // k, i % k
T = g8.table[a[:, None], a[None, :]] * k + (b[:, None] + b[None, :]) % k
t0 = time.perf_counter()
FiniteTable(T, name=f"g8xz{k}")
load_s = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"n": 8 * k, "load_s": load_s, "peak_mib": peak}))
"""


def load(k: int) -> dict:
    """Load g8 x Z_k in a fresh process and return its measurements."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(k)],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def main() -> int:
    print(f"{'table':<10}{'n':>6}{'load s':>10}{'peak MiB':>11}")
    for k in FACTORS:
        r = load(k)
        print(f"{'g8xz' + str(k):<10}{r['n']:>6}{r['load_s']:>10.2f}"
              f"{r['peak_mib']:>11.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
