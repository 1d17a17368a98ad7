#!/usr/bin/env python3
"""Stage times, minor page faults and peak memory of continuous sweeps as
the sample count grows.

    python3 tools/sweep_scaling.py [COUNT ...]

For Einstein d=3 and Moebius at each sample count (``COUNTS`` unless
counts are given), times ``check_axioms`` and ``check_identities``, each
of which draws and sweeps its blocks of ``core.ROWS`` rows on a thread
pool; the ``workers`` column is that pool's size.  Each model and count
runs in a fresh Python process, so that its peak resident memory
(``getrusage``'s ``ru_maxrss``) is its own; the process's imports count
towards it.  Prints the seconds and the minor page faults (``ru_minflt``)
of each stage, and the peak MiB: allocator churn, memory handed back to
the kernel and faulted in again, shows as faults that grow with the
count.

This is a reported measurement, not a test: nothing here gates anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
COUNTS = [100_000, 1_000_000, 4_000_000, 10_000_000]
MODELS = ["einstein-d3", "mobius"]
STAGES = ["check", "identities"]
SEED = 0

# run in a fresh process with argv[1] = model, argv[2] = count; prints
# {stage + "_s", stage + "_minflt" for each stage, "passed", "peak_mib",
#  "workers"}
CHILD = f"""
import json, resource, sys, time
from gyrokit import EinsteinModel, MobiusModel, check_axioms, check_identities
from gyrokit.core import SampleSpec, _drawn, _workers

model = {{"einstein-d3": EinsteinModel(dim=3),
          "mobius": MobiusModel()}}[sys.argv[1]]
spec = SampleSpec(int(sys.argv[2]), seed={SEED})
out = {{}}

def timed(stage, f):
    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    r = f()
    out[stage + "_s"] = time.perf_counter() - t0
    out[stage + "_minflt"] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                              - flt)
    return r

out["passed"] = all([timed("check", lambda: check_axioms(model, spec)).passed,
                     timed("identities",
                           lambda: check_identities(model, spec)).passed])
out["peak_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
out["workers"] = _workers(_drawn(model, spec)[0])
print(json.dumps(out))
"""


def sweep(model: str, count: int) -> dict:
    """Sweep ``model`` at ``count`` samples in a fresh process."""
    out = subprocess.run([sys.executable, "-c", CHILD, model, str(count)],
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    counts = [int(float(a)) for a in argv] or COUNTS
    print(f"{'model':<13}{'samples':>11}"
          + "".join(f"{c + ' s':>14}" for c in STAGES)
          + "".join(f"{c + ' flt':>16}" for c in STAGES)
          + f"{'peak MiB':>10}{'workers':>9}{'passed':>8}")
    for model in MODELS:
        for count in counts:
            r = sweep(model, count)
            print(f"{model:<13}{count:>11}"
                  + "".join(f"{r[c + '_s']:>14.2f}" for c in STAGES)
                  + "".join(f"{r[c + '_minflt']:>16}" for c in STAGES)
                  + f"{r['peak_mib']:>10.0f}{r['workers']:>9}"
                  + f"{str(r['passed']):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
