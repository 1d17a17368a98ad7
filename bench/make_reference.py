#!/usr/bin/env python3
"""Write bench/reference/<workload>.json: the default seed's expected outputs.

    python3 bench/make_reference.py [workload ...]

Run from the repository root.  Each job of the default seed's round runs
once; outputs must pass every other check before they are recorded.
The records keep the exit code and, per check, the verdict and the
``value``/``cosets`` fields.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
from check import Checker, reference_view


def make(workload: str) -> dict:
    wd = os.path.join(run.WORK, workload)
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    _, cli = run.import_gyrokit()
    corpus = run.corpus_mod.WORKLOADS[workload](run.DEFAULT_SEED, wd)
    run.write_inputs(corpus, wd)
    checker = Checker(corpus)
    out = {}
    for job in corpus.jobs:
        rc, _, report, err = run.run_job(cli, job, wd)
        defects = checker.check(job, rc, report, err)
        if defects:
            raise SystemExit(f"{job.id}: {defects}")
        records = [json.loads(line) for line in (report or "").splitlines()]
        out[job.id] = {"rc": rc, "records": reference_view(records)}
    shutil.rmtree(wd, ignore_errors=True)
    return out


def main(argv) -> int:
    sys.path.insert(0, os.path.abspath(run.SRC))
    for workload in argv or sorted(run.corpus_mod.WORKLOADS):
        records = make(workload)
        path = os.path.join(run.HERE, "reference", workload + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(records, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
