#!/usr/bin/env python3
"""gyrokit benchmark: one closed-loop client calling the CLI in process.

    python3 bench/run.py --workload finite-metric --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports gyrokit from ``src/``.  Each
job is one ``gyrokit.cli.main(argv)`` call with ``--out`` set and stdout
sent to a sink; its exit code and report are checked (``check.py``).  A
run sets up ``SETUP_REPS`` times, checks the corpus, then repeats the
workload's round of jobs (``corpus.py``) at least ``MIN_ROUNDS`` times,
and while another round fits in ``--seconds``, setting up ``SETUP_REPS``
times again after each round.  ``--trace 1`` instead runs one round
untraced and the same round traced (``tracing.py``) and reports the
per-layer metrics.  The exit code is 1 when any check failed.

The last stdout line is the JSON result with the metrics that
``BENCHMARK.json`` names.  A fuller record, with the environment, goes
to ``.bench_out/``; traced runs also write their spans there.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so BLAS/OpenMP stay single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import corpus as corpus_mod  # noqa: E402
import tracing  # noqa: E402
from check import Checker  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = "src"
WORK = ".bench_work"
OUT = ".bench_out"
DEFAULT_SEED = 0       # the seed whose outputs are compared to bench/reference
# Set-ups before the first round and after each round; setup_s is the
# median of all of them.  A set-up takes ~0.05 s, and the speed of this
# host changes from one second to the next, so set-ups spread over the
# run vary far less from run to run than set-ups taken all at its start.
SETUP_REPS = 5
MIN_ROUNDS = 2         # a run repeats its round at least this often


class _Sink(io.TextIOBase):
    def write(self, s):
        return len(s)


def import_gyrokit():
    """(Re-)import gyrokit from ./src; a re-import pays the full import cost."""
    for name in [m for m in sys.modules if m == "gyrokit" or m.startswith("gyrokit.")]:
        del sys.modules[name]
    gyrokit = importlib.import_module("gyrokit")
    src = os.path.abspath(SRC)
    if not os.path.abspath(gyrokit.__file__).startswith(src + os.sep):
        raise ImportError(f"gyrokit imported from {gyrokit.__file__}, not {src}")
    return gyrokit, importlib.import_module("gyrokit.cli")


def write_inputs(corpus, wd: str):
    for tables in (corpus.tables, corpus.corrupted):
        for name, T in tables.items():
            with open(corpus_mod.table_path(wd, name), "w") as fh:
                json.dump({"order": len(T), "table": T.tolist()}, fh)
    for fname, doc in corpus.chains.items():
        with open(os.path.join(wd, fname), "w") as fh:
            json.dump(doc, fh)


def run_job(cli, job, wd: str):
    """One timed CLI call: (exit code, seconds, report text or None, stderr)."""
    out_path = os.path.join(wd, "out.jsonl")
    if os.path.exists(out_path):
        os.remove(out_path)
    err = io.StringIO()
    with contextlib.redirect_stdout(_Sink()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(job.argv + ["--out", out_path])
        except SystemExit as e:
            rc = e.code
        except Exception:  # counted as a failed job; the run goes on
            rc = None
            err.write(traceback.format_exc())
        dt = perf_counter() - t0
    out = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            out = fh.read()
    if job.produces and out:
        for line in out.splitlines():
            rec = json.loads(line)
            if rec["check"] == "hull-chain":
                with open(job.produces, "w") as fh:
                    json.dump(rec["value"], fh)
    return rc, dt, out, err.getvalue()


def verdict_samples(out: str | None) -> int:
    if not out:
        return 0
    return sum(r["samples"] for r in map(json.loads, out.splitlines())
               if "verdict" in r)


class Tally:
    """Timed jobs of one pass and their check results."""

    def __init__(self):
        self.times: list[float] = []
        self.ids: list[str] = []
        self.samples = 0
        self.report_bytes = 0
        self.failures: list[str] = []

    def run(self, cli, job, wd, checker):
        rc, dt, out, err = run_job(cli, job, wd)
        self.times.append(dt)
        self.ids.append(job.id)
        self.samples += verdict_samples(out)
        self.report_bytes += len(out.encode()) if out else 0
        defects = checker.check(job, rc, out, err)
        if defects:
            self.failures.append(f"{job.id}: {'; '.join(defects)}")

    @property
    def busy(self) -> float:
        return sum(self.times)


def corpus_defects(gyrokit, corpus, wd: str) -> list[str]:
    """Every valid table must load validated, every corrupted one be rejected."""
    out = []
    for tables, valid in ((corpus.tables, True), (corpus.corrupted, False)):
        for name in tables:
            with open(corpus_mod.table_path(wd, name)) as fh:
                text = fh.read()
            try:
                gyrokit.table_load(text, name=name)
                loaded = True
            except gyrokit.TableError:
                loaded = False
            if loaded != valid:
                out.append(f"table {name} {'rejected' if valid else 'accepted'}")
    return out


def source_digest() -> str:
    """sha256 over the paths and bytes of src/, which names the code
    measured also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for root, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(root, f)
            h.update(path.encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(".git", ref[5:])):
            with open(os.path.join(".git", ref[5:])) as fh:
                commit = fh.read().strip()
    cpu = platform.processor() or None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    return {"commit": commit, "source_sha256": source_digest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def end_to_end(rounds: list[Tally], tail_beyond: int, setup_times: list[float]):
    """End-to-end metrics; rates are medians of the per-round rates."""
    times = sorted(t for r in rounds for t in r.times)
    n = len(times)
    beyond = len(rounds) * tail_beyond
    failed = sum(len(r.failures) for r in rounds)
    return {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": statistics.median(len(r.times) / r.busy for r in rounds),
        "job_s.p50": statistics.median(times),
        "job_s.tail": times[n - beyond - 1],
        "samples_per_s": statistics.median(r.samples / r.busy for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_failed_frac": failed / n,
    }, {"percentile": 100.0 * (n - beyond) / n, "jobs": n, "beyond": beyond}


def per_class(tallies: list[Tally]) -> dict:
    by: dict[str, list[float]] = {}
    for t in tallies:
        for k, dt in zip(t.ids, t.times):
            by.setdefault(k, []).append(dt)
    return {k: {"jobs": len(v), "median_s": statistics.median(v)}
            for k, v in sorted(by.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(corpus_mod.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gyrokit", "__init__.py")):
        print("error: no gyrokit sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.abspath(SRC))
    wd = os.path.join(WORK, args.workload)
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    os.makedirs(OUT, exist_ok=True)

    build = corpus_mod.WORKLOADS[args.workload]
    setup_times = []

    def set_up():
        """Everything before a first timed job, SETUP_REPS times over."""
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            gyrokit, cli = import_gyrokit()
            corpus = build(args.seed, wd)
            write_inputs(corpus, wd)
            run_job(cli, corpus.warmup, wd)
            setup_times.append(perf_counter() - t0)
        return gyrokit, cli, corpus

    gyrokit, cli, corpus = set_up()

    reference = None
    if args.seed == DEFAULT_SEED:
        with open(os.path.join(HERE, "reference", args.workload + ".json")) as fh:
            reference = json.load(fh)
    checker = Checker(corpus, reference)
    setup_failures = corpus_defects(gyrokit, corpus, wd)

    passes = []
    if args.trace:
        untraced = Tally()
        for job in corpus.jobs:
            untraced.run(cli, job, wd, checker)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = Tally()
        for i, job in enumerate(corpus.jobs):
            tracer.job = i
            traced.run(cli, job, wd, checker)
        tracer.counts["cli.report.bytes"] = traced.report_bytes
        values = tracer.metrics()
        values["trace.overhead_frac"] = traced.busy / untraced.busy - 1.0
        wanted = spec["per_layer"]
        passes = [untraced, traced]
        tracer.write(os.path.join(
            OUT, f"spans_{args.workload}_s{args.seed}.json"))
        extra = {"rounds": 1, "classes": per_class([untraced])}
    else:
        start = perf_counter()
        while True:
            passes.append(Tally())
            for job in corpus.jobs:
                passes[-1].run(cli, job, wd, checker)
            # the same seed rebuilds the same corpus, so checker still fits
            _, cli, corpus = set_up()
            elapsed = perf_counter() - start
            if (len(passes) >= MIN_ROUNDS
                    and elapsed + elapsed / len(passes) > args.seconds):
                break
        values, tail = end_to_end(passes, corpus.tail_beyond, setup_times)
        wanted = spec["end_to_end"]
        extra = {"rounds": len(passes), "tail": tail, "setup_runs_s": setup_times,
                 "classes": per_class(passes)}

    failures = setup_failures + [f for t in passes for f in t.failures]
    attempted = sum(len(t.times) for t in passes)
    failed = sum(len(t.failures) for t in passes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), **result,
              "all_metrics": dict(values), **extra, "failures": failures[:50]}
    mode = "trace" if args.trace else "e2e"
    with open(os.path.join(OUT, f"BENCH_{args.workload}_s{args.seed}_{mode}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(wd, ignore_errors=True)

    for f in failures[:20]:
        print("FAILED", f)
    for name, v in sorted(values.items()):
        unit = next((m["unit"] for m in wanted if m["name"] == name), "")
        print(f"{name} = {v:.6g} {unit}")
    print(f"correct = {result['correct']} ({failed} of {attempted} jobs failed)")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
