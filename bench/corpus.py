"""Seeded inputs and job lists of the benchmark workloads.

Every table is built from the bundled ``g8.json`` with plain numpy: g8
itself, the direct products g8 x Z_k, and copies with two entries of one
row swapped.  The seed picks subgroups, chains, pair queries, sample
seeds and corruption positions.  It never changes which job classes a
round holds, so metrics stay comparable across seeds.

A job is one ``gyrokit.cli.main(argv)`` call.  A round is the fixed
ordered job list of a workload; a run repeats the same round.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import raw

G8_PATH = os.path.join("src", "gyrokit", "tables", "g8.json")
DEPTH = "6"
CONTINUOUS_MODELS = {
    "e3": ["--model", "einstein", "--dim", "3"],
    "e2": ["--model", "einstein", "--dim", "2"],
    "mob": ["--model", "mobius"],
}


@dataclass
class Job:
    id: str                  # stable across seeds and rounds
    kind: str                # selects the output checks in check.py
    argv: list[str]          # without --out
    expect_rc: int = 0
    table: str | None = None  # name of the raw table the job reads
    info: dict = field(default_factory=dict)  # facts the checker needs
    produces: str | None = None  # chain file cut from this job's report


@dataclass
class Corpus:
    tables: dict[str, np.ndarray]     # valid tables, by name
    corrupted: dict[str, np.ndarray]  # tables with one row swap, by name
    chains: dict[str, dict]           # chain documents, by file name
    warmup: Job
    jobs: list[Job]
    # job_s.tail is the job time with this many jobs per round beyond it:
    # a fixed percentile, so it names the same job class however many
    # rounds fit
    tail_beyond: int


def table_path(wd: str, name: str) -> str:
    return os.path.join(wd, name + ".json")


def _csv(xs) -> str:
    return ",".join(str(int(x)) for x in xs)


def _g8_products(ks):
    """(name, k, table) for g8 x Z_k; k = 1 is g8 itself."""
    g8 = raw.load_table(G8_PATH)
    for k in ks:
        yield ("g8" if k == 1 else f"g8xz{k}"), k, raw.product(g8, raw.cyclic(k))


def _g8_lattice():
    """Gyration-invariant subgroups of g8: those of order 2, nested
    (order 4, order 2) pairs, and pairs of distinct order-4 ones with
    their intersection."""
    subs = raw.invariant_subgroups(raw.load_table(G8_PATH))
    s2 = [s for s in subs if len(s) == 2]
    s4 = [s for s in subs if len(s) == 4]
    nested = [(big, small) for big in s4 for small in s2 if set(small) <= set(big)]
    crossing = [(a, b, tuple(sorted(set(a) & set(b))))
                for a in s4 for b in s4 if a != b]
    return s2, nested, crossing


def _lift(S, D, k):
    """The subgroup S x D of g8 x Z_k as sorted indices."""
    return sorted(g * k + z for g in S for z in D)


def _pick(rng, seq):
    return seq[int(rng.integers(len(seq)))]


def _corrupt(T, rng):
    """Swap two entries of one row; the columns then repeat a value,
    which no gyrogroup table (a Latin square) has.  Entries 0 are left in
    place, so inverses stay unique and every rejection takes the full
    axiom sweep rather than the early inverse check."""
    n = len(T)
    a = int(rng.integers(1, n))
    cols = [b for b in range(1, n) if T[a, b] != 0]
    b1, b2 = (int(x) for x in rng.choice(cols, 2, replace=False))
    C = T.copy()
    C[a, b1], C[a, b2] = T[a, b2], T[a, b1]
    return C


# Every job class runs on g8 x Z_k, n = 8 .. 32.  n = 48 runs only
# `cosets` and `microassoc`, and `check` and `cosets` on a row-swapped
# copy: one n = 48 hull + metric pair (~11 s here) would be a fifth of a
# run.  The 32 classes put the median job among six classes of 0.05-0.08 s.
FULL_KS = (1, 2, 3, 4)
LIGHT_KS = (6,)


def finite_metric(seed: int, wd: str) -> Corpus:
    rng = np.random.default_rng(seed)
    s2, nested, crossing = _g8_lattice()
    tables, corrupted, chains, jobs = {}, {}, {}, []
    for name, k, T in _g8_products(FULL_KS + LIGHT_KS):
        n = len(T)
        tables[name] = T
        model = ["--model", "table:" + table_path(wd, name)]
        H = _lift(_pick(rng, s2), range(k), k)
        big, small = _pick(rng, nested)
        light = [
            Job(f"cosets:{name}", "cosets", ["cosets", *model, "--subset", _csv(H)],
                table=name, info={"H": H}),
            Job(f"microassoc:{name}", "microassoc",
                ["microassoc", *model, "--vset", _csv(_lift(big, range(k), k)),
                 "--wset", _csv(_lift(small, [0], k))], table=name),
        ]
        if k in LIGHT_KS:
            # the reject path: a row-swapped copy must fail `check` with a
            # replayable witness and be refused on a validated load
            bad = name + "-bad"
            corrupted[bad] = _corrupt(T, rng)
            bad_model = ["--model", "table:" + table_path(wd, bad)]
            jobs += light + [
                Job(f"check:{bad}", "table-check", ["check", *bad_model],
                    expect_rc=1, table=bad),
                Job(f"cosets:{bad}", "rejected",
                    ["cosets", *bad_model, "--subset", _csv(H)],
                    expect_rc=2, table=bad),
            ]
            continue
        pairs = rng.integers(0, n, size=(4, 2))
        # two chains through distinct order-4 subgroups down to their
        # common order-2 one: the diagonal intersection has the same set
        # sizes on every seed, so its cost does not depend on the seed
        inputs = []
        *bigs, small = _pick(rng, crossing)
        for tag, big in zip("ab", bigs):
            doc = {"flavor": "admissible",
                   "sets": [list(range(n)), _lift(big, range(k), k),
                            _lift(small, range(k), k), _lift(small, [0], k),
                            [0]]}
            chains[f"{name}-{tag}.json"] = doc
            inputs.append(doc)
        chains[f"{name}-ghh.json"] = {"flavor": "admissible",
                                      "sets": [list(range(n)), H, H]}
        hull_chain = os.path.join(wd, f"{name}-hull.json")
        jobs += [
            Job(f"hull:{name}", "hull",
                ["hull", *model, "--subset", _csv(range(n)), "--depth", DEPTH],
                table=name, produces=hull_chain),
            Job(f"metric:{name}", "metric",
                ["metric", *model, "--chain", hull_chain, "--depth", DEPTH,
                 "--pairs", ",".join(f"{x}:{y}" for x, y in pairs)],
                table=name, info={"tail": [0]}),
            Job(f"quotient:{name}", "quotient",
                ["metric", *model, "--chain", os.path.join(wd, f"{name}-ghh.json"),
                 "--subset", _csv(H), "--quotient", "--depth", DEPTH],
                table=name, info={"tail": H, "H": H}),
            Job(f"intersect:{name}", "intersect",
                ["intersect", *model,
                 "--chain", os.path.join(wd, f"{name}-a.json"),
                 "--chain", os.path.join(wd, f"{name}-b.json")],
                table=name, info={"inputs": inputs}),
            Job(f"check:{name}", "table-check", ["check", *model], table=name),
            *light,
        ]
    warmup = next(j for j in jobs if j.id == "cosets:g8")
    # p84.4: beyond it lie hull and metric on g8 x Z_3 and g8 x Z_4 and the
    # quotient on g8 x Z_4, so it reads the slowest intersect on g8 x Z_4
    return Corpus(tables, corrupted, chains, warmup, jobs, tail_beyond=5)


def _point(rng):
    """A point of R^3 with norm < 0.7, as CLI text."""
    return ",".join(f"{x:.6f}" for x in rng.uniform(-0.4, 0.4, size=3))


def continuous_sweep(seed: int, wd: str) -> Corpus:
    rng = np.random.default_rng(seed)

    def sseed():
        return str(int(rng.integers(2 ** 31)))

    jobs = []
    for key, model in CONTINUOUS_MODELS.items():
        for cmd in ("check", "identities"):
            jobs.append(Job(f"{cmd}:{key}:1e5", "sweep",
                            [cmd, *model, "--samples", "100000", "--seed", sseed()]))
    for key, model in CONTINUOUS_MODELS.items():
        jobs.append(Job(f"microassoc:{key}", "sweep",
                        ["microassoc", *model, "--vset", "ball:0.5",
                         "--wset", "ball:0.3", "--samples", "2000",
                         "--seed", sseed()]))
    # The radial metric runs on Einstein d=3 only.  The 13 classes put four
    # above the four 10^5-sample Einstein sweeps (~0.45-0.65 s) and five
    # below, so the median job falls among those four.
    chain = os.path.join(wd, "e3-hull.json")
    pairs = ";".join(f"{_point(rng)}:{_point(rng)}" for _ in range(4))
    jobs += [
        Job("hull:e3", "radial-hull",
            ["hull", *CONTINUOUS_MODELS["e3"], "--subset", "ball:0.8", "--depth", DEPTH],
            produces=chain),
        Job("metric:e3", "radial-metric",
            ["metric", *CONTINUOUS_MODELS["e3"], "--chain", chain, "--depth", DEPTH,
             "--samples", "10000", "--seed", sseed(), "--pairs=" + pairs]),
    ]
    # the 10^6-sample Einstein d=3 jobs (~6 and ~7 s here) set
    # peak_rss_mb and job_s.tail
    for cmd in ("check", "identities"):
        jobs.append(Job(f"{cmd}:e3:1e6", "sweep",
                        [cmd, *CONTINUOUS_MODELS["e3"], "--samples", "1000000",
                         "--seed", sseed()]))
    warmup = Job("warmup:mob", "sweep",
                 ["check", *CONTINUOUS_MODELS["mob"], "--samples", "10000",
                  "--seed", sseed()])
    # p92.3: one job per round beyond it, so it falls on the 10^6 jobs
    return Corpus({}, {}, {}, warmup, jobs, tail_beyond=1)


WORKLOADS = {
    "finite-metric": finite_metric,
    "continuous-sweep": continuous_sweep,
}
