"""Output checks for benchmark jobs.

Each job's exit code and ``--out`` report are checked against facts
recomputed here with plain numpy on the raw Cayley tables (``raw.py``),
never with gyrokit itself:

* the exit code matches the job's expectation;
* every ``fail`` witness replays by direct table lookups;
* hull and intersection chains re-validate with plain set arithmetic;
* prenorm values are dyadic in [0, 1] and 0 exactly on the chain tail,
  and reported distances replay from them;
* quotient matrices are symmetric with a zero diagonal;
* cosets partition the carrier into left cosets of size |H|;
* continuous verdicts pass, axiom and identity sweeps with residual <= eps.

On the default seed, verdicts and ``value``/``cosets`` fields must also
match reference records made by the code the benchmark was defined on.
Keys and records absent from the reference are ignored, so added report
fields are not failures; ``_config`` is ignored because it embeds paths.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

import raw
from corpus import DEPTH as _DEPTH

DEPTH = int(_DEPTH)
EPS = 1e-9                     # the CLI's default --eps, used by every job
REFERENCE_KEYS = ("verdict", "value", "cosets")
SWEEP_PREFIXES = ("axiom-", "gyration-", "identity-")


def reference_view(records: list[dict]) -> dict:
    """The reference-compared fields of a report, keyed by check name."""
    return {r["check"]: {k: r[k] for k in REFERENCE_KEYS if k in r}
            for r in records if r["check"] != "_config"}


def _dyadic(text, hi) -> bool:
    """Whether a value is m / 2^DEPTH in [0, hi]: every prenorm value of a
    depth-DEPTH family is, and so is every sum of two."""
    v = Fraction(text)
    return 0 <= v <= hi and (2 ** DEPTH) % v.denominator == 0


class Checker:
    """Checks job outputs; identical outputs of one job are checked once."""

    def __init__(self, corpus, reference: dict | None = None):
        self.tables = {**corpus.tables, **corpus.corrupted}
        self.reference = reference
        self._facts = {}
        self._seen = {}

    def facts(self, name):
        """(T, inverse map, gyration tensor or None) of a raw table."""
        if name not in self._facts:
            T = self.tables[name]
            inv = raw.inverse(T)
            G = raw.gyration_tensor(T, inv) if len(T) <= 64 else None
            self._facts[name] = (T, inv, G)
        return self._facts[name]

    def check(self, job, rc, out: str | None, err: str) -> list[str]:
        """Defects of one job's result; an empty list means correct."""
        key = (job.id, rc, out, err)
        if key not in self._seen:
            try:
                self._seen[key] = self._check(job, rc, out, err)
            except (KeyError, ValueError, TypeError, IndexError) as e:
                self._seen[key] = [f"malformed report: {type(e).__name__}: {e}"]
        return self._seen[key]

    def _check(self, job, rc, out, err) -> list[str]:
        if rc != job.expect_rc:
            return [f"exit {rc}, expected {job.expect_rc}: {err.strip()[:200]}"]
        if rc == 2:
            return [] if "table rejected" in err else [f"no rejection message: {err!r}"]
        if out is None:
            return ["no report written"]
        records = [json.loads(line) for line in out.splitlines() if line]
        by = {r["check"]: r for r in records}
        verdicts = [r for r in records if "verdict" in r]
        fails = [r for r in verdicts if r["verdict"] == "fail"]
        defects = []
        if rc == 0 and fails:
            defects.append(f"exit 0 with failing checks {[r['check'] for r in fails]}")
        if rc == 1 and not fails:
            defects.append("exit 1 without a failing check")
        for r in fails:
            if not self._replays(job, r):
                defects.append(f"witness of {r['check']} does not replay: "
                               f"{r.get('witnesses')}")
        defects += getattr(self, "_kind_" + job.kind.replace("-", "_"))(job, by, verdicts)
        if self.reference is not None:
            defects += self._against_reference(job, rc, records)
        return defects

    # ------------------------------------------------------------ witnesses

    def _replays(self, job, rec) -> bool:
        """Whether a finite ``fail`` witness shows the defect by table lookups."""
        if job.table is None or not rec.get("witnesses"):
            return False
        T, inv, _ = self.facts(job.table)
        n = len(T)
        el = [int(e) for e in rec["witnesses"][0]["elements"]]
        if any(not 0 <= e < n for e in el):
            return False

        def g(a, b, z):
            return int(raw.gyr(T, inv, a, b, z))

        name = rec["check"]
        if name == "axiom-identity-left":
            return T[0, el[0]] != el[0]
        if name == "axiom-identity-right":
            return T[el[0], 0] != el[0]
        if name == "axiom-inverse-left":
            return T[inv[el[0]], el[0]] != 0
        if name == "axiom-inverse-right":
            return T[el[0], inv[el[0]]] != 0
        if name == "gyration-bijectivity":
            a, b = el
            return sorted(g(a, b, z) for z in range(n)) != list(range(n))
        x, y, z = el
        if name == "axiom-gyroassociativity":
            return T[x, T[y, z]] != T[T[x, y], g(x, y, z)]
        if name == "axiom-loop-property":
            return g(T[x, y], y, z) != g(x, y, z)
        if name == "gyration-additivity":
            return g(x, y, T[z, x]) != T[g(x, y, z), g(x, y, x)]
        if name == "gyration-left-division":
            hits = np.nonzero(T[T[x, y]] == T[x, T[y, z]])[0]
            return hits.size == 0 or int(hits[0]) != g(x, y, z)
        return False

    # ----------------------------------------------------------- chains

    def _chain_defects(self, job, chain: dict) -> list[str]:
        """Re-validate an admissible finite chain with plain set arithmetic."""
        T, inv, G = self.facts(job.table)
        n = len(T)
        sets = [sorted(int(x) for x in s) for s in chain["sets"]]
        out = []
        if chain.get("flavor") != "admissible":
            out.append(f"chain flavor {chain.get('flavor')!r}")
        for i, S in enumerate(sets):
            mask = np.zeros(n, dtype=bool)
            mask[S] = True
            if not mask[0]:
                out.append(f"set {i} lacks 0")
            if not mask[inv[S]].all():
                out.append(f"set {i} is not symmetric")
            if not mask[G[:, :, S]].all():
                out.append(f"set {i} is not gyration-invariant")
        for i in range(len(sets) - 1):
            small = sets[i + 1]
            if not raw.oplus(T, small, raw.oplus(T, small, small)) <= set(sets[i]):
                out.append(f"containment fails at index {i}")
        if not raw.oplus(T, sets[-1], sets[-1]) <= set(sets[-1]):
            out.append("tail is not closed")
        return out

    def _kind_hull(self, job, by, verdicts):
        chain = by["hull-chain"]["value"]
        n = len(self.tables[job.table])
        out = self._chain_defects(job, chain)
        if chain["sets"][0] != list(range(n)) or chain["sets"][-1] != [0]:
            out.append("hull of the carrier must run from G down to {0}")
        return out

    def _kind_intersect(self, job, by, verdicts):
        chain = by["intersection-chain"]["value"]
        inputs = [c["sets"] for c in job.info["inputs"]]
        k = len(inputs)
        expect = []
        for i in range(max(len(c) for c in inputs) + k):
            cur = set(inputs[0][min(i, len(inputs[0]) - 1)])
            for c in inputs[1:min(i, k - 1) + 1]:
                cur &= set(c[min(i, len(c) - 1)])
            expect.append(sorted(cur))
        out = self._chain_defects(job, chain)
        if chain["sets"] != expect:
            out.append("intersection chain differs from the diagonal intersection")
        return out

    # ---------------------------------------------------------- prenorms

    def _grid(self, job, by, tail) -> tuple[list[Fraction], list[str]]:
        n = len(self.tables[job.table])
        values = by["prenorm-values"]["value"]
        grid = [Fraction(values[str(i)]) for i in range(n)]
        out = []
        if len(values) != n:
            out.append(f"{len(values)} prenorm values for {n} elements")
        if not all(_dyadic(v, 1) for v in grid):
            out.append("prenorm value not dyadic in [0, 1]")
        zeros = [i for i, v in enumerate(grid) if v == 0]
        if zeros != sorted(tail):
            out.append(f"prenorm is 0 on {zeros}, tail is {sorted(tail)}")
        return grid, out

    def _rho(self, job, grid, x, y):
        T, inv, _ = self.facts(job.table)
        return grid[T[inv[x], y]] + grid[T[inv[y], x]]

    def _kind_metric(self, job, by, verdicts):
        grid, out = self._grid(job, by, job.info["tail"])
        dists = [r for c, r in by.items() if c.startswith("distance[")]
        if not dists:
            out.append("no distance records")
        for r in dists:
            if Fraction(r["value"]) != self._rho(job, grid, int(r["x"]), int(r["y"])):
                out.append(f"{r['check']} does not replay from the prenorm values")
        return out

    def _partition_defects(self, job, cosets, H) -> list[str]:
        T, _, _ = self.facts(job.table)
        n = len(T)
        flat = sorted(x for c in cosets for x in c)
        out = []
        if flat != list(range(n)):
            out.append("cosets do not partition the carrier")
        if any(len(c) != len(H) for c in cosets):
            out.append("coset sizes differ from |H|")
        if sorted(cosets[0]) != sorted(H):
            out.append("the coset of 0 is not H")
        if any(sorted(c) != sorted(raw.oplus(T, [c[0]], H)) for c in cosets):
            out.append("a block is not a left coset a + H")
        return out

    def _kind_quotient(self, job, by, verdicts):
        grid, out = self._grid(job, by, job.info["tail"])
        rec = by["quotient-distances"]
        cosets, matrix = rec["cosets"], rec["value"]
        out += self._partition_defects(job, cosets, job.info["H"])
        k = len(cosets)
        for i in range(k):
            if Fraction(matrix[i][i]) != 0:
                out.append("quotient diagonal is not 0")
            for j in range(k):
                if matrix[i][j] != matrix[j][i] or not _dyadic(matrix[i][j], 2):
                    out.append(f"quotient entry ({i}, {j}) asymmetric or not dyadic")
                elif Fraction(matrix[i][j]) != self._rho(job, grid, cosets[i][0],
                                                         cosets[j][0]):
                    out.append(f"quotient entry ({i}, {j}) does not replay")
        return out

    # ------------------------------------------------------------ others

    def _kind_cosets(self, job, by, verdicts):
        return self._partition_defects(job, by["partition"]["cosets"], job.info["H"])

    def _kind_table_check(self, job, by, verdicts):
        return [] if verdicts else ["no verdicts"]

    def _kind_microassoc(self, job, by, verdicts):
        return [] if "micro-associativity" in by else ["no micro-associativity record"]

    def _kind_rejected(self, job, by, verdicts):
        return []

    def _kind_sweep(self, job, by, verdicts):
        out = [] if verdicts else ["no verdicts"]
        for r in verdicts:
            if r["check"].startswith(SWEEP_PREFIXES) and not r["residual"] <= EPS:
                out.append(f"{r['check']} residual {r['residual']} > eps")
        return out

    def _kind_radial_hull(self, job, by, verdicts):
        radii = by["hull-chain"]["value"]["radii"]
        ok = radii[0] == 0.8 and all(
            math.isclose(s, math.tanh(math.atanh(r) / 3.0), rel_tol=1e-12)
            for r, s in zip(radii, radii[1:]))
        return [] if ok else [f"hull radii are not exact third-radii: {radii}"]

    def _kind_radial_metric(self, job, by, verdicts):
        out = []
        for c, r in by.items():
            if c.startswith("distance[") and not _dyadic(float(r["value"]), 2):
                out.append(f"{c} = {r['value']} is not dyadic in [0, 2]")
        return out

    # --------------------------------------------------------- reference

    def _against_reference(self, job, rc, records) -> list[str]:
        ref = self.reference.get(job.id)
        if ref is None:
            return [f"no reference record for {job.id}"]
        if rc != ref["rc"]:
            return [f"exit {rc}, reference {ref['rc']}"]
        got = reference_view(records)
        out = []
        for check, fields in ref["records"].items():
            if check not in got:
                out.append(f"reference check {check} missing")
                continue
            for k, v in fields.items():
                if got[check].get(k) != v:
                    out.append(f"{check}.{k} differs from the reference")
        return out
