"""Dyadic neighborhood chains, the induced prenorm, and its metrics.

From a chain U_0 >= U_1 >= ... of symmetric, gyration-invariant sets
containing 0 with U_{n+1} (+) U_{n+1} <= U_n (weak flavor; the
admissible flavor strengthens this to U_{n+1} (+) (U_{n+1} (+) U_{n+1})
<= U_n), a family of sets indexed by dyadic rationals is built:

    V(1) = U_0,   V(1/2^n) = U_n,   V(2m/2^n) = V(m/2^(n-1)),
    V((2m+1)/2^n) = U_n (+) V(m/2^(n-1)),   V(m/2^n) = G for m > 2^n.

``DyadicFamily`` holds V(m/2^levels) as the rows of one array, built
one level at a time.  The prenorm is the Birkhoff-Kakutani infimum
N(x) = inf{r : x in V(r)}, capped at 1 for points in no proper V.  It
yields

    rho_N(x, y)  = N(-x + y) + N(-y + x)       (a metric when the
                                                chain tail is {0})
    d(x, y)      = |N(x) - N(y)|               (a pseudometric)
    varrho(pi(x), pi(y)) = d(-x+y, 0) + d(-y+x, 0)
                                (a metric on G/H for the tail H of an
                                 admissible chain)

Finite chains are eventually constant: the last listed set repeats
forever and is the tail H.  Past the first chain index s from which
every listed set is H, each index bit adds an H factor, and H (+) (H (+)
V) = H (+) V by gyration invariance and the tail's closure (both
validated).  A row between V(q/2^s) and V((q+1)/2^s) is H (+) V(q/2^s):
V(q/2^s) for odd q, V((q+1)/2^s) for even q.  So a finite family stops
at levels = min(depth, s).  Closed under the tail -- x in H (+) V(r)
certifies N(x) <= r -- N is the exact infimum once depth >= s.  N, rho_N
and varrho are exact numerators over 2^levels; the balls and the
quotient matrix are reads of the n x n rho_N matrix.  Radial chains
(norm balls) collapse to one-dimensional arithmetic on 2^depth radii.

The prenorm laws (zero, symmetry, subadditivity, gyration invariance)
hold for the infimum only when the chain sets interact well with the
tail; ``prenorm_laws_check`` verifies them per chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .core import (ROWS, AxiomReport, ChainError, CheckResult, GyroModel,
                   SampleSpec, _at, _mapped, _merged, _verdict, first_hit,
                   read_json)
from .cosets import CosetPartition, _as_finite_set
from .models import radial_add, radial_half, radial_third
from .sets import FiniteSet, OriginSet, RadialBall, oplus_rows

__all__ = [
    "DyadicChain",
    "validate_chain",
    "DyadicFamily",
    "build_dyadic_family",
    "rho_N",
    "metric_d",
    "quotient_metric",
    "coset_invariant_N_check",
    "prenorm_laws_check",
    "ball",
    "rho_ball",
    "quotient_ball",
    "shrink",
    "admissible_hull",
    "admissible_intersection",
    "admissible_quotient_inclusion_check",
    "micro_assoc_check",
    "chain_load",
]

@dataclass
class DyadicChain:
    """A decreasing chain of neighborhood sets with a containment law.

    ``flavor`` is "weak" (U_{n+1}+U_{n+1} <= U_n) or "admissible"
    (U_{n+1}+(U_{n+1}+U_{n+1}) <= U_n).  Finite chains extend beyond
    the listed sets by repeating the last one (the tail); radial chains
    are only as deep as their radii list.
    """

    sets: list
    flavor: str = "weak"

    def __post_init__(self):
        if self.flavor not in ("weak", "admissible"):
            raise ChainError(f"unknown flavor {self.flavor!r}")
        if not self.sets:
            raise ChainError("chain must be nonempty")

    @property
    def kind(self) -> str:
        return "finite" if isinstance(self.sets[0], FiniteSet) else "radial"

    def __len__(self):
        return len(self.sets)

    def set_at(self, n: int):
        if n < len(self.sets):
            return self.sets[n]
        if self.kind == "finite":
            return self.sets[-1]
        raise ChainError(f"depth {n} exceeds chain length {len(self.sets)}")

    @property
    def tail(self):
        """The eventual intersection: last set (finite) or {0} (radial)."""
        return self.sets[-1] if self.kind == "finite" else OriginSet()

    def to_dict(self) -> dict:
        if self.kind == "finite":
            return {"flavor": self.flavor,
                    "sets": [list(s.indices()) for s in self.sets]}
        return {"flavor": self.flavor,
                "radii": [s.radius for s in self.sets]}


def chain_load(model: GyroModel, source: str | bytes | IO | dict) -> DyadicChain:
    """Load a chain-spec JSON document for the given model.

    ``{"flavor": "weak"|"admissible", "sets": [[indices...], ...]}`` for
    finite models, ``{"flavor": ..., "radii": [r0, r1, ...]}`` for ball
    models.
    """
    doc = read_json(source, ChainError)
    if not isinstance(doc, dict):
        raise ChainError("chain document must be a JSON object")
    flavor = doc.get("flavor", "weak")
    if "sets" in doc:
        if not model.is_finite:
            raise ChainError("explicit sets require a finite model")
        sets = doc["sets"]
        if not (isinstance(sets, list) and all(isinstance(t, list) for t in sets)):
            raise ChainError("'sets' must be a list of index lists")
        for i in (i for t in sets for i in t):
            if isinstance(i, bool) or not isinstance(i, int):
                raise ChainError(f"set member {i!r} is not an integer index")
        try:
            sets = [FiniteSet(model.n, indices=t) for t in sets]
        except ValueError as e:
            raise ChainError(str(e)) from None
        return DyadicChain(sets, flavor)
    if "radii" in doc:
        if model.is_finite:
            raise ChainError("radial chains require a ball model")
        try:
            radii = [float(r) for r in doc["radii"]]
        except (TypeError, ValueError):
            raise ChainError("'radii' must be a list of numbers") from None
        if any(not 0 < r < model.c for r in radii):
            raise ChainError("radii must lie strictly inside the carrier")
        return DyadicChain([RadialBall(r) for r in radii], flavor)
    raise ChainError("chain document needs a 'sets' or 'radii' field")


def validate_chain(model: GyroModel, chain: DyadicChain,
                   spec: SampleSpec = SampleSpec(1000)) -> AxiomReport:
    """Verify symmetry, gyration invariance, and the containment law.

    Finite chains are checked exhaustively, including closure of the
    tail (required for the repeat-forever convention).  Radial chains
    reduce the law to radial arithmetic; their gyration invariance is
    the model's gyration isometry, attested at sampled triples.
    """
    report = AxiomReport()
    add = report.results.append

    if chain.kind == "finite":
        for n, U in enumerate(chain.sets):
            add(CheckResult.exact(f"chain-zero[{n}]", 1,
                                  None if 0 in U else {"index": n}))
            add(CheckResult.exact(f"chain-symmetric[{n}]", len(U), None
                                  if U.is_symmetric(model) else {"index": n}))
            w = U.gyr_invariance_witness(model)
            add(CheckResult.exact(f"chain-gyr-invariant[{n}]", model.n ** 2,
                                  w and {"index": n, "elements": list(w)}))
        # the laws on membership rows, the last being the tail's closure
        # T + T <= T: the product's size and its members outside the
        # bound, ascending
        last = len(chain.sets) - 1
        for n, big in enumerate(chain.sets):
            small = chain.set_at(n + 1)
            prod = oplus_rows(model, small, small.members())
            if chain.flavor == "admissible" and n < last:
                prod = oplus_rows(model, small, prod)
            escaped = np.flatnonzero(prod & ~big.members()).tolist()
            if escaped and report.failing_index is None:
                report.failing_index = n
            name, at = ((f"chain-containment[{n}]", {"index": n}) if n < last
                        else ("chain-tail-closed", {}))
            add(CheckResult.exact(name, int(prod.sum()),
                                  {**at, "escaped": escaped} if escaped else None))
        return report

    radii = [s.radius for s in chain.sets]
    for n, r in enumerate(radii):
        add(CheckResult.exact(f"chain-radius[{n}]", 1, None if 0.0 < r < model.c
                              else {"index": n, "radius": r}))
    # radii are float data: a few-ulp guard keeps exactly-tight chains
    # (e.g. radial_add(0.5, 0.5) = 0.8) valid under roundoff
    guard = 1e-12
    for n in range(len(radii) - 1):
        s = radii[n + 1]
        val = RadialBall(s).oplus(model, RadialBall(s))
        if chain.flavor == "admissible":
            val = RadialBall(s).oplus(model, val)
        ok = val.radius <= radii[n] + guard
        if not ok and report.failing_index is None:
            report.failing_index = n
        add(CheckResult(f"chain-containment[{n}]", ok, 1,
                        max(0.0, val.radius - radii[n]),
                        None if ok else
                        {"index": n, "law_radius": val.radius,
                         "bound": radii[n]}))

    rng = np.random.default_rng(spec.seed)
    a = model.sample(rng, spec.count)
    b = model.sample(rng, spec.count)
    z = model.sample(rng, spec.count)
    add(_verdict(model, "chain-gyr-invariant",
                 np.abs(model.norm(model.gyr(a, b, z)) - model.norm(z)),
                 [a, b, z]))
    return report


class DyadicFamily:
    """The dyadic family of a chain, as ``rows[m - 1]`` = V(m/2^levels) for
    m = 1 ... 2^levels: boolean membership rows (finite chains, levels =
    min(depth, s)) or ball radii (radial chains, levels = depth).  Level k
    of the recursion holds V(m/2^k); its even rows are level k - 1 and its
    odd rows U_k (+) [V(0) = {0}; level k - 1].

    Finite families keep ``_num`` = 2^levels N and ``_rho`` = 2^levels
    rho_N (n x n), in the least unsigned dtype that holds a sum of two
    numerators: cast them before subtracting or scaling.
    """

    def __init__(self, model: GyroModel, chain: DyadicChain, depth: int,
                 report: AxiomReport | None = None):
        self.model, self.chain, self.depth = model, chain, depth
        self.report = report  # the chain's validation report
        finite = chain.kind == "finite"
        self.tail = chain.tail
        s = len(chain) - 1
        while finite and s and chain.sets[s - 1] == self.tail:
            s -= 1
        self.levels = levels = min(depth, s) if finite else depth
        self.scale = scale = 2 ** levels
        U = chain.set_at(0)
        rows = np.array([U.members() if finite else U.radius])
        below = np.zeros_like(rows)  # V(0) = {0}: the row of 0, or radius 0
        below[..., 0] = finite
        for k in range(1, levels + 1):
            odd = self._oplus(chain.set_at(k), np.concatenate([below, rows[:-1]]))
            rows = np.stack([odd, rows], axis=1).reshape((-1,) + rows.shape[1:])
        self.rows = rows
        if finite:
            # N(x) is the first value whose tail (+) V(r) holds x, 1 past all
            hits = self._oplus(self.tail, rows)
            num = np.where(hits.any(axis=0), hits.argmax(axis=0) + 1, scale)
            self._num = np.where(self.tail.members(), 0, num).astype(
                np.min_scalar_type(2 * scale))
            wide = self._num[model.table[model.inverses]]  # num[-x + y]
            self._rho = wide + wide.T
        else:
            # N(x) is the least value whose ball holds x.  Values ascend,
            # so that ball is where the radii's running maximum first
            # exceeds |x|, whatever the radii's order; past it N is 1
            self._cover = np.maximum.accumulate(rows)

    def _oplus(self, U, rows: np.ndarray) -> np.ndarray:
        """U (+) V for every row V: ``oplus_rows`` on finite rows, radial
        addition on radii."""
        if self.chain.kind != "finite":
            return radial_add(U.radius, rows, self.model.c)
        return oplus_rows(self.model, U, rows)

    def value_grid(self) -> list[Fraction]:
        """Exact N per element (finite models)."""
        if self.chain.kind != "finite":
            raise ChainError("value grids exist for finite models only")
        return [Fraction(int(m), self.scale) for m in self._num]

    def prenorm(self, x):
        """N(x): exact Fraction (finite) or float (radial)."""
        if self.chain.kind == "finite":
            return Fraction(int(_at(self._num, x)), self.scale)
        return self.prenorm_batch(x)

    def prenorm_batch(self, xs):
        """Vectorized N over a batch (radial chains)."""
        r = np.atleast_1d(np.asarray(self.model.norm(xs), dtype=float))
        i = np.searchsorted(self._cover, r, side="right")
        out = np.where(r == 0.0, 0, np.minimum(i + 1, self.scale)) / self.scale
        return float(out[0]) if np.asarray(xs).ndim <= 1 and out.size == 1 else out

    def monotone_check(self) -> CheckResult:
        """r <= s implies V(r) <= V(s) over the 2^depth rows at ``depth``.
        Past chain index s', the rows between V(q/2^s') and V((q+1)/2^s')
        are H (+) V(q/2^s'): with 0 in H only the last of them can fail, so a
        failing pair i of the ``levels`` rows ends at s = (i + 2)/2^levels."""
        rows, samples = self.rows, 2 ** self.depth
        if self.chain.kind == "finite":
            hit = first_hit(rows[:-1] & ~rows[1:])
            if hit:
                i = hit[0]
                s = Fraction(i + 2, self.scale)
                hit = {"r": str(s - Fraction(1, samples)), "s": str(s),
                       "escaped": np.flatnonzero(rows[i] & ~rows[i + 1]).tolist()}
            return CheckResult.exact("family-monotone", samples, hit)
        diffs = np.diff(rows)
        ok = bool(np.all(diffs >= 0))
        worst = float(-diffs.min()) if diffs.size else 0.0
        return CheckResult("family-monotone", ok, samples, max(0.0, worst),
                           None if ok else {"radii": rows.tolist()})


def build_dyadic_family(model: GyroModel, chain: DyadicChain,
                        depth: int = 10,
                        spec: SampleSpec = SampleSpec(1000)) -> DyadicFamily:
    """Validate the chain (weak law suffices) and build V(m/2^n) to depth.

    An invalid chain raises ``ChainError`` with the failing validation
    report as ``report``.  A radial ``chain-gyr-invariant`` measures the
    model's gyrations against ``eps``, not the chain: its failure stays
    in the family's report as a verification failure."""
    report = validate_chain(model, chain, spec)
    laws = [r for r in report.failures() if chain.kind == "finite"
            or r.name != "chain-gyr-invariant"]
    if laws:
        bad = laws[0]
        err = ChainError(f"invalid chain: {bad.name} ({bad.witness})")
        err.report = report
        raise err
    if depth < 1:
        raise ChainError("depth must be at least 1")
    if chain.kind == "radial" and depth > len(chain.sets) - 1:
        raise ChainError(
            f"depth {depth} exceeds chain length {len(chain.sets)}")
    return DyadicFamily(model, chain, depth, report)


def rho_N(family: DyadicFamily, x, y):
    """The two-sided gyro-distance N(-x + y) + N(-y + x)."""
    m = family.model
    return (family.prenorm(m.op(m.inv(x), y))
            + family.prenorm(m.op(m.inv(y), x)))


def metric_d(family: DyadicFamily, x, y):
    """The prenorm-level pseudometric |N(x) - N(y)|."""
    return abs(family.prenorm(x) - family.prenorm(y))


def ball(family: DyadicFamily, x, eps) -> FiniteSet:
    """{x' : d(x', x) < eps} in a finite model."""
    if family.chain.kind != "finite":
        raise ChainError("explicit balls exist for finite models only")
    # numerators against eps 2^levels: exact for a float eps too, as a
    # power of two scales it without rounding
    num = family._num.astype(np.int64)
    return FiniteSet.of(np.abs(num - _at(num, x)) < eps * family.scale)


def rho_ball(family: DyadicFamily, x, eps) -> FiniteSet:
    """{x' : rho_N(x', x) < eps} in a finite model.

    This is exactly the fiber of the quotient ball: rho_N(x', x) equals
    varrho(pi(x'), pi(x)) by definition, so pi^-1(B*(pi(x), eps)) is the
    rho_N-ball.  The d-ball merely contains it (|N(x') - N(x)| never
    exceeds either one-sided term, by subadditivity).
    """
    if family.chain.kind != "finite":
        raise ChainError("explicit balls exist for finite models only")
    return FiniteSet.of(_at(family._rho, x) < eps * family.scale)


def quotient_ball(family: DyadicFamily, partition: CosetPartition,
                  coset: int, eps) -> list[int]:
    """{coset' : varrho(coset', coset) < eps} in the coset space."""
    row = _at(_quotient_nums(family, partition), coset)
    return np.flatnonzero(row < eps * family.scale).tolist()


def coset_invariant_N_check(model: GyroModel, family: DyadicFamily,
                            H) -> CheckResult:
    """N(x + h) = N(x) for all x and h in the chain tail H."""
    if model.is_finite:
        H = _as_finite_set(model, H)
        if H != family.tail:
            raise ValueError("H must be the tail of the family's chain")
        idx, num, N = H.index_array(), family._num, family.prenorm
        hit = first_hit(num[model.table[:, idx]] != num[:, None])
        if hit:
            x, h = hit[0], int(idx[hit[1]])
            hit = {"elements": [x, h], "n_xh": str(N(model.table[x, h])),
                   "n_x": str(N(x))}
        return CheckResult.exact("coset-invariance", model.n * len(H), hit)
    # radial tails are {0}: N(x + 0) = N(x) holds identically
    xs = model.sample(np.random.default_rng(0), 256)
    return _verdict(model, "coset-invariance",
                    np.abs(family.prenorm_batch(model.op(xs, model.zero))
                           - family.prenorm_batch(xs)), [xs], tol=0.0)


def quotient_metric(model: GyroModel, family: DyadicFamily,
                    partition: CosetPartition) -> list[list[Fraction]]:
    """The k x k matrix of varrho(pi(x), pi(y)) = d(-x+y, 0) + d(-y+x, 0)
    over the partition's cosets.

    Requires the partition's H to be the tail of the (admissible) chain
    the family was built from.  Evaluated from every representative
    pair; the first disagreement in row-major order is raised as
    representative dependence.
    """
    return [[Fraction(int(m), family.scale) for m in row]
            for row in _quotient_nums(family, partition)]


def _quotient_nums(family: DyadicFamily, partition: CosetPartition):
    """2^levels varrho between cosets, from one gather of ``_rho``."""
    if family.chain.flavor != "admissible":
        raise ValueError("quotient metrics require an admissible chain")
    if partition.H != family.tail:
        raise ValueError("partition subgroup must equal the chain tail")
    cos = np.asarray(partition.cosets)  # k x |H|
    vals = family._rho[cos[:, :, None, None], cos]  # (ci, x, cj, y)
    lo = vals.min(axis=(1, 3))
    hit = first_hit(lo != vals.max(axis=(1, 3)))
    if hit:
        i, j = hit
        found = sorted(str(Fraction(int(m), family.scale))
                       for m in np.unique(vals[i, :, j]))
        raise ValueError(
            f"representative-dependent quotient distance between cosets "
            f"{i} and {j}: values {found}")
    return lo


def prenorm_laws_check(model: GyroModel, family: DyadicFamily,
                       spec: SampleSpec = SampleSpec(1000)) -> list[CheckResult]:
    """Verify the prenorm laws and the sandwich property for a family.

    Exhaustive on finite models.  On radial chains the laws are exact
    consequences of the one-dimensional arithmetic except within float
    distance of a ball boundary; sampled points falling there are
    counted for the verdict anyway (seeded runs are reproducible).
    """
    out = [family.monotone_check()]
    if model.is_finite:
        # exact comparisons on the numerators 2^levels N(x)
        n, T, num, N = model.n, model.table, family._num, family.prenorm
        ok = bool(num[0] == 0)
        out.append(CheckResult("prenorm-zero", ok, 1, 0.0 if ok else 1.0))
        hit = first_hit(num[model.inverses] != num)
        out.append(CheckResult.exact("prenorm-symmetry", n,
                                     hit and {"elements": hit}))
        hit = first_hit(num[T] > num[:, None] + num)
        if hit:
            x, y = hit
            hit = {"elements": hit, "n_xy": str(N(T[x, y])),
                   "bound": str(N(x) + N(y))}
        out.append(CheckResult.exact("prenorm-subadditivity", n * n, hit))
        hit = model.invariance_witness(num)
        out.append(CheckResult.exact("prenorm-gyr-invariance", n ** 3,
                                     hit and {"elements": hit}))
        k = np.arange(family.depth + 1)
        U = np.array([family.chain.set_at(i).members() for i in k])
        # the numerators of 1/2^k: 0 past ``levels``, where U_k is the tail
        # and its members' numerators are 0, so no level there can hit
        lo = (family.scale >> k)[:, None]
        low = (num < lo) & ~U
        hit = first_hit(low | (U & (num > 2 * lo)))
        if hit:
            hit = {"index": hit[0], "elements": hit[1:],
                   "side": "lower" if low[tuple(hit)] else "upper"}
        out.append(CheckResult.exact("prenorm-sandwich", k.size * n, hit))
        return out

    rng = np.random.default_rng(spec.seed)
    xs = model.sample(rng, spec.count)
    ys = model.sample(rng, spec.count)
    nx = family.prenorm_batch(xs)

    ok = family.prenorm(model.zero) == 0.0
    out.append(CheckResult("prenorm-zero", ok, 1, 0.0 if ok else 1.0))

    out.append(_verdict(model, "prenorm-symmetry",
                        np.abs(family.prenorm_batch(model.inv(xs)) - nx),
                        [xs], tol=0.0))
    ny = family.prenorm_batch(ys)
    nxy = family.prenorm_batch(model.op(xs, ys))
    out.append(_verdict(model, "prenorm-subadditivity",
                        np.maximum(nxy - (nx + ny), 0.0), [xs, ys], tol=0.0))
    zs = model.sample(rng, spec.count)
    out.append(_verdict(model, "prenorm-gyr-invariance",
                        np.abs(family.prenorm_batch(model.gyr(xs, ys, zs))
                               - family.prenorm_batch(zs)),
                        [xs, ys, zs], tol=0.0))

    bad = None
    norms = model.norm(xs)
    for k in range(family.depth + 1):
        rk = family.chain.set_at(k).radius
        lo, hi = 1.0 / 2 ** k, 2.0 / 2 ** k
        hit = first_hit((nx < lo) & (norms >= rk) | (norms < rk) & (nx > hi))
        if hit:
            i = hit[0]
            bad = {"index": k, "elements": [model.to_payload(xs[i])],
                   "n": float(nx[i]), "norm": float(norms[i])}
            break
    out.append(CheckResult("prenorm-sandwich", bad is None,
                           (family.depth + 1) * xs.shape[0],
                           0.0 if bad is None else 1.0, bad))
    return out


# ------------------------------------------------------- shrink machinery

def _invariant_restriction(model: GyroModel, U: FiniteSet) -> FiniteSet:
    """Largest symmetric gyration-invariant subset of U (union of units)."""
    lab = model.orbit_labels
    return FiniteSet.of(~np.isin(lab, lab[~U.members()]))


def _greedy_shrink(model: GyroModel, start: FiniteSet, target: FiniteSet,
                   triple: bool) -> FiniteSet:
    """Largest-by-greedy V <= start with V+V <= target (or V+(V+V) <= target).

    From the units inside ``start`` (``orbit_labels``, exact on a validated
    table), the largest element of a bad pair (triple) goes with its unit
    until the law holds.  With S = V+V, a is in a bad triple iff a + s
    leaves the target for an s in S, and b, c iff some a sends b + c out;
    b, c make a bad pair iff b + c leaves it.  0 is never removed.
    """
    T, lab, ok = model.table, model.orbit_labels, target.members()
    V = _invariant_restriction(model, start).members().copy()
    while True:
        v = np.flatnonzero(V)
        first, bad = False, ~ok
        if triple:
            out = ~ok[T[v]]  # out[a, s]: a + s leaves the target
            first = (out & oplus_rows(model, FiniteSet.of(V), V)).any(axis=1)
            bad = out.any(axis=0)
        pairs = bad[T[np.ix_(v, v)]]
        hit = v[first | pairs.any(axis=1) | pairs.any(axis=0)]
        if not hit.size:
            return FiniteSet.of(V)
        V &= lab != lab[hit[-1]]


def shrink(model: GyroModel, U):
    """A symmetric gyration-invariant V containing 0 with V + V <= U.

    Finite models: the greedy-largest such subset of U.  Radial models:
    the exact half-radius ball solving radial_add(r, r) = radius(U).
    """
    if model.is_finite:
        if 0 not in U:
            raise ValueError("U must contain the identity")
        return _greedy_shrink(model, U, U, triple=False)
    if not isinstance(U, RadialBall):
        raise ValueError("continuous shrinking supports radial balls only")
    return RadialBall(radial_half(U.radius, model.c))


def admissible_hull(model: GyroModel, U, depth: int = 10):
    """An admissible chain inside U and its tail L-subgyrogroup H.

    Finite models descend strictly: each step takes the greedy-largest
    symmetric gyration-invariant V with V+(V+V) inside the previous
    set, force-dropping the largest remaining unit when the previous
    set was already closed, until reaching {0}.  Radial models take
    exact third-radii r_{n+1} = tanh(artanh(r_n)/3).  H = {0} always
    succeeds; the chain is padded with its tail out to ``depth``.
    """
    if model.is_finite:
        if 0 not in U:
            raise ValueError("U must contain the identity")
        lab = model.orbit_labels
        sets = [_invariant_restriction(model, U)]
        while len(sets[-1]) > 1:
            cur = sets[-1]
            V = _greedy_shrink(model, cur, cur, triple=True)
            if V == cur:
                worst = cur.index_array()[-1]  # cur holds 0 and more
                V = FiniteSet.of(cur.members() & (lab != lab[worst]))
            sets.append(V)
        while len(sets) < depth + 1:
            sets.append(sets[-1])
        return DyadicChain(sets, "admissible"), sets[-1]
    if not isinstance(U, RadialBall):
        raise ValueError("continuous hulls support radial balls only")
    radii = [U.radius]
    for _ in range(depth):
        radii.append(radial_third(radii[-1], model.c))
    return DyadicChain([RadialBall(t) for t in radii], "admissible"), OriginSet()


def admissible_intersection(model: GyroModel, chains: list[DyadicChain]):
    """The diagonal chain V_n = intersection of U_{i,n} over i <= n.

    Admissible whenever the inputs are; its tail is the intersection of
    the input tails.  Finitely many chains truncate the diagonal at the
    last chain index.
    """
    if not chains:
        raise ChainError("need at least one chain")
    if any(c.flavor != "admissible" for c in chains):
        raise ChainError("all chains must be admissible")
    if len({c.kind for c in chains}) > 1:
        raise ChainError("cannot mix finite and radial chains")
    k = len(chains)
    if k == 1:
        return chains[0], chains[0].tail

    if chains[0].kind == "finite":
        length = max(len(c) for c in chains) + k
        sets = []
        for n in range(length):
            cur = chains[0].set_at(n)
            for i in range(1, min(n, k - 1) + 1):
                cur = cur & chains[i].set_at(n)
            sets.append(cur)
        return DyadicChain(sets, "admissible"), sets[-1]

    length = min(len(c) for c in chains)
    if length < k:
        raise ChainError(
            "radial chains must be at least as long as their count "
            "for the diagonal to reach every chain")
    sets = [RadialBall(min(chains[i].sets[n].radius
                           for i in range(min(n, k - 1) + 1)))
            for n in range(length)]
    return DyadicChain(sets, "admissible"), OriginSet()


def admissible_quotient_inclusion_check(model: GyroModel, chain: DyadicChain,
                                        H) -> CheckResult:
    """U_{n+1} + H <= U_{n+1} + U_{n+1} <= U_n for every chain index."""
    if chain.kind == "radial":
        # H = {0} and radial_add(r, 0) = r <= r_n
        ok = all(chain.sets[n + 1].radius <= chain.sets[n].radius
                 for n in range(len(chain) - 1))
        return CheckResult("quotient-inclusion", ok, len(chain) - 1,
                           0.0 if ok else 1.0)
    H = _as_finite_set(model, H).members()
    for n in range(len(chain) - 1):
        small, big = chain.sets[n + 1], chain.sets[n]
        left, mid = oplus_rows(model, small, np.stack([H, small.members()]))
        left_ok = not np.any(left & ~mid)
        mid_ok = not np.any(mid & ~big.members())
        if not (left_ok and mid_ok):
            return CheckResult(
                "quotient-inclusion", False, len(chain) - 1, 1.0,
                {"index": n, "left<=mid": left_ok, "mid<=right": mid_ok})
    return CheckResult("quotient-inclusion", True, len(chain) - 1, 0.0)


# Boundary probes per pair of a continuous micro-associativity check
DIRECTIONS = 256


def _directions(model: GyroModel, count: int) -> np.ndarray:
    """Deterministic unit directions: roots of unity or a Fibonacci sphere."""
    if np.iscomplexobj(np.asarray(model.zero)):
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.exp(1j * ang)
    dim = model.zero.shape[0]
    if dim == 2:
        ang = 2.0 * math.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    i = np.arange(count) + 0.5
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    cz = 1.0 - 2.0 * i / count
    sz = np.sqrt(1.0 - cz * cz)
    return np.stack([sz * np.cos(phi), sz * np.sin(phi), cz], axis=-1)


def micro_assoc_check(model: GyroModel, W, V,
                      spec: SampleSpec = SampleSpec(100)) -> CheckResult:
    """Set equality a + (b + V) = (a + b) + V for a, b ranging over W.

    Exact set comparison on finite models.  On ball models V and W are
    radial; equality is certified by pulling boundary probes of each
    side back through the other and measuring the worst norm defect
    over ``DIRECTIONS`` deterministic directions (a sampled Hausdorff
    bound).
    """
    if model.is_finite:
        if not (W <= V):
            raise ValueError("W must be contained in V")
        # a + (b + V) = (a + b) + gyr[a, b](V), and left translations are
        # bijections: the sides agree exactly when gyr[a, b] keeps V
        w = W.index_array()
        hit = model.leaving_pair(V.members(), w, w)
        if hit:
            (a, b), T, v = hit, model.table, V.index_array()
            hit = {"elements": [a, b], "difference":
                   np.setxor1d(T[a, T[b, v]], T[T[a, b], v]).tolist()}
        return CheckResult.exact("micro-associativity", len(W) ** 2, hit)

    if not (isinstance(W, RadialBall) and isinstance(V, RadialBall)):
        raise ValueError("continuous micro-associativity supports radial "
                         "balls only")
    if W.radius > V.radius:
        raise ValueError("W must be contained in V")
    rng = np.random.default_rng(spec.seed)
    azs = W.sample(model, rng, spec.count)
    bzs = W.sample(model, rng, spec.count)
    probes = V.radius * _directions(model, DIRECTIONS)
    # per pair, the worst defect over all probes; pairs go in batches of
    # about ROWS (pair, direction) rows, broadcast as (pairs, 1) x (directions);
    # the batches run on threads, and their verdicts are merged
    step = ROWS // DIRECTIONS

    def batch(lo):
        a, b = azs[lo:lo + step, None], bzs[lo:lo + step, None]
        ab = model.op(a, b)
        # forward probes: a + (b + z) must land on the boundary of (a+b) + V
        p = model.op(a, model.op(b, probes))
        back = model.norm(model.op(model.inv(ab), p))
        # reverse probes: (a + b) + z pulled back through a, b
        q = model.op(ab, probes)
        back2 = model.norm(model.op(model.inv(b), model.op(model.inv(a), q)))
        defect = np.maximum(np.abs(back - V.radius).max(axis=1),
                            np.abs(back2 - V.radius).max(axis=1))
        # the tolerance is the strict defect < 1e-6: for a float64 defect,
        # <= the next double below 1e-6 is the same test
        return [_verdict(model, "micro-associativity", defect,
                         [a[:, 0], b[:, 0]], tol=np.nextafter(1e-6, 0))]
    [out] = _merged(_mapped(batch, range(0, max(spec.count, 1), step))).results
    out.samples = spec.count * DIRECTIONS
    return out
