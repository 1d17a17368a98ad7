"""Dyadic neighborhood chains, the induced prenorm, and its metrics.

From a chain U_0 >= U_1 >= ... of symmetric, gyration-invariant sets
containing 0 with U_{n+1} (+) U_{n+1} <= U_n (weak flavor; the
admissible flavor strengthens this to U_{n+1} (+) (U_{n+1} (+) U_{n+1})
<= U_n), a family of sets indexed by dyadic rationals is built:

    V(1) = U_0,   V(1/2^n) = U_n,   V(2m/2^n) = V(m/2^(n-1)),
    V((2m+1)/2^n) = U_n (+) V(m/2^(n-1)),   V(m/2^n) = G for m > 2^n.

The prenorm is the Birkhoff-Kakutani infimum N(x) = inf{r : x in V(r)},
capped at 1 for points in no proper V.  It yields

    rho_N(x, y)  = N(-x + y) + N(-y + x)       (a metric when the
                                                chain tail is {0})
    d(x, y)      = |N(x) - N(y)|               (a pseudometric)
    varrho(pi(x), pi(y)) = d(-x+y, 0) + d(-y+x, 0)
                                               (a metric on the coset
                                                space G/H for the tail
                                                H of an admissible
                                                chain)

Finite chains are eventually constant: the last listed set repeats
forever and is the tail H.  Evaluation then closes the family under the
tail -- a membership x in H (+) V(r) certifies N(x) <= r, because a
level-d bit of the index with d past stabilization contributes exactly
an H factor, and iterated H factors collapse through gyration
invariance.  This makes the computed N the exact infimum of the
infinite construction (exact dyadic rationals), provided the build
depth reaches the chain's stabilization index.

Continuous chains are radial: every set is a norm ball and the whole
construction collapses to exact one-dimensional arithmetic on radii.

The prenorm laws (zero, symmetry, subadditivity, gyration invariance)
hold for the infimum only when the chain sets interact well with the
tail; they are therefore verified per chain by ``prenorm_laws_check``
rather than assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO

import numpy as np

from .core import (CHUNK, AxiomReport, ChainError, CheckResult, GyroModel,
                   SampleSpec, _verdict, first_hit)
from .cosets import CosetPartition
from .models import radial_third
from .sets import FiniteSet, OriginSet, RadialBall, member_masks

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

ONE = Fraction(1)


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
    if isinstance(source, dict):
        doc = source
    else:
        text = source.read() if hasattr(source, "read") else source
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ChainError(f"invalid JSON: {e}") from None
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
        bound = getattr(model, "c", 1.0)
        try:
            radii = [float(r) for r in doc["radii"]]
        except (TypeError, ValueError):
            raise ChainError("'radii' must be a list of numbers") from None
        if any(not 0 < r < bound for r in radii):
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
        for n in range(len(chain.sets) - 1):
            small, big = chain.sets[n + 1], chain.sets[n]
            prod = small.oplus(model, small)
            if chain.flavor == "admissible":
                prod = small.oplus(model, prod)
            ok = prod <= big
            if not ok and report.failing_index is None:
                report.failing_index = n
            escaped = sorted(set(prod.indices()) - set(big.indices()))
            add(CheckResult.exact(f"chain-containment[{n}]", len(prod), None
                                  if ok else {"index": n, "escaped": escaped}))
        tail = chain.sets[-1]
        prod = tail.oplus(model, tail)
        ok = prod <= tail
        if not ok and report.failing_index is None:
            report.failing_index = len(chain.sets) - 1
        escaped = sorted(set(prod.indices()) - set(tail.indices()))
        add(CheckResult.exact("chain-tail-closed", len(prod),
                              None if ok else {"escaped": escaped}))
        return report

    radii = [s.radius for s in chain.sets]
    bound = getattr(model, "c", 1.0)
    for n, r in enumerate(radii):
        add(CheckResult.exact(f"chain-radius[{n}]", 1, None if 0.0 < r < bound
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
    """The dyadic family V(m/2^n) built from a validated chain.

    ``entries`` maps reduced dyadic rationals in (0, 1] to sets.  For
    finite models the evaluation grid carries exact ``Fraction`` values
    (0 on the tail); for radial chains evaluation is a step function of
    the norm over exactly-computed ball radii.
    """

    def __init__(self, model: GyroModel, chain: DyadicChain, depth: int,
                 report: AxiomReport | None = None):
        self.model = model
        self.chain = chain
        self.depth = depth
        self.report = report  # the chain's passing validation report
        self.entries: dict[Fraction, object] = {}

        self.entries[ONE] = chain.set_at(0)
        for n in range(1, depth + 1):
            self.entries[Fraction(1, 2 ** n)] = chain.set_at(n)
            u_n = chain.set_at(n)
            for m in range(1, 2 ** (n - 1)):
                key = Fraction(2 * m + 1, 2 ** n)
                self.entries[key] = u_n.oplus(
                    model, self.entries[Fraction(m, 2 ** (n - 1))])
        self.sorted_entries = sorted(self.entries.items())

        if chain.kind == "finite":
            tail = chain.tail
            self.tail = tail
            # _num[x] = 2^depth N(x), in a dtype that holds sums of two
            scale = 2 ** depth
            proper = [(r, S) for r, S in self.sorted_entries if r < ONE]
            hits = np.array([tail.oplus(model, S).members() for _, S in proper],
                            dtype=bool).reshape(-1, model.n)
            nums = np.array([int(r * scale) for r, _ in proper] + [scale],
                            dtype=np.min_scalar_type(2 * scale))
            first = np.where(hits.any(axis=0), hits.argmax(axis=0), len(proper))
            self._num = np.where(tail.members(), 0, nums[first]).astype(nums.dtype)
            self._grid = [Fraction(int(m), scale) for m in self._num]
        else:
            self.tail = OriginSet()
            self._values = np.array([float(r) for r, _ in self.sorted_entries])
            self._radii = np.array([s.radius for _, s in self.sorted_entries])
            self._eval_monotone = bool(np.all(np.diff(self._radii) >= 0))

    def value_grid(self) -> list[Fraction]:
        """Exact N per element (finite models)."""
        if self.chain.kind != "finite":
            raise ChainError("value grids exist for finite models only")
        return list(self._grid)

    def prenorm(self, x):
        """N(x): exact Fraction (finite) or float (radial)."""
        if self.chain.kind == "finite":
            return self._grid[int(x)]
        return self.prenorm_batch(x)

    def prenorm_batch(self, xs):
        """Vectorized N over a batch (radial chains)."""
        if self.chain.kind == "finite":
            return (self._num / 2 ** self.depth)[np.asarray(xs, dtype=np.int64)]
        r = np.atleast_1d(np.asarray(self.model.norm(xs), dtype=float))
        if self._eval_monotone:
            idx = np.searchsorted(self._radii, r, side="right")
            out = np.where(idx < self._values.size,
                           self._values[np.minimum(idx, self._values.size - 1)],
                           1.0)
        else:
            inside = r[:, None] < self._radii[None, :]
            masked = np.where(inside, self._values[None, :], np.inf)
            out = np.min(masked, axis=1)
            out = np.where(np.isfinite(out), out, 1.0)
        out = np.where(r == 0.0, 0.0, out)
        return float(out[0]) if np.asarray(xs).ndim <= 1 and out.size == 1 else out

    def monotone_check(self) -> CheckResult:
        """r <= s implies V(r) <= V(s), a derived property of the family."""
        if self.chain.kind == "finite":
            for (r1, s1), (r2, s2) in zip(self.sorted_entries,
                                          self.sorted_entries[1:]):
                if not s1 <= s2:
                    return CheckResult(
                        "family-monotone", False, len(self.sorted_entries), 1.0,
                        {"r": str(r1), "s": str(r2),
                         "escaped": sorted(set(s1.indices())
                                           - set(s2.indices()))})
            return CheckResult("family-monotone", True,
                               len(self.sorted_entries), 0.0)
        diffs = np.diff(self._radii)
        ok = bool(np.all(diffs >= 0))
        worst = float(-diffs.min()) if diffs.size else 0.0
        return CheckResult("family-monotone", ok, len(self.sorted_entries),
                           max(0.0, worst),
                           None if ok else {"radii": self._radii.tolist()})


def build_dyadic_family(model: GyroModel, chain: DyadicChain,
                        depth: int = 10,
                        spec: SampleSpec = SampleSpec(1000)) -> DyadicFamily:
    """Validate the chain (weak law suffices) and build V(m/2^n) to depth.

    An invalid chain raises ``ChainError`` with the failing validation
    report as ``report``; the family keeps the passing one."""
    report = validate_chain(model, chain, spec)
    if not report.passed:
        bad = report.failures()[0]
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
    n = family.model.n
    return FiniteSet(n, indices=[i for i in range(n)
                                 if metric_d(family, i, x) < eps])


def rho_ball(family: DyadicFamily, x, eps) -> FiniteSet:
    """{x' : rho_N(x', x) < eps} in a finite model.

    This is exactly the fiber of the quotient ball: rho_N(x', x) equals
    varrho(pi(x'), pi(x)) by definition, so pi^-1(B*(pi(x), eps)) is the
    rho_N-ball.  The d-ball merely contains it (|N(x') - N(x)| never
    exceeds either one-sided term, by subadditivity).
    """
    if family.chain.kind != "finite":
        raise ChainError("explicit balls exist for finite models only")
    n = family.model.n
    return FiniteSet(n, indices=[i for i in range(n)
                                 if rho_N(family, i, x) < eps])


def quotient_ball(family: DyadicFamily, partition: CosetPartition,
                  coset: int, eps) -> list[int]:
    """{coset' : varrho(coset', coset) < eps} in the coset space."""
    return [j for j in range(len(partition.cosets))
            if quotient_metric(family.model, family, partition, coset, j) < eps]


def coset_invariant_N_check(model: GyroModel, family: DyadicFamily,
                            H) -> CheckResult:
    """N(x + h) = N(x) for all x and h in the chain tail H."""
    if model.is_finite:
        if not isinstance(H, FiniteSet):
            H = FiniteSet(model.n, indices=H)
        if H != family.tail:
            raise ValueError("H must be the tail of the family's chain")
        idx, num, N = H.index_array(), family._num, family._grid
        hit = first_hit(num[model.table[:, idx]] != num[:, None])
        if hit:
            x, h = hit[0], int(idx[hit[1]])
            hit = {"elements": [x, h], "n_xh": str(N[model.table[x, h]]),
                   "n_x": str(N[x])}
        return CheckResult.exact("coset-invariance", model.n * len(H), hit)
    # radial tails are {0}: N(x + 0) = N(x) holds identically
    xs = model.sample(np.random.default_rng(0), 256)
    return _verdict(model, "coset-invariance",
                    np.abs(family.prenorm_batch(model.op(xs, model.zero))
                           - family.prenorm_batch(xs)), [xs], tol=0.0)


def quotient_metric(model: GyroModel, family: DyadicFamily,
                    partition: CosetPartition, ci: int, cj: int):
    """varrho(pi(x), pi(y)) = d(-x+y, 0) + d(-y+x, 0) on the coset space.

    Requires the partition's H to be the tail of the (admissible) chain
    the family was built from.  Evaluated from every representative
    pair; any disagreement is raised as representative dependence.
    """
    if family.chain.flavor != "admissible":
        raise ValueError("quotient metrics require an admissible chain")
    if partition.H != family.tail:
        raise ValueError("partition subgroup must equal the chain tail")
    X, Y = (np.asarray(partition.cosets[c]) for c in (ci, cj))
    T, inv, num = model.table, model.inverses, family._num
    vals = [Fraction(int(m), 2 ** family.depth) for m in np.unique(
        num[T[inv[X][:, None], Y]] + num[T[inv[Y], X[:, None]]])]
    if len(vals) != 1:
        raise ValueError(
            f"representative-dependent quotient distance between cosets "
            f"{ci} and {cj}: values {sorted(map(str, vals))}")
    return vals[0]


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
        # exact comparisons on the numerators 2^depth N(x)
        n, T, num, N = model.n, model.table, family._num, family._grid
        ok = bool(num[0] == 0)
        out.append(CheckResult("prenorm-zero", ok, 1, 0.0 if ok else 1.0))
        hit = first_hit(num[model.inverses] != num)
        out.append(CheckResult.exact("prenorm-symmetry", n,
                                     hit and {"elements": hit}))
        hit = first_hit(num[T] > num[:, None] + num)
        if hit:
            x, y = hit
            hit = {"elements": hit, "n_xy": str(N[T[x, y]]),
                   "bound": str(N[x] + N[y])}
        out.append(CheckResult.exact("prenorm-subadditivity", n * n, hit))
        hit = first_hit(num[model.G] != num)
        out.append(CheckResult.exact("prenorm-gyr-invariance", n ** 3,
                                     hit and {"elements": hit}))
        bad = None
        for k in range(family.depth + 1):
            U = family.chain.set_at(k).members()
            lo = 2 ** (family.depth - k)  # the numerator of 1/2^k
            low = (num < lo) & ~U
            hit = first_hit(low | (U & (num > 2 * lo)))
            if hit:
                bad = {"index": k, "elements": hit,
                       "side": "lower" if low[hit[0]] else "upper"}
                break
        out.append(CheckResult.exact("prenorm-sandwich",
                                     (family.depth + 1) * n, bad))
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

    Offending elements are removed largest index first, together with
    their symmetry/gyration unit, until the law holds.  Deterministic;
    0 is never removed.
    """
    T, lab = model.table, model.orbit_labels
    V = _invariant_restriction(model, start).members()
    in_target = target.members()
    while True:
        idx = np.flatnonzero(V)
        grid = np.meshgrid(*[idx] * (3 if triple else 2), indexing="ij")
        vals = T[grid[0], T[grid[1], grid[2]]] if triple else T[grid[0], grid[1]]
        bad = ~in_target[vals]
        involved = np.concatenate([g[bad] for g in grid])
        if involved.size == 0:
            return FiniteSet.of(V)
        worst = int(np.max(involved[involved != 0]))
        V &= lab != lab[worst]


def shrink(model: GyroModel, U):
    """A symmetric gyration-invariant V containing 0 with V + V <= U.

    Finite models: the greedy-largest such subset of U.  Radial models:
    the exact half-radius ball solving radial_add(r, r) = radius(U).
    """
    if model.is_finite:
        if 0 not in U:
            raise ValueError("U must contain the identity")
        start = _invariant_restriction(model, U)
        return _greedy_shrink(model, start, U, triple=False)
    if not isinstance(U, RadialBall):
        raise ValueError("continuous shrinking supports radial balls only")
    from .models import radial_half
    return RadialBall(radial_half(U.radius, getattr(model, "c", 1.0)))


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
        sets = [_invariant_restriction(model, U)]
        zero = FiniteSet.singleton_zero(model.n)
        while sets[-1] != zero:
            cur = sets[-1]
            V = _greedy_shrink(model, cur, cur, triple=True)
            if V == cur:
                lab = model.orbit_labels
                worst = cur.index_array()[-1]  # cur holds 0 and more
                V = FiniteSet.of(cur.members() & (lab != lab[worst]))
            sets.append(V)
        while len(sets) < depth + 1:
            sets.append(sets[-1])
        chain = DyadicChain(sets, "admissible")
        return chain, sets[-1]
    if not isinstance(U, RadialBall):
        raise ValueError("continuous hulls support radial balls only")
    r = U.radius
    bound = getattr(model, "c", 1.0)
    radii = [r]
    for _ in range(depth):
        radii.append(radial_third(radii[-1], bound))
    chain = DyadicChain([RadialBall(t) for t in radii], "admissible")
    return chain, OriginSet()


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
        chain = DyadicChain(sets, "admissible")
        return chain, sets[-1]

    length = min(len(c) for c in chains)
    if length < k:
        raise ChainError(
            "radial chains must be at least as long as their count "
            "for the diagonal to reach every chain")
    sets = []
    for n in range(length):
        rr = min(chains[i].sets[n].radius for i in range(min(n, k - 1) + 1))
        sets.append(RadialBall(rr))
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
    if not isinstance(H, FiniteSet):
        H = FiniteSet(model.n, indices=H)
    for n in range(len(chain) - 1):
        small, big = chain.sets[n + 1], chain.sets[n]
        left = small.oplus(model, H)
        mid = small.oplus(model, small)
        if not (left <= mid and mid <= big):
            return CheckResult(
                "quotient-inclusion", False, len(chain) - 1, 1.0,
                {"index": n,
                 "left<=mid": bool(left <= mid),
                 "mid<=right": bool(mid <= big)})
    return CheckResult("quotient-inclusion", True, len(chain) - 1, 0.0)


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
                      spec: SampleSpec = SampleSpec(100),
                      directions: int = 256) -> CheckResult:
    """Set equality a + (b + V) = (a + b) + V for a, b ranging over W.

    Exact set comparison on finite models.  On ball models V and W are
    radial; equality is certified by pulling boundary probes of each
    side back through the other and measuring the worst norm defect
    over ``directions`` deterministic directions (a sampled Hausdorff
    bound).
    """
    if model.is_finite:
        if not (W <= V):
            raise ValueError("W must be contained in V")
        T, w, v = model.table, W.index_array(), V.index_array()
        lhs = member_masks(T[w[:, None, None], T[w[:, None], v]], model.n)
        rhs = member_masks(T[T[np.ix_(w, w)][:, :, None], v], model.n)
        hit = first_hit(np.any(lhs != rhs, axis=-1))
        if hit:
            i, j = hit
            hit = {"elements": w[hit].tolist(), "difference":
                   np.flatnonzero(lhs[i, j] ^ rhs[i, j]).tolist()}
        return CheckResult.exact("micro-associativity", len(W) ** 2, hit)

    if not (isinstance(W, RadialBall) and isinstance(V, RadialBall)):
        raise ValueError("continuous micro-associativity supports radial "
                         "balls only")
    if W.radius > V.radius:
        raise ValueError("W must be contained in V")
    rng = np.random.default_rng(spec.seed)
    azs = W.sample(model, rng, spec.count)
    bzs = W.sample(model, rng, spec.count)
    probes = V.radius * _directions(model, directions)
    # per pair, the worst defect over all probes; pairs go in batches of
    # about CHUNK (pair, direction) rows, broadcast as (pairs, 1) x (directions)
    defect = np.empty(spec.count)
    step = max(CHUNK // directions, 1)
    for lo in range(0, spec.count, step):
        a, b = azs[lo:lo + step, None], bzs[lo:lo + step, None]
        ab = model.op(a, b)
        # forward probes: a + (b + z) must land on the boundary of (a+b) + V
        p = model.op(a, model.op(b, probes))
        back = model.norm(model.op(model.inv(ab), p))
        # reverse probes: (a + b) + z pulled back through a, b
        q = model.op(ab, probes)
        back2 = model.norm(model.op(model.inv(b), model.op(model.inv(a), q)))
        defect[lo:lo + step] = np.maximum(np.abs(back - V.radius).max(axis=1),
                                          np.abs(back2 - V.radius).max(axis=1))
    # the first pair attaining the maximum is the witness
    i = int(np.argmax(defect)) if spec.count else None
    worst = 0.0 if i is None else float(defect[i])
    passed = worst < 1e-6
    witness = None if passed else {
        "elements": [model.to_payload(azs[i]), model.to_payload(bzs[i])],
        "residual": worst}
    return CheckResult("micro-associativity", passed,
                       spec.count * directions, worst, witness)
