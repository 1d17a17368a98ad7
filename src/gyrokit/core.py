"""Gyrogroup model interface and the axiom/identity verification engine.

A gyrogroup is a magma (G, +) with a two-sided identity, two-sided
inverses, and for every pair a, b an automorphism gyr[a, b] of (G, +)
(the gyration) such that

    a + (b + z) = (a + b) + gyr[a, b](z)        (gyroassociativity)
    gyr[a + b, b] = gyr[a, b]                   (loop property)

Groups are exactly the gyrogroups with all gyrations trivial.  The
gyration is recovered from the operation through

    gyr[a, b](z) = -(a + b) + (a + (b + z))

which every model here exposes as ``gyr_formula``.  Models with a known
closed form (e.g. the Moebius disk) override ``gyr``, and finite tables
read it from a gyration tensor computed once by the same formula; the
formula remains the oracle and the two are compared by
``check_identities``.

Verification is sample-based: finite models are always checked
exhaustively, continuous models with a seeded pseudorandom sampler plus
deterministic boundary-stress points.  Failures are report entries with
a replayable witness, never exceptions.

Sweeps run in consecutive blocks of ``CHUNK`` rows after one full draw
(finite cubes are generated block by block), and each check's verdicts
are merged so that the report equals that of one pass over all rows.
Memory is bounded by the draw plus the temporaries of one block.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = [
    "CarrierError",
    "TableError",
    "ChainError",
    "CosetError",
    "GyroModel",
    "SampleSpec",
    "CheckResult",
    "AxiomReport",
    "check_axioms",
    "check_identities",
]

# Rows per sweep block.  2^16 keeps every table of order <= 50 and every
# continuous sweep below 2^17 rows in one block: 2^14 slowed the load of
# order-32 and -48 tables, and 2^17 or more slowed continuous sweeps.
CHUNK = 2 ** 16


class CarrierError(ValueError):
    """An element lies outside the model's carrier."""


class TableError(ValueError):
    """A Cayley-table file is malformed or fails the gyrogroup axioms."""


class ChainError(ValueError):
    """A dyadic chain violates symmetry, gyr-invariance, or containment."""


class CosetError(ValueError):
    """A coset operation was attempted with an invalid subgyrogroup."""


class GyroModel(ABC):
    """Abstract carrier with a gyrogroup operation.

    Concrete models work on numpy-backed batches: an "element" is an
    index (finite models), a complex scalar (disk models), or a float
    vector (ball models), and every operation broadcasts over leading
    axes.  ``eps`` is the componentwise absolute equality tolerance;
    finite models use ``eps = 0`` and exact index equality.
    """

    name: str = "gyromodel"
    eps: float = 0.0
    is_finite: bool = False

    @property
    @abstractmethod
    def zero(self):
        """The identity element."""

    @abstractmethod
    def op(self, a, b):
        """The gyrogroup operation a + b."""

    @abstractmethod
    def inv(self, a):
        """The inverse -a."""

    @abstractmethod
    def residual(self, a, b):
        """Componentwise absolute deviation between a and b (batched)."""

    @abstractmethod
    def contains(self, a) -> bool:
        """Whether a lies in the carrier."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size: int):
        """Draw ``size`` carrier elements."""

    def gyr(self, a, b, z):
        """The gyration gyr[a, b](z); overridable by a closed form."""
        return self.gyr_formula(a, b, z)

    def gyr_formula(self, a, b, z):
        """gyr[a, b](z) = -(a + b) + (a + (b + z)), the defining formula."""
        ab = self.op(a, b)
        return self.op(self.inv(ab), self.op(a, self.op(b, z)))

    def equal(self, a, b):
        return self.residual(a, b) <= self.eps

    def validate(self, a):
        """Raise ``CarrierError`` if a is outside the carrier."""
        if not self.contains(a):
            raise CarrierError(f"element {a!r} outside carrier of {self.name}")
        return a

    def stress_elements(self) -> list:
        """Deterministic hard-case elements mixed into every sample sweep."""
        return [self.zero]

    def elements(self):
        """All elements (finite models only)."""
        return None

    def to_payload(self, a) -> Any:
        """JSON-friendly form of one element, for witnesses."""
        return a


@dataclass(frozen=True)
class SampleSpec:
    """Sampling contract for verification sweeps.

    Finite models ignore ``count`` and ``seed`` and are checked
    exhaustively; continuous models draw ``count`` seeded triples and
    prepend the model's deterministic stress elements.
    """

    count: int = 10_000
    seed: int = 0


@dataclass
class CheckResult:
    """Verdict of one verification sweep."""

    name: str
    passed: bool
    samples: int
    max_residual: float
    witness: dict | None = None

    @classmethod
    def exact(cls, name: str, samples: int, witness: dict | None = None):
        """An exact verdict: a pass at residual 0 unless there is a witness."""
        return cls(name, witness is None, samples,
                   0.0 if witness is None else 1.0, witness)

    def record(self) -> dict:
        """The report record; ``witnesses`` only when there is a witness."""
        rec = {"check": self.name,
               "verdict": "pass" if self.passed else "fail",
               "samples": self.samples,
               "residual": float(self.max_residual)}
        if self.witness:
            rec["witnesses"] = [self.witness]
        return rec


@dataclass
class AxiomReport:
    """Collected verdicts of a sweep or a chain validation.

    ``failing_index`` is the first chain index whose containment law
    fails (chain validations only)."""

    results: list[CheckResult] = field(default_factory=list)
    failing_index: int | None = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def max_residual(self) -> float:
        return max((r.max_residual for r in self.results), default=0.0)

    def result(self, name: str) -> CheckResult:
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def to_json_lines(self) -> list[str]:
        return [json.dumps(r.record(), sort_keys=True)
                for r in sorted(self.results, key=lambda r: r.name)]


def _triples(model: GyroModel, spec: SampleSpec):
    """Element triples (X, Y, Z) of a continuous sweep.

    Independent seeded draws, with the stress elements rotated through
    the three slots so every stress point meets every role.
    """
    rng = np.random.default_rng(spec.seed)
    stress = model.stress_elements()
    # one slot at a time, so that no raw draw outlives its slot's copy
    return tuple(np.concatenate([np.stack(stress[k:] + stress[:k]),
                                 model.sample(rng, spec.count)])
                 for k in range(3))


def _blocks(model: GyroModel, spec: SampleSpec):
    """A sweep's triples in consecutive blocks of ``CHUNK`` rows: slices of
    one ``_triples`` draw, or ranges of the row-major finite index cube.
    The remainder joins the last block, so no block is shorter."""
    if model.is_finite:
        n = len(model.elements())
        rows, n2 = n ** 3, n * n
    else:
        draw = _triples(model, spec)
        rows = len(draw[0])
    cuts = [k * CHUNK for k in range(max(rows // CHUNK, 1))] + [rows]
    for lo, hi in zip(cuts, cuts[1:]):
        if model.is_finite:
            # rows lo..hi-1 of the cube, cut from the slab of first indices
            # they span: contiguous, unlike np.unravel_index's, and faster
            a0 = lo // n2
            idx = np.indices((-(-hi // n2) - a0, n, n)).reshape(3, -1)
            idx = idx[:, lo - a0 * n2:hi - a0 * n2]
            idx[0] += a0
            yield tuple(idx)
        else:
            yield tuple(t[lo:hi] for t in draw)


def _swept(model: GyroModel, spec: SampleSpec, checks) -> AxiomReport:
    """Run ``checks(model, x, y, z)`` on every block and merge per check.

    A check keeps the witness of the first block with the largest maximum
    (NaN first), the row one argmax over all rows picks; its verdict is
    that maximum against ``eps``, and its samples are summed."""
    parts = [checks(model, *xyz) for xyz in _blocks(model, spec)]
    worst = np.argmax([[r.max_residual for r in p] for p in parts], axis=0)
    report = AxiomReport()
    for i, b in enumerate(worst):
        r = parts[b][i]
        report.results.append(CheckResult(
            r.name, bool(r.max_residual <= model.eps),
            sum(p[i].samples for p in parts), r.max_residual, r.witness))
    return report


def _sweep(model: GyroModel, name: str, lhs, rhs, elems: Sequence) -> CheckResult:
    """Compare two batched evaluations; extract the worst witness."""
    return _verdict(model, name, model.residual(lhs, rhs), elems)


def _verdict(model: GyroModel, name: str, res, elems: Sequence,
             tol: float | None = None) -> CheckResult:
    """The largest of the batched residuals ``res`` against ``tol``
    (default ``eps``), with the elements of its first row as the witness
    of a failure.  An empty batch passes at residual 0."""
    res = np.atleast_1d(np.asarray(res, dtype=float))
    if not res.size:
        return CheckResult(name, True, 0, 0.0)
    worst = int(np.argmax(res))
    max_res = float(res[worst])
    passed = bool(max_res <= (model.eps if tol is None else tol))
    witness = None
    if not passed:
        witness = {
            "elements": [model.to_payload(_pick(e, worst)) for e in elems],
            "residual": max_res,
        }
    return CheckResult(name, passed, res.size, max_res, witness)


def first_hit(mask) -> list[int] | None:
    """The row-major index of the first True in ``mask`` as ints, or None."""
    i = int(np.argmax(mask)) if mask.size else 0
    if mask.size and mask.flat[i]:
        return [int(k) for k in np.unravel_index(i, mask.shape)]
    return None


def _pick(batch, i):
    arr = np.asarray(batch)
    if arr.ndim == 0:
        return batch
    return arr[i]


def check_axioms(model: GyroModel, spec: SampleSpec = SampleSpec()) -> AxiomReport:
    """Verify the gyrogroup axioms on sampled (exhaustive if finite) triples.

    Covers the two-sided identity, two-sided inverses,
    gyroassociativity, the loop property, and that gyrations are
    automorphisms (additivity).  Finite models additionally get exact
    gyration bijectivity and the left-division consistency of the
    gyration formula; ball models get the gyration-isometry check that
    makes norm balls a gyration-invariant neighborhood base.
    """
    report = _swept(model, spec, _axiom_checks)
    if model.is_finite:
        report.results.extend(_finite_extras(model))
    return report


def _axiom_checks(model: GyroModel, x, y, z) -> list[CheckResult]:
    """The sampled axiom checks of ``check_axioms`` on one block."""
    out = []
    add = out.append

    zero = model.zero
    add(_sweep(model, "axiom-identity-left", model.op(zero, x), x, [x]))
    add(_sweep(model, "axiom-identity-right", model.op(x, zero), x, [x]))

    ix = model.inv(x)
    zb = np.broadcast_to(np.asarray(zero), np.asarray(x).shape).copy() \
        if not model.is_finite else np.zeros_like(x)
    add(_sweep(model, "axiom-inverse-left", model.op(ix, x), zb, [x]))
    add(_sweep(model, "axiom-inverse-right", model.op(x, ix), zb, [x]))

    gy = model.gyr(x, y, z)
    add(_sweep(model, "axiom-gyroassociativity",
               model.op(x, model.op(y, z)),
               model.op(model.op(x, y), gy), [x, y, z]))
    add(_sweep(model, "axiom-loop-property",
               model.gyr(model.op(x, y), y, z), gy, [x, y, z]))
    add(_sweep(model, "gyration-additivity",
               model.gyr(x, y, model.op(z, x)),
               model.op(gy, model.gyr(x, y, x)), [x, y, z]))

    norm = getattr(model, "norm", None)
    if not model.is_finite and norm is not None:
        add(_verdict(model, "gyration-isometry", np.abs(norm(gy) - norm(z)),
                     [x, y, z]))
    return out


def _finite_extras(model: GyroModel) -> list[CheckResult]:
    """Exact finite-only checks: gyration bijectivity and left-division.

    ``gyration-left-division`` solves (a+b) + w = a + (b+z) for w with
    the first-occurrence inverse of each Cayley row and compares against
    the gyration formula; the two agree exactly when gyroassociativity
    holds with a unique solution.
    """
    n, T, G = model.n, model.table, model.G
    ab = first_hit(np.sort(G, axis=2) != np.arange(n))
    # left[r, v]: the least w with r + w = v, n when there is none
    left = np.full((n, n), n)
    np.minimum.at(left, (np.arange(n)[:, None], T), np.arange(n))
    abz = first_hit(left[T[:, :, None], T[:, T]] != G)
    return [CheckResult.exact("gyration-bijectivity", n * n,
                              ab and {"elements": ab[:2], "residual": 1.0}),
            CheckResult.exact("gyration-left-division", n ** 3,
                              abz and {"elements": abz, "residual": 1.0})]


def check_identities(model: GyroModel, spec: SampleSpec = SampleSpec()) -> AxiomReport:
    """Verify the classical gyrogroup identities on sampled triples.

    * left cancellation              (-x) + (x + y) = y
    * right cancellation, gyr form   (x + (-y)) + gyr[x, -y](y) = x
    * right cancellation, co-form    (x + gyr[x, y](-y)) + y = x
    * gyration formula               gyr agrees with -(x+y) + (x+(y+z))
    * gyrotranslation                (-x+y) + gyr[-x, y](-y+z) = -x+z
    * gyrosum inversion              -(x+y) = gyr[x, y]((-y) + (-x))
    """
    return _swept(model, spec, _identity_checks)


def _identity_checks(model: GyroModel, x, y, z) -> list[CheckResult]:
    """The identity checks of ``check_identities`` on one block."""
    out = []
    add = out.append

    ix, iy = model.inv(x), model.inv(y)
    add(_sweep(model, "identity-left-cancellation",
               model.op(ix, model.op(x, y)), y, [x, y]))
    add(_sweep(model, "identity-right-cancellation",
               model.op(model.op(x, iy), model.gyr(x, iy, y)), x, [x, y]))
    add(_sweep(model, "identity-right-cancellation-co",
               model.op(model.op(x, model.gyr(x, y, iy)), y), x, [x, y]))
    add(_sweep(model, "identity-gyration-formula",
               model.gyr(x, y, z), model.gyr_formula(x, y, z), [x, y, z]))
    add(_sweep(model, "identity-gyrotranslation",
               model.op(model.op(ix, y), model.gyr(ix, y, model.op(iy, z))),
               model.op(ix, z), [x, y, z]))
    add(_sweep(model, "identity-gyrosum-inversion",
               model.inv(model.op(x, y)),
               model.gyr(x, y, model.op(iy, ix)), [x, y]))
    return out
