"""Subgyrogroups, left cosets, and the quotient projection.

A nonempty subset H is a subgyrogroup iff it is closed under inverse
and the operation.  H is an L-subgyrogroup when additionally
gyr[a, h](H) = H for every a in the carrier and h in H; exactly then
the left cosets a + H partition the carrier and the projection
pi(a) = a + H is well defined with fibers pi^-1(pi(a)) = a + H.

Cosets are materialized for finite models only, on validated tables:
the least element of a + H labels the coset of a, and the one exact
test left is (a + h) + H = a + H.  For continuous models the module
offers membership testing ((-a) + b in H within tolerance) and sampled
subgyrogroup verdicts, never explicit cosets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CarrierError, CheckResult, CosetError, GyroModel,
                   SampleSpec, _at, first_hit)
from .models import FiniteTable
from .sets import FiniteSet

__all__ = [
    "is_subgyrogroup",
    "is_L_subgyrogroup",
    "left_cosets",
    "CosetPartition",
    "same_coset",
    "homogeneity_check",
    "homogeneity_translate",
]


def _as_finite_set(model, H) -> FiniteSet:
    return H if isinstance(H, FiniteSet) else FiniteSet(model.n, indices=H)


def is_subgyrogroup(model: GyroModel, H, spec: SampleSpec = SampleSpec(1000)):
    """Closure of H under inverse and the operation; (verdict, witness).

    Exhaustive for finite models.  For continuous models H must expose
    ``sample``/``contains``; closure is attested at sampled pairs.
    """
    if model.is_finite:
        H = _as_finite_set(model, H)
        idx, inH = H.index_array(), H.members()
        if not idx.size:
            raise CosetError("H must be nonempty")
        if not inH[0]:
            return False, {"kind": "missing-identity"}
        prod = model.table[np.ix_(idx, idx)]
        hit = first_hit(~inH[prod])
        if hit:
            return False, {"kind": "closure", "elements": idx[hit].tolist(),
                           "product": int(prod[tuple(hit)])}
        hit = first_hit(~inH[model.inverses[idx]])
        if hit:
            return False, {"kind": "inverse", "elements": idx[hit].tolist()}
        return True, None

    rng = np.random.default_rng(spec.seed)
    xs = H.sample(model, rng, spec.count)
    ys = H.sample(model, rng, spec.count)
    if not H.contains(model, model.zero):
        return False, {"kind": "missing-identity"}
    hit = first_hit(~H.contains_rows(model, model.inv(xs)))
    if hit:
        return False, {"kind": "inverse",
                       "elements": [model.to_payload(xs[hit[0]])]}
    prods = model.op(xs, ys)
    hit = first_hit(~H.contains_rows(model, prods))
    if hit:
        x, y, p = (model.to_payload(t[hit[0]]) for t in (xs, ys, prods))
        return False, {"kind": "closure", "elements": [x, y], "product": p}
    return True, None


def is_L_subgyrogroup(model: GyroModel, H, spec: SampleSpec = SampleSpec(1000)):
    """Whether gyr[a, h] maps H onto H for all a in G, h in H.  On a
    finite table that is gyr[a, h](H) <= H, as gyrations of a validated
    table are bijections."""
    ok, witness = is_subgyrogroup(model, H, spec)
    if not ok:
        raise CosetError(f"H is not a subgyrogroup: {witness}")
    if model.is_finite:
        H = _as_finite_set(model, H)
        hit = model.leaving_pair(H.members(), range(model.n), H.index_array())
        return hit is None, hit and {"kind": "gyration", "elements": list(hit)}

    rng = np.random.default_rng(spec.seed + 1)
    azs = model.sample(rng, spec.count)
    hs = H.sample(model, rng, spec.count)
    xs = H.sample(model, rng, spec.count)
    img = model.gyr(azs, hs, xs)
    hit = first_hit(~H.contains_rows(model, img))
    if hit:
        *elems, g = (model.to_payload(t[hit[0]]) for t in (azs, hs, xs, img))
        return False, {"kind": "gyration", "elements": elems, "image": g}
    return True, None


@dataclass(frozen=True)
class CosetPartition:
    """The left-coset decomposition {a + H} of a finite model: ``index_of``
    numbers the coset of each element, by least element, which is the
    canonical representative, so reports diff cleanly."""

    model: FiniteTable
    H: FiniteSet
    index_of: np.ndarray

    @property
    def cosets(self) -> list[tuple[int, ...]]:
        members = np.argsort(self.index_of, kind="stable")
        cuts = np.flatnonzero(np.diff(self.index_of[members])) + 1
        return [tuple(c.tolist()) for c in np.split(members, cuts)]

    @property
    def representatives(self) -> list[int]:
        return np.unique(self.index_of, return_index=True)[1].tolist()

    def project(self, a) -> int:
        """pi(a): the index of the coset containing a; ``CarrierError``
        for a outside 0 ... n - 1."""
        if not self.model.contains(a):
            raise CarrierError("index out of range")
        out = self.index_of[np.asarray(a, dtype=np.int64)]
        return int(out) if out.ndim == 0 else out


def left_cosets(model: FiniteTable, H) -> CosetPartition:
    """Partition the carrier into left cosets a + H, labeled by least
    element.  Refuses a table not validated on load and an H that is no
    L-subgyrogroup, the hypotheses under which the cosets partition the
    carrier.  Verifies (a + h) + H = a + H for all a and h in H."""
    if getattr(model, "axiom_report", None) is None:
        raise CosetError("left cosets need a table validated on load")
    H = _as_finite_set(model, H)
    ok, witness = is_L_subgyrogroup(model, H)
    if not ok:
        raise CosetError(f"H is not an L-subgyrogroup: {witness}")

    idx = H.index_array()
    cos = np.take(model.table, idx, axis=1)  # row a: the coset a + H
    label = cos.min(axis=1)
    # the derivation (a + h) + H = a + (h + H) = a + H, exhaustively
    hit = first_hit(label[cos] != label[:, None])
    if hit:
        raise CosetError(f"(a+h)+H != a+H at a={hit[0]}, h={idx[hit[1]]}; "
                         "H is not coset-stable")
    index_of = np.unique(label, return_inverse=True)[1]
    return CosetPartition(model=model, H=H, index_of=index_of)


def same_coset(model: GyroModel, H, a, b, slack: float | None = None) -> bool:
    """Membership test (-a) + b in H: the coset relation pi(a) = pi(b).

    This is the only coset interface for continuous models, whose
    cosets are uncountable and never materialized.
    """
    diff = model.op(model.inv(a), b)
    if model.is_finite:
        return int(diff) in _as_finite_set(model, H)
    return H.contains(model, diff, slack if slack is not None else model.eps)


def homogeneity_check(partition: CosetPartition) -> CheckResult:
    """Whether each coset translation h_a of a ``left_cosets`` partition is
    a well-defined bijection: as a + (r + h) = (a + r) + gyr[a, r](h), when
    no gyr[a, r], r a representative, carries H out of H (a + . bijects).
    Classes that are not cosets of H fail at (a, r) if h_a is defined there."""
    model, reps = partition.model, partition.representatives
    hit = model.leaving_pair(partition.H.members(), range(model.n), reps)
    if hit:  # on cosets, a + x leaves (a + r) + H for an x in r + H: raises
        homogeneity_translate(partition, hit[0], partition.project(hit[1]))
    witness = hit and {"kind": "gyration", "elements": list(hit)}
    return CheckResult.exact("homogeneity-bijection", model.n * len(reps),
                             witness)


def homogeneity_translate(partition: CosetPartition, a: int, coset: int) -> int:
    """The coset translation h_a(x + H) = (a + x) + H.

    Evaluated from every representative x of the coset; a disagreement
    means H is not gyration-invariant enough for the translation to be
    well defined, and raises.  Out-of-range a or coset: ``CarrierError``.
    """
    images = np.unique(partition.project(
        partition.model.op(a, _at(partition.cosets, coset))))
    if images.size != 1:
        raise CosetError(
            f"h_a is representative-dependent at a={a}, coset={coset}: "
            f"images {images.tolist()}")
    return int(images[0])
