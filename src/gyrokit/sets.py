"""Carrier subsets: exact finite sets and radial balls.

A finite subset is its read-only boolean membership row, the one format
every finite algorithm reads.  Set arithmetic is exact and elementwise,
A (+) B = {a + b : a in A, b in B}: one boolean matrix product of
membership rows with the sum matrix of A (``oplus_rows``).
Symmetry is a membership lookup through ``inverses``, and gyration
invariance one test over the table's distinct gyrations, the rows of
``P``; both need a validated table, whose inversion and gyrations are
bijections.

For the continuous ball models only radial (norm-ball) sets are
supported; there

    ball(r) (+) ball(s) = ball(radial_add(r, s))

exactly, because |u + v| <= radial_add(|u|, |v|) with equality
approached on positive-collinear pairs.  Axis sets exist as membership
descriptors for subgyrogroup tests; they take no part in set arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GyroModel
from .models import radial_add

__all__ = ["FiniteSet", "RadialBall", "AxisSet", "OriginSet", "parse_subset"]


def member_masks(vals, n: int) -> np.ndarray:
    """out[..., x] is True when x occurs in vals[..., :], for vals in
    0 ... n - 1: True is scattered at the flat indices row n + x."""
    vals = np.asarray(vals)
    out = np.zeros(vals.shape[:-1] + (n,), dtype=bool)
    rows = np.arange(0, out.size, n).reshape(vals.shape[:-1] + (1,))
    out.ravel()[rows + vals] = True
    return out


def oplus_rows(model: GyroModel, U: "FiniteSet", rows: np.ndarray):
    """U (+) V for every boolean membership row V (the last axis of
    ``rows``), as one boolean product with the matrix A[v, w] = w in U + v:
    numpy's bool matmul is an exact OR of ANDs."""
    return rows @ member_masks(model.table[U.index_array()].T, model.n)


class FiniteSet:
    """An immutable subset of the finite carrier 0..n-1, held as one
    read-only boolean membership row of length n."""

    __slots__ = ("_row",)

    def __init__(self, n: int, indices=()):
        idx = np.fromiter(indices, dtype=object)  # ints of any size, exact
        bad = (idx < 0) | (idx >= n)
        if bad.any():
            raise ValueError(f"index {idx[bad.argmax()]} out of range 0..{n - 1}")
        self._row = np.zeros(n, dtype=bool)
        self._row[idx.astype(np.intp)] = True
        self._row.flags.writeable = False

    @staticmethod
    def of(members) -> "FiniteSet":
        """The set with the boolean membership row ``members`` (copied)."""
        S = object.__new__(FiniteSet)
        S._row = np.array(members, dtype=bool)
        S._row.flags.writeable = False
        return S

    @property
    def n(self) -> int:
        return self._row.size

    def members(self) -> np.ndarray:
        """The read-only boolean membership row, of length n; copy it
        before mutating."""
        return self._row

    def index_array(self) -> np.ndarray:
        return np.flatnonzero(self._row)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.index_array().tolist())

    def __len__(self):
        return int(np.count_nonzero(self._row))

    def __contains__(self, i) -> bool:
        i = int(i)
        return 0 <= i < self.n and bool(self._row[i])

    def __eq__(self, other):
        return (isinstance(other, FiniteSet)
                and np.array_equal(self._row, other._row))

    def __hash__(self):
        return hash(self._row.tobytes())

    def __le__(self, other):
        return not np.any(self._row & ~other._row)

    def __and__(self, other):
        return FiniteSet.of(self._row & other._row)

    def __repr__(self):
        return f"FiniteSet({set(self.indices())})"

    def oplus(self, model: GyroModel, other: "FiniteSet") -> "FiniteSet":
        return FiniteSet.of(oplus_rows(model, self, other.members()))

    def gyr_image(self, model: GyroModel, a: int, b: int) -> "FiniteSet":
        return FiniteSet.of(
            member_masks(model.gyr(a, b, self.index_array()), self.n))

    def is_symmetric(self, model: GyroModel) -> bool:
        """Whether -x lies in the set exactly when x does; on a validated
        table inversion is a bijection, so this is -U = U."""
        return np.array_equal(self._row[model.inverses], self._row)

    def gyr_invariance_witness(self, model: GyroModel):
        """None if gyr[a, b] maps the set onto itself for all a, b; else the
        first (a, b), row-major, whose gyration does not: the (a, b) of the
        ``invariance_witness`` of the membership row, as gyrations biject."""
        hit = model.invariance_witness(self._row)
        return None if hit is None else tuple(hit[:2])


class _BallSubset:
    """A subset of a ball model.  ``contains_rows(model, x, slack)`` says
    per element of the batch x whether it lies in the set within
    ``slack`` (None: 0 for balls, ``eps`` otherwise); ``contains`` whether
    all do."""

    def contains(self, model, x, slack: float | None = None) -> bool:
        return bool(np.all(self.contains_rows(model, x, slack)))


@dataclass(frozen=True)
class RadialBall(_BallSubset):
    """The open norm ball {x : |x| < radius} in a ball model."""

    radius: float

    def contains_rows(self, model, x, slack: float | None = None) -> np.ndarray:
        return model.norm(x) < self.radius + (slack or 0.0)

    def oplus(self, model, other: "RadialBall") -> "RadialBall":
        return RadialBall(radial_add(self.radius, other.radius, model.c))

    def sample(self, model, rng: np.random.Generator, size: int):
        pts = model.sample(rng, size)
        return pts * (self.radius / (0.99 * model.c))


@dataclass(frozen=True)
class AxisSet(_BallSubset):
    """A coordinate axis intersected with the carrier ball.

    axis is a dimension index for vector models; the real axis of the
    disk model is axis 0.  Closed under the operation (collinear
    addition stays on the line) but generally not gyration-invariant.
    """

    axis: int = 0

    def contains_rows(self, model, x, slack: float | None = None) -> np.ndarray:
        tol = model.eps if slack is None else slack
        x = np.asarray(x)
        if np.iscomplexobj(x):
            on_axis = np.abs(x.imag if self.axis == 0 else x.real) <= tol
        else:
            on_axis = np.all(np.abs(np.delete(x, self.axis, axis=-1)) <= tol,
                             axis=-1)
        return on_axis & (model.norm(x) < model.c)

    def sample(self, model, rng: np.random.Generator, size: int):
        t = (2.0 * rng.random(size) - 1.0) * 0.99 * model.c
        if np.iscomplexobj(np.asarray(model.zero)):
            return t * (1.0 + 0j if self.axis == 0 else 1.0j)
        out = np.zeros((size, model.zero.shape[0]))
        out[:, self.axis] = t
        return out


@dataclass(frozen=True)
class OriginSet(_BallSubset):
    """The trivial subgyrogroup {0}."""

    def contains_rows(self, model, x, slack: float | None = None) -> np.ndarray:
        tol = model.eps if slack is None else slack
        return model.residual(x, model.zero) <= tol

    def sample(self, model, rng: np.random.Generator, size: int):
        z = np.asarray(model.zero)
        return np.broadcast_to(z, (size,) + z.shape).copy()


_AXES = {"x": 0, "y": 1, "z": 2, "real": 0, "imag": 1}


def parse_subset(model: GyroModel, text: str):
    """Parse a CLI subset descriptor.

    Finite models: comma-separated indices, e.g. ``0,2``.  Continuous
    models: ``axis:x`` / ``axis:y`` / ``axis:z`` (``axis:real`` /
    ``axis:imag`` on the disk), ``ball:0.5``, or ``origin``.
    """
    text = text.strip()
    if model.is_finite:
        idx = [int(t) for t in text.split(",") if t != ""]
        return FiniteSet(model.n, indices=idx)
    if text == "origin":
        return OriginSet()
    if text.startswith("axis:"):
        key = text[5:]
        if key not in _AXES:
            raise ValueError(f"unknown axis {key!r}")
        return AxisSet(_AXES[key])
    if text.startswith("ball:"):
        r = float(text[5:])
        if not 0 < r < model.c:
            raise ValueError("ball radius must lie inside the carrier")
        return RadialBall(r)
    raise ValueError(f"cannot parse subset {text!r} for model {model.name}")
