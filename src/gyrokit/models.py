"""Concrete gyrogroup models.

* ``EinsteinModel`` -- the open ball of radius c in R^d (d = 2 or 3)
  under Einstein velocity addition.
* ``MobiusModel`` -- the open unit disk in the complex plane under
  Moebius addition (a + b) / (1 + conj(a) b).
* ``FiniteTable`` -- an explicit Cayley table, exhaustively validated
  against the gyrogroup axioms on load.

``radial_add`` is the one-dimensional restriction shared by both ball
models; it drives the exact ball-set arithmetic of the prenorm module.
"""

from __future__ import annotations

import functools
import json
import math
from typing import IO

import numpy as np

from .core import (
    CarrierError,
    GyroModel,
    SampleSpec,
    TableError,
    check_axioms,
)

__all__ = [
    "EinsteinModel",
    "MobiusModel",
    "FiniteTable",
    "radial_add",
    "radial_half",
    "radial_third",
    "table_load",
    "cyclic_table",
    "klein_table",
]


def radial_add(r1, r2, c: float = 1.0):
    """(r1 + r2) / (1 + r1 r2 / c^2): norm addition of collinear velocities.

    Strictly increasing in each argument on [0, c) with values in [0, c);
    equals c * tanh(artanh(r1/c) + artanh(r2/c)), so it is associative and
    commutative: the radial gyrogroup is a group.
    """
    r1, r2 = np.asarray(r1, dtype=float), np.asarray(r2, dtype=float)
    if np.any(r1 < 0) or np.any(r2 < 0) or np.any(r1 >= c) or np.any(r2 >= c):
        raise CarrierError(f"radii must lie in [0, {c})")
    out = (r1 + r2) / (1.0 + r1 * r2 / (c * c))
    return float(out) if out.ndim == 0 else out


def radial_half(r: float, c: float = 1.0) -> float:
    """The s with radial_add(s, s) = r; exact via tanh halving."""
    if not 0 <= r < c:
        raise CarrierError(f"radius must lie in [0, {c})")
    return c * math.tanh(math.atanh(r / c) / 2.0)


def radial_third(r: float, c: float = 1.0) -> float:
    """The s with radial_add(s, radial_add(s, s)) = r."""
    if not 0 <= r < c:
        raise CarrierError(f"radius must lie in [0, {c})")
    return c * math.tanh(math.atanh(r / c) / 3.0)


class EinsteinModel(GyroModel):
    """Relativistically admissible velocities: {v in R^d : |v| < c}.

    Einstein addition of u and v is

        (u + v/gamma_u + (gamma_u / (c^2 (1 + gamma_u))) <u, v> u)
        / (1 + <u, v>/c^2)

    with the Lorentz factor gamma_u = 1/sqrt(1 - |u|^2/c^2) >= 1.
    Neither associative nor commutative for d >= 2.
    """

    is_finite = False

    def __init__(self, dim: int = 3, c: float = 1.0, eps: float = 1e-9):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        if not 0 < c < math.inf:
            raise ValueError("c must be positive and finite")
        self.dim = dim
        self.c = float(c)
        self.eps = float(eps)
        self.name = f"einstein(d={dim},c={c:g})"

    @property
    def zero(self):
        return np.zeros(self.dim)

    def _fold(self, f, a):
        """``f`` folded over the columns of a, left to right: the same
        rounding as a reduction over the short last axis, and much faster."""
        return functools.reduce(f, (a[..., k] for k in range(self.dim)))

    def _sq(self, a):
        """|a|^2 of a float batch, or None unless every a is in the carrier."""
        if a.shape[-1:] != (self.dim,):
            return None
        aa = self._fold(np.add, a * a)
        return aa if np.all(np.sqrt(aa) < self.c) else None

    def norm(self, a):
        a = np.asarray(a, dtype=float)
        return np.sqrt(self._fold(np.add, a * a))

    def contains(self, a) -> bool:
        return self._sq(np.asarray(a, dtype=float)) is not None

    def gamma(self, u):
        """Lorentz factor 1/sqrt(1 - |u|^2/c^2)."""
        uu = self._sq(np.asarray(u, dtype=float))
        if uu is None:
            raise CarrierError("velocity outside the c-ball")
        return 1.0 / np.sqrt(1.0 - uu / self.c**2)

    def op(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        uu = self._sq(u)
        if uu is None or self._sq(v) is None:
            raise CarrierError("velocity outside the c-ball")
        c2 = self.c * self.c
        ip = self._fold(np.add, u * v)[..., None]
        uu = uu[..., None]
        gu = 1.0 / np.sqrt(1.0 - uu / c2)
        denom = 1.0 + ip / c2
        # denom >= (1 - |u||v|/c^2) > 0 on the carrier
        return (u + v / gu + (gu / (c2 * (1.0 + gu))) * ip * u) / denom

    def inv(self, a):
        return -np.asarray(a, dtype=float)

    def residual(self, a, b):
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return self._fold(np.maximum, d)

    def sample(self, rng: np.random.Generator, size: int):
        # uniform in the ball of radius 0.99c
        v = rng.normal(size=(size, self.dim))
        v /= self.norm(v)[:, None]
        r = 0.99 * self.c * rng.random(size)[:, None] ** (1.0 / self.dim)
        return v * r

    def stress_elements(self) -> list:
        e1 = np.zeros(self.dim)
        e1[0] = 1.0
        e2 = np.zeros(self.dim)
        e2[1] = 1.0
        diag = (e1 + e2) / math.sqrt(2.0)
        return [self.zero, 0.9 * self.c * e1, 0.99 * self.c * e1,
                -0.99 * self.c * e2, 0.9 * self.c * diag]

    def to_payload(self, a):
        return [float(t) for t in np.atleast_1d(a)]


class MobiusModel(GyroModel):
    """The open unit disk under Moebius addition (a + b)/(1 + conj(a) b).

    Gyrations are the unit-modulus rotations
    gyr[a, b](z) = ((1 + a conj(b)) / (1 + conj(a) b)) z; the closed form
    is used directly, with the defining formula kept as the oracle.
    """

    is_finite = False

    def __init__(self, eps: float = 1e-9):
        self.eps = float(eps)
        self.name = "mobius"

    @property
    def zero(self):
        return 0j

    def norm(self, a):
        return np.abs(np.asarray(a, dtype=complex))

    def contains(self, a) -> bool:
        return bool(np.all(self.norm(a) < 1.0))

    def op(self, a, b):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if not (self.contains(a) and self.contains(b)):
            raise CarrierError("point outside the unit disk")
        return (a + b) / (1.0 + np.conj(a) * b)

    def inv(self, a):
        return -np.asarray(a, dtype=complex)

    def gyr(self, a, b, z):
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if not (self.contains(a) and self.contains(b) and self.contains(z)):
            raise CarrierError("point outside the unit disk")
        q = (1.0 + a * np.conj(b)) / (1.0 + np.conj(a) * b)
        return q * np.asarray(z, dtype=complex)

    def residual(self, a, b):
        return np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))

    def sample(self, rng: np.random.Generator, size: int):
        phase = np.exp(2j * math.pi * rng.random(size))
        return 0.99 * np.sqrt(rng.random(size)) * phase

    def stress_elements(self) -> list:
        return [0j, 0.9 + 0j, 0.99j, -0.9j,
                0.99 * complex(math.cos(0.25 * math.pi), math.sin(0.25 * math.pi))]

    def to_payload(self, a):
        a = complex(a)
        return [a.real, a.imag]


class FiniteTable(GyroModel):
    """A finite gyrogroup given by an explicit Cayley table of indices.

    The identity is always index 0.  Construction runs the exhaustive
    axiom suite and rejects any table that is not a gyrogroup, so every
    live instance is a validated model.  Labels are cosmetic.

    ``G[a, b, z] = gyr[a, b](z)`` is computed once by table lookups and
    kept in the smallest unsigned dtype: n^3 bytes up to n = 256.  Public
    methods check carrier membership; the finite algorithms index
    ``table``, ``inverses`` and ``G`` directly.
    """

    is_finite = True
    eps = 0.0

    def __init__(self, table, labels: list[str] | None = None,
                 name: str = "table", validate: bool = True):
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise TableError("table must be square")
        n = tbl.shape[0]
        if n == 0:
            raise TableError("table must be nonempty")
        if tbl.min() < 0 or tbl.max() >= n:
            raise TableError("table entries must be indices in 0..n-1")
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n or len(set(labels)) != n:
            raise TableError("labels must be distinct and match the order")
        self.n = n
        self.table = tbl
        self.labels = list(labels)
        self.name = name

        inv = np.full(n, -1, dtype=np.int64)
        for a in range(n):
            hits = np.nonzero((tbl[a] == 0) & (tbl[:, a] == 0))[0]
            if hits.size == 1:
                inv[a] = hits[0]
            elif validate:
                raise TableError(
                    f"element {a} lacks a unique two-sided inverse; "
                    f"candidates {hits.tolist()}")
            else:
                # best effort so that the axiom sweep can run and report
                left = np.nonzero(tbl[a] == 0)[0]
                inv[a] = hits[0] if hits.size else (left[0] if left.size else 0)
        self.inverses = inv
        t = tbl.astype(np.min_scalar_type(n - 1))
        self.G = t[inv[t][:, :, None], t[:, t]]

        # the load-time validation report (None if validate=False)
        self.axiom_report = None
        if validate:
            report = check_axioms(self, SampleSpec())
            if not report.passed:
                bad = report.failures()[0]
                raise TableError(
                    f"not a gyrogroup: {bad.name} fails with witness "
                    f"{bad.witness}")
            self.axiom_report = report

    @property
    def zero(self):
        return 0

    def elements(self):
        return np.arange(self.n)

    def contains(self, a) -> bool:
        a = np.asarray(a)
        return bool(np.all((a >= 0) & (a < self.n)))

    def op(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if not (self.contains(a) and self.contains(b)):
            raise CarrierError("index out of range")
        out = self.table[a, b]
        return int(out) if out.ndim == 0 else out

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        if not self.contains(a):
            raise CarrierError("index out of range")
        out = self.inverses[a]
        return int(out) if out.ndim == 0 else out

    def residual(self, a, b):
        return (np.asarray(a) != np.asarray(b)).astype(float)

    def sample(self, rng: np.random.Generator, size: int):
        return rng.integers(0, self.n, size=size)

    def to_payload(self, a):
        return int(a)

    def gyr(self, a, b, z):
        a, b, z = (np.asarray(v, dtype=np.int64) for v in (a, b, z))
        if not (self.contains(a) and self.contains(b) and self.contains(z)):
            raise CarrierError("index out of range")
        out = self.G[a, b, z].astype(np.int64)
        return int(out) if out.ndim == 0 else out

    def gyr_table(self, a: int, b: int) -> np.ndarray:
        """The permutation z -> gyr[a, b](z) as an index array."""
        return self.gyr(a, b, np.arange(self.n))

    def is_group(self) -> bool:
        """True when every gyration is the identity permutation."""
        return bool(np.all(self.G == np.arange(self.n)))

    @functools.cached_property
    def orbit_labels(self) -> np.ndarray:
        """Per element, the least element of its unit: the closure under
        inverse and all gyrations.  Removing whole units keeps a set
        symmetric and gyration-invariant."""
        lab = np.arange(self.n, dtype=self.G.dtype)
        while True:
            low = np.minimum.reduce(
                [lab, lab[self.inverses], lab[self.G].min(axis=(0, 1))])
            low = low[low]
            if np.array_equal(low, lab):
                return lab
            lab = low

    def to_dict(self) -> dict:
        return {"order": self.n, "labels": self.labels,
                "table": self.table.tolist()}


def _reject_nonfinite(token: str):
    raise TableError(f"non-finite number {token!r} in table file")


def table_load(source: str | bytes | IO | dict, name: str | None = None,
               validate: bool = True) -> FiniteTable:
    """Load and validate a Cayley-table JSON document.

    Format: {"order": n, "labels": [...], "table": [[...], ...]} with
    table[i][j] = index of element_i + element_j and the identity at
    index 0.  Parsing is bit-exact: NaN/Infinity, non-integer entries,
    duplicate labels, and out-of-range indices are all rejected.
    ``validate=False`` skips the axiom gate so a verification sweep can
    report the failures itself.
    """
    if isinstance(source, dict):
        doc = source
    else:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = source
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        try:
            doc = json.loads(text, parse_constant=_reject_nonfinite)
        except json.JSONDecodeError as e:
            raise TableError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict) or "table" not in doc:
        raise TableError("document must be an object with a 'table' field")
    table = doc["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise TableError("'table' must be a list of rows")
    for row in table:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int):
                raise TableError(f"table entry {v!r} is not an integer")
    order = doc.get("order", len(table))
    if order != len(table):
        raise TableError(f"declared order {order} != table size {len(table)}")
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(s, str) for s in labels)):
        raise TableError("'labels' must be a list of strings")
    # identity-at-0 is enforced by the exhaustive axiom run inside FiniteTable
    return FiniteTable(table, labels=labels,
                       name=name or doc.get("name", "table"), validate=validate)


def cyclic_table(n: int, name: str | None = None) -> FiniteTable:
    """The cyclic group Z_n as a (trivially gyrated) gyrogroup."""
    idx = np.arange(n)
    return FiniteTable((idx[:, None] + idx[None, :]) % n,
                       name=name or f"z{n}")


def klein_table() -> FiniteTable:
    """The Klein four-group."""
    return FiniteTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                       name="klein4")
