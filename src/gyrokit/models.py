"""Concrete gyrogroup models.

* ``EinsteinModel`` -- the open ball of radius c in R^d (d = 2 or 3)
  under Einstein velocity addition.
* ``MobiusModel`` -- the open unit disk in the complex plane under
  Moebius addition (a + b) / (1 + conj(a) b).
* ``FiniteTable`` -- a Cayley table, validated as a gyrogroup on load.

``radial_add`` is the one-dimensional restriction shared by both ball
models; it drives the exact ball-set arithmetic of the prenorm module.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from typing import IO

import numpy as np

from .core import (
    CarrierError,
    GyroModel,
    SampleSpec,
    TableError,
    _gather,
    _indices,
    _is_int_type,
    _slabs,
    _takes,
    check_axioms,
    first_hit,
    read_json,
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

    Gyrations use Ungar's closed form (A. A. Ungar, *Analytic Hyperbolic
    Geometry and Albert Einstein's Special Theory of Relativity*, World
    Scientific 2008):

        gyr[u, v]w = w + (A u + B v) / D
        A = -gamma_u^2/(gamma_u + 1) (gamma_v - 1) <u, w>/c^2
            + gamma_u gamma_v <v, w>/c^2
            + 2 gamma_u^2 gamma_v^2/((gamma_u + 1)(gamma_v + 1))
                <u, v>/c^2 <v, w>/c^2
        B = -gamma_v/(gamma_v + 1) (gamma_u (gamma_v + 1) <u, w>/c^2
                                   + (gamma_u - 1) gamma_v <v, w>/c^2)
        D = gamma_u gamma_v (1 + <u, v>/c^2) + 1

    Its error stays at the rounding of w plus a small correction, where
    the three-``op`` defining formula, kept as ``gyr_formula`` and
    compared by ``check_identities``, erodes towards the boundary.
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

    def _dot(self, a, b):
        """<a, b> over the last axis: the column products added left to
        right into the first, the rounding of ``_fold(np.add, a * b)``
        without its (..., d) temporary or a new array per sum."""
        out = a[..., 0] * b[..., 0]
        for k in range(1, self.dim):
            out += a[..., k] * b[..., k]
        return out

    def _sq(self, a):
        """|a|^2 of a float batch, or None unless every a is in the carrier."""
        if a.shape[-1:] != (self.dim,):
            return None
        aa = self._dot(a, a)
        # one sqrt of the largest |a|^2: sqrt is monotone, and a NaN fails
        return aa if np.sqrt(aa.max(initial=0.0)) < self.c else None

    def norm(self, a):
        a = np.asarray(a, dtype=float)
        return np.sqrt(self._dot(a, a))

    def contains(self, a) -> bool:
        return self._sq(np.asarray(a, dtype=float)) is not None

    def _gamma(self, uu):
        """The Lorentz factor from |u|^2, as 1/sqrt((1 - |u|/c)(1 + |u|/c)).
        Exact where sqrt(|u|^2) gives |u| back, as on an axis; in a general
        direction |u|^2 is already rounded, and near the boundary this is
        no more accurate than 1/sqrt(1 - |u|^2/c^2)."""
        r = np.sqrt(uu) / self.c
        return 1.0 / np.sqrt((1.0 - r) * (1.0 + r))

    def gamma(self, u):
        """Lorentz factor 1/sqrt(1 - |u|^2/c^2)."""
        uu = self._sq(np.asarray(u, dtype=float))
        if uu is None:
            raise CarrierError("velocity outside the c-ball")
        return self._gamma(uu)

    def op(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        uu = self._sq(u)
        if uu is None or self._sq(v) is None:
            raise CarrierError("velocity outside the c-ball")
        c2 = self.c * self.c
        ip = self._dot(u, v)[..., None]
        uu = uu[..., None]
        gu = 1.0 / np.sqrt(1.0 - uu / c2)
        denom = 1.0 + ip / c2
        # denom >= (1 - |u||v|/c^2) > 0 on the carrier
        return (u + v / gu + (gu / (c2 * (1.0 + gu))) * ip * u) / denom

    def _gyr_ab(self, u, v, w, uu, vv):
        """A/D and B/D of the closed form.  Their coefficients of <u, w>
        and <v, w> depend on the pair only and are formed once, so a
        stacked w of shape (k, ..., d) costs little more than one.  Apart
        from ``gyr`` so that these temporaries are freed before its
        output is allocated: a sweep block's peak memory stays low."""
        c2 = self.c * self.c
        gu, gv = self._gamma(uu), self._gamma(vv)
        guv = gu * gv
        hu, hv = gu / (gu + 1.0), gv / (gv + 1.0)
        uv = self._dot(u, v) / c2
        k = 1.0 / (c2 * (guv * (1.0 + uv) + 1.0))
        au = -hu * gu * (gv - 1.0) * k
        av = guv * (1.0 + 2.0 * hu * hv * uv) * k
        bu = -guv * k
        bv = -hv * (gu - 1.0) * gv * k
        uw, vw = self._dot(u, w), self._dot(v, w)
        return au * uw + av * vw, bu * uw + bv * vw

    def gyr(self, u, v, w):
        """The closed form of the class docstring."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        uu, vv = self._sq(u), self._sq(v)
        if uu is None or vv is None or self._sq(w) is None:
            raise CarrierError("velocity outside the c-ball")
        a, b = self._gyr_ab(u, v, w, uu, vv)
        # column by column, so that no temporary is (..., d) wide, into
        # contiguous columns
        shape = np.broadcast_shapes(u.shape, v.shape, w.shape)
        out = np.moveaxis(np.empty(shape[-1:] + shape[:-1]), 0, -1)
        for k in range(self.dim):
            out[..., k] = w[..., k] + a * u[..., k] + b * v[..., k]
        return out

    def inv(self, a):
        return -np.asarray(a, dtype=float)

    def residual(self, a, b):
        d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return self._fold(np.maximum, d)

    def sample(self, rng: np.random.Generator, size: int):
        # uniform in the ball of radius 0.99c: all the normals, then all
        # the radii; the normals are scaled in place to the radii 0.99c r^(1/d)
        v = rng.normal(size=(size, self.dim))
        v /= self.norm(v)[:, None]
        v *= 0.99 * self.c * rng.random(size)[:, None] ** (1.0 / self.dim)
        return v

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
    c = 1.0  # the disk's radius, as the Einstein ball's speed bound

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

    def _points(self, *operands):
        """The operands as complex arrays, each converted and checked once
        to lie in the disk: its largest |a| below 1 (NaN fails)."""
        out = [np.asarray(a, dtype=complex) for a in operands]
        for a in out:
            if not np.abs(a).max(initial=0.0) < 1.0:
                raise CarrierError("point outside the unit disk")
        return out

    def op(self, a, b):
        a, b = self._points(a, b)
        return (a + b) / (1.0 + np.conj(a) * b)

    def inv(self, a):
        return -np.asarray(a, dtype=complex)

    def gyr(self, a, b, z):
        a, b, z = self._points(a, b, z)
        # np.conj(b) first: numpy computes a * np.conj(b) in place as
        # np.conj(b) * a from 2^14 elements on, and complex products are
        # not bit-commutative, so only this order rounds alike at any length
        q = (1.0 + np.conj(b) * a) / (1.0 + np.conj(a) * b)
        return q * z

    def residual(self, a, b):
        return np.abs(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex))

    def sample(self, rng: np.random.Generator, size: int):
        # all the phases, then all the radii
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

    The identity is always index 0.  Labels are cosmetic.  Each distinct
    gyration is stored once: ``P`` is the k x n array of the distinct
    permutations z -> gyr[a, b](z), in the smallest unsigned dtype, and
    gyr[a, b](z) = P[gid[a, b], z] with the n x n ids ``gid``.  Both are
    built by the formula -(a + b) + (a + (b + z)) one slab of first
    indices at a time: these n^3 lookups are the load's main cost, and no
    n^3 array exists.  On them ``check_axioms`` validates a gyrogroup by
    tests of O(k n^2) cost, and construction rejects any table that fails,
    so every live instance is a validated model.  Public methods take an
    element as a Python or NumPy int in 0 ... n - 1, else raise
    ``CarrierError``; the finite algorithms index ``table`` and
    ``inverses`` directly.  Only this class and that validation read ``P``
    and ``gid``: every gyration test runs once per row of ``P``.
    """

    is_finite = True
    eps = 0.0

    def __init__(self, table, labels: list[str] | None = None,
                 name: str = "table", validate: bool = True):
        tbl = table if isinstance(table, np.ndarray) else np.array(table, object)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1]:
            raise TableError("table must be square")
        n = tbl.shape[0]
        if n == 0:
            raise TableError("table must be nonempty")
        if not _takes(tbl, n):  # also a bool among a list's ints, or a float
            raise TableError("table entries must be indices in 0..n-1")
        if labels is None:
            labels = [str(i) for i in range(n)]
        if len(labels) != n or len(set(labels)) != n:
            raise TableError("labels must be distinct and match the order")
        self.n = n
        self.table = tbl = tbl.astype(np.int64, copy=False)
        self.labels = list(labels)
        self.name = name

        # hits[a, b]: a + b = 0 = b + a
        zero = tbl == 0
        hits = zero & zero.T
        count = hits.sum(axis=1)
        if validate and np.any(count != 1):
            a = int(np.argmax(count != 1))
            raise TableError(
                f"element {a} lacks a unique two-sided inverse; "
                f"candidates {np.flatnonzero(hits[a]).tolist()}")
        # unvalidated, a best effort so that the axiom sweep can run and
        # report: the first two-sided inverse, else the first b with
        # a + b = 0, else 0
        self.inverses = inv = np.where(count > 0, hits.argmax(axis=1),
                                       zero.argmax(axis=1))
        # gyr[a, b] = -(a + b) + (a + (b + .)), a slab at a time; a dict
        # keyed by raw row bytes numbers the distinct rows, and its keys are P
        t = tbl.astype(np.min_scalar_type(n - 1))
        row, ids = np.dtype((np.void, n * t.itemsize)), {}
        self.gid = np.empty((n, n), dtype=np.intp)
        for lo, hi in _slabs(n):
            ta = t[lo:hi]
            # ta[:, t] as np.take by the int64 table, whose index needs no
            # cast: 3.5 times faster at n = 512, and as fast at n = 48
            g = _gather(t, inv[ta][:, :, None],
                        np.take(ta, tbl, axis=1)).reshape(-1, n)
            keys, back = np.unique(g.view(row).ravel(), return_inverse=True)
            local = [ids.setdefault(key, len(ids)) for key in keys.tolist()]
            self.gid[lo:hi] = np.take(local, back).reshape(hi - lo, n)
        self.P = np.frombuffer(b"".join(ids), dtype=t.dtype).reshape(-1, n)

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

    def contains(self, a) -> bool:
        return _takes(a, self.n)

    def op(self, a, b):
        out = self.table[_indices(a, self.n), _indices(b, self.n)]
        return int(out) if out.ndim == 0 else out

    def inv(self, a):
        out = self.inverses[_indices(a, self.n)]
        return int(out) if out.ndim == 0 else out

    def residual(self, a, b):
        return (np.asarray(a) != np.asarray(b)).astype(float)

    def sample(self, rng: np.random.Generator, size: int):
        return rng.integers(0, self.n, size=size)

    def to_payload(self, a):
        return int(a)

    def gyr(self, a, b, z):
        # gathered in P's dtype: no int64 copy of the result
        n = self.n
        out = self.P[self.gid[_indices(a, n), _indices(b, n)], _indices(z, n)]
        return int(out) if out.ndim == 0 else out

    def gyr_table(self, a: int, b: int) -> np.ndarray:
        """The permutation z -> gyr[a, b](z) as an index array."""
        return self.gyr(a, b, np.arange(self.n))

    def is_group(self) -> bool:
        """True when every gyration, every row of ``P``, is the identity."""
        return bool((self.P == np.arange(self.n)).all())

    @functools.cached_property
    def gyr_orbits(self) -> np.ndarray:
        """Per element, the least of its orbit under the group the gyrations
        generate, the least reachable by steps z -> P[i, z] (an orbit, as
        gyrations permute): min-label propagation with pointer jumping."""
        lab, prev = np.arange(self.n), None
        while not np.array_equal(lab, prev):
            prev, lab = lab, np.minimum(lab, lab[self.P].min(axis=0))
            lab = lab[lab]
        return lab

    @functools.cached_property
    def orbit_labels(self) -> np.ndarray:
        """Per element, the least of its unit, orbit(z) | orbit(-z) (the
        gyrations are automorphisms): the closure under inverse and all
        gyrations.  Removing whole units keeps a set symmetric and invariant."""
        orb = self.gyr_orbits
        return np.minimum(orb, orb[self.inverses])

    def invariance_witness(self, values):
        """None if ``values`` is invariant under every gyration, else the
        first [a, b, z] with values[P[gid[a, b], z]] != values[z]."""
        bad = values[self.P] != values
        hit = first_hit(bad.any(axis=1)[self.gid])
        return hit and hit + [int(np.argmax(bad[self.gid[tuple(hit)]]))]

    def leaving_pair(self, members, rows, cols):
        """The first (a, b), a in ``rows`` and b in ``cols`` row-major, whose
        gyration carries a member of the set ``members`` (a membership row)
        out of it, or None: each row of ``P`` is tested once."""
        out = ~members[self.P[:, np.flatnonzero(members)]].all(axis=1)
        hit = first_hit(out[self.gid[np.ix_(rows, cols)]])
        return hit and (int(rows[hit[0]]), int(cols[hit[1]]))

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
    report the failures itself.  A dict ``source`` is read, never changed.
    """
    doc = read_json(source, TableError, parse_constant=_reject_nonfinite)
    if not isinstance(doc, dict) or "table" not in doc:
        raise TableError("document must be an object with a 'table' field")
    table = doc["table"]
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise TableError("'table' must be a list of rows")
    # the entry types as one set, at C speed; then the first bad entry named
    if not all(map(_is_int_type, set(map(type, chain(*table))))):
        v = next(v for v in chain(*table) if not _is_int_type(type(v)))
        raise TableError(f"table entry {v!r} is not an integer")
    order = doc.get("order", len(table))
    if order != len(table):
        raise TableError(f"declared order {order} != table size {len(table)}")
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(
            isinstance(s, str) for s in labels)):
        raise TableError("'labels' must be a list of strings")
    # ragged rows would fail inside numpy: refused with FiniteTable's text
    if any(len(row) != len(table) for row in table):
        raise TableError("table must be square")
    # one array, and the parsed lists dropped before the n^3 build
    tbl = np.array(table)
    name = name or doc.get("name", "table")
    del doc, table
    # identity-at-0 is enforced by the axiom validation inside FiniteTable
    return FiniteTable(tbl, labels=labels, name=name, validate=validate)


def cyclic_table(n: int, name: str | None = None) -> FiniteTable:
    """The cyclic group Z_n as a (trivially gyrated) gyrogroup."""
    idx = np.arange(n)
    return FiniteTable((idx[:, None] + idx[None, :]) % n,
                       name=name or f"z{n}")


def klein_table() -> FiniteTable:
    """The Klein four-group."""
    return FiniteTable([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
                       name="klein4")
