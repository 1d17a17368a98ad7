"""Gyrogroup model interface and the axiom/identity verification engine.

A gyrogroup is a magma (G, +) with a two-sided identity, two-sided
inverses, and for every pair a, b an automorphism gyr[a, b] of (G, +)
(the gyration) such that

    a + (b + z) = (a + b) + gyr[a, b](z)        (gyroassociativity)
    gyr[a + b, b] = gyr[a, b]                   (loop property)

Groups are exactly the gyrogroups with all gyrations trivial.  The
gyration is recovered from the operation through

    gyr[a, b](z) = -(a + b) + (a + (b + z))

which every model here exposes as ``gyr_formula``.  The models with a
known closed form, the Einstein ball and the Moebius disk, override
``gyr``, and finite tables read it from their distinct gyrations,
computed once by the same formula; the formula remains the oracle and
the two are compared by ``check_identities``.

Continuous models are verified on samples, seeded pseudorandom draws
plus deterministic boundary-stress points; finite tables on all n^3
triples (below).  Failures are report entries with a witness that
reproduces the failure, never exceptions.

Continuous sweeps run in consecutive blocks of ``ROWS`` rows, and no
draw-sized array ever exists: each block draws its own rows with the
model's ``sample``, from a generator seeded by the sweep's seed and the
block's place, into column-major slots (the Einstein kernels read their
(N, d) operands column by column, so each column is one contiguous
read).  The blocks are independent, so they are drawn and swept on a
thread pool made for the sweep, one worker per available CPU, with a few
blocks per worker in flight (``_mapped``).  Finite sweeps run one slab of
max(``CHUNK`` // n^2, 1) whole first indices at a time (``_slabs``), in
the calling thread.  Either way each block's check list is folded into
the report as it finishes (``_merged``), so that the report equals that
of one pass over all rows, and a sweep's memory does not grow with its
sample count.  Within a block, each gyration gyr[a, b] is applied once
to a stack of its arguments, and each sum a + b is formed once.

``check_axioms`` and ``check_identities`` on a finite table first run
whole-table tests of O(k n^2) cost, k the number of distinct gyrations
(``_finite_axioms_hold``).  When they hold, every check passes on all n^3
triples, and the passing records are returned as they are.  Only when
one fails does a slab sweep run, to find the witnesses: the identities'
on each slab's index grid, the axioms' as gathers on ``table``,
``inverses`` and ``P[gid]`` in ``P``'s dtype, one of shape (slab, n, n)
per check.
"""

from __future__ import annotations

import functools
import json
import math
import os
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, replace
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

# Rows per finite sweep block.  2^16 keeps every table of order <= 40 in
# one slab, order 48 in two: 2^14 slowed the load of order-32 and -48 tables.
CHUNK = 2 ** 16

# Rows per continuous sweep block: a block's temporaries then fit in L2,
# where 2^16 rows did not.  Each block draws from a generator of its own,
# so the cuts fix the draw: another value changes continuous reports.
ROWS = 2 ** 14


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

    def stress_elements(self) -> list:
        """Deterministic hard-case elements mixed into every sample sweep."""
        return [self.zero]

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
    """Collected verdicts of a sweep, a chain validation or a command.

    ``records`` are the JSON-ready records that have no ``CheckResult``:
    the command configuration, values, and the coset listing that goes
    with a passing partition; they never decide ``passed``.
    ``failing_index`` is the first chain index whose containment law
    fails (chain validations only)."""

    results: list[CheckResult] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
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

    def all_records(self) -> list[dict]:
        """The extra records, then one record per check result."""
        return self.records + [r.record() for r in self.results]

    def to_json_lines(self) -> list[str]:
        """Every record as one JSON line with sorted keys, the lines sorted:
        the one serializer of reports.  Check records come out in name
        order."""
        return sorted(json.dumps(r, sort_keys=True)
                      for r in self.all_records())


def read_json(source, error: type[ValueError], **loads_kwargs):
    """The document of a JSON source: a dict as it is, or text, bytes or a
    readable parsed, with malformed JSON raised as ``error``."""
    if isinstance(source, dict):
        return source
    text = source.read() if hasattr(source, "read") else source
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        return json.loads(text, **loads_kwargs)
    except json.JSONDecodeError as e:
        raise error(f"invalid JSON: {e}") from None


def _drawn(model: GyroModel, spec: SampleSpec):
    """A continuous sweep's number of blocks, and ``draw(k)``, block k.

    Three slots of ``len(stress) + spec.count`` rows, the stress elements
    rotated through their first rows so every stress point meets every
    role, are cut into consecutive blocks of ``ROWS`` rows, the remainder
    joining the last block so that no block is shorter.  Block k of slot j
    writes the rest of its rows with ``model.sample``, drawn from a
    generator of its own, seeded by ``spec.seed`` and the spawn key
    (j, k), into a column-major array."""
    # a bad seed is refused here, before any block runs
    entropy = np.random.SeedSequence(spec.seed).entropy
    stress = model.stress_elements()
    h = len(stress)
    heads = [np.stack(stress[j:] + stress[:j]) for j in range(3)]
    rows = h + spec.count
    blocks = max(rows // ROWS, 1)

    def draw(k):
        lo = k * ROWS
        hi = rows if k == blocks - 1 else lo + ROWS
        slots = []
        for j, head in enumerate(heads):
            slot = np.empty((hi - lo,) + head.shape[1:], head.dtype,
                            order="F")
            skip = max(h - lo, 0)
            slot[:skip] = head[lo:lo + skip]
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy, spawn_key=(j, k)))
            slot[skip:] = model.sample(rng, hi - lo - skip)
            slots.append(slot)
        return tuple(slots)
    return blocks, draw


def _workers(items: int) -> int:
    """Threads for ``items`` independent tasks: one per CPU available to
    the process, at most one per task, at least one."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(min(cpus, items), 1)


def _mapped(fn, items: Sequence):
    """Yield ``fn(item)`` for each of ``items`` in order, from a thread pool
    made for this call that keeps two tasks per worker in flight, so that
    memory does not grow with the number of items.  numpy releases the
    interpreter lock inside its array loops, so independent items overlap
    there.  One worker runs in the calling thread.  The first exception in
    item order is raised; the pool is shut down, its waiting tasks
    cancelled, when the generator ends or is closed."""
    workers = _workers(len(items))
    if workers == 1:
        yield from map(fn, items)
        return
    # imported on first use: concurrent.futures loads logging, queue and
    # traceback, 0.6 MiB that a process which never pools need not hold
    from concurrent.futures import ThreadPoolExecutor
    pool, pending = ThreadPoolExecutor(workers), deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_allocator() -> None:
    """Fix glibc's mmap threshold at 8 MiB and its trim threshold at
    32 MiB, once per process.

    A streamed sweep allocates and frees block-sized arrays throughout.
    glibc raises both thresholds only as far as the largest freed mmapped
    chunk, so they would stay low, and every block's temporaries would be
    handed back to the kernel and faulted in again.  Nothing is done on
    another C library, or where it has no ``mallopt``."""
    # imported here: a process that never streams a sweep need not
    import ctypes
    libc = ctypes.CDLL(None)
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None or not hasattr(libc, "gnu_get_libc_version"):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 32 << 20)


def _swept(model: GyroModel, spec: SampleSpec, checks) -> AxiomReport:
    """Run ``checks(model, x, y, z)`` on every block and merge per check.
    Continuous blocks are drawn and swept on threads, under the pinned
    allocator thresholds; finite slabs' index grids are built and swept
    in the calling thread."""
    if model.is_finite:
        n = model.n
        return _merged(checks(model, *np.mgrid[lo:hi, :n, :n].reshape(3, -1))
                       for lo, hi in _slabs(n))
    _pin_allocator()
    blocks, draw = _drawn(model, spec)
    return _merged(_mapped(lambda k: checks(model, *draw(k)), range(blocks)))


def _merged(parts) -> AxiomReport:
    """One report from the check lists of consecutive blocks, folded in as
    they arrive.  A check keeps the result of the first block with the
    largest maximum (NaN first), the row one argmax over all rows picks,
    with its verdict and witness; its samples are summed."""
    parts = iter(parts)
    merged = list(next(parts))
    for part in parts:
        for i, (m, r) in enumerate(zip(merged, part)):
            # r is worse when larger, or NaN where m is not
            a, b = r.max_residual, m.max_residual
            worse = a > b or math.isnan(a) > math.isnan(b)
            merged[i] = replace(r if worse else m,
                                samples=m.samples + r.samples)
    return AxiomReport(merged)


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


def _is_int_type(t: type) -> bool:
    """Whether t is a Python or NumPy integer type, bool not included."""
    return t is not bool and issubclass(t, (int, np.integer))


def _indices(a, n: int):
    """``a`` as ``intp`` indices into 0 ... n - 1, an int as is: before the
    cast, ``CarrierError`` for any bool, non-integer or value out of range."""
    if _is_int_type(type(a)) and 0 <= a < n:
        return a
    arr = a if isinstance(a, np.ndarray) else np.array(a, dtype=object)
    ints = arr.dtype.kind in "iu" or (arr.dtype == object and all(
        map(_is_int_type, set(map(type, arr.flat)))))
    if arr.size and not (ints and arr.min() >= 0 and arr.max() < n):
        raise CarrierError("index out of range")
    return arr.astype(np.intp, copy=False)


def _takes(a, n: int) -> bool:
    """Whether ``_indices`` takes a."""
    try:
        _indices(a, n)
    except CarrierError:
        return False
    return True


def _at(values, i):
    """values[i] for one element i; ``CarrierError`` for a batch too."""
    if getattr(j := _indices(i, len(values)), "ndim", 0):
        raise CarrierError("index out of range")
    return values[j]


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

    A finite table's records are exact and count all n^3 triples (n^2
    gyrations for bijectivity).  When the O(k n^2) tests of
    ``_finite_axioms_hold`` pass, every triple passes and the records are
    returned without a sweep; otherwise the slab sweep reports each
    check's first failing triple in row-major order.
    """
    if model.is_finite:
        n = model.n
        T = model.table.astype(model.P.dtype)
        if _finite_axioms_hold(model, T):
            return AxiomReport([CheckResult.exact(
                name, n * n if name == "gyration-bijectivity" else n ** 3)
                for name in _FINITE_CHECKS])
        # built once: the table's transpose and left division
        Tt = np.ascontiguousarray(T.T)
        left = _left_division(model)
        return _merged(_finite_axiom_checks(model, T, Tt, left, lo, hi)
                       for lo, hi in _slabs(n))
    return _swept(model, spec, _axiom_checks)


def _axiom_checks(model: GyroModel, x, y, z) -> list[CheckResult]:
    """The sampled axiom checks of ``check_axioms`` on one block."""
    out = []
    add = out.append

    zero = model.zero
    add(_sweep(model, "axiom-identity-left", model.op(zero, x), x, [x]))
    add(_sweep(model, "axiom-identity-right", model.op(x, zero), x, [x]))

    # -x is formed twice and x + y after the stacked gyration, so that no
    # other block-sized array is alive while it runs: its three-row
    # argument and output set the block's peak memory
    add(_sweep(model, "axiom-inverse-left", model.op(model.inv(x), x), zero,
               [x]))
    add(_sweep(model, "axiom-inverse-right", model.op(x, model.inv(x)), zero,
               [x]))

    gy, gzx, gx = model.gyr(x, y, np.stack([z, model.op(z, x), x]))
    xy = model.op(x, y)
    add(_sweep(model, "axiom-gyroassociativity",
               model.op(x, model.op(y, z)), model.op(xy, gy), [x, y, z]))
    add(_sweep(model, "axiom-loop-property",
               model.gyr(xy, y, z), gy, [x, y, z]))
    add(_sweep(model, "gyration-additivity",
               gzx, model.op(gy, gx), [x, y, z]))

    norm = getattr(model, "norm", None)
    if norm is not None:
        add(_verdict(model, "gyration-isometry", np.abs(norm(gy) - norm(z)),
                     [x, y, z]))
    return out


def _slabs(n: int) -> list[tuple[int, int]]:
    """The ranges [lo, hi) of first indices that cut an n^3 cube into slabs
    of max(CHUNK // n^2, 1) whole first indices; the last may be shorter."""
    step = max(CHUNK // (n * n), 1)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _gather(M, a, b):
    """M[a, b] for broadcasting index arrays a and b, as one gather at the
    flat indices a m + b of the m-column M: faster than numpy's indexing
    with two arrays, and reading along rows of M where b varies fastest."""
    return M.ravel()[a.astype(np.intp) * M.shape[1] + b]


def _slab_verdict(name: str, bad, lo: int, samples: int) -> CheckResult:
    """An exact verdict whose witness is the first True of ``bad`` (a slab
    of first indices from ``lo``)."""
    hit = first_hit(bad)
    if hit:
        hit[0] += lo
    return CheckResult.exact(name, samples, hit and {
        "elements": hit, "residual": 1.0})


# the checks of a finite ``check_axioms``, in ``_finite_axiom_checks``' order
_FINITE_CHECKS = ("axiom-identity-left", "axiom-identity-right",
                  "axiom-inverse-left", "axiom-inverse-right",
                  "axiom-gyroassociativity", "axiom-loop-property",
                  "gyration-additivity", "gyration-bijectivity",
                  "gyration-left-division")

# the checks of ``check_identities``, in ``_identity_checks``' order
_IDENTITY_CHECKS = tuple(f"identity-{name}" for name in (
    "left-cancellation", "right-cancellation", "right-cancellation-co",
    "gyration-formula", "gyrotranslation", "gyrosum-inversion"))


def _finite_axioms_hold(model: GyroModel, T) -> bool:
    """Whether every triple of a finite table passes every check of
    ``_finite_axiom_checks``, decided by whole-table tests of O(k n^2) cost,
    k = len(P), with ``T`` the table in ``P``'s dtype.  False means that a
    test failed; the slab sweep then finds the witnesses.

    The tests take ``P[gid]`` to be the gyrations the load builds from the
    formula gyr[a, b](z) = -r + w, r = a + b and w = a + (b + z):

    * identity and inverses: the n-sized checks themselves;
    * r + (-r + w) = w for all r, w: at r = a + b, w = a + (b + z) this
      is gyroassociativity at (a, b, z).  It also makes each row r of the
      table a bijection, inverse to row -r, so that left division solves
      r + w' = w as w' = -r + w, the gyration itself;
    * gid[a + b, b] = gid[a, b]: the loop property, as equal ids are equal
      rows; the load gives distinct rows distinct ids, so it is exact;
    * every row of ``P`` sorts to 0 ... n - 1: bijectivity, exact as the
      load keeps only rows that some pair has;
    * P[i, z + x] = P[i, z] + P[i, x] on the distinct pairs
      (i, x) = (gid[x, y], x): additivity as the sweep tests it, at
      min(k n, n^2) n cost.

    On a table built by the load the tests hold exactly when every check
    passes.  ``P`` is sorted ``CHUNK // n`` rows at a time and the pairs
    are found and tested one ``_slabs`` slab of x at a time, so that no
    temporary holds much more than max(CHUNK, n^2) entries, however large
    k is."""
    n, P, gid, inv = model.n, model.P, model.gid, model.inverses
    x = np.arange(n, dtype=T.dtype)
    if not ((T[0] == x).all() and (T[:, 0] == x).all()
            and (T[inv, x] == 0).all() and (T[x, inv] == 0).all()):
        return False
    if not (_gather(T, x[:, None], T[inv]) == x).all():
        return False
    if not (_gather(gid, T, x) == gid).all():
        return False
    step = max(CHUNK // n, 1)
    if not all((np.sort(P[i:i + step], axis=1) == x).all()
               for i in range(0, len(P), step)):
        return False
    Tt = T.T
    for lo, hi in _slabs(n):
        # the slab's distinct pairs (gid[x, y], x), marked in a slab x k
        # mask: no sort, and np.unique's first hash-table call would add
        # 0.7 MiB to the process's resident memory
        seen = np.zeros((hi - lo, len(P)), dtype=bool)
        seen[np.arange(hi - lo)[:, None], gid[lo:hi]] = True
        a, i = np.nonzero(seen)
        a += lo
        # P[i, z + a] = P[i, z] + P[i, a]
        if not (_gather(P, i[:, None], Tt[a])
                == _gather(T, P[i], P[i, a][:, None])).all():
            return False
    return True


def _finite_axiom_checks(model: GyroModel, T, Tt, left, lo: int,
                         hi: int) -> list[CheckResult]:
    """The checks of ``check_axioms`` on the triples (x, y, z) with
    lo <= x < hi of a finite table, as gathers on ``T`` (the table in
    ``P``'s dtype), its transpose ``Tt``, ``inverses``, ``P[gid]`` and the
    ``_left_division`` table ``left``.  Each check counts the slab's
    (hi - lo) n^2 triples, and a failure's witness is its first failing
    triple in row-major order: [x] alone for the checks that involve x
    only, whose first failing row is (x, 0, 0).  Exact finite-only checks
    follow: gyration bijectivity, on the slab's (hi - lo) n gyrations but
    sorted once per distinct permutation, and left division, which solves
    (x + y) + w = x + (y + z) for w with the first-occurrence inverse of
    each Cayley row and compares against the gyration; the two agree
    exactly when gyroassociativity holds with a unique solution."""
    n, P, gid = model.n, model.P, model.gid
    x = np.arange(lo, hi)
    inv = model.inverses[x]
    Ta, Ga = T[lo:hi], P[gid[lo:hi]]
    ids, back = np.unique(gid[lo:hi], return_inverse=True)
    nonperm = (np.sort(P[ids], axis=1) != np.arange(n, dtype=P.dtype)).any(1)
    TaT = Ta[:, T]  # x + (y + z)
    cube = (hi - lo) * n * n
    rows = np.arange((hi - lo) * n).reshape(hi - lo, n, 1)
    return [
        _slab_verdict("axiom-identity-left", T[0, x] != x, lo, cube),
        _slab_verdict("axiom-identity-right", T[x, 0] != x, lo, cube),
        _slab_verdict("axiom-inverse-left", T[inv, x] != 0, lo, cube),
        _slab_verdict("axiom-inverse-right", T[x, inv] != 0, lo, cube),
        # x + (y + z) = (x + y) + gyr[x, y](z)
        _slab_verdict("axiom-gyroassociativity",
                      TaT != _gather(T, Ta[:, :, None], Ga), lo, cube),
        # gyr[x + y, y](z) = gyr[x, y](z)
        _slab_verdict("axiom-loop-property",
                      P[gid[Ta, np.arange(n)]] != Ga, lo, cube),
        # gyr[x, y](z + x) = gyr[x, y](z) + gyr[x, y](x)
        _slab_verdict("gyration-additivity",
                      _gather(Ga.reshape(-1, n), rows, Tt[x][:, None, :])
                      != _gather(Tt, P[gid[x], x[:, None]][:, :, None], Ga),
                      lo, cube),
        _slab_verdict("gyration-bijectivity",
                      nonperm[back].reshape(hi - lo, n), lo, (hi - lo) * n),
        _slab_verdict("gyration-left-division",
                      _gather(left, Ta[:, :, None], TaT) != Ga, lo, cube),
    ]


def _left_division(model: GyroModel) -> np.ndarray:
    """left[r, v]: the least w with r + w = v, n when there is none."""
    n = model.n
    left = np.full((n, n), n, dtype=np.min_scalar_type(n))
    np.minimum.at(left, (np.arange(n)[:, None], model.table),
                  np.arange(n, dtype=left.dtype))
    return left


def check_identities(model: GyroModel, spec: SampleSpec = SampleSpec()) -> AxiomReport:
    """Verify the classical gyrogroup identities on sampled triples.

    * left cancellation              (-x) + (x + y) = y
    * right cancellation, gyr form   (x + (-y)) + gyr[x, -y](y) = x
    * right cancellation, co-form    (x + gyr[x, y](-y)) + y = x
    * gyration formula               gyr agrees with -(x+y) + (x+(y+z))
    * gyrotranslation                (-x+y) + gyr[-x, y](-y+z) = -x+z
    * gyrosum inversion              -(x+y) = gyr[x, y]((-y) + (-x))

    A finite table is a gyrogroup exactly when the tests of
    ``_finite_axioms_hold`` pass, and then every record is an exact pass
    over all n^3 triples, with no sweep: left cancellation, both right
    cancellations, gyrotranslation and gyrosum inversion are theorems of
    the axioms (Ungar, Analytic Hyperbolic Geometry, 2005, ch. 2), and the
    gyration formula holds on every table, as the load builds ``P[gid]``
    by that formula with the same ``inverses``.  A table that fails the
    tests is swept, to find the witnesses.
    """
    if model.is_finite and _finite_axioms_hold(
            model, model.table.astype(model.P.dtype)):
        return AxiomReport([CheckResult.exact(name, model.n ** 3)
                            for name in _IDENTITY_CHECKS])
    return _swept(model, spec, _identity_checks)


def _identity_checks(model: GyroModel, x, y, z) -> list[CheckResult]:
    """The identity checks of ``check_identities`` on one block."""
    out = []
    add = out.append

    ix, iy = model.inv(x), model.inv(y)
    xy = model.op(x, y)
    giy, gz, gs = model.gyr(x, y, np.stack([iy, z, model.op(iy, ix)]))
    add(_sweep(model, "identity-left-cancellation",
               model.op(ix, xy), y, [x, y]))
    add(_sweep(model, "identity-right-cancellation",
               model.op(model.op(x, iy), model.gyr(x, iy, y)), x, [x, y]))
    add(_sweep(model, "identity-right-cancellation-co",
               model.op(model.op(x, giy), y), x, [x, y]))
    add(_sweep(model, "identity-gyration-formula",
               gz, model.gyr_formula(x, y, z), [x, y, z]))
    add(_sweep(model, "identity-gyrotranslation",
               model.op(model.op(ix, y), model.gyr(ix, y, model.op(iy, z))),
               model.op(ix, z), [x, y, z]))
    add(_sweep(model, "identity-gyrosum-inversion",
               model.inv(xy), gs, [x, y]))
    return out
