import functools
import importlib.resources
import itertools
from fractions import Fraction

import numpy as np
import pytest

from gyrokit import (CosetPartition, EinsteinModel, FiniteSet, FiniteTable,
                     MobiusModel, RadialBall, homogeneity_translate,
                     radial_add, table_load)
from gyrokit.core import CheckResult, _drawn, first_hit
from gyrokit.sets import member_masks, oplus_rows


def triples(model, spec):
    """The whole draw (X, Y, Z) of a continuous sweep: its blocks, drawn
    one after another, concatenated slot by slot."""
    blocks, draw = _drawn(model, spec)
    return tuple(np.concatenate(slot)
                 for slot in zip(*[draw(k) for k in range(blocks)]))


def bundled_table_path(name: str):
    return importlib.resources.files("gyrokit") / "tables" / f"{name}.json"


def load_bundled(name: str):
    return table_load(bundled_table_path(name).read_text(), name=name)


def set_of_bits(n: int, bits: int) -> FiniteSet:
    """The subset of 0..n-1 whose members are the set bits of ``bits``:
    enumerates every subset as the integers 0..2^n - 1."""
    return FiniteSet(n, indices=[i for i in range(n) if bits >> i & 1])


@pytest.fixture(scope="session")
def z4():
    return load_bundled("z4")


@pytest.fixture(scope="session")
def klein4():
    return load_bundled("klein4")


@pytest.fixture(scope="session")
def g8():
    return load_bundled("g8")


@pytest.fixture(scope="session")
def g8xz2(g8):
    """The direct product g8 x Z_2; the pair (a, b) has index 2 a + b."""
    i = np.arange(16)
    a, b = i // 2, i % 2
    T = g8.table[a[:, None], a[None, :]] * 2 + (b[:, None] + b[None, :]) % 2
    return FiniteTable(T, name="g8xz2")


@pytest.fixture(scope="session")
def einstein():
    return EinsteinModel(dim=3, c=1.0)


@pytest.fixture(scope="session")
def mobius():
    return MobiusModel()


def brute_subgyrogroups(model):
    """All subgyrogroups, found with no library help beyond op/inv, by size
    and then members: every union of 0 and inverse pairs {x, -x} that is
    closed under op, which is every subset closed under both."""
    n = model.n
    op = [[int(model.op(x, y)) for y in range(n)] for x in range(n)]
    inv = [int(model.inv(x)) for x in range(n)]
    pairs = sorted({tuple(sorted({x, inv[x]})) for x in range(1, n)})
    out = []
    for r in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, r):
            s = {0}.union(*chosen)
            if all(op[x][y] in s for x in s for y in s):
                out.append(tuple(sorted(s)))
    return sorted(out, key=lambda s: (len(s), s))


def brute_gyr(model, a, b, z):
    """gyr[a, b](z) solved from gyroassociativity by row scan (the oracle)."""
    ab = int(model.op(a, b))
    target = int(model.op(a, model.op(b, z)))
    hits = [w for w in range(model.n) if int(model.op(ab, w)) == target]
    assert len(hits) == 1, f"left division not unique at {(a, b, z)}"
    return hits[0]


def full_gyrations(model):
    """G[a, b, z] = gyr[a, b](z) = -(a + b) + (a + (b + z)) for every
    triple, as one n^3 gather on the table and its inverses: the oracle
    that ``P`` and ``gid`` are tested against, independent of both."""
    T, inv = model.table, model.inverses
    return T[inv[T][:, :, None], T[:, T]]


def plant_gyration(model, a, b, row):
    """Make gyr[a, b] read the index row ``row``: the row is appended to
    ``P`` and ``gid[a, b]`` points at it; every other gyration is kept."""
    row = np.asarray(row, dtype=model.P.dtype)
    model.P = np.concatenate([model.P, row[None]])
    model.gid[a, b] = len(model.P) - 1


def brute_l_subgyrogroups(model):
    """L-subgyrogroups via the brute-force gyration oracle."""
    gyr = functools.cache(lambda a, h, x: brute_gyr(model, a, h, x))
    out = []
    for sub in brute_subgyrogroups(model):
        s = set(sub)
        if all({gyr(a, h, x) for x in s} == s
               for a in range(model.n) for h in s):
            out.append(sub)
    return out


def brute_left_cosets(model, H):
    """The distinct left cosets a + H, each a Python set of
    ``model.op(a, h)``, ordered by least element: (``cosets``, ``index_of``)
    as ``left_cosets`` gives them, members ascending."""
    found = {frozenset(int(model.op(a, h)) for h in H.indices())
             for a in range(model.n)}
    cosets = sorted(tuple(sorted(c)) for c in found)
    index_of = [next(i for i, c in enumerate(cosets) if a in c)
                for a in range(model.n)]
    return cosets, index_of


def brute_coset_defects(model, hidx):
    """Every way the sets a + H, H = ``hidx``, fail to be a partition with
    (a + h) + H = a + H: a coset of size other than |H|, a coset meeting
    another, an uncovered carrier, an unstable (a, h); each in words."""
    of = [frozenset(int(model.op(a, h)) for h in hidx)
          for a in range(model.n)]
    found = sorted(tuple(sorted(c)) for c in set(of))
    out = {f"coset {c} has size {len(c)} != |H|"
           for c in found if len(c) != len(hidx)}
    out |= {f"cosets overlap: {c}" for c in found
            if any(set(c) & set(d) for d in found if d != c)}
    if set().union(*of) != set(range(model.n)):
        out.add("cosets do not cover the carrier")
    out |= {f"(a+h)+H != a+H at a={a}, h={h}; H is not coset-stable"
            for a in range(model.n) for h in hidx
            if of[int(model.op(a, h))] != of[a]}
    return out


def hand_built_partition(model, hidx, classes):
    """A ``CosetPartition`` of ``model`` into ``classes``, given by least
    element, taken as the cosets of H = ``hidx`` unchecked, as
    ``left_cosets`` would not."""
    index_of = np.zeros(model.n, dtype=np.int64)
    for i, c in enumerate(classes):
        index_of[list(c)] = i
    return CosetPartition(model, FiniteSet(model.n, indices=hidx), index_of)


# The finite gyration tests as they were before each became a read of
# ``FiniteTable.leaving_pair``: per-pair cubes, kept as the oracles of the
# one test over the rows of ``P``.

def cube_l_subgyrogroup(model, H):
    """``is_L_subgyrogroup`` on a finite table from the n x |H| x |H|
    gather of the images gyr[a, h](x): the first (a, h), row-major, with an
    image outside H."""
    idx = H.index_array()
    img = model.P[model.gid[:, idx][:, :, None], idx]
    hit = first_hit(~H.members()[img].all(-1))
    if hit:
        return False, {"kind": "gyration",
                       "elements": [hit[0], int(idx[hit[1]])]}
    return True, None


def cube_micro_assoc(model, W, V):
    """Finite ``micro_assoc_check`` from both sides a + (b + V) and
    (a + b) + V as |W| x |W| x n membership cubes, gathered through the
    |W| x |W| x |V| index cube."""
    T, w, v = model.table, W.index_array(), V.index_array()
    lhs = member_masks(T[w[:, None, None], T[w[:, None], v]], model.n)
    rhs = member_masks(T[T[np.ix_(w, w)][:, :, None], v], model.n)
    hit = first_hit(np.any(lhs != rhs, axis=-1))
    if hit:
        i, j = hit
        hit = {"elements": w[hit].tolist(), "difference":
               np.flatnonzero(lhs[i, j] ^ rhs[i, j]).tolist()}
    return CheckResult.exact("micro-associativity", len(W) ** 2, hit)


def table_homogeneity(part):
    """The ``cosets`` command's homogeneity-bijection check from the n x n
    table of the cosets of a + x: h_a is read off each coset's least
    member, and is split where another member disagrees."""
    model = part.model
    at = part.index_of[model.table]
    img = at[:, part.representatives]
    split = np.any(at != img[:, part.index_of], axis=1)
    img.sort(axis=1)
    first = np.flatnonzero(
        split | np.any(img != np.arange(len(part.cosets)), axis=1))
    bad = None
    if first.size:
        a = int(first[0])
        for i in range(len(part.cosets)):
            homogeneity_translate(part, a, i)  # raises where h_a is split
        bad = {"elements": [a], "images": img[a].tolist()}
    return CheckResult.exact(
        "homogeneity-bijection", model.n * len(part.cosets), bad)


class FullDyadicFamily:
    """The dyadic family built to all 2^depth rows, one level at a time,
    past the chain's stabilization level: the reference that
    ``DyadicFamily``, which stops there, is tested against.

    ``rows[m - 1]`` = V(m/2^depth) for m = 1 ... 2^depth, membership rows
    or radii; ``entries`` maps each reduced r = m/2^depth to V(r) as a
    ``FiniteSet`` or ``RadialBall``.  Finite families keep ``_num`` =
    2^depth N and ``_rho`` = 2^depth rho_N, so that ``prenorm_laws_check``
    runs on this family too.
    """

    def __init__(self, model, chain, depth):
        self.model, self.chain, self.depth = model, chain, depth
        self.scale = scale = 2 ** depth
        finite = chain.kind == "finite"
        U = chain.set_at(0)
        rows = np.array([U.members() if finite else U.radius])
        below = np.zeros_like(rows)  # V(0) = {0}: the row of 0, or radius 0
        below[..., 0] = finite
        for k in range(1, depth + 1):
            odd = self._oplus(chain.set_at(k), np.concatenate([below, rows[:-1]]))
            rows = np.stack([odd, rows], axis=1).reshape((-1,) + rows.shape[1:])
        self.rows = rows
        self.tail = chain.tail
        if finite:
            # N(x) is the first value whose tail (+) V(r) holds x, 1 past all
            hits = self._oplus(self.tail, rows)
            num = np.where(hits.any(axis=0), hits.argmax(axis=0) + 1, scale)
            self._num = np.where(self.tail.members(), 0, num).astype(
                np.min_scalar_type(2 * scale))
            wide = self._num[model.table[model.inverses]]  # num[-x + y]
            self._rho = wide + wide.T

    def _oplus(self, U, rows):
        if self.chain.kind != "finite":
            return radial_add(U.radius, rows, self.model.c)
        return oplus_rows(self.model, U, rows)

    @functools.cached_property
    def entries(self):
        sets = (map(FiniteSet.of, self.rows) if self.chain.kind == "finite"
                else map(RadialBall, self.rows.tolist()))
        return {Fraction(m, self.scale): S for m, S in enumerate(sets, 1)}

    def value_grid(self):
        return [Fraction(int(m), self.scale) for m in self._num]

    def prenorm(self, x):
        return Fraction(int(self._num[int(x)]), self.scale)

    def monotone_check(self):
        rows = self.rows
        if self.chain.kind == "finite":
            hit = first_hit(rows[:-1] & ~rows[1:])
            if hit:
                i = hit[0]
                hit = {"r": str(Fraction(i + 1, self.scale)),
                       "s": str(Fraction(i + 2, self.scale)),
                       "escaped": np.flatnonzero(rows[i] & ~rows[i + 1]).tolist()}
            return CheckResult.exact("family-monotone", len(rows), hit)
        diffs = np.diff(rows)
        ok = bool(np.all(diffs >= 0))
        worst = float(-diffs.min()) if diffs.size else 0.0
        return CheckResult("family-monotone", ok, len(rows), max(0.0, worst),
                           None if ok else {"radii": rows.tolist()})
