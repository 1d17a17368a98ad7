import functools
import importlib.resources
import itertools

import numpy as np
import pytest

from gyrokit import (EinsteinModel, FiniteSet, FiniteTable, MobiusModel,
                     table_load)
from gyrokit.core import _drawn


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
    """All subgyrogroups, found with no library help beyond op/inv."""
    n = model.n
    op = [[int(model.op(x, y)) for y in range(n)] for x in range(n)]
    inv = [int(model.inv(x)) for x in range(n)]
    out = []
    for r in range(n):
        for extra in itertools.combinations(range(1, n), r):
            s = set((0,) + extra)
            if any(inv[x] not in s for x in s):
                continue
            if any(op[x][y] not in s for x in s for y in s):
                continue
            out.append(tuple(sorted(s)))
    return out


def brute_gyr(model, a, b, z):
    """gyr[a, b](z) solved from gyroassociativity by row scan (the oracle)."""
    ab = int(model.op(a, b))
    target = int(model.op(a, model.op(b, z)))
    hits = [w for w in range(model.n) if int(model.op(ab, w)) == target]
    assert len(hits) == 1, f"left division not unique at {(a, b, z)}"
    return hits[0]


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
