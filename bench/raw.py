"""Plain-numpy arithmetic on raw Cayley tables, independent of gyrokit.

The corpus generator uses it to build tables and find subgroups; the
output checker uses it to replay witnesses and re-validate chains.  A
table ``T`` is an (n, n) integer array with ``T[a, b] = a + b`` and the
identity at index 0.
"""

from __future__ import annotations

import itertools
import json

import numpy as np


def load_table(path: str) -> np.ndarray:
    with open(path) as fh:
        return np.asarray(json.load(fh)["table"], dtype=np.int64)


def cyclic(k: int) -> np.ndarray:
    i = np.arange(k)
    return (i[:, None] + i[None, :]) % k


def product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Direct product A x B; the pair (a, b) has index a * len(B) + b."""
    nb = len(B)
    idx = np.arange(len(A) * nb)
    a, b = idx // nb, idx % nb
    return A[a[:, None], a[None, :]] * nb + B[b[:, None], b[None, :]]


def inverse(T: np.ndarray) -> np.ndarray:
    """The inverse map, by the same rule ``FiniteTable`` uses unvalidated.

    The first two-sided inverse, else the first left inverse, else 0; on a
    valid table this is the unique two-sided inverse.
    """
    inv = np.zeros(len(T), dtype=np.int64)
    for a in range(len(T)):
        hits = np.nonzero((T[a] == 0) & (T[:, a] == 0))[0]
        if hits.size == 0:
            hits = np.nonzero(T[a] == 0)[0]
        inv[a] = hits[0] if hits.size else 0
    return inv


def gyr(T: np.ndarray, inv: np.ndarray, a, b, z):
    """gyr[a, b](z) = -(a + b) + (a + (b + z)), by table lookups."""
    return T[inv[T[a, b]], T[a, T[b, z]]]


def gyration_tensor(T: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """G[a, b, z] = gyr[a, b](z) for every triple."""
    n = len(T)
    a_bz = T[np.arange(n)[:, None, None], T[None, :, :]]
    return T[inv[T][:, :, None], a_bz]


def oplus(T: np.ndarray, A, B) -> set[int]:
    """The set sum {a + b : a in A, b in B}."""
    A, B = list(A), list(B)
    if not A or not B:
        return set()
    return set(T[np.ix_(A, B)].ravel().tolist())


def invariant_subgroups(T: np.ndarray) -> list[tuple[int, ...]]:
    """Every subgyrogroup mapped onto itself by all gyrations, by brute force.

    Such a subset is symmetric, closed, and an L-subgyrogroup, so it can
    serve as a coset subgroup H and as a chain tail.  Meant for small
    tables: it enumerates all subsets that contain 0.
    """
    n = len(T)
    inv = inverse(T)
    G = gyration_tensor(T, inv)
    found = []
    for r in range(n):
        for extra in itertools.combinations(range(1, n), r):
            S = (0,) + extra
            mask = np.zeros(n, dtype=bool)
            mask[list(S)] = True
            if (mask[inv[list(S)]].all() and mask[T[np.ix_(S, S)]].all()
                    and mask[G[:, :, list(S)]].all()):
                found.append(S)
    return found
