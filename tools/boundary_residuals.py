#!/usr/bin/env python3
"""Residuals of the Einstein axiom and identity checks near the boundary.

    python3 tools/boundary_residuals.py

On the Einstein ball of dimension ``DIM`` and radius ``C``, for each
boundary distance delta = 1 - |x|/c from 1e-2 to 1e-8, draws ``SAMPLES``
triples (seed ``SEED``) with x uniform on the sphere of radius c (1 - delta)
and y, z from the model's sampler (uniform in the ball of radius 0.99c),
runs the block bodies of ``check_axioms`` and ``check_identities`` on
them at eps 0, and prints each check's largest residual.  A ``*`` marks
residuals above the default tolerance 1e-9, so the table shows where
that tolerance stops being attainable.

This is a reported sweep, not a test: nothing here gates anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gyrokit.core import _axiom_checks, _identity_checks
from gyrokit.models import EinsteinModel

DIM, C, SAMPLES, SEED = 3, 1.0, 10_000, 0
DISTANCES = [10.0 ** -k for k in range(2, 9)]
TOL = 1e-9


def residuals(model: EinsteinModel, delta: float, samples: int,
              seed: int) -> dict[str, float]:
    """Largest residual per check with x on the shell at ``delta``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(samples, model.dim))
    x *= model.c * (1.0 - delta) / model.norm(x)[:, None]
    y, z = model.sample(rng, samples), model.sample(rng, samples)
    results = _axiom_checks(model, x, y, z) + _identity_checks(model, x, y, z)
    return {r.name: r.max_residual for r in results}


def main() -> int:
    model = EinsteinModel(dim=DIM, c=C, eps=0.0)
    cols = [residuals(model, d, SAMPLES, SEED) for d in DISTANCES]
    names = sorted(cols[0])
    width = max(map(len, names)) + 2
    print(f"{model.name}, {SAMPLES} samples, seed {SEED}; "
          f"rows: check, columns: 1 - |x|/c; * marks > {TOL:g}")
    print("".ljust(width) + "".join(f"{d:>11.0e}" for d in DISTANCES))
    for name in names + ["worst"]:
        row = [max(col.values()) if name == "worst" else col[name]
               for col in cols]
        print(name.ljust(width)
              + "".join(f"{r:>10.1e}" + ("*" if r > TOL else " ") for r in row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
