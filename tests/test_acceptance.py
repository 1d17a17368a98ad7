"""Acceptance suite: the toolkit's exit criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line
per criterion.  Tolerances are pinned here and nowhere else: 1e-9 for
the continuous axiom sweeps, 1/2**10 for the sampled radial sandwich,
1e-6 for the ball micro-associativity residual, exactness everywhere on
finite models.
"""

import json
import time
from fractions import Fraction

import numpy as np

from gyrokit import (EinsteinModel, FiniteSet, MobiusModel, RadialBall,
                     SampleSpec, DyadicChain, admissible_hull,
                     admissible_intersection,
                     admissible_quotient_inclusion_check,
                     build_dyadic_family, check_axioms, check_identities,
                     coset_invariant_N_check, is_L_subgyrogroup, left_cosets,
                     micro_assoc_check, quotient_metric, rho_N,
                     validate_chain)
from gyrokit.cli import main

from conftest import (brute_gyr, brute_l_subgyrogroups, bundled_table_path,
                      load_bundled)

F = Fraction


def _announce(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_axiom_suite():
    """Einstein and Moebius pass axioms + identities at 1e4 samples."""
    spec = SampleSpec(count=10_000, seed=7)
    t0 = time.perf_counter()
    worst = 0.0
    for model in (EinsteinModel(dim=3, c=1.0), MobiusModel()):
        ra = check_axioms(model, spec)
        ri = check_identities(model, spec)
        assert ra.passed, ra.failures()
        assert ri.passed, ri.failures()
        worst = max(worst, ra.max_residual, ri.max_residual)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 5.0
    _announce(1, f"axioms+identities at 1e4 samples, max residual "
                 f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_gyration_oracle(g8):
    """Formula gyration equals the exhaustively solved automorphism."""
    assert not g8.is_group()
    assert g8.n <= 16
    t0 = time.perf_counter()
    for a in range(g8.n):
        for b in range(g8.n):
            for z in range(g8.n):
                assert int(g8.gyr(a, b, z)) == brute_gyr(g8, a, b, z)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _announce(2, f"gyration formula == row-solved automorphism on all "
                 f"{g8.n ** 3} triples of a non-group gyrogroup, "
                 f"{elapsed:.2f}s")


def test_criterion_3_coset_partitions():
    """Every L-subgyrogroup of every bundled model partitions cleanly."""
    total = 0
    for name in ("z4", "klein4", "g8"):
        model = load_bundled(name)
        for sub in brute_l_subgyrogroups(model):
            H = FiniteSet(model.n, indices=sub)
            part = left_cosets(model, H)
            seen = set()
            for c in part.cosets:
                assert len(c) == len(H)
                assert not seen & set(c)
                seen |= set(c)
            assert seen == set(range(model.n))
            for a in range(model.n):
                for h in sub:
                    assert part.project(model.op(a, h)) == part.project(a)
            total += 1
    _announce(3, f"{total} L-subgyrogroups across 3 models: disjoint "
                 f"equal-size covers with (a+h)+H = a+H exhaustively")


def test_criterion_4_prenorm_sandwich(z4, einstein):
    """Exact dyadic values on the Z4 chain; sampled radial sandwich."""
    chain = DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                         FiniteSet(4, indices=[0, 2]),
                         FiniteSet(4, indices=[0])], "weak")
    fam = build_dyadic_family(z4, chain, depth=4)
    assert fam.value_grid() == [F(0), F(1), F(1, 2), F(1)]
    N = fam.prenorm
    for n in range(5):
        U = chain.set_at(n)
        for x in range(4):
            if N(x) < F(1, 2 ** n):
                assert x in U
            if x in U:
                assert N(x) <= F(2, 2 ** n)

    # radial chain 0.8, 0.5, then halving; tolerance 1/2**10 on N values
    radii = [0.8, 0.5] + [0.5 / 2 ** k for k in range(1, 10)]
    rchain = DyadicChain([RadialBall(r) for r in radii], "weak")
    rfam = build_dyadic_family(einstein, rchain, depth=10)
    rng = np.random.default_rng(13)
    xs = einstein.sample(rng, 1000)
    nvals = rfam.prenorm_batch(xs)
    norms = einstein.norm(xs)
    tol = 1.0 / 2 ** 10
    for n in range(11):
        rk = radii[n]
        inside = norms < rk
        assert np.all(inside[nvals < 1.0 / 2 ** n - tol])
        assert np.all(nvals[inside] <= 2.0 / 2 ** n + tol)
    _announce(4, "Z4 prenorm grid (0, 1, 1/2, 1) exact; sandwich holds to "
                 "depth 4 exhaustively and on 1e3 radial samples at 2^-10")


def test_criterion_5_metric_laws(z4, g8, einstein):
    """Triangle inequality and the zero law for rho_N."""
    finite_cases = [
        (z4, DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                          FiniteSet(4, indices=[0, 2]),
                          FiniteSet(4, indices=[0])], "weak")),
        (g8, DyadicChain([FiniteSet(8, indices=range(8)),
                          FiniteSet(8, indices=[0, 1, 4, 5]),
                          FiniteSet(8, indices=[0, 1])], "admissible")),
    ]
    for model, chain in finite_cases:
        fam = build_dyadic_family(model, chain, depth=5)
        tail = chain.tail
        n = model.n
        for x in range(n):
            for y in range(n):
                zero = rho_N(fam, x, y) == 0
                both = (int(model.op(model.inv(x), y)) in tail
                        and int(model.op(model.inv(y), x)) in tail)
                assert zero == both
                for z in range(n):
                    assert rho_N(fam, x, y) <= \
                        rho_N(fam, x, z) + rho_N(fam, z, y)

    radii = [0.8, 0.5] + [0.5 / 2 ** k for k in range(1, 10)]
    fam = build_dyadic_family(
        einstein, DyadicChain([RadialBall(r) for r in radii], "weak"),
        depth=10)
    rng = np.random.default_rng(23)
    xs, ys, zs = (einstein.sample(rng, 10_000) for _ in range(3))

    def rho(a, b):
        return (fam.prenorm_batch(einstein.op(einstein.inv(a), b))
                + fam.prenorm_batch(einstein.op(einstein.inv(b), a)))

    assert np.all(rho(xs, ys) <= rho(xs, zs) + rho(zs, ys))
    _announce(5, "rho_N triangle inequality exact on finite models "
                 "(exhaustive) and at 1e4 Einstein triples; zero law "
                 "matches the chain tail exactly")


def test_criterion_6_quotient_metric(z4):
    """varrho on Z4/{0,2} is 2, representative-independent; N coset-stable."""
    chain = DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                         FiniteSet(4, indices=[0, 2]),
                         FiniteSet(4, indices=[0, 2])], "admissible")
    fam = build_dyadic_family(z4, chain, depth=4)
    H = FiniteSet(4, indices=[0, 2])
    part = left_cosets(z4, H)
    assert quotient_metric(z4, fam, part)[0][1] == F(2)
    vals = {rho_N(fam, x, y) for x in (0, 2) for y in (1, 3)}
    assert vals == {F(2)}
    assert coset_invariant_N_check(z4, fam, H).passed
    for x in range(4):
        for h in (0, 2):
            assert fam.prenorm(z4.op(x, h)) == fam.prenorm(x)
    _announce(6, "varrho(pi(0), pi(1)) = 2 exactly from all 4 "
                 "representative pairs; N(x+h) = N(x) exhaustively")


def test_criterion_7_micro_associativity(g8, einstein):
    """Exact set equality on finite models; 1e-6 Hausdorff on balls."""
    for vidx in ([0, 1], [0, 4], [0, 1, 4, 5], [0, 2, 4, 6],
                 list(range(8))):
        V = FiniteSet(8, indices=vidx)
        assert V.gyr_invariance_witness(g8) is None
        G = FiniteSet(8, indices=range(8))
        r = micro_assoc_check(g8, G, V) if V == G else \
            micro_assoc_check(g8, V, V)
        assert r.passed and r.max_residual == 0.0

    r = micro_assoc_check(einstein, RadialBall(0.3), RadialBall(0.5),
                          SampleSpec(count=100, seed=5))
    assert r.passed
    assert r.max_residual < 1e-6
    _announce(7, f"exact finite set equality; Einstein ball residual "
                 f"{r.max_residual:.2e} over 100 pairs x 256 directions")


def test_criterion_8_admissible_machinery(z4, g8, einstein):
    """Hull validity, diagonal intersections, and the H-inclusion law."""
    built = []
    for model, uidx in ((z4, range(4)), (g8, range(8)), (g8, [0, 1, 4, 5])):
        U = FiniteSet(model.n, indices=uidx)
        chain, tail = admissible_hull(model, U, depth=8)
        assert validate_chain(model, chain).passed
        ok, _ = is_L_subgyrogroup(model, tail)
        assert ok
        built.append((model, chain, tail))
    rchain, rtail = admissible_hull(einstein, RadialBall(0.8), depth=8)
    assert validate_chain(einstein, rchain).passed

    def mk(model, tail_idx):
        return DyadicChain([FiniteSet(model.n, indices=range(model.n)),
                            FiniteSet(model.n, indices=tail_idx),
                            FiniteSet(model.n, indices=tail_idx)],
                           "admissible")

    tails = [[0, 1], [0, 4], [0, 5], [0, 1, 4, 5], [0, 2, 4, 6]]
    chains = [mk(g8, t) for t in tails]
    out, tail = admissible_intersection(g8, chains)
    expected = set(range(8))
    for t in tails:
        expected &= set(t)
    assert set(tail.indices()) == expected
    assert validate_chain(g8, out).passed
    built.append((g8, out, tail))

    for model, chain, tail in built:
        r = admissible_quotient_inclusion_check(model, chain, tail)
        assert r.passed
    _announce(8, "hulls validate with L-subgyrogroup tails; 5-chain "
                 "diagonal tail equals the exact tail intersection; "
                 "U_{n+1}+H <= U_n on every built chain")


def test_criterion_9_determinism(tmp_path):
    """Same seed and config give byte-identical reports (finite models)."""
    g8_sel = f"table:{bundled_table_path('g8')}"
    chain_doc = {"flavor": "admissible",
                 "sets": [[0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 4, 5], [0, 1]]}
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps(chain_doc))

    blobs = []
    for i in (1, 2):
        out = tmp_path / f"a{i}.jsonl"
        assert main(["check", "--model", g8_sel, "--seed", "11",
                     "--out", str(out)]) == 0
        blob = out.read_bytes()
        out2 = tmp_path / f"b{i}.jsonl"
        assert main(["metric", "--model", g8_sel, "--chain", str(chain_path),
                     "--subset", "0,1", "--quotient", "--depth", "6",
                     "--seed", "11", "--out", str(out2)]) == 0
        blobs.append(blob + out2.read_bytes())
    assert blobs[0] == blobs[1]
    _announce(9, "check and metric reports byte-identical across reruns")
