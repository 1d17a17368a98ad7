from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gyrokit import (AxisSet, CarrierError, ChainError, DyadicChain,
                     FiniteSet, OriginSet, RadialBall, SampleSpec,
                     admissible_hull, admissible_intersection,
                     admissible_quotient_inclusion_check, ball,
                     build_dyadic_family, chain_load, coset_invariant_N_check,
                     cyclic_table, is_L_subgyrogroup, left_cosets, metric_d,
                     micro_assoc_check, prenorm_laws_check, quotient_ball,
                     quotient_metric, radial_add, rho_N, shrink,
                     validate_chain)
from gyrokit.prenorm import DyadicFamily, rho_ball

from conftest import FullDyadicFamily, load_bundled

F = Fraction
GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------- oracles

def brute_family(model, chain_sets, depth):
    """Independent dyadic-family enumerator over plain Python sets.

    Recomputes V(1) = U_0, V(1/2^n) = U_n, V(2m/2^n) = V(m/2^(n-1)),
    V((2m+1)/2^n) = U_n (+) V(m/2^(n-1)) with no library set machinery.
    """
    def u(n):
        return set(chain_sets[min(n, len(chain_sets) - 1)])

    def oplus(A, B):
        return {int(model.op(a, b)) for a in A for b in B}

    fam = {F(1): u(0)}
    for n in range(1, depth + 1):
        fam[F(1, 2 ** n)] = u(n)
        for m in range(1, 2 ** (n - 1)):
            fam[F(2 * m + 1, 2 ** n)] = oplus(u(n), fam[F(m, 2 ** (n - 1))])
    return fam


def family_entries(fam):
    """V(r) by reduced dyadic r in (0, 1] at the family's depth, read off
    the full 2^depth build after checking the family against it: its rows
    are the build's level-``levels`` rows and hold every distinct set."""
    full = FullDyadicFamily(fam.model, fam.chain, fam.depth)
    stride = 2 ** (fam.depth - fam.levels)
    np.testing.assert_array_equal(fam.rows, full.rows[stride - 1::stride])
    np.testing.assert_array_equal(np.unique(fam.rows, axis=0),
                                  np.unique(full.rows, axis=0))
    return full.entries


def brute_prenorm(model, chain_sets, depth):
    """Exact infimum N per element: 0 on the tail, else the least dyadic r
    with x in tail (+) V(r), else 1."""
    fam = brute_family(model, chain_sets, depth)
    tail = set(chain_sets[-1])

    def oplus(A, B):
        return {int(model.op(a, b)) for a in A for b in B}

    vals = []
    for x in range(model.n):
        if x in tail:
            vals.append(F(0))
            continue
        best = F(1)
        for r in sorted(fam):
            if r < 1 and x in oplus(tail, fam[r]):
                best = r
                break
        vals.append(best)
    return vals


def z4_weak_chain():
    return DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                        FiniteSet(4, indices=[0, 2]),
                        FiniteSet(4, indices=[0])], "weak")


def z4_adm_chain():
    return DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                        FiniteSet(4, indices=[0, 2]),
                        FiniteSet(4, indices=[0, 2])], "admissible")


def g8_chain(tail_idx, flavor="admissible"):
    return DyadicChain([FiniteSet(8, indices=range(8)),
                        FiniteSet(8, indices=tail_idx),
                        FiniteSet(8, indices=tail_idx)], flavor)


def halving_radial_chain(r0=0.8, r1=0.5, length=11):
    radii = [r0, r1]
    while len(radii) < length:
        radii.append(radii[-1] / 2.0)
    return DyadicChain([RadialBall(r) for r in radii], "weak")


# ------------------------------------------------------------- validation

class TestValidateChain:
    def test_z4_weak_valid(self, z4):
        assert validate_chain(z4, z4_weak_chain()).passed

    def test_asymmetric_set_rejected(self, z4):
        chain = DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                             FiniteSet(4, indices=[0, 1])], "weak")
        report = validate_chain(z4, chain)
        assert not report.passed
        assert any(r.name == "chain-symmetric[1]" for r in report.failures())

    def test_containment_violation_indexed(self, z4):
        chain = DyadicChain([FiniteSet(4, indices=[0, 2]),
                             FiniteSet(4, indices=[0, 1, 2, 3])], "weak")
        report = validate_chain(z4, chain)
        assert not report.passed
        assert report.failing_index == 0

    @pytest.mark.parametrize("flavor", ["weak", "admissible"])
    def test_tail_closure_is_the_pair_law_without_index(self, flavor):
        # the tail T = {0, 1, 7} of Z_8 must satisfy T + T <= T for either
        # flavor: T + T = {6, 7, 0, 1, 2} escapes at 2 and 6, while
        # T + (T + T) would escape at 2, 3, 5 and 6
        z8 = cyclic_table(8)
        chain = DyadicChain([FiniteSet(8, indices=range(8)),
                             FiniteSet(8, indices=[0, 1, 7])], flavor)
        report = validate_chain(z8, chain)
        tail = report.results[-1]
        assert (tail.name, tail.samples, tail.witness) == (
            "chain-tail-closed", 5, {"escaped": [2, 6]})
        assert report.failures() == [tail] and report.failing_index == 1

    def test_radial_halving_valid(self, einstein):
        report = validate_chain(einstein, halving_radial_chain())
        assert report.passed
        # the first step is tight: radial_add(0.5, 0.5) = 0.8 exactly
        assert radial_add(0.5, 0.5) == pytest.approx(0.8, abs=1e-15)

    def test_radial_too_fat_rejected(self, einstein):
        chain = DyadicChain([RadialBall(0.8), RadialBall(0.6)], "weak")
        report = validate_chain(einstein, chain)
        assert not report.passed and report.failing_index == 0

    def test_admissible_implies_weak_is_checked_stronger(self, z4):
        # {0, 2} + ({0, 2} + {0, 2}) = {0, 2} <= G: admissible holds
        assert validate_chain(z4, z4_adm_chain()).passed

    def test_non_gyr_invariant_set_rejected(self, g8):
        # {0, 3} is symmetric (3 is an involution) but gyr[1, 2] moves 3
        chain = DyadicChain([FiniteSet(8, indices=range(8)),
                             FiniteSet(8, indices=[0, 3])], "weak")
        report = validate_chain(g8, chain)
        assert not report.passed
        assert any("gyr-invariant" in r.name for r in report.failures())


class TestFamilyConstruction:
    def test_z4_depth3_entries(self, z4):
        entries = family_entries(build_dyadic_family(z4, z4_weak_chain(),
                                                     depth=3))
        assert entries[F(1)].indices() == (0, 1, 2, 3)
        assert entries[F(1, 2)].indices() == (0, 2)
        assert entries[F(1, 4)].indices() == (0,)
        assert entries[F(3, 4)].indices() == (0, 2)

    def test_matches_brute_enumeration(self, z4, g8):
        cases = [(z4, z4_weak_chain()), (z4, z4_adm_chain()),
                 (g8, g8_chain([0, 1, 4, 5]))]
        for model, chain in cases:
            entries = family_entries(build_dyadic_family(model, chain,
                                                         depth=4))
            oracle = brute_family(model,
                                  [s.indices() for s in chain.sets], 4)
            assert set(entries) == set(oracle)
            for r, S in entries.items():
                assert set(S.indices()) == oracle[r], f"V({r}) differs"

    def test_rows_match_brute_on_g8xz2_hull(self, g8xz2):
        chain, _ = admissible_hull(g8xz2, FiniteSet(16, indices=range(16)),
                                   depth=8)
        sets = [s.indices() for s in chain.sets]
        for depth in range(1, 9):
            fam = build_dyadic_family(g8xz2, chain, depth=depth)
            assert fam.rows.shape == (2 ** fam.levels, 16)
            entries = family_entries(fam)
            oracle = brute_family(g8xz2, sets, depth)
            assert set(entries) == set(oracle)
            for r, S in entries.items():
                assert set(S.indices()) == oracle[r], f"V({r}) differs"
            if depth in (1, 4, 8):
                assert fam.value_grid() == brute_prenorm(g8xz2, sets, depth)

    def test_rows_keep_operand_order(self, g8):
        # an unvalidated chain on sets with {0,3} (+) {0,2} != {0,2} (+)
        # {0,3}: each odd row is U_k (+) V, in that order
        sets = [tuple(range(8)), (0, 2), (0, 3), (0, 2, 3)]
        chain = DyadicChain([FiniteSet(8, indices=t) for t in sets])
        fam = DyadicFamily(g8, chain, 3)
        oracle = brute_family(g8, sets, 3)
        assert {r: set(S.indices())
                for r, S in family_entries(fam).items()} == oracle

    @pytest.mark.parametrize("sets, depth, witness", [
        ([[0, 2], [0, 1, 2, 3], [0]], 1,
         {"r": "1/2", "s": "1", "escaped": [1, 3]}),
        ([[0, 2], [0, 1, 2, 3], [0]], 3,
         {"r": "7/8", "s": "1", "escaped": [1, 3]}),
        ([[0, 1, 2, 3], [0], [0, 2]], 1, None),
        ([[0, 1, 2, 3], [0], [0, 2]], 2,
         {"r": "1/4", "s": "1/2", "escaped": [2]}),
        ([[0, 1, 2, 3], [0], [0, 2]], 4,
         {"r": "7/16", "s": "1/2", "escaped": [2]}),
    ])
    def test_finite_monotone_witness(self, z4, sets, depth, witness):
        # unvalidated chains, built directly: the first adjacent pair
        # V(r) !<= V(s) in ascending order and what escapes
        chain = DyadicChain([FiniteSet(4, indices=t) for t in sets])
        r = DyadicFamily(z4, chain, depth).monotone_check()
        assert (r.passed, r.samples, r.max_residual, r.witness) == (
            witness is None, 2 ** depth, 0.0 if witness is None else 1.0,
            witness)
        assert r == FullDyadicFamily(z4, chain, depth).monotone_check()

    def test_even_indices_reduce(self, z4):
        entries = family_entries(build_dyadic_family(z4, z4_weak_chain(),
                                                     depth=4))
        # V(2m/2^n) = V(m/2^(n-1)): reduced keys make them one entry
        assert F(2, 4) not in entries or F(2, 4) == F(1, 2)
        assert entries[F(2, 4)] is entries[F(1, 2)]

    def test_radial_v34(self, einstein):
        fam = build_dyadic_family(einstein, halving_radial_chain(), depth=3)
        # V(3/4) = U_2 (+) V(1/2): 0.25 (+) 0.5 = 0.75/1.125
        assert family_entries(fam)[F(3, 4)].radius == pytest.approx(
            2 / 3, abs=1e-15)

    def test_radial_depth_cap(self, einstein):
        with pytest.raises(ChainError, match="depth"):
            build_dyadic_family(einstein, halving_radial_chain(length=4),
                                depth=10)

    def test_invalid_chain_raises(self, z4):
        chain = DyadicChain([FiniteSet(4, indices=[0, 1, 2, 3]),
                             FiniteSet(4, indices=[0, 1])], "weak")
        with pytest.raises(ChainError, match="invalid chain"):
            build_dyadic_family(z4, chain, depth=3)


# the chains under tests/golden/chains that validate on their table
VALID_CHAINS = ["g8-adm", "g8-hull", "g8-tail01", "klein4-adm", "z4-adm",
                "z4-weak"]


def golden_chain(name):
    model = load_bundled(name.split("-")[0])
    path = GOLDEN / "chains" / f"{name}.json"
    return model, chain_load(model, path.read_text())


class TestStabilizedFamily:
    """A finite family stops at levels = min(depth, s), s the first
    chain index from which every set is the tail; what it reports equals
    the full 2^depth build's."""

    def test_valid_chains_are_listed(self):
        names = sorted(p.stem for p in (GOLDEN / "chains").glob("*.json"))
        assert [n for n in names
                if validate_chain(*golden_chain(n)).passed] == VALID_CHAINS

    @pytest.mark.parametrize("name", VALID_CHAINS)
    def test_matches_full_build(self, name):
        model, chain = golden_chain(name)
        for depth in range(1, 17):
            fam = build_dyadic_family(model, chain, depth)
            full = FullDyadicFamily(model, chain, depth)
            assert fam.value_grid() == full.value_grid()
            np.testing.assert_array_equal(
                fam._rho.astype(np.int64) << (depth - fam.levels), full._rho)
            assert fam.monotone_check() == full.monotone_check()
            assert (prenorm_laws_check(model, fam)
                    == prenorm_laws_check(model, full))

    def test_depth_62_builds_the_stabilization_level(self):
        # g8-hull lists [.., {0}, {0}]: s = 5, so 2^5 rows at any depth >= 5
        model, chain = golden_chain("g8-hull")
        fam = build_dyadic_family(model, chain, 62)
        assert (fam.levels, fam.scale, fam.rows.shape) == (5, 32, (32, 8))
        assert fam.monotone_check().samples == 2 ** 62
        assert fam.value_grid() == build_dyadic_family(
            model, chain, 6).value_grid()


class TestPrenorm:
    def test_z4_values_exact(self, z4):
        fam = build_dyadic_family(z4, z4_weak_chain(), depth=4)
        assert fam.value_grid() == [F(0), F(1), F(1, 2), F(1)]
        assert fam.value_grid() == brute_prenorm(z4, [(0, 1, 2, 3), (0, 2),
                                                      (0,)], 4)

    def test_g8_values_match_brute(self, g8):
        for tail in ([0, 1], [0, 1, 4, 5], [0, 2, 4, 6]):
            fam = build_dyadic_family(g8, g8_chain(tail), depth=5)
            sets = [tuple(range(8)), tuple(tail), tuple(tail)]
            assert fam.value_grid() == brute_prenorm(g8, sets, 5)

    def test_g8_three_level_chain(self, g8):
        chain = DyadicChain([FiniteSet(8, indices=range(8)),
                             FiniteSet(8, indices=[0, 1, 4, 5]),
                             FiniteSet(8, indices=[0, 1])], "admissible")
        fam = build_dyadic_family(g8, chain, depth=5)
        oracle = brute_prenorm(g8, [tuple(range(8)), (0, 1, 4, 5), (0, 1)], 5)
        assert fam.value_grid() == oracle
        assert fam.value_grid() == [F(0), F(0), F(1), F(1),
                                    F(1, 2), F(1, 2), F(1), F(1)]

    @pytest.mark.parametrize("sets, witness", [
        ([[0, 1], [0, 1, 2]], {"index": 0, "elements": [2], "side": "lower"}),
        ([[0, 1, 2], [0], [0, 1], [0, 1]],
         {"index": 1, "elements": [1], "side": "lower"}),
    ])
    def test_finite_sandwich_witness(self, z4, sets, witness):
        # unvalidated chains, built directly: the first (k, x) in order
        # with N(x) < 1/2^k off U_k, or N(x) > 2/2^k on it
        chain = DyadicChain([FiniteSet(4, indices=t) for t in sets])
        r = prenorm_laws_check(z4, DyadicFamily(z4, chain, 1))[-1]
        assert (r.name, r.passed, r.samples, r.witness) == (
            "prenorm-sandwich", False, 8, witness)

    def test_radial_sandwich_witness(self, einstein):
        # unvalidated radii 0.3, 0.8, 0.5: V(1/2) and V(3/4) are larger
        # balls than V(1), so a point outside U_0 gets N(x) = 3/4 < 1
        chain = DyadicChain([RadialBall(r) for r in (0.3, 0.8, 0.5)])
        fam = DyadicFamily(einstein, chain, 2)
        r = prenorm_laws_check(einstein, fam, SampleSpec(1000, seed=0))[-1]
        assert (r.name, r.passed, r.samples, r.max_residual) == (
            "prenorm-sandwich", False, 3000, 1.0)
        w = r.witness
        assert (w["index"], w["n"]) == (0, 0.75)
        [x] = np.array(w["elements"])
        assert w["norm"] == float(einstein.norm(x)) >= 0.3
        assert fam.prenorm(x) == 0.75

    def test_radial_outside_everything_is_one(self, einstein):
        fam = build_dyadic_family(einstein, halving_radial_chain(), depth=10)
        assert fam.prenorm(np.array([0.8, 0, 0])) == 1.0
        assert fam.prenorm(np.array([0.99, 0, 0])) == 1.0
        assert fam.prenorm(einstein.zero) == 0.0
        # mid values are exact dyadics
        v = fam.prenorm(np.array([0.3, 0, 0]))
        assert v == F(v).limit_denominator(2 ** 10)

    def test_laws_pass_on_all_shipped_chains(self, z4, g8, einstein, mobius):
        finite_cases = [(z4, z4_weak_chain()), (z4, z4_adm_chain()),
                        (g8, g8_chain([0, 1])),
                        (g8, g8_chain([0, 1, 4, 5])),
                        (g8, g8_chain([0, 2, 4, 6])),
                        (g8, g8_chain([0, 3, 4, 7]))]
        for model, chain in finite_cases:
            fam = build_dyadic_family(model, chain, depth=6)
            for r in prenorm_laws_check(model, fam):
                assert r.passed, (model.name, r.name, r.witness)
        fam = build_dyadic_family(einstein, halving_radial_chain(), depth=10)
        for r in prenorm_laws_check(einstein, fam, SampleSpec(4000, seed=8)):
            assert r.passed, (r.name, r.witness)
        mob = DyadicChain([RadialBall(r) for r in
                           [0.9] + [0.45 / 2 ** k for k in range(10)]], "weak")
        fam = build_dyadic_family(mobius, mob, depth=10)
        for r in prenorm_laws_check(mobius, fam, SampleSpec(4000, seed=9)):
            assert r.passed, (r.name, r.witness)


class TestMetrics:
    def test_z4_rho_values(self, z4):
        fam = build_dyadic_family(z4, z4_weak_chain(), depth=4)
        assert rho_N(fam, 0, 0) == 0
        assert rho_N(fam, 0, 2) == F(1)
        assert rho_N(fam, 0, 1) == F(2)

    def test_finite_metric_laws_exact(self, z4, g8):
        for model, chain in ((z4, z4_weak_chain()), (g8, g8_chain([0, 1]))):
            fam = build_dyadic_family(model, chain, depth=5)
            n = model.n
            tail = chain.tail
            for x in range(n):
                for y in range(n):
                    assert rho_N(fam, x, y) == rho_N(fam, y, x)
                    zero = rho_N(fam, x, y) == 0
                    both_in = (int(model.op(model.inv(x), y)) in tail and
                               int(model.op(model.inv(y), x)) in tail)
                    assert zero == both_in
                    for z in range(n):
                        assert rho_N(fam, x, y) <= \
                            rho_N(fam, x, z) + rho_N(fam, z, y)

    def test_einstein_triangle_exact_at_samples(self, einstein):
        fam = build_dyadic_family(einstein, halving_radial_chain(), depth=10)
        rng = np.random.default_rng(11)
        xs, ys, zs = (einstein.sample(rng, 4000) for _ in range(3))

        def rho(a, b):
            return (fam.prenorm_batch(einstein.op(einstein.inv(a), b))
                    + fam.prenorm_batch(einstein.op(einstein.inv(b), a)))

        assert np.all(rho(xs, ys) <= rho(xs, zs) + rho(zs, ys))

    def test_metric_d_is_pseudometric(self, z4):
        fam = build_dyadic_family(z4, z4_adm_chain(), depth=4)
        for x in range(4):
            assert metric_d(fam, x, x) == 0
            for y in range(4):
                assert metric_d(fam, x, y) == metric_d(fam, y, x)
        # pseudo: distinct points at distance zero (N(0) = N(2) = 0)
        assert metric_d(fam, 0, 2) == 0


class TestQuotient:
    def test_z4_quotient_value(self, z4):
        fam = build_dyadic_family(z4, z4_adm_chain(), depth=4)
        part = left_cosets(z4, FiniteSet(4, indices=[0, 2]))
        assert quotient_metric(z4, fam, part)[0][0] == 0
        assert quotient_metric(z4, fam, part)[0][1] == F(2)
        # representative independence, by hand over all 4 pairs
        vals = {rho_N(fam, x, y) for x in (0, 2) for y in (1, 3)}
        assert vals == {F(2)}

    def test_coset_invariance(self, z4, g8):
        fam = build_dyadic_family(z4, z4_adm_chain(), depth=4)
        assert fam.prenorm(z4.op(1, 2)) == fam.prenorm(1) == F(1)
        r = coset_invariant_N_check(z4, fam, FiniteSet(4, indices=[0, 2]))
        assert r.passed
        for tail in ([0, 1], [0, 1, 4, 5]):
            fam = build_dyadic_family(g8, g8_chain(tail), depth=5)
            r = coset_invariant_N_check(g8, fam, FiniteSet(8, indices=tail))
            assert r.passed

    def test_radial_coset_invariance(self, einstein):
        # the tail of a radial chain is {0}: N(x + 0) = N(x) at 256 points
        chain, tail = admissible_hull(einstein, RadialBall(0.8), depth=6)
        fam = build_dyadic_family(einstein, chain, 6)
        r = coset_invariant_N_check(einstein, fam, tail)
        assert (r.name, r.passed, r.samples, r.max_residual, r.witness) == (
            "coset-invariance", True, 256, 0.0, None)

    def test_quotient_metric_axioms_g8(self, g8):
        H = FiniteSet(8, indices=[0, 1])
        fam = build_dyadic_family(g8, g8_chain([0, 1]), depth=5)
        part = left_cosets(g8, H)
        k = len(part.cosets)
        dist = [[quotient_metric(g8, fam, part)[i][j] for j in range(k)]
                for i in range(k)]
        for i in range(k):
            assert dist[i][i] == 0
            for j in range(k):
                assert dist[i][j] == dist[j][i]
                assert (dist[i][j] == 0) == (i == j)
                for m in range(k):
                    assert dist[i][j] <= dist[i][m] + dist[m][j]

    def test_requires_admissible_tail_match(self, z4):
        fam = build_dyadic_family(z4, z4_weak_chain(), depth=4)
        part = left_cosets(z4, FiniteSet(4, indices=[0, 2]))
        with pytest.raises(ValueError):
            quotient_metric(z4, fam, part)[0][1]

    def test_ball_preimage_law(self, z4, g8):
        # pi^-1(B*(pi(x), eps)) is exactly the rho_N-ball and is
        # contained in the d-ball (the d-forms can be strictly larger)
        for model, chain, hidx in ((z4, z4_adm_chain(), [0, 2]),
                                   (g8, g8_chain([0, 2, 4, 6]), [0, 2, 4, 6])):
            fam = build_dyadic_family(model, chain, depth=5)
            part = left_cosets(model, FiniteSet(model.n, indices=hidx))
            for x in range(model.n):
                for eps in (F(1, 2), F(1), F(3, 2), F(2), F(3)):
                    cos = quotient_ball(fam, part, part.project(x), eps)
                    preimage = set()
                    for c in cos:
                        preimage |= set(part.cosets[c])
                    assert set(rho_ball(fam, x, eps).indices()) == preimage
                    assert preimage <= set(ball(fam, x, eps).indices())

    def test_balls_match_pointwise_definitions(self, g8, g8xz2):
        # the row reads against the loops over metric_d and rho_N, with
        # eps on and between the dyadic values, as Fraction and float
        chain, _ = admissible_hull(g8xz2, FiniteSet(16, indices=range(16)),
                                   depth=10)
        cases = [(g8, g8_chain([0, 1]), 5), (g8xz2, chain, 10)]
        for model, chain, depth in cases:
            fam = build_dyadic_family(model, chain, depth=depth)
            for x in range(model.n):
                for eps in (0, F(1, 8), 0.125, F(3, 1024), 0.3, 1, F(3, 2),
                            2.0, 3, float("inf"), float("nan")):
                    want = tuple(i for i in range(model.n)
                                 if metric_d(fam, i, x) < eps)
                    assert ball(fam, x, eps).indices() == want
                    want = tuple(i for i in range(model.n)
                                 if rho_N(fam, i, x) < eps)
                    assert rho_ball(fam, x, eps).indices() == want

    def test_quotient_matrix_matches_pairs(self, g8, g8xz2):
        hull, _ = admissible_hull(g8xz2, FiniteSet(16, indices=range(16)),
                                  depth=10)
        cases = [(g8, g8_chain([0, 1]), [0, 1], 6),
                 (g8, g8_chain([0, 1, 4, 5]), [0, 1, 4, 5], 3),
                 (g8xz2, hull, [0], 10)]
        for model, chain, hidx, depth in cases:
            fam = build_dyadic_family(model, chain, depth=depth)
            part = left_cosets(model, FiniteSet(model.n, indices=hidx))
            dist = quotient_metric(model, fam, part)
            k = len(part.cosets)
            assert len(dist) == k and all(len(row) == k for row in dist)
            for i, X in enumerate(part.cosets):
                for j, Y in enumerate(part.cosets):
                    assert {rho_N(fam, x, y) for x in X for y in Y} == \
                        {dist[i][j]}
                for eps in (F(1, 4), 0.5, 1, F(9, 8)):
                    assert quotient_ball(fam, part, i, eps) == \
                        [j for j in range(k) if dist[i][j] < eps]

    def test_representative_dependence_raises(self, g8):
        # an unvalidated chain whose N is not constant on the cosets of
        # its tail: the first dependent pair in row-major order is named
        chain = DyadicChain([FiniteSet(8, indices=range(8)),
                             FiniteSet(8, indices=[0, 2]),
                             FiniteSet(8, indices=[0, 1])], "admissible")
        fam = DyadicFamily(g8, chain, 2)
        part = left_cosets(g8, FiniteSet(8, indices=[0, 1]))
        msg = ("representative-dependent quotient distance between cosets "
               "0 and 1: values ['1', '3/2']")
        with pytest.raises(ValueError) as err:
            quotient_metric(g8, fam, part)
        assert str(err.value) == msg
        with pytest.raises(ValueError) as err:
            quotient_ball(fam, part, 0, 1)
        assert str(err.value) == msg

    def test_d_ball_can_exceed_quotient_preimage(self, z4):
        # d(1, 0) = 1 < 3/2 yet varrho(pi(1), pi(0)) = 2: the one-sided
        # pseudometric ball is strictly larger than the fiber union
        fam = build_dyadic_family(z4, z4_adm_chain(), depth=4)
        part = left_cosets(z4, FiniteSet(4, indices=[0, 2]))
        assert metric_d(fam, 1, 0) == F(1)
        assert quotient_metric(z4, fam, part)[0][1] == F(2)
        assert 1 in ball(fam, 0, F(3, 2))
        assert 1 not in rho_ball(fam, 0, F(3, 2))


class TestShrink:
    def test_full_set_is_fixed(self, z4):
        G = FiniteSet(4, indices=range(4))
        assert shrink(z4, G) == G

    def test_not_closed_enough(self, z4):
        V = shrink(z4, FiniteSet(4, indices=[0, 1, 3]))
        assert V.indices() == (0,)

    def test_radial_half(self, einstein):
        V = shrink(einstein, RadialBall(0.8))
        assert V.radius == pytest.approx(0.5, abs=1e-12)
        assert radial_add(V.radius, V.radius) <= 0.8 + 1e-12

    def test_law_holds_on_g8(self, g8):
        for uidx in ([0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 4, 5, 6],
                     [0, 1, 4, 5]):
            U = FiniteSet(8, indices=uidx)
            V = shrink(g8, U)
            assert 0 in V
            assert V.is_symmetric(g8)
            assert V.gyr_invariance_witness(g8) is None
            assert V.oplus(g8, V) <= U


class TestHull:
    def test_z4_descends_through_even_subgroup(self, z4):
        chain, tail = admissible_hull(z4, FiniteSet(4, indices=range(4)),
                                      depth=4)
        assert chain.flavor == "admissible"
        assert [s.indices() for s in chain.sets[:3]] == \
            [(0, 1, 2, 3), (0, 2), (0,)]
        assert tail.indices() == (0,)
        assert validate_chain(z4, chain).passed
        assert is_L_subgyrogroup(z4, tail)[0]

    def test_singleton_input(self, z4):
        chain, tail = admissible_hull(z4, FiniteSet(4, indices=[0]), depth=3)
        assert tail.indices() == (0,)
        assert all(s.indices() == (0,) for s in chain.sets)

    def test_g8_hull_valid(self, g8):
        chain, tail = admissible_hull(g8, FiniteSet(8, indices=range(8)),
                                      depth=8)
        assert validate_chain(g8, chain).passed
        assert tail.indices() == (0,)
        assert is_L_subgyrogroup(g8, tail)[0]
        r = admissible_quotient_inclusion_check(g8, chain, tail)
        assert r.passed

    def test_radial_hull_thirds(self, einstein):
        chain, tail = admissible_hull(einstein, RadialBall(0.8), depth=10)
        assert isinstance(tail, OriginSet)
        radii = [s.radius for s in chain.sets]
        assert validate_chain(einstein, chain).passed
        # geometric decay toward {0}
        assert radii[-1] < radii[0] * 0.7 ** 10
        from gyrokit import radial_third
        assert radii[1] == pytest.approx(radial_third(0.8), abs=1e-14)


class TestIntersection:
    def test_single_chain_identity(self, z4):
        chain = z4_adm_chain()
        out, tail = admissible_intersection(z4, [chain])
        assert out is chain
        assert tail.indices() == (0, 2)

    def test_same_chain_twice(self, z4):
        chain = z4_adm_chain()
        out, tail = admissible_intersection(z4, [chain, chain])
        assert tail.indices() == (0, 2)
        for n in range(len(out)):
            assert out.set_at(n) == chain.set_at(n)
        assert validate_chain(z4, out).passed

    def test_z4_mixed_tails(self, z4):
        a = z4_adm_chain()                      # tail {0, 2}
        b = DyadicChain([FiniteSet(4, indices=range(4)),
                         FiniteSet(4, indices=[0, 2]),
                         FiniteSet(4, indices=[0])], "admissible")
        out, tail = admissible_intersection(z4, [a, b])
        assert tail.indices() == (0,)
        assert validate_chain(z4, out).passed

    def test_g8_diagonal_five_chains(self, g8):
        tails = [[0, 1], [0, 4], [0, 5], [0, 1, 4, 5], [0, 2, 4, 6]]
        chains = [g8_chain(t) for t in tails]
        out, tail = admissible_intersection(g8, chains)
        expected = set(range(8))
        for t in tails:
            expected &= set(t)
        assert set(tail.indices()) == expected
        assert validate_chain(g8, out).passed
        r = admissible_quotient_inclusion_check(g8, out, tail)
        assert r.passed

    def test_weak_chain_rejected(self, z4):
        with pytest.raises(ChainError, match="admissible"):
            admissible_intersection(z4, [z4_weak_chain()])

    def test_refusals(self, z4, einstein):
        radial, _ = admissible_hull(einstein, RadialBall(0.8), depth=3)
        for chains, message in (
                ([], "need at least one chain"),
                ([z4_adm_chain(), z4_weak_chain()],
                 "all chains must be admissible"),
                ([z4_adm_chain(), radial],
                 "cannot mix finite and radial chains")):
            with pytest.raises(ChainError) as err:
                admissible_intersection(z4, chains)
            assert str(err.value) == message

    def test_radial_intersection(self, einstein):
        a, _ = admissible_hull(einstein, RadialBall(0.8), depth=6)
        b, _ = admissible_hull(einstein, RadialBall(0.5), depth=6)
        out, tail = admissible_intersection(einstein, [a, b])
        assert isinstance(tail, OriginSet)
        assert validate_chain(einstein, out).passed


class TestQuotientInclusion:
    def test_z4(self, z4):
        r = admissible_quotient_inclusion_check(
            z4, z4_adm_chain(), FiniteSet(4, indices=[0, 2]))
        assert r.passed

    def test_violating_chain_reported(self, z4):
        # H not inside the deeper sets: inclusion fails structurally
        chain = DyadicChain([FiniteSet(4, indices=range(4)),
                             FiniteSet(4, indices=[0]),
                             FiniteSet(4, indices=[0])], "admissible")
        r = admissible_quotient_inclusion_check(
            z4, chain, FiniteSet(4, indices=[0, 2]))
        assert not r.passed


class TestMicroAssociativity:
    def test_group_model_always_associates(self, z4):
        G = FiniteSet(4, indices=range(4))
        for vidx in ([0], [0, 2], [0, 1, 2, 3]):
            r = micro_assoc_check(z4, FiniteSet(4, indices=vidx) & G,
                                  FiniteSet(4, indices=vidx))
            assert r.passed

    def test_g8_gyr_invariant_sets_pass(self, g8):
        for vidx in ([0, 1], [0, 1, 4, 5], [0, 2, 4, 6], [0, 4],
                     list(range(8))):
            V = FiniteSet(8, indices=vidx)
            assert V.gyr_invariance_witness(g8) is None
            r = micro_assoc_check(g8, V, V)
            assert r.passed

    def test_g8_non_invariant_counterexample(self, g8):
        V = FiniteSet(8, indices=[0, 1, 3])   # gyr[1, 3] moves V itself
        assert V.gyr_invariance_witness(g8) is not None
        r = micro_assoc_check(g8, V, V)
        assert not r.passed
        a, b = r.witness["elements"]
        bV = FiniteSet(8, indices=[b]).oplus(g8, V)
        lhs = FiniteSet(8, indices=[a]).oplus(g8, bV)
        rhs = FiniteSet(8, indices=[int(g8.op(a, b))]).oplus(g8, V)
        assert lhs != rhs  # witness replays

    def test_w_must_be_inside_v(self, g8):
        with pytest.raises(ValueError, match="contained"):
            micro_assoc_check(g8, FiniteSet(8, indices=range(8)),
                              FiniteSet(8, indices=[0, 1]))

    def test_radial_refusals(self, einstein):
        with pytest.raises(ValueError, match="^W must be contained in V$"):
            micro_assoc_check(einstein, RadialBall(0.5), RadialBall(0.3))
        with pytest.raises(ValueError) as err:
            micro_assoc_check(einstein, AxisSet(0), RadialBall(0.3))
        assert str(err.value) == ("continuous micro-associativity supports "
                                  "radial balls only")

    def test_einstein_balls(self, einstein):
        r = micro_assoc_check(einstein, RadialBall(0.3), RadialBall(0.5),
                              SampleSpec(100, seed=5))
        assert r.passed
        assert r.max_residual < 1e-6

    def test_mobius_balls(self, mobius):
        r = micro_assoc_check(mobius, RadialBall(0.4), RadialBall(0.6),
                              SampleSpec(100, seed=6))
        assert r.passed
        assert r.max_residual < 1e-6


class TestRadialObjectAgreement:
    """Cross-check the recursive radial family against artanh arithmetic.

    radial_add is addition transported through tanh, so the radius of
    V(m/2^n) must equal tanh of the sum of artanh(r_j) over the set
    bits j of m/2^n -- a closed form computed with no set recursion.
    """

    def test_family_radii_match_bit_sums(self, einstein):
        import math
        chain = halving_radial_chain()
        radii = [s.radius for s in chain.sets]
        fam = build_dyadic_family(einstein, chain, depth=8)
        u = [math.atanh(r) for r in radii]
        for frac, ball_set in family_entries(fam).items():
            # binary expansion of frac = sum of 2^-bit over set bits
            total = 0.0
            num, den = frac.numerator, frac.denominator
            j = den.bit_length() - 1  # den = 2^j
            for bit in range(j + 1):
                if num >> (j - bit) & 1:
                    total += u[bit]
            assert ball_set.radius == pytest.approx(math.tanh(total),
                                                    abs=1e-12), frac

    def test_prenorm_matches_independent_evaluation(self, einstein):
        import math
        chain = halving_radial_chain()
        radii = [s.radius for s in chain.sets]
        fam = build_dyadic_family(einstein, chain, depth=8)
        u = [math.atanh(r) for r in radii]

        def brute_radial_N(x):
            nrm = float(einstein.norm(x))
            if nrm == 0.0:
                return 0.0
            best = 1.0
            for n in range(1, 9):
                for m in range(1, 2 ** n + 1):
                    total, num = 0.0, m
                    for bit in range(n + 1):
                        if num >> (n - bit) & 1:
                            total += u[bit]
                    if nrm < math.tanh(total):
                        best = min(best, m / 2 ** n)
            return best

        rng = np.random.default_rng(31)
        pts = einstein.sample(rng, 60)
        for p in pts:
            assert fam.prenorm(p) == pytest.approx(brute_radial_N(p),
                                                   abs=1e-12)


    def test_prenorm_of_non_monotone_family(self, einstein):
        # unvalidated radii 0.3, 0.8, 0.5: V(1/2) and V(3/4) are larger
        # balls than V(1), so the first ball holding x is not the one at
        # the first radius above |x|
        chain = DyadicChain([RadialBall(r) for r in (0.3, 0.8, 0.5)])
        fam = DyadicFamily(einstein, chain, 2)
        assert not fam.monotone_check().passed
        entries = family_entries(fam)

        def brute_radial_N(nrm):
            if nrm == 0.0:
                return 0.0
            return min([float(r) for r, s in entries.items()
                        if nrm < s.radius], default=1.0)

        pts = einstein.sample(np.random.default_rng(5), 20_000)
        edges = [s.radius for s in entries.values()] + [0.0, 0.95]
        pts = np.concatenate([pts, [[r, 0.0, 0.0] for r in edges]])
        want = [brute_radial_N(float(einstein.norm(p))) for p in pts]
        assert fam.prenorm_batch(pts).tolist() == want


class TestChainIO:
    def test_finite_roundtrip(self, z4):
        chain = z4_weak_chain()
        doc = chain.to_dict()
        back = chain_load(z4, doc)
        assert [s.indices() for s in back.sets] == \
            [s.indices() for s in chain.sets]
        assert back.flavor == "weak"

    def test_radial_roundtrip(self, einstein):
        chain = halving_radial_chain()
        back = chain_load(einstein, chain.to_dict())
        assert [s.radius for s in back.sets] == [s.radius for s in chain.sets]

    def test_errors(self, z4, einstein):
        with pytest.raises(ChainError, match="JSON"):
            chain_load(z4, "{bad")
        with pytest.raises(ChainError, match="finite"):
            chain_load(einstein, {"flavor": "weak", "sets": [[0]]})
        with pytest.raises(ChainError, match="ball"):
            chain_load(z4, {"flavor": "weak", "radii": [0.5]})
        with pytest.raises(ChainError, match="flavor"):
            chain_load(z4, {"flavor": "odd", "sets": [[0]]})
        with pytest.raises(ChainError, match="radii"):
            chain_load(einstein, {"flavor": "weak", "radii": [1.5]})
        for model in (z4, einstein):
            with pytest.raises(ChainError) as err:
                chain_load(model, {"flavor": "weak"})
            assert str(err.value) == ("chain document needs a 'sets' or "
                                      "'radii' field")


class TestOutOfRange:
    # elements outside 0 ... n - 1, and cosets outside 0 ... k - 1, are
    # refused as FiniteTable.op refuses them: never wrapped round, as -1
    # read the last element before
    @pytest.fixture
    def family(self, g8):
        chain = chain_load(g8, (GOLDEN / "chains" / "g8-adm.json").read_text())
        return build_dyadic_family(g8, chain, depth=4)

    def test_in_range_values(self, family):
        assert family.prenorm(7) == 1
        assert ball(family, 7, 0.5).indices() == (2, 3, 6, 7)
        assert metric_d(family, 7, 0) == 1

    @pytest.mark.parametrize("x", [-1, 8])
    @pytest.mark.parametrize("query", [
        lambda fam, x: fam.prenorm(x),
        lambda fam, x: ball(fam, x, 0.5),
        lambda fam, x: rho_ball(fam, x, 0.5),
        lambda fam, x: metric_d(fam, x, 0),
        lambda fam, x: metric_d(fam, 0, x),
        lambda fam, x: rho_N(fam, x, 0),
    ], ids=["prenorm", "ball", "rho_ball", "metric_d-x", "metric_d-y",
            "rho_N"])
    def test_elements(self, family, query, x):
        with pytest.raises(CarrierError, match="^index out of range$"):
            query(family, x)

    def test_cosets(self, g8, family):
        part = left_cosets(g8, family.tail)
        k = len(part.cosets)
        assert quotient_ball(family, part, k - 1, 0.5) == [k - 1]
        for coset in (-1, k):
            with pytest.raises(CarrierError, match="^index out of range$"):
                quotient_ball(family, part, coset, 0.5)
