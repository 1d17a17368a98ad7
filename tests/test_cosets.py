import numpy as np
import pytest

from gyrokit import (CarrierError, CosetError, EinsteinModel, FiniteSet,
                     FiniteTable, MobiusModel, SampleSpec, TableError,
                     homogeneity_translate, is_L_subgyrogroup,
                     is_subgyrogroup, left_cosets, parse_subset, same_coset)
from gyrokit.cosets import homogeneity_check
from gyrokit.sets import AxisSet, OriginSet, RadialBall

from conftest import (brute_coset_defects, brute_l_subgyrogroups,
                      brute_subgyrogroups, hand_built_partition, set_of_bits)


class TestSubgyrogroupDetection:
    def test_z4_subgroup(self, z4):
        ok, witness = is_subgyrogroup(z4, FiniteSet(4, indices=[0, 2]))
        assert ok and witness is None

    def test_z4_non_subgroup_with_witness(self, z4):
        ok, witness = is_subgyrogroup(z4, FiniteSet(4, indices=[0, 1]))
        assert not ok
        assert witness["kind"] == "closure"
        assert witness["elements"] == [1, 1] and witness["product"] == 2

    def test_missing_identity(self, z4):
        assert is_subgyrogroup(z4, FiniteSet(4, indices=[1, 3])) == (
            False, {"kind": "missing-identity"})

    def test_empty_raises(self, z4):
        with pytest.raises(CosetError):
            is_subgyrogroup(z4, FiniteSet(4))

    def test_verdicts_match_brute_force(self, g8):
        brute = set(brute_subgyrogroups(g8))
        for mask in range(1, 2 ** 8, 2):  # subsets containing 0
            s = set_of_bits(8, mask)
            ok, _ = is_subgyrogroup(g8, s)
            assert ok == (s.indices() in brute)

    def test_einstein_axis_closed(self, einstein):
        ok, _ = is_subgyrogroup(einstein, AxisSet(0), SampleSpec(1000, seed=1))
        assert ok

    def test_einstein_ball_not_closed(self, einstein):
        ok, witness = is_subgyrogroup(einstein, RadialBall(0.5),
                                      SampleSpec(1000, seed=1))
        assert not ok and witness["kind"] == "closure"

    @pytest.mark.parametrize("H", [OriginSet(), AxisSet(0), AxisSet(1),
                                   RadialBall(0.5)], ids=repr)
    def test_contains_rows_matches_contains(self, einstein, mobius, H):
        for model in (einstein, mobius):
            rng = np.random.default_rng(5)
            outside = 1.5 * np.sign(AxisSet(0).sample(model, rng, 1))
            batch = np.concatenate([model.sample(rng, 50),
                                    H.sample(model, rng, 50),
                                    np.stack([model.zero] * 3), outside])
            rows = H.contains_rows(model, batch)
            assert rows.shape == (len(batch),)
            assert rows.tolist() == [H.contains(model, x) for x in batch]
            assert 0 < rows.sum() < len(batch) and not rows[-1]

    def test_continuous_witness_is_first_failing_sample(self):
        # the loop the batched tests replace: the first failing draw.  An
        # eps of 0.1 lets small gyrations keep the axis; at seed 14 the
        # first draws pass in both tests
        for model in (EinsteinModel(dim=3, eps=0.1), MobiusModel(eps=0.1)):
            spec = SampleSpec(500, seed=14)
            ok, witness = is_subgyrogroup(model, RadialBall(0.5), spec)
            rng = np.random.default_rng(spec.seed)
            xs, ys = (RadialBall(0.5).sample(model, rng, 500) for _ in "xy")
            i = next(i for i, p in enumerate(model.op(xs, ys))
                     if not RadialBall(0.5).contains(model, p))
            assert not ok and i > 0 and witness["elements"] == [
                model.to_payload(xs[i]), model.to_payload(ys[i])]

            ok, witness = is_L_subgyrogroup(model, AxisSet(0), spec)
            rng = np.random.default_rng(spec.seed + 1)
            a = model.sample(rng, 500)
            h, x = (AxisSet(0).sample(model, rng, 500) for _ in "hx")
            i = next(i for i, g in enumerate(model.gyr(a, h, x))
                     if not AxisSet(0).contains(model, g))
            assert not ok and i > 0 and witness["elements"] == [
                model.to_payload(t[i]) for t in (a, h, x)]


class TestLSubgyrogroups:
    def test_group_subgroups_are_L(self, z4, klein4):
        for model in (z4, klein4):
            for sub in brute_subgyrogroups(model):
                ok, _ = is_L_subgyrogroup(model, FiniteSet(4, indices=sub))
                assert ok

    def test_g8_matches_brute_force(self, g8):
        lset = set(brute_l_subgyrogroups(g8))
        for sub in brute_subgyrogroups(g8):
            ok, witness = is_L_subgyrogroup(g8, FiniteSet(8, indices=sub))
            assert ok == (sub in lset)
            if not ok:
                a, h = witness["elements"]
                img = {int(g8.gyr(a, h, x)) for x in sub}
                assert img != set(sub)  # witness replays

    def test_g8_has_non_L_subgyrogroups(self, g8):
        subs = set(brute_subgyrogroups(g8))
        lsubs = set(brute_l_subgyrogroups(g8))
        assert subs - lsubs  # e.g. {0, 3} and {0, 7}

    def test_non_subgyrogroup_precondition(self, z4):
        with pytest.raises(CosetError):
            is_L_subgyrogroup(z4, FiniteSet(4, indices=[0, 1]))

    def test_einstein_axis_is_not_L(self, einstein):
        ok, witness = is_L_subgyrogroup(einstein, AxisSet(0),
                                        SampleSpec(2000, seed=2))
        assert not ok
        a, h, x = witness["elements"]
        g = einstein.gyr(np.array(a), np.array(h), np.array(x))
        assert not AxisSet(0).contains(einstein, g)


class TestCosetPartition:
    def test_z4_two_cosets(self, z4):
        part = left_cosets(z4, FiniteSet(4, indices=[0, 2]))
        assert part.cosets == [(0, 2), (1, 3)]
        assert part.representatives == [0, 1]

    def test_z4_singletons(self, z4):
        part = left_cosets(z4, FiniteSet(4, indices=[0]))
        assert part.cosets == [(0,), (1,), (2,), (3,)]

    def test_partitions_match_brute_force(self, g8, z4, klein4):
        for model in (g8, z4, klein4):
            for sub in brute_l_subgyrogroups(model):
                part = left_cosets(model, FiniteSet(model.n, indices=sub))
                # disjoint cover with |H|-sized classes
                seen = set()
                for c in part.cosets:
                    assert len(c) == len(sub)
                    assert not (seen & set(c))
                    seen |= set(c)
                assert seen == set(range(model.n))
                # each coset equals a + H for its representative, brute force
                for c in part.cosets:
                    a = c[0]
                    assert set(c) == {int(model.op(a, h)) for h in sub}

    def test_refuses_non_L_subgyrogroup(self, g8):
        lsubs = set(brute_l_subgyrogroups(g8))
        bad = next(s for s in brute_subgyrogroups(g8) if s not in lsubs)
        with pytest.raises(CosetError, match="L-subgyrogroup"):
            left_cosets(g8, FiniteSet(8, indices=bad))

    @pytest.mark.parametrize("table,hidx,defect", [
        ([[0, 1, 2], [1, 2, 0], [2, 2, 2]], [0, 2],
         "coset (2,) has size 1 != |H|"),
        ([[0, 1, 2], [2, 1, 0], [2, 2, 0]], [0, 2],
         "cosets do not cover the carrier"),
        ([[0, 1, 2], [1, 0, 0], [2, 1, 0]], [0, 1], "cosets overlap: (1, 2)"),
        ([[0, 1, 2, 3], [2, 3, 0, 1], [2, 2, 0, 0], [1, 2, 3, 0]], [0, 2],
         "(a+h)+H != a+H at a=3, h=0; H is not coset-stable"),
    ])
    def test_unvalidated_table_refusals(self, table, hidx, defect):
        # magmas that are not gyrogroups, where H passes the L-subgyrogroup
        # test but a + H is no coset partition: validation refuses each on
        # load, and left_cosets each unvalidated load, before any labeling
        with pytest.raises(TableError, match="gyrogroup|inverse"):
            FiniteTable(table)
        model = FiniteTable(table, validate=False)
        H = FiniteSet(model.n, indices=hidx)
        assert defect in brute_coset_defects(model, hidx)
        assert is_L_subgyrogroup(model, H)[0]
        with pytest.raises(CosetError) as err:
            left_cosets(model, H)
        assert str(err.value) == "left cosets need a table validated on load"

    def test_refuses_unvalidated_table(self, z4):
        # the cosets partition the carrier by the axioms, which a table
        # loaded with validate=False has not passed
        model = FiniteTable(z4.table, validate=False)
        with pytest.raises(CosetError) as err:
            left_cosets(model, FiniteSet(4, indices=[0, 2]))
        assert str(err.value) == "left cosets need a table validated on load"

    def test_indices_outside_the_carrier_refused(self, g8):
        part = left_cosets(g8, FiniteSet(8, indices=[0, 1]))
        assert part.project(7) == 3
        for a in (-1, 8, [0, -1], [8]):
            with pytest.raises(CarrierError):
                part.project(a)
        assert homogeneity_translate(part, 1, 3) == 3
        for coset in (-1, 4, 8):
            with pytest.raises(CarrierError):
                homogeneity_translate(part, 1, coset)

    def test_projection_properties(self, g8):
        H = FiniteSet(8, indices=[0, 1, 4, 5])
        part = left_cosets(g8, H)
        assert part.project(0) == 0
        for a in range(8):
            for h in H.indices():
                assert part.project(g8.op(a, h)) == part.project(a)
        for a in range(8):
            for b in range(8):
                same = part.project(a) == part.project(b)
                assert same == (int(g8.op(g8.inv(a), b)) in H)
                assert same == same_coset(g8, H, a, b)

    def test_continuous_membership_only(self, einstein):
        # no materialized cosets; the membership relation is the interface
        H = AxisSet(0)
        a = np.array([0.3, 0.0, 0.0])
        b = np.array([0.5, 0.0, 0.0])
        assert same_coset(einstein, H, a, b, slack=1e-9)
        c = np.array([0.1, 0.4, 0.0])
        assert not same_coset(einstein, H, a, c, slack=1e-9)


class TestHomogeneity:
    def test_identity_translation(self, z4, g8):
        for model, hidx in ((z4, [0, 2]), (g8, [0, 1])):
            part = left_cosets(model, FiniteSet(model.n, indices=hidx))
            for i in range(len(part.cosets)):
                assert homogeneity_translate(part, 0, i) == i

    def test_z4_swap(self, z4):
        part = left_cosets(z4, FiniteSet(4, indices=[0, 2]))
        assert homogeneity_translate(part, 1, 0) == 1
        assert homogeneity_translate(part, 1, 1) == 0

    def test_bijection_for_every_a(self, g8):
        for hidx in ([0, 1], [0, 1, 4, 5], [0, 2, 4, 6]):
            part = left_cosets(g8, FiniteSet(8, indices=hidx))
            k = len(part.cosets)
            for a in range(8):
                images = sorted(homogeneity_translate(part, a, i)
                                for i in range(k))
                assert images == list(range(k))

    def test_transitivity_witness(self, z4, g8):
        # a = y + gyr[y, x](-x) carries the coset of x onto the coset of y
        for model, hidx in ((z4, [0, 2]), (g8, [0, 1]), (g8, [0, 2, 4, 6])):
            part = left_cosets(model, FiniteSet(model.n, indices=hidx))
            for x in range(model.n):
                for y in range(model.n):
                    a = model.op(y, model.gyr(y, x, model.inv(x)))
                    assert homogeneity_translate(
                        part, int(a), part.project(x)) == part.project(y)


class TestRepresentativeDependence:
    # an L-subgyrogroup's partition never makes h_a depend on the
    # representative (the 8, 27 and 16 L-subgyrogroups of g8, g8 x Z_2 and
    # g8 x Z_3 are all gyration-invariant), so the refusals are pinned on
    # hand-built partitions
    def test_translate_refuses(self, z4):
        # 1 + {0, 1} = {1, 2} meets both classes
        part = hand_built_partition(z4, [0, 2], [(0, 1), (2, 3)])
        with pytest.raises(CosetError) as err:
            homogeneity_translate(part, 1, 0)
        assert str(err.value) == ("h_a is representative-dependent at a=1, "
                                  "coset=0: images [0, 1]")

    def test_check_refuses_where_a_gyration_leaves_H(self, g8):
        # H = {0, 3} is no L-subgyrogroup: gyr[2, 1] carries 3 to 7, and
        # 2 + {1, 2} = {3, 4} meets two classes
        part = hand_built_partition(g8, [0, 3],
                                    [(0, 3), (1, 2), (4, 7), (5, 6)])
        assert g8.leaving_pair(part.H.members(), range(8),
                               part.representatives) == (2, 1)
        with pytest.raises(CosetError) as err:
            homogeneity_check(part)
        assert str(err.value) == ("h_a is representative-dependent at a=2, "
                                  "coset=1: images [0, 2]")

    def test_check_fails_where_the_classes_are_not_cosets(self, g8):
        # H = {0, 7} with classes that are not its cosets: gyr[1, 2] carries
        # H out of H, yet 1 + . maps each class into one class, so the
        # translation does not raise, and the check fails with that pair
        part = hand_built_partition(g8, [0, 7],
                                    [(0, 7), (1, 6), (2, 5), (3, 4)])
        assert g8.leaving_pair(part.H.members(), range(8),
                               part.representatives) == (1, 2)
        assert homogeneity_translate(part, 1, part.project(2)) >= 0
        result = homogeneity_check(part)
        assert not result.passed
        assert result.witness == {"kind": "gyration", "elements": [1, 2]}
        assert result.record()["samples"] == 8 * 4


class TestSubsetParsing:
    def test_finite(self, z4):
        assert parse_subset(z4, "0,2").indices() == (0, 2)

    def test_continuous(self, einstein):
        assert parse_subset(einstein, "axis:x") == AxisSet(0)
        assert parse_subset(einstein, "ball:0.5") == RadialBall(0.5)
        with pytest.raises(ValueError):
            parse_subset(einstein, "ball:1.5")
        with pytest.raises(ValueError):
            parse_subset(einstein, "nonsense")

    def test_origin_and_unknown_axis(self, einstein, mobius):
        assert parse_subset(einstein, "origin") == OriginSet()
        assert parse_subset(mobius, " origin ") == OriginSet()
        with pytest.raises(ValueError, match="^unknown axis 'w'$"):
            parse_subset(einstein, "axis:w")
