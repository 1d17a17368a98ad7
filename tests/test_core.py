import json

import numpy as np
import pytest

from gyrokit import (FiniteTable, SampleSpec, check_axioms, check_identities,
                     cyclic_table)

from conftest import brute_gyr


class TestFiniteSweeps:
    @pytest.mark.parametrize("fixture", ["z4", "klein4", "g8"])
    def test_axioms_pass_exhaustively(self, fixture, request):
        model = request.getfixturevalue(fixture)
        report = check_axioms(model)
        assert report.passed
        assert report.max_residual == 0.0
        names = {r.name for r in report.results}
        assert {"axiom-gyroassociativity", "axiom-loop-property",
                "gyration-additivity", "gyration-bijectivity",
                "gyration-left-division"} <= names
        # exhaustive: the triple sweeps cover n^3 samples
        assert report.result("axiom-gyroassociativity").samples == model.n ** 3

    @pytest.mark.parametrize("fixture", ["z4", "klein4", "g8"])
    def test_identities_pass_exhaustively(self, fixture, request):
        model = request.getfixturevalue(fixture)
        report = check_identities(model)
        assert report.passed
        assert {r.name for r in report.results} == {
            "identity-left-cancellation", "identity-right-cancellation",
            "identity-right-cancellation-co", "identity-gyration-formula",
            "identity-gyrotranslation", "identity-gyrosum-inversion"}

    def test_group_gyrations_trivial(self, z4):
        z = np.arange(4)
        for a in range(4):
            for b in range(4):
                assert np.array_equal(z4.gyr(a, b, z), z)

    def test_gyr_of_zero_is_identity(self, g8):
        z = np.arange(8)
        for b in range(8):
            assert np.array_equal(g8.gyr(0, b, z), z)
            assert np.array_equal(g8.gyr(b, 0, z), z)

    def test_gyr_formula_matches_brute_force_solution(self, g8):
        for a in range(8):
            for b in range(8):
                for z in range(8):
                    assert g8.gyr(a, b, z) == brute_gyr(g8, a, b, z)

    def test_left_cancellation_everywhere(self, g8):
        for x in range(8):
            for y in range(8):
                assert g8.op(g8.inv(x), g8.op(x, y)) == y


class TestBrokenTables:
    def make_broken(self):
        tbl = cyclic_table(4).table.copy()
        tbl[1][1] = 3
        return FiniteTable(tbl, validate=False)

    def test_failures_reported_not_raised(self):
        model = self.make_broken()
        report = check_axioms(model)
        assert not report.passed
        failing = {r.name for r in report.failures()}
        assert "axiom-gyroassociativity" in failing or \
               "gyration-bijectivity" in failing

    def test_witness_replays(self):
        model = self.make_broken()
        report = check_axioms(model)
        bad = report.result("axiom-gyroassociativity")
        assert not bad.passed and bad.witness is not None
        x, y, z = bad.witness["elements"]
        lhs = model.op(x, model.op(y, z))
        rhs = model.op(model.op(x, y), model.gyr(x, y, z))
        assert lhs != rhs  # re-evaluation reproduces the violation


class TestContinuousSweeps:
    @pytest.mark.parametrize("fixture", ["einstein", "mobius"])
    def test_axioms_and_identities(self, fixture, request):
        model = request.getfixturevalue(fixture)
        spec = SampleSpec(count=2000, seed=17)
        ra = check_axioms(model, spec)
        ri = check_identities(model, spec)
        assert ra.passed and ri.passed
        assert ra.max_residual < 1e-9
        assert ri.max_residual < 1e-9
        assert "gyration-isometry" in {r.name for r in ra.results}

    def test_seed_reproducibility(self, einstein):
        spec = SampleSpec(count=500, seed=99)
        r1 = check_axioms(einstein, spec)
        r2 = check_axioms(einstein, spec)
        for a, b in zip(r1.results, r2.results):
            assert a.name == b.name
            assert a.max_residual == b.max_residual

    def test_stress_points_included(self, einstein):
        # stress elements sit at norms 0.9 and 0.99 of the carrier bound
        norms = sorted(round(float(einstein.norm(s)), 6)
                       for s in einstein.stress_elements())
        assert norms[0] == 0.0
        assert 0.9 in norms and 0.99 in norms


class TestReports:
    def test_json_lines_sorted_and_parseable(self, z4):
        report = check_axioms(z4)
        lines = report.to_json_lines()
        names = [json.loads(l)["check"] for l in lines]
        assert names == sorted(names)
        for l in lines:
            rec = json.loads(l)
            assert rec["verdict"] == "pass"
            assert "witnesses" not in rec

    def test_result_lookup(self, z4):
        report = check_axioms(z4)
        assert report.result("axiom-identity-left").passed
        with pytest.raises(KeyError):
            report.result("nope")
