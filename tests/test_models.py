import copy
import json

import numpy as np
import pytest

from gyrokit import (CarrierError, EinsteinModel, FiniteTable, TableError,
                     cyclic_table, radial_add, radial_half, radial_third,
                     table_load)
from gyrokit.core import SampleSpec

from conftest import bundled_table_path, triples


def one_dim_add(u, v, c=1.0):
    """Collinear oracle: velocities on a line compose as (u+v)/(1+uv/c^2)."""
    return (u + v) / (1.0 + u * v / c**2)


class TestEinstein:
    def test_collinear_half_plus_half(self, einstein):
        out = einstein.op([0.5, 0, 0], [0.5, 0, 0])
        assert out == pytest.approx([0.8, 0, 0], abs=1e-12)
        assert one_dim_add(0.5, 0.5) == pytest.approx(0.8)

    def test_collinear_matches_one_dim_oracle(self, einstein):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            out = einstein.op([a, 0, 0], [b, 0, 0])
            assert out[0] == pytest.approx(one_dim_add(a, b), abs=1e-12)
            assert out[1] == out[2] == 0.0

    def test_orthogonal_case_and_noncommutativity(self, einstein):
        # <u, v> = 0 and gamma_u = 1.25, so u + v/gamma_u directly
        uv = einstein.op([0.6, 0, 0], [0, 0.6, 0])
        vu = einstein.op([0, 0.6, 0], [0.6, 0, 0])
        assert uv == pytest.approx([0.6, 0.48, 0], abs=1e-12)
        assert vu == pytest.approx([0.48, 0.6, 0], abs=1e-12)

    def test_zero_is_identity(self, einstein):
        v = np.array([0.3, -0.2, 0.1])
        assert einstein.op(einstein.zero, v) == pytest.approx(v)
        assert einstein.op(v, einstein.zero) == pytest.approx(v)

    def test_lorentz_gamma(self, einstein):
        assert einstein.gamma(einstein.zero) == 1.0
        assert einstein.gamma([0.6, 0, 0]) == pytest.approx(1.25)
        assert einstein.gamma([0.8, 0, 0]) == pytest.approx(5.0 / 3.0)

    def test_result_stays_in_ball(self, einstein):
        rng = np.random.default_rng(3)
        u = einstein.sample(rng, 500)
        v = einstein.sample(rng, 500)
        assert np.all(einstein.norm(einstein.op(u, v)) < 1.0)

    def test_carrier_violation(self, einstein):
        with pytest.raises(CarrierError):
            einstein.op([1.1, 0, 0], [0, 0, 0])
        with pytest.raises(CarrierError):
            einstein.gamma([1.0, 0, 0])

    def test_dim2_supported(self):
        e2 = EinsteinModel(dim=2)
        assert e2.op([0.5, 0], [0.5, 0]) == pytest.approx([0.8, 0])
        with pytest.raises(ValueError):
            EinsteinModel(dim=4)

    def test_custom_c_scales(self):
        e = EinsteinModel(dim=3, c=2.0)
        out = e.op([1.0, 0, 0], [1.0, 0, 0])
        assert out[0] == pytest.approx(one_dim_add(1.0, 1.0, c=2.0))

    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_carrier_check_matches_every_row_form(self, c):
        # _sq tests sqrt of the largest |a|^2 once, where it tested every
        # row's sqrt; the verdicts must agree
        model = EinsteinModel(dim=3, c=c)
        edge = np.nextafter(c, 0)
        rows = [[0.0, 0.0, 0.0], [edge, 0.0, 0.0], [c, 0.0, 0.0],
                [0.0, -edge, 0.0], [0.0, 0.0, -c], [np.nan, 0.0, 0.0],
                [np.inf, 0.0, 0.0], [-np.inf, 0.0, 0.0],
                [0.5 * c, 0.5 * c, 0.5 * c], [0.6 * c, 0.6 * c, 0.6 * c]]
        batches = [np.empty((0, 3)), np.empty((2, 0, 3))]
        batches += [np.array(r) for r in rows]           # 0-d batches
        batches += [np.array([[0.1, 0.2, 0.3], r]) for r in rows]
        batches.append(np.array(rows[:5]).reshape(5, 1, 3))
        for a in batches:
            aa = model._dot(a, a)
            want = bool(np.all(np.sqrt(aa) < c))
            got = model._sq(a)
            assert (got is not None) == want
            if want:
                assert np.array_equal(got, aa)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_sample_draw_pinned(self, dim, seed):
        # the draw of directions normalized by np.linalg.norm, bit for bit
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(20_000, dim))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        want = v * (0.99 * 1.5 * rng.random(20_000)[:, None] ** (1.0 / dim))
        got = EinsteinModel(dim=dim, c=1.5).sample(
            np.random.default_rng(seed), 20_000)
        assert np.array_equal(got, want)

    def test_gyration_is_plane_rotation(self, einstein):
        # gyr[u, v] for u = 0.6 e1, v = 0.6 e2 rotates span{e1, e2} and
        # fixes e3; the rotation angle is the same for every probe
        u, v = np.array([0.6, 0, 0]), np.array([0, 0.6, 0])
        rng = np.random.default_rng(4)
        z = einstein.sample(rng, 100)
        g = einstein.gyr(u, v, z)
        assert np.allclose(einstein.norm(g), einstein.norm(z), atol=1e-9)
        assert np.allclose(g[:, 2], z[:, 2], atol=1e-9)
        zc = z[:, 0] + 1j * z[:, 1]
        gc = g[:, 0] + 1j * g[:, 1]
        keep = np.abs(zc) > 1e-3
        angles = np.angle(gc[keep] / zc[keep])
        assert np.allclose(angles, angles[0], atol=1e-7)
        assert abs(angles[0]) > 1e-3  # a genuinely nontrivial rotation

    # The axiom-loop-property witness that the three-op gyration formula
    # failed at 1.08e-9 > 1e-9 in `check --model einstein --dim 3
    # --samples 1000000 --seed 605021745`
    SEED13_WITNESS = (
        [0.41972734809390927, -0.032482015311401616, -0.8944257213955016],
        [0.530931649259244, -0.04824743697168539, -0.8341215486572795],
        [0.5229467095961725, 0.22204296116846434, -0.5899588998187403])

    def test_loop_property_holds_at_formula_witness(self, einstein):
        x, y, z = (np.array(t) for t in self.SEED13_WITNESS)
        xy = einstein.op(x, y)
        closed = einstein.residual(einstein.gyr(xy, y, z),
                                   einstein.gyr(x, y, z))
        assert closed <= einstein.eps
        # the defining formula erodes past the tolerance at this triple
        formula = einstein.residual(einstein.gyr_formula(xy, y, z),
                                    einstein.gyr_formula(x, y, z))
        assert formula == pytest.approx(1.08e-9, rel=0.01)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("c", [1.0, 2.5])
    def test_closed_form_gyr_matches_formula(self, dim, c):
        model = EinsteinModel(dim=dim, c=c)
        x, y, z = triples(model, SampleSpec(10_000, seed=dim))
        assert len(x) == 10_000 + len(model.stress_elements())
        res = model.residual(model.gyr(x, y, z), model.gyr_formula(x, y, z))
        assert res.max() <= 1e-11

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_gyr_validates_every_operand(self, einstein, slot):
        args = [einstein.sample(np.random.default_rng(6), 4) for _ in range(3)]
        args[slot][2] = [0.0, 1.0, 0.0]
        with pytest.raises(CarrierError):
            einstein.gyr(*args)
        args[slot][2] = [0.0, 0.9, 0.0]
        einstein.gyr(*args)

    def test_gamma_factored_near_boundary(self, einstein):
        # on an axis at |u| = 1 - 2^-30, 1 - |u|^2 rounds off a relative
        # 2^-31, while (1 - |u|)(1 + |u|) is exact; off the axes |u|^2 is
        # itself rounded and the factored form gains nothing
        r = 1.0 - 2.0 ** -30
        want = 1.0 / np.sqrt(2.0 ** -30 * (2.0 - 2.0 ** -30))
        assert einstein.gamma([r, 0, 0]) == pytest.approx(want, rel=1e-15)


class TestMobius:
    def test_zero_identity(self, mobius):
        assert mobius.op(0j, 0.3 + 0.4j) == pytest.approx(0.3 + 0.4j)

    def test_real_collinear(self, mobius):
        assert mobius.op(0.5, 0.5) == pytest.approx(0.8)

    def test_complex_value(self, mobius):
        # (0.5 + 0.5i) / (1 - 0.25i) worked out in exact arithmetic
        out = mobius.op(0.5j, 0.5)
        assert out == pytest.approx(complex(6 / 17, 10 / 17), abs=1e-15)

    def test_gyration_closed_form_is_unit_rotation(self, mobius):
        rng = np.random.default_rng(5)
        a = mobius.sample(rng, 50)
        b = mobius.sample(rng, 50)
        z = mobius.sample(rng, 50)
        g = mobius.gyr(a, b, z)
        assert np.allclose(np.abs(g), np.abs(z), atol=1e-12)
        # and it agrees with the defining formula
        assert np.allclose(g, mobius.gyr_formula(a, b, z), atol=1e-12)

    def test_carrier_violation(self, mobius):
        with pytest.raises(CarrierError):
            mobius.op(1.2, 0.1)

    def test_op_and_gyr_bits_on_1e5_draws(self, mobius):
        # each operand is validated once; the outputs are the formulas' bits
        rng = np.random.default_rng(11)
        a, b, z = (mobius.sample(rng, 10 ** 5) for _ in range(3))
        assert np.array_equal(mobius.op(a, b),
                              (a + b) / (1.0 + np.conj(a) * b))
        q = (1.0 + a * np.conj(b)) / (1.0 + np.conj(a) * b)
        assert np.array_equal(mobius.gyr(a, b, z), q * z)
        zs = np.stack([z, a, b])
        assert np.array_equal(mobius.gyr(a, b, zs), q * zs)

    @pytest.mark.parametrize("bad", [
        1.0, -1j, np.nextafter(1.0, 2.0), complex(0.6, 0.8000000000000002),
        complex(np.nan, 0.0), complex(0.0, np.inf)])
    def test_every_operand_checked_by_modulus(self, mobius, bad):
        # |a| < 1 decides, as ``contains`` does, in every operand slot
        assert not mobius.contains(bad)
        batch = np.array([0.5, bad, 0.1j])
        for args in ((batch, 0.2), (0.2, batch)):
            with pytest.raises(CarrierError):
                mobius.op(*args)
        for args in ((batch, 0.2, 0.3), (0.2, batch, 0.3), (0.2, 0.3, batch)):
            with pytest.raises(CarrierError):
                mobius.gyr(*args)
        inside = np.nextafter(1.0, 0.0)
        assert mobius.contains(inside)
        assert mobius.op(inside, 0.0) == inside
        assert mobius.gyr(inside, inside * 1j, []).shape == (0,)


class TestRadial:
    def test_identity_and_values(self):
        assert radial_add(0.0, 0.7) == pytest.approx(0.7)
        assert radial_add(0.5, 0.5) == pytest.approx(0.8)
        assert radial_add(0.5, 0.8) == pytest.approx(13 / 14)

    def test_group_laws_and_monotonicity(self):
        rng = np.random.default_rng(6)
        r = rng.uniform(0, 0.99, size=(300, 3))
        a, b, c = r[:, 0], r[:, 1], r[:, 2]
        assert np.allclose(radial_add(a, b), radial_add(b, a))
        assert np.allclose(radial_add(radial_add(a, b), c),
                           radial_add(a, radial_add(b, c)), atol=1e-12)
        # strictly increasing in each argument
        assert np.all(radial_add(a, 0.5) < radial_add(a, 0.6))
        assert np.all(radial_add(a, b) < 1.0)

    def test_half_and_third_invert_exactly(self):
        for r in (0.1, 0.5, 0.8, 0.95):
            h = radial_half(r)
            assert radial_add(h, h) == pytest.approx(r, abs=1e-14)
            t = radial_third(r)
            assert radial_add(t, radial_add(t, t)) == pytest.approx(r, abs=1e-14)
        assert radial_half(0.8) == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(CarrierError):
            radial_add(1.0, 0.5)
        with pytest.raises(CarrierError):
            radial_half(-0.1)

    def test_gyrotriangle_bound(self, einstein):
        # |u + v| <= radial_add(|u|, |v|), equality on positive-collinear
        rng = np.random.default_rng(7)
        u = einstein.sample(rng, 400)
        v = einstein.sample(rng, 400)
        lhs = einstein.norm(einstein.op(u, v))
        rhs = radial_add(einstein.norm(u), einstein.norm(v))
        assert np.all(lhs <= rhs + 1e-12)
        w = np.array([0.3, 0.4, 0.0])
        assert einstein.norm(einstein.op(w, 0.5 * w)) == pytest.approx(
            radial_add(0.5, 0.25), abs=1e-12)


class TestFiniteTable:
    def test_cyclic_and_klein_accepted(self, z4, klein4):
        assert z4.is_group()
        assert klein4.is_group()
        assert z4.inv(1) == 3
        assert z4.inv(0) == 0
        assert [klein4.inv(i) for i in range(4)] == [0, 1, 2, 3]

    def test_g8_is_not_a_group(self, g8):
        assert g8.n == 8
        assert not g8.is_group()
        assert g8.axiom_report.passed

    def test_mutated_cell_rejected_with_witness(self):
        doc = json.loads(bundled_table_path("z4").read_text())
        doc["table"][1][1] = 3
        with pytest.raises(TableError, match="witness"):
            table_load(doc)

    def test_swapped_cells_rejected(self):
        tbl = cyclic_table(4).table.tolist()
        tbl[2][1], tbl[2][3] = tbl[2][3], tbl[2][1]
        with pytest.raises(TableError):
            table_load({"table": tbl})

    def test_identity_must_be_index_zero(self):
        # Z4 relabeled so the identity sits at index 1
        sigma = [1, 0, 2, 3]
        tbl = [[sigma[(sigma[i] + sigma[j]) % 4] for j in range(4)]
               for i in range(4)]
        with pytest.raises(TableError):
            table_load({"table": tbl})

    def test_parse_rejections(self):
        with pytest.raises(TableError, match="JSON"):
            table_load("not json{")
        with pytest.raises(TableError, match="square"):
            table_load({"table": [[0, 1], [1, 0], [0, 1]]})
        with pytest.raises(TableError, match="indices"):
            table_load({"table": [[0, 2], [2, 0]]})
        with pytest.raises(TableError, match="integer"):
            table_load({"table": [[0, 1], [1, 0.5]]})
        with pytest.raises(TableError, match="order"):
            table_load({"order": 3, "table": [[0, 1], [1, 0]]})
        with pytest.raises(TableError, match="labels"):
            table_load({"table": [[0, 1], [1, 0]], "labels": ["a", "a"]})
        with pytest.raises(TableError):
            table_load('{"table": [[0, NaN], [1, 0]]}')

    @pytest.mark.parametrize("table,message", [
        ([[0, 1, 2], [1, 2, 0]], "table must be square"),
        (np.zeros((0, 0), dtype=np.int64), "table must be nonempty"),
        ([[0, 1], [1, 2]], "table entries must be indices in 0..n-1"),
        ([[0, 1], [1]], "table must be square"),
    ])
    def test_direct_refusals(self, table, message):
        # FiniteTable itself, not through table_load
        with pytest.raises(TableError) as err:
            FiniteTable(table)
        assert str(err.value) == message

    @pytest.mark.parametrize("bad", [True, 1.5, "3", [1], None])
    def test_first_bad_entry_is_named(self, bad):
        # the first bad entry in row-major order, whatever follows it
        tbl = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
        tbl[1][2], tbl[2][0] = bad, 0.25
        with pytest.raises(TableError) as err:
            table_load({"table": tbl})
        assert str(err.value) == f"table entry {bad!r} is not an integer"

    def test_json_entries_of_other_types_are_named(self):
        for entry, text in [("true", "True"), ("1.5", "1.5"), ('"3"', "'3'"),
                            ("[1]", "[1]")]:
            with pytest.raises(TableError) as err:
                table_load('{"table": [[0, 1], [1, %s]]}' % entry)
            assert str(err.value) == f"table entry {text} is not an integer"

    def test_unvalidated_load_allows_broken_tables(self):
        doc = json.loads(bundled_table_path("z4").read_text())
        doc["table"][1][1] = 3
        model = table_load(doc, validate=False)
        assert model.axiom_report is None
        assert model.op(1, 1) == 3

    def test_carrier_violation(self, z4):
        with pytest.raises(CarrierError):
            z4.op(0, 4)

    def test_labels_cosmetic(self):
        t = table_load({"table": cyclic_table(3).table.tolist(),
                        "labels": ["e", "g", "g2"]})
        assert t.labels == ["e", "g", "g2"]

    @pytest.mark.parametrize("validate", [True, False])
    def test_load_leaves_a_dict_document_unchanged(self, validate):
        # the load drops its own references to the parsed lists, and
        # never the caller's
        doc = json.loads(bundled_table_path("g8").read_text())
        doc["labels"], doc["name"] = [f"e{i}" for i in range(8)], "g8-doc"
        before = copy.deepcopy(doc)
        model = table_load(doc, validate=validate)
        assert doc == before
        assert model.table.tolist() == doc["table"]
        assert model.labels == doc["labels"] and model.name == doc["name"]
