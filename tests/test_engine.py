"""The cached gyration tensor, the array engine and the blocked sweeps
against loop and whole-array oracles."""

import json

import numpy as np
import pytest

from gyrokit import (EinsteinModel, FiniteSet, FiniteTable, MobiusModel,
                     RadialBall, check_axioms, check_identities,
                     is_L_subgyrogroup, micro_assoc_check)
from gyrokit.cli import main
from gyrokit.core import (CHUNK, AxiomReport, CheckResult, SampleSpec,
                          _axiom_checks, _blocks, _finite_extras,
                          _identity_checks, _swept, _triples, _verdict)
from gyrokit.prenorm import _directions

from conftest import (brute_gyr, brute_l_subgyrogroups, brute_subgyrogroups,
                      bundled_table_path)


@pytest.fixture(scope="module")
def g8xz2(g8):
    """The direct product g8 x Z_2; the pair (a, b) has index 2 a + b."""
    i = np.arange(16)
    a, b = i // 2, i % 2
    T = g8.table[a[:, None], a[None, :]] * 2 + (b[:, None] + b[None, :]) % 2
    return FiniteTable(T, name="g8xz2")


def test_tensor_matches_brute_gyr(g8):
    assert g8.G.dtype == np.uint8
    for a in range(8):
        for b in range(8):
            for z in range(8):
                assert g8.G[a, b, z] == brute_gyr(g8, a, b, z)


def test_l_subgyrogroups_match_brute_force(g8xz2):
    # g8 itself: test_cosets.py::TestLSubgyrogroups
    lsubs = set(brute_l_subgyrogroups(g8xz2))
    assert set(brute_subgyrogroups(g8xz2)) - lsubs
    for sub in brute_subgyrogroups(g8xz2):
        ok, _ = is_L_subgyrogroup(g8xz2, FiniteSet(16, indices=sub))
        assert ok == (sub in lsubs)


def test_mask_round_trip_and_range():
    S = FiniteSet(12, indices=[0, 2, 11])
    assert FiniteSet.of(S.members()) == S
    assert S.indices() == (0, 2, 11)
    with pytest.raises(ValueError, match="outside"):
        FiniteSet(4, 1 << 4)


def loop_invariance_witness(model, S):
    """The first (a, b), row-major, with gyr[a, b](S) != S: the loop oracle."""
    for a in range(model.n):
        for b in range(model.n):
            if S.gyr_image(model, a, b) != S:
                return (a, b)
    return None


@pytest.mark.parametrize("name", ["g8", "g8xz2"])
def test_invariance_witness_matches_loop(name, request):
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    masks = range(2 ** 8) if model.n == 8 else rng.integers(0, 2 ** 16, 200)
    for mask in masks:
        S = FiniteSet(model.n, int(mask))
        assert S.gyr_invariance_witness(model) == loop_invariance_witness(model, S)


def loop_orbit_units(model):
    """Closures under inverse and all gyrations, by graph search."""
    maps = [model.inv(np.arange(model.n))] + [
        model.gyr_table(a, b) for a in range(model.n) for b in range(model.n)]
    units = []
    for x in range(model.n):
        if any(x in u for u in units):
            continue
        seen, frontier = {x}, [x]
        while frontier:
            y = frontier.pop()
            for mp in maps:
                if int(mp[y]) not in seen:
                    seen.add(int(mp[y]))
                    frontier.append(int(mp[y]))
        units.append(seen)
    return units


@pytest.mark.parametrize("name", ["g8", "g8xz2"])
def test_orbit_labels_match_graph_search(name, request):
    model = request.getfixturevalue(name)
    for unit in loop_orbit_units(model):
        assert {int(model.orbit_labels[x]) for x in unit} == {min(unit)}


# The failing records that `check` reported before the tensor existed, on g8
# with two entries of row 3 swapped and on g8 with one cell overwritten
BROKEN_G8 = [
    ({(3, 1): 6, (3, 5): 2}, {
        "axiom-gyroassociativity": [0, 3, 1],
        "axiom-loop-property": [1, 2, 2],
        "gyration-additivity": [1, 2, 2],
        "gyration-left-division": [0, 3, 1]}),
    ({(3, 1): 4}, {
        "axiom-gyroassociativity": [0, 3, 2],
        "axiom-loop-property": [1, 2, 6],
        "gyration-additivity": [1, 2, 3],
        "gyration-bijectivity": [0, 3],
        "gyration-left-division": [0, 3, 1]}),
]


@pytest.mark.parametrize("cells,expected", BROKEN_G8)
def test_broken_g8_check_witnesses_pinned(cells, expected, tmp_path):
    doc = json.loads(bundled_table_path("g8").read_text())
    for (a, b), v in cells.items():
        doc["table"][a][b] = v
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.jsonl"
    assert main(["check", "--model", f"table:{path}", "--out", str(out)]) == 1
    fails = {}
    for line in out.read_text().splitlines():
        rec = json.loads(line)
        if rec.get("verdict") == "fail":
            assert rec["residual"] == 1.0
            fails[rec["check"]] = rec["witnesses"][0]["elements"]
    assert fails == expected


# Sweeps run in blocks of CHUNK rows; each must report what one pass of the
# block body over all rows reports.

def whole_report(model, checks, x, y, z):
    return AxiomReport(checks(model, x, y, z)).to_json_lines()


@pytest.mark.parametrize("model", [EinsteinModel(dim=2, eps=1e-15),
                                   EinsteinModel(dim=3, eps=1e-15),
                                   MobiusModel(eps=1e-15)],
                         ids=["e2", "e3", "mobius"])
def test_blocked_sweeps_match_whole_draw(model):
    # three full blocks plus a remainder; at eps 1e-15 most checks fail,
    # so the witnesses are compared too
    spec = SampleSpec(3 * CHUNK + 1234, seed=605021745)
    xyz = _triples(model, spec)
    assert len(list(_blocks(model, spec))) == 3
    for sweep, checks in ((check_axioms, _axiom_checks),
                          (check_identities, _identity_checks)):
        lines = sweep(model, spec).to_json_lines()
        assert lines == whole_report(model, checks, *xyz)
        assert any('"fail"' in line for line in lines)


def planted(values):
    """A block body whose one check reads its residuals from ``values``."""
    done = []

    def checks(model, x, y, z):
        lo = sum(done)
        done.append(len(x))
        return [_verdict(model, "planted", values[lo:lo + len(x)], [x])]
    return checks


@pytest.mark.parametrize("cells", [
    {},                                            # all pass at residual 0
    {10: 0.5, CHUNK + 7: 2.0, 2 * CHUNK + 9: 2.0},  # a tie across blocks
    {5: 3.0, CHUNK + 1: np.nan, 2 * CHUNK: np.nan},  # NaN wins, first one
    {3 * CHUNK + 40: 1.0},                           # in the remainder
])
def test_block_merge_picks_the_first_worst_row(cells):
    model = MobiusModel(eps=0.1)
    spec = SampleSpec(3 * CHUNK + 100, seed=4)
    x = _triples(model, spec)[0]
    values = np.zeros(len(x))
    for i, v in cells.items():
        values[i] = v
    got = _swept(model, spec, planted(values)).results[0]
    want = planted(values)(model, x, x, x)[0]
    assert (AxiomReport([got]).to_json_lines()
            == AxiomReport([want]).to_json_lines())
    assert got.samples == len(x)


def test_row_swapped_table_blocks_match_whole_cube(g8):
    # g8 x Z_8 (n = 64: four blocks) with two entries of row 54 swapped;
    # some identity witnesses lie beyond the first block
    n = 64
    i = np.arange(n)
    a, b = i // 8, i % 8
    T = g8.table[a[:, None], a[None, :]] * 8 + (b[:, None] + b[None, :]) % 8
    T[54, [33, 40]] = T[54, [40, 33]]
    model = FiniteTable(T, validate=False)
    assert len(list(_blocks(model, SampleSpec()))) == 4
    cube = np.indices((n, n, n)).reshape(3, -1)
    want = AxiomReport(_axiom_checks(model, *cube)
                       + _finite_extras(model)).to_json_lines()
    assert check_axioms(model).to_json_lines() == want
    ids = check_identities(model)
    assert ids.to_json_lines() == whole_report(model, _identity_checks, *cube)
    late = [r.witness["elements"] for r in ids.failures()]
    assert any(x * n * n + y * n >= CHUNK for x, y in late)


def loop_micro_assoc(model, W, V, spec, directions=256):
    """Continuous micro-associativity one pair at a time: the reference."""
    rng = np.random.default_rng(spec.seed)
    azs = W.sample(model, rng, spec.count)
    bzs = W.sample(model, rng, spec.count)
    probes = V.radius * _directions(model, directions)
    worst = 0.0
    witness = None
    for a, b in zip(azs, bzs):
        ab = model.op(a, b)
        p = model.op(a, model.op(b, probes))
        back = model.norm(model.op(model.inv(ab), p))
        r1 = float(np.max(np.abs(back - V.radius)))
        q = model.op(ab, probes)
        back2 = model.norm(model.op(model.inv(b), model.op(model.inv(a), q)))
        r2 = float(np.max(np.abs(back2 - V.radius)))
        if max(r1, r2) > worst:
            worst = max(r1, r2)
            witness = {"elements": [model.to_payload(a), model.to_payload(b)],
                       "residual": worst}
    passed = worst < 1e-6
    return CheckResult("micro-associativity", passed,
                       spec.count * directions, worst,
                       None if passed else witness)


CONTINUOUS = [pytest.param(EinsteinModel, {}, id="e3"),
              pytest.param(EinsteinModel, {"dim": 2}, id="e2"),
              pytest.param(MobiusModel, {}, id="mobius")]


@pytest.mark.parametrize("cls,kw", CONTINUOUS)
@pytest.mark.parametrize("seed", [0, 3, 605021745])
def test_batched_micro_assoc_matches_loop(cls, kw, seed):
    model = cls(**kw)
    W, V = RadialBall(0.3), RadialBall(0.5)
    for count in (1, 300):  # 300 pairs span two batches
        spec = SampleSpec(count, seed)
        got = micro_assoc_check(model, W, V, spec)
        assert got.passed
        assert got == loop_micro_assoc(model, W, V, spec)


class Kinked:
    """A continuous model whose a + v is scaled by ``factor`` for each
    ``(a, factor)`` in ``factors``.  Factor 0 makes a + (b + V) = {0}, so
    the pair's defect is exactly the radius of V, whatever b is."""

    factors = ()

    def op(self, u, v):
        out = super().op(u, v)
        for key, factor in self.factors:
            hit = np.asarray(u) == key
            if np.ndim(key):
                hit = hit.all(axis=-1, keepdims=True)
            out = np.where(hit, factor * out, out)
        return out


@pytest.mark.parametrize("cls,kw", CONTINUOUS)
@pytest.mark.parametrize("factors,first", [
    ({5: 0.0, 300: 0.0, 100: 0.999}, 5),  # a tie across batches
    ({20: 0.0, 30: 0.0}, 20),             # a tie inside one batch
    ({7: 0.999, 400: 0.0}, 400),          # a later, larger defect
])
def test_batched_micro_assoc_witness_is_first_worst_pair(cls, kw, factors,
                                                         first):
    W, V = RadialBall(0.3), RadialBall(0.5)
    spec = SampleSpec(600, seed=1)
    a = W.sample(cls(**kw), np.random.default_rng(spec.seed), spec.count)
    kinked = type("Kinked", (Kinked, cls), {
        "factors": [(a[i], f) for i, f in factors.items()]})
    model = kinked(**kw)
    got = micro_assoc_check(model, W, V, spec)
    assert not got.passed
    assert got == loop_micro_assoc(model, W, V, spec)
    assert got.witness["elements"][0] == model.to_payload(a[first])
    if factors[first] == 0.0:
        assert got.max_residual == V.radius
