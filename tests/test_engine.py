"""The cached gyration tensor and the array engine against loop oracles."""

import json

import numpy as np
import pytest

from gyrokit import FiniteSet, FiniteTable, is_L_subgyrogroup
from gyrokit.cli import main

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
