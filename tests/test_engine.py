"""The stored gyrations, the array engine and the blocked sweeps against
loop and whole-array oracles."""

import functools
import itertools
import json
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gyrokit import (EinsteinModel, FiniteSet, FiniteTable, MobiusModel,
                     RadialBall, check_axioms, check_identities, cyclic_table,
                     is_L_subgyrogroup, left_cosets, micro_assoc_check,
                     table_load)
from gyrokit import core
from gyrokit.cli import main
from gyrokit.cosets import homogeneity_check
from gyrokit.core import (CHUNK, ROWS, AxiomReport, CarrierError, CheckResult,
                          SampleSpec, TableError, _axiom_checks, _drawn,
                          _finite_axiom_checks, _finite_axioms_hold,
                          _identity_checks, _left_division, _mapped, _merged,
                          _slabs, _swept, _verdict, first_hit)
from gyrokit.prenorm import (DyadicChain, _directions, _greedy_shrink,
                             _invariant_restriction, admissible_hull,
                             build_dyadic_family, prenorm_laws_check, shrink)
from gyrokit.sets import member_masks, oplus_rows

from conftest import (brute_gyr, brute_l_subgyrogroups, brute_left_cosets,
                      brute_subgyrogroups, bundled_table_path,
                      cube_l_subgyrogroup, cube_micro_assoc, full_gyrations,
                      load_bundled, plant_gyration, set_of_bits,
                      table_homogeneity, triples)


def test_tensor_matches_brute_gyr(g8):
    # P[gid] is the whole gyration tensor G[a, b, z] = gyr[a, b](z)
    assert g8.P.dtype == np.uint8
    G = g8.P[g8.gid]
    for a in range(8):
        for b in range(8):
            for z in range(8):
                assert G[a, b, z] == brute_gyr(g8, a, b, z)


def test_gyr_gathers_in_tensor_dtype(g8):
    # no int64 copies: a sweep block's stacked gyration stays small
    out = g8.gyr(*np.indices((8, 8, 8)).reshape(3, -1))
    assert out.dtype == g8.P.dtype
    assert np.array_equal(out, full_gyrations(g8).ravel())


def assert_ids_match_formula(model):
    """P[gid] is the n^3 formula tensor, and no row of P repeats."""
    assert np.array_equal(model.P[model.gid], full_gyrations(model))
    assert len(np.unique(model.P, axis=0)) == len(model.P)


@pytest.mark.parametrize("name,k", [("z4", 1), ("klein4", 1), ("g8", 2)])
def test_bundled_gyration_ids_match_formula(name, k):
    model = load_bundled(name)
    assert_ids_match_formula(model)
    assert len(model.P) == k


@pytest.mark.parametrize("kind", ["valid", "row-swapped", "cell-overwritten",
                                  "row-permuted", "column-swapped"])
@pytest.mark.parametrize("k", [1, 2, 3, 6, 8, 16])  # n = 8 ... 128
def test_gyration_ids_match_formula(g8, k, kind):
    # every g8 x Z_k has exactly 2 distinct gyrations; a corrupted one
    # has more, each still stored once
    if kind == "valid":
        model = FiniteTable(product_table(g8, k))
        assert len(model.P) == 2
    else:
        model = corrupted(g8, k, kind)
        assert len(model.P) > 2
    assert_ids_match_formula(model)


def test_load_and_orbits_stay_below_a_quarter_cube(g8):
    # g8 x Z_32 (n = 256): the load, with its axiom sweep, and the orbit
    # partition hold no n^3 array; tracemalloc's peak stays below n^3 / 4
    T = product_table(g8, 32)
    tracemalloc.start()
    try:
        FiniteTable(T).gyr_orbits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(T) ** 3 // 4


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
    with pytest.raises(ValueError, match=r"^index 4 out of range 0\.\.3$"):
        FiniteSet(4, indices=[4])


def test_members_is_one_read_only_row():
    m = np.arange(6) % 2 == 0
    S = FiniteSet.of(m)
    assert S.members() is S.members()
    assert not S.members().flags.writeable
    assert not FiniteSet(6, indices=[1]).members().flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        S.members()[1] = True
    m[0] = False  # FiniteSet.of stored a copy
    assert S.indices() == (0, 2, 4) and S.n == 6
    with pytest.raises(TypeError):
        FiniteSet(4, 5)  # an int is not read as bits


@pytest.mark.parametrize("indices,bad", [([4], 4), ([-1], -1),
                                         ([0, 9, -1], 9)])
def test_index_range_error_names_first_bad_index(indices, bad):
    with pytest.raises(ValueError, match=rf"^index {bad} out of range 0\.\.3$"):
        FiniteSet(4, indices=indices)


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
        S = set_of_bits(model.n, int(mask))
        assert S.gyr_invariance_witness(model) == loop_invariance_witness(model, S)


def scatter_oplus_rows(model, U, rows):
    """U (+) V per membership row, one scatter per u in U: the oracle."""
    out = np.zeros_like(rows)
    for row in model.table[U.index_array()]:
        out.T[row] |= rows.T
    return out


@pytest.mark.parametrize("k", [1, 6, 16])  # n = 8, 48, 128
def test_oplus_rows_matches_scatter(g8, k):
    model = g8 if k == 1 else FiniteTable(product_table(g8, k))
    n = model.n
    rng = np.random.default_rng(k)
    for density in (0.0, 0.05, 0.3, 1.0):
        U = FiniteSet.of(rng.random(n) < density)
        for shape in ((n,), (2, n), (2 ** 5, n)):
            rows = rng.random(shape) < rng.uniform(0.02, 0.5)
            got = oplus_rows(model, U, rows)
            assert got.dtype == bool and got.shape == shape
            assert np.array_equal(got, scatter_oplus_rows(model, U, rows))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
@pytest.mark.parametrize("shape", [(5,), (3, 7), (2, 3, 4), (4, 0)])
def test_member_masks_match_put_along_axis(shape, dtype):
    n = 9
    vals = np.random.default_rng(len(shape)).integers(0, n, shape, dtype)
    want = np.zeros(shape[:-1] + (n,), dtype=bool)
    np.put_along_axis(want, vals, True, axis=-1)
    got = member_masks(vals, n)
    assert got.dtype == bool and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["g8", "g8xz2"])
def test_finite_set_oplus_matches_brute_force(name, request):
    model = request.getfixturevalue(name)
    n = model.n
    rng = np.random.default_rng(7)
    for _ in range(100):
        A, B = (set_of_bits(n, int(m)) for m in rng.integers(0, 2 ** n, 2))
        want = {int(model.op(a, b)) for a in A.indices() for b in B.indices()}
        assert A.oplus(model, B) == FiniteSet(n, indices=want)


def brute_is_symmetric(model, S):
    """Whether S holds the two-sided inverse of each of its members."""
    def inverse(x):
        return next(y for y in range(model.n)
                    if model.op(x, y) == 0 == model.op(y, x))
    return all(inverse(x) in S for x in S.indices())


@pytest.mark.parametrize("name", ["g8", "g8xz2"])
def test_is_symmetric_matches_brute_force(name, request):
    model = request.getfixturevalue(name)
    rng = np.random.default_rng(11)
    masks = range(2 ** 8) if model.n == 8 else rng.integers(0, 2 ** 16, 300)
    verdicts = set()
    for mask in masks:
        S = set_of_bits(model.n, int(mask))
        verdicts.add(S.is_symmetric(model))
        assert S.is_symmetric(model) == brute_is_symmetric(model, S)
    assert verdicts == {True, False}


def loop_l_witness(model, H):
    """The first (a, h), a then h ascending, with gyr[a, h](H) != H."""
    return next(([a, h] for a in range(model.n) for h in H.indices()
                 if H.gyr_image(model, a, h) != H), None)


def test_l_subgyrogroup_witness_matches_loop(g8xz2):
    failed = 0
    for sub in brute_subgyrogroups(g8xz2):
        H = FiniteSet(16, indices=sub)
        want = loop_l_witness(g8xz2, H)
        ok, witness = is_L_subgyrogroup(g8xz2, H)
        assert ok == (want is None)
        if want:
            failed += 1
            assert witness == {"kind": "gyration", "elements": want}
    assert failed
    # a planted image: gyr[5, 3] sends 1 outside H = {0, 1, 2, 3}, so the
    # witness names h = 3, not the moved element 1
    model = FiniteTable(g8xz2.table)
    H = FiniteSet(16, indices=range(4))
    assert is_L_subgyrogroup(model, H) == (True, None)
    row = model.gyr_table(5, 3)
    row[1] = 4
    plant_gyration(model, 5, 3, row)
    assert loop_l_witness(model, H) == [5, 3]
    assert is_L_subgyrogroup(model, H) == (
        False, {"kind": "gyration", "elements": [5, 3]})


def loop_inverses(T, validate):
    """The per-element inverse search of a table: (inverses, error text)."""
    n = len(T)
    inv = np.full(n, -1, dtype=np.int64)
    for a in range(n):
        hits = np.nonzero((T[a] == 0) & (T[:, a] == 0))[0]
        if hits.size == 1:
            inv[a] = hits[0]
        elif validate:
            return None, (f"element {a} lacks a unique two-sided inverse; "
                          f"candidates {hits.tolist()}")
        else:
            left = np.nonzero(T[a] == 0)[0]
            inv[a] = hits[0] if hits.size else (left[0] if left.size else 0)
    return inv, None


def random_tables(count, seed):
    """Tables of order <= 8: valid ones with a few cells overwritten, often
    by 0, and uniform ones with about one 0 per row."""
    rng = np.random.default_rng(seed)
    valid = [load_bundled(name).table for name in ("z4", "klein4", "g8")]
    for i in range(count):
        if i % 2:
            T = valid[int(rng.integers(3))].copy()
            n = len(T)
            for _ in range(int(rng.integers(1, 4))):
                a, b = rng.integers(0, n, 2)
                T[a, b] = 0 if rng.random() < 0.6 else rng.integers(n)
        else:
            n = int(rng.integers(1, 9))
            T = rng.integers(1, n, (n, n)) if n > 1 else np.zeros((1, 1), int)
            T[rng.random((n, n)) < 1.2 / n] = 0
        yield T


def test_inverse_detection_matches_loop():
    errors = 0
    for T in random_tables(1000, seed=5):
        for validate in (False, True):
            want, text = loop_inverses(T, validate)
            try:
                got = FiniteTable(T, validate=validate).inverses
            except TableError as e:
                if "inverse" in str(e):
                    assert str(e) == text
                    errors += 1
                    continue
                got = None  # rejected later, by the axiom sweep
            assert text is None
            if got is not None:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
    assert errors > 100


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


# Sweeps run in blocks of ROWS rows; each must report what one pass of the
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
    spec = SampleSpec(3 * ROWS + 1234, seed=605021745)
    xyz = triples(model, spec)
    assert _drawn(model, spec)[0] == 3
    for sweep, checks in ((check_axioms, _axiom_checks),
                          (check_identities, _identity_checks)):
        lines = sweep(model, spec).to_json_lines()
        assert lines == whole_report(model, checks, *xyz)
        assert any('"fail"' in line for line in lines)


def block_start(x, block):
    """The row of the draw slot ``x`` at which ``block`` starts: its first
    element, a random point, occurs once in ``x``."""
    return int(np.argmax(x == block[0]))


def planted(values, x):
    """A block body whose one check reads the residuals of its rows of the
    draw slot ``x`` from ``values``."""
    def checks(model, xb, y, z):
        lo = block_start(x, xb)
        return [_verdict(model, "planted", values[lo:lo + len(xb)], [xb])]
    return checks


@pytest.mark.parametrize("cells", [
    {},                                          # all pass at residual 0
    {10: 0.5, ROWS + 7: 2.0, 2 * ROWS + 9: 2.0},  # a tie across blocks
    {5: 3.0, ROWS + 1: np.nan, 2 * ROWS: np.nan},  # NaN wins, first one
    {3 * ROWS + 40: 1.0},                         # in the remainder
    {3: np.nan, ROWS + 2: 5.0},                   # NaN in the first block
])
def test_block_merge_picks_the_first_worst_row(cells):
    model = MobiusModel(eps=0.1)
    spec = SampleSpec(3 * ROWS + 100, seed=4)
    x = triples(model, spec)[0]
    values = np.zeros(len(x))
    for i, v in cells.items():
        values[i] = v
    got = _swept(model, spec, planted(values, x)).results[0]
    want = planted(values, x)(model, x, x, x)[0]
    assert (AxiomReport([got]).to_json_lines()
            == AxiomReport([want]).to_json_lines())
    assert got.samples == len(x)


class OutsideLast(EinsteinModel):
    """The Einstein ball whose last drawn row of each slot lies outside, in
    sweeps whose last block alone draws more than ROWS rows."""

    def sample(self, rng, size):
        v = super().sample(rng, size)
        if size > ROWS:
            v[-1:] = 2.0 * self.c / np.sqrt(self.dim)
        return v


def test_late_block_error_surfaces_as_in_a_serial_sweep():
    # the carrier error of the last block is the one a serial sweep raises
    model = OutsideLast(dim=3)
    spec = SampleSpec(4 * ROWS, seed=2)
    with pytest.raises(CarrierError) as serial:
        _axiom_checks(model, *triples(model, spec))
    for sweep in (check_axioms, check_identities):
        with pytest.raises(CarrierError) as pooled:
            sweep(model, spec)
        assert str(pooled.value) == str(serial.value)
    # blocks from the second on raise, each naming its first row: the
    # first of them in block order surfaces, as from a serial loop
    mobius = MobiusModel()
    x = triples(mobius, spec)[0]

    def checks(model, xb, y, z):
        lo = block_start(x, xb)
        if lo:
            raise CarrierError(f"block at row {lo}")
        return []
    with pytest.raises(CarrierError, match=f"^block at row {ROWS}$"):
        _swept(mobius, spec, checks)


def test_pooled_map_runs_ahead_by_a_bounded_number_of_items(monkeypatch):
    # a lazy driver: after the first result only a few items have been
    # started, and closing the generator leaves no thread behind
    monkeypatch.setattr(core, "_workers", lambda items: 2)
    before = threading.active_count()
    calls = []

    def fn(item):
        calls.append(item)
        return item * item
    results = _mapped(fn, range(1000))
    assert next(results) == 0
    assert 1 <= len(calls) <= 16
    assert next(results) == 1
    results.close()
    assert len(calls) <= 16
    assert threading.active_count() == before
    monkeypatch.setattr(core, "_workers", lambda items: 1)
    assert list(_mapped(fn, range(5))) == [0, 1, 4, 9, 16]


def test_sweeps_leave_no_threads_behind():
    before = threading.active_count()
    spec = SampleSpec(3 * ROWS, seed=1)
    for model in (EinsteinModel(dim=3), MobiusModel()):
        check_axioms(model, spec)
        check_identities(model, spec)
        micro_assoc_check(model, RadialBall(0.3), RadialBall(0.5),
                          SampleSpec(300, seed=1))
        assert threading.active_count() == before


def fake_libc(*missing):
    """A C library whose ``mallopt`` records its calls, without the
    functions named in ``missing``."""
    calls = []
    libc = types.SimpleNamespace(
        calls=calls, gnu_get_libc_version=lambda: b"2.99",
        mallopt=lambda param, value: calls.append((param, value)))
    for name in missing:
        delattr(libc, name)
    return libc


def pinned_with(monkeypatch, libc):
    """Run ``_pin_allocator`` twice with ``ctypes.CDLL`` giving ``libc``."""
    import ctypes
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    core._pin_allocator.cache_clear()
    try:
        core._pin_allocator()
        core._pin_allocator()
    finally:
        core._pin_allocator.cache_clear()


def test_allocator_pin_is_set_once(monkeypatch):
    libc = fake_libc()
    pinned_with(monkeypatch, libc)
    assert libc.calls == [(-3, 8 << 20), (-1, 32 << 20)]


@pytest.mark.parametrize("missing", ["mallopt", "gnu_get_libc_version"])
def test_allocator_pin_needs_glibc_mallopt(monkeypatch, missing):
    libc = fake_libc(missing)
    pinned_with(monkeypatch, libc)
    assert libc.calls == []


def test_only_continuous_sweeps_pin_the_allocator(monkeypatch, g8):
    calls = []
    monkeypatch.setattr(core, "_pin_allocator", lambda: calls.append(1))
    check_axioms(g8)
    check_identities(g8)
    H = FiniteSet(8, indices=[0])
    micro_assoc_check(g8, H, FiniteSet(8, indices=range(8)))
    micro_assoc_check(EinsteinModel(dim=3), RadialBall(0.3), RadialBall(0.5),
                      SampleSpec(100, seed=1))
    assert calls == []
    check_identities(MobiusModel(), SampleSpec(10, seed=1))
    assert calls == [1]


def test_pooled_sweeps_hold_with_more_workers_than_cores(monkeypatch):
    # eight workers and a short switch interval: merged blocks must still
    # report the whole draw, and micro-associativity batches the loop
    monkeypatch.setattr(core, "_workers", lambda items: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        model = MobiusModel(eps=1e-15)
        spec = SampleSpec(8 * ROWS + 5, seed=9)
        assert check_identities(model, spec).to_json_lines() == whole_report(
            model, _identity_checks, *triples(model, spec))
        W, V, spec = RadialBall(0.3), RadialBall(0.5), SampleSpec(600, seed=2)
        assert (micro_assoc_check(model, W, V, spec)
                == loop_micro_assoc(model, W, V, spec))
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("name", ["einstein", "mobius", "g8"])
def test_stacked_gyr_matches_separate_calls(name, request):
    # the sweep bodies apply gyr[x, y] once to a stack of arguments
    model = request.getfixturevalue(name)
    x, y, z = triples(model, SampleSpec(5000, seed=3)) if name != "g8" \
        else np.indices((8, 8, 8)).reshape(3, -1)
    ws = [z, model.op(z, x), x, model.inv(y)]
    stacked = model.gyr(x, y, np.stack(ws))
    for got, w in zip(stacked, ws):
        want = model.gyr(x, y, w)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def columns_first(a):
    """A copy of a whose last axis is the slowest: each column contiguous."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


@pytest.mark.parametrize("dim", [2, 3])
def test_einstein_kernels_do_not_depend_on_layout(dim):
    # sweeps draw column-major slots; every kernel must give the bits it
    # gives on C-ordered rows
    model = EinsteinModel(dim=dim)
    blocks, block = _drawn(model, SampleSpec(5000, seed=11))
    assert blocks == 1
    draw = block(0)
    assert all(t.flags.f_contiguous and not t.flags.c_contiguous
               for t in draw)
    rows = [np.ascontiguousarray(t) for t in draw]
    cols = [columns_first(t) for t in rows]
    stacked = np.stack(rows)
    results = []
    for (x, y, z), ws in ((rows, stacked), (cols, columns_first(stacked))):
        gz, gs = model.gyr(x, y, z), model.gyr(x, y, ws)
        for out in (gz, gs):
            assert all(out[..., k].flags.c_contiguous for k in range(dim))
        results.append([model.op(x, y), gz, gs, model.norm(x),
                        model.residual(x, z)])
    for want, got in zip(*results):
        assert np.array_equal(want, got)


def whole_slot_rows(model, rng, count):
    """``count`` rows drawn from ``rng`` by the whole-slot formula: all the
    Einstein normals then all the radii, or all the Moebius phases then all
    the radii."""
    if isinstance(model, EinsteinModel):
        v = rng.normal(size=(count, model.dim))
        v /= model.norm(v)[:, None]
        v *= 0.99 * model.c * rng.random(count)[:, None] ** (1.0 / model.dim)
        return v
    phase = np.exp(2j * np.pi * rng.random(count))
    return 0.99 * np.sqrt(rng.random(count)) * phase


def reference_draw(model, spec):
    """The three slots of a sweep's draw, the reference: the rotated stress
    elements, then for each block k of ROWS rows (the remainder joining
    the last) its rows of slot j by ``whole_slot_rows``, drawn from the
    child (j, k) of the seed's ``SeedSequence``."""
    stress = model.stress_elements()
    h = len(stress)
    rows = h + spec.count
    cuts = [k * ROWS for k in range(max(rows // ROWS, 1))] + [rows]
    slots = []
    for j in range(3):
        parts = [np.stack(stress[j:] + stress[:j])]
        for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            rng = np.random.default_rng(
                np.random.SeedSequence(spec.seed, spawn_key=(j, k)))
            parts.append(whole_slot_rows(model, rng, hi - max(lo, h)))
        slots.append(np.concatenate(parts))
    return slots


STRESS = 5  # rows of stress elements at the head of every slot
DRAWN = pytest.mark.parametrize(
    "model", [EinsteinModel(dim=2), EinsteinModel(dim=3, c=1.5),
              MobiusModel()], ids=["e2", "e3", "mobius"])


@DRAWN
@pytest.mark.parametrize("count", [0, 1, ROWS - STRESS - 1, ROWS - STRESS,
                                   ROWS - STRESS + 1, ROWS - 1, ROWS,
                                   ROWS + 1, 3 * ROWS + 5])
def test_chunked_draw_matches_whole_slot_draw(model, count):
    # each block draws its rows from a generator of its own, in any order
    assert len(model.stress_elements()) == STRESS
    spec = SampleSpec(count, seed=605021745)
    want = reference_draw(model, spec)
    rows = STRESS + count
    blocks, draw = _drawn(model, spec)
    assert blocks == max(rows // ROWS, 1)
    drawn = [draw(k) for k in reversed(range(blocks))][::-1]
    lo = 0
    for k, xyz in enumerate(drawn):
        hi = rows if k == blocks - 1 else lo + ROWS
        for slot, whole in zip(xyz, want):
            assert slot.flags.f_contiguous
            assert slot.dtype == whole.dtype
            assert np.array_equal(slot, whole[lo:hi])
        lo = hi
    assert lo == rows


def streamed_peak(count: int) -> int:
    """tracemalloc's peak over a streamed Einstein d=3 ``check_axioms``."""
    model = EinsteinModel(dim=3)
    tracemalloc.start()
    try:
        assert check_axioms(model, SampleSpec(count, seed=0)).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_sweep_peak_does_not_grow_with_the_count(monkeypatch):
    # one worker, so that the peak is one block's, not that of whichever
    # blocks happen to overlap; about 8*10^5 samples against 2*10^5, with
    # last blocks of the same length, as the longest block sets the peak
    monkeypatch.setattr(core, "_workers", lambda items: 1)
    small, large = streamed_peak(200_000), streamed_peak(200_000 + 36 * ROWS)
    block = 3 * ROWS * 3 * 8  # one block's three Einstein d=3 slots
    assert large < small + block
    # and below the bound on the whole draw of 2*10^5 samples' slots
    assert large < 1.3 * 3 * (200_000 + STRESS) * 3 * 8


def test_mobius_gyr_bits_do_not_depend_on_batch_length():
    # numpy computes a product with a temporary operand in place only from
    # 2^14 elements on, and complex products are not bit-commutative
    model = MobiusModel()
    a, b, z = (model.sample(np.random.default_rng(s), 2 ** 16)
               for s in range(3))
    k = 2 ** 13
    assert np.array_equal(model.gyr(a[:k], b[:k], z[:k]),
                          model.gyr(a, b, z)[:k])


def test_row_swapped_table_blocks_match_whole_cube(g8):
    # g8 x Z_8 (n = 64: four blocks) with two entries of row 54 swapped;
    # some identity witnesses lie beyond the first block
    n = 64
    i = np.arange(n)
    a, b = i // 8, i % 8
    T = g8.table[a[:, None], a[None, :]] * 8 + (b[:, None] + b[None, :]) % 8
    T[54, [33, 40]] = T[54, [40, 33]]
    model = FiniteTable(T, validate=False)
    assert len(_slabs(n)) == 4
    cube = np.indices((n, n, n)).reshape(3, -1)
    want = AxiomReport(_axiom_checks(model, *cube)
                       + whole_extras(model)).to_json_lines()
    assert check_axioms(model).to_json_lines() == want
    ids = check_identities(model)
    assert ids.to_json_lines() == whole_report(model, _identity_checks, *cube)
    late = [r.witness["elements"] for r in ids.failures()]
    assert any(x * n * n + y * n >= CHUNK for x, y in late)


# check_axioms on a finite table is a gather body over slabs of
# max(CHUNK // n^2, 1) first indices; it must report what the generic block
# body reports on the whole index cube.

def product_table(g8, k):
    """g8 x Z_k; the pair (a, b) has index k a + b."""
    i = np.arange(8 * k)
    a, b = i // k, i % k
    return g8.table[a[:, None], a[None, :]] * k + (b[:, None] + b[None, :]) % k


def corrupted(g8, k, kind):
    """g8 x Z_k, unvalidated, broken in row n - 3 (beyond the first slab)
    through column 0, in its columns n - 3 and n - 1, or with a planted
    defect in one of its gyrations."""
    T = product_table(g8, k)
    n = len(T)
    r = n - 3
    if kind == "row-swapped":
        T[r, [0, n - 1]] = T[r, [n - 1, 0]]
    elif kind == "cell-overwritten":
        T[r, 0] = T[r, 5]
    elif kind == "row-permuted":
        T[r] = np.roll(T[r], 1)
    elif kind == "column-swapped":
        T[:, [r, n - 1]] = T[:, [n - 1, r]]
    model = FiniteTable(T, validate=False)
    if kind == "tensor-planted":
        # gyr[r, 3] sends 5 and 6 to the same image
        row = model.gyr_table(r, 3)
        row[5] = row[6]
        plant_gyration(model, r, 3, row)
    return model


@pytest.mark.parametrize("kind", ["row-swapped", "cell-overwritten",
                                  "row-permuted", "tensor-planted"])
@pytest.mark.parametrize("k", [6, 8, 16])  # n = 48, 64, 128
def test_finite_gather_body_matches_whole_cube(g8, k, kind):
    n = 8 * k
    model = corrupted(g8, k, kind)
    slab = max(CHUNK // (n * n), 1)
    assert slab < n  # more than one slab
    cube = np.indices((n, n, n)).reshape(3, -1)
    want = _axiom_checks(model, *cube) + whole_extras(model)
    got = check_axioms(model)
    assert [(r.name, r.witness) for r in got.results] == [
        (r.name, r.witness) for r in want]
    assert got.to_json_lines() == AxiomReport(want).to_json_lines()
    assert all(r.samples == n ** 3 for r in got.results[:7])
    # witnesses beyond the first slab: of the x-only checks from the broken
    # row, of every three-index check from the planted gyration
    late = {r.name for r in got.failures()
            if r.witness["elements"][0] >= slab}
    if kind == "tensor-planted":
        assert {"axiom-gyroassociativity", "gyration-additivity",
                "gyration-bijectivity", "gyration-left-division"} <= late
    else:
        assert "axiom-identity-right" in late


def whole_extras(model):
    """Bijectivity and left division on the whole cube of the model's
    gyrations P[gid], planted ones included: the reference."""
    n, G, T = model.n, model.P[model.gid], model.table
    ab = first_hit(np.sort(G, axis=2) != np.arange(n))
    abz = first_hit(_left_division(model)[T[:, :, None], T[:, T]] != G)
    return [CheckResult.exact("gyration-bijectivity", n * n,
                              ab and {"elements": ab[:2], "residual": 1.0}),
            CheckResult.exact("gyration-left-division", n ** 3,
                              abz and {"elements": abz, "residual": 1.0})]


def test_slabbed_finite_extras_match_whole_cube(g8):
    # g8 x Z_8 (n = 64, four slabs of 16) with one planted gyration:
    # gyr[40, 3] sends 5 and 6 to the same image, so both checks fail
    # first in the third slab
    model = FiniteTable(product_table(g8, 8), validate=False)
    row = model.gyr_table(40, 3)
    row[5] = row[6]
    plant_gyration(model, 40, 3, row)
    T = model.table.astype(model.P.dtype)
    Tt, left = np.ascontiguousarray(T.T), _left_division(model)

    def extras(lo, hi):
        return _finite_axiom_checks(model, T, Tt, left, lo, hi)[-2:]
    got = _merged(extras(lo, lo + 16) for lo in range(0, 64, 16))
    want = whole_extras(model)
    assert got.results == want == extras(0, model.n)
    assert check_axioms(model).results[-2:] == want
    assert [r.witness["elements"] for r in got.results] == [[40, 3],
                                                            [40, 3, 5]]
    assert [r.samples for r in got.results] == [64 ** 2, 64 ** 3]


# check_axioms on a finite table first runs whole-table tests of O(k n^2)
# cost (_finite_axioms_hold); only where one fails does the slab sweep run,
# and its report must then be the sweep's, witnesses included.

def slab_sweep(model):
    """``_merged`` over ``_finite_axiom_checks`` on every slab: the report
    of the exhaustive sweep, which the sufficient tests must reproduce."""
    T = model.table.astype(model.P.dtype)
    Tt, left = np.ascontiguousarray(T.T), _left_division(model)
    return _merged(_finite_axiom_checks(model, T, Tt, left, lo, hi)
                   for lo, hi in _slabs(model.n))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_sufficient_tests_match_the_slab_sweep(g8, data):
    # g8 x Z_k, k <= 4, relabeled with 0 kept at 0, then left valid or
    # broken in one cell, in two entries of a row, or in two columns
    k = data.draw(st.integers(1, 4), label="k")
    n = 8 * k
    p = np.array([0] + data.draw(st.permutations(range(1, n)), label="p"))
    q = np.argsort(p)
    T = p[product_table(g8, k)[q][:, q]]
    kind = data.draw(st.sampled_from(
        ["valid", "one-cell", "row-swap", "column-swap"]), label="kind")
    a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if kind == "one-cell":
        T[a, b] = c
    elif kind == "row-swap":
        T[a, [b, c]] = T[a, [c, b]]
    elif kind == "column-swap":
        T[:, [b, c]] = T[:, [c, b]]
    model = FiniteTable(T, validate=False)
    want = slab_sweep(model)
    got = check_axioms(model)
    assert got.results == want.results
    assert got.to_json_lines() == want.to_json_lines()
    # the tests hold exactly on the gyrogroups: no valid table is swept
    hold = _finite_axioms_hold(model, model.table.astype(model.P.dtype))
    assert hold == want.passed
    # the identities, decided by the same tests, report what the block
    # body reports on the whole index cube
    cube = np.indices((n, n, n)).reshape(3, -1)
    assert check_identities(model).to_json_lines() == whole_report(
        model, _identity_checks, *cube)


def planted_table(g8, test):
    """g8 x Z_8 (n = 64, four slabs) made to fail exactly one of the
    sufficient tests of ``_finite_axioms_hold``, named by ``test``."""
    model = FiniteTable(product_table(g8, 8), validate=False)
    if test in ("identity", "left-cancellation"):
        # cell changes that the other tests do not see: the table's
        # gyrations are kept from the valid table
        T = model.table.copy()
        if test == "identity":
            T[0, [40, 41]] = T[0, [41, 40]]
        else:
            T[41, 36] = 0
        broken = FiniteTable(T, validate=False)
        broken.P, broken.gid = model.P, model.gid.copy()
        return broken
    if test == "loop-ids":
        # gyr[40, 9] becomes the other gyration, an automorphism, under an
        # id of its own
        plant_gyration(model, 40, 9, model.P[1 - model.gid[40, 9]])
    elif test == "bijectivity":
        # gyr[40, 0] sends everything to 0, which is additive
        plant_gyration(model, 40, 0, np.zeros(64))
    elif test == "additivity":
        # gyr[40, 0] swaps 5 and 6 and fixes the rest: a bijection
        row = np.arange(64)
        row[[5, 6]] = [6, 5]
        plant_gyration(model, 40, 0, row)
    elif test == "shared-additivity":
        # the gyration that is not the identity, shared by many pairs,
        # swaps its images of 5 and 6
        P = model.P.copy()
        g = np.flatnonzero((P != np.arange(64)).any(axis=1))[0]
        P[g, [5, 6]] = P[g, [6, 5]]
        model.P = P
    return model


@pytest.mark.parametrize("test,failures", [
    ("identity", {"axiom-identity-left": [40],
                  "axiom-gyroassociativity": [0, 0, 40],
                  "gyration-left-division": [0, 0, 40]}),
    ("left-cancellation", {"axiom-gyroassociativity": [1, 40, 36],
                           "gyration-left-division": [0, 41, 47]}),
    ("loop-ids", {"axiom-gyroassociativity": [40, 9, 16],
                  "axiom-loop-property": [39, 9, 16],
                  "gyration-left-division": [40, 9, 16]}),
    ("bijectivity", {"axiom-gyroassociativity": [40, 0, 1],
                     "gyration-bijectivity": [40, 0],
                     "gyration-left-division": [40, 0, 1]}),
    ("additivity", {"axiom-gyroassociativity": [40, 0, 5],
                    "gyration-additivity": [40, 0, 5],
                    "gyration-left-division": [40, 0, 5]}),
    ("shared-additivity", {"axiom-gyroassociativity": [8, 16, 5],
                           "gyration-additivity": [8, 16, 5],
                           "gyration-left-division": [8, 16, 5]}),
])
def test_each_failed_sufficient_test_reports_the_sweep(g8, test, failures):
    model = planted_table(g8, test)
    T = model.table.astype(model.P.dtype)
    assert not _finite_axioms_hold(model, T)
    got = check_axioms(model)
    assert got.results == slab_sweep(model).results
    assert {r.name: r.witness["elements"] for r in got.failures()} == failures


def test_validated_load_never_sweeps(g8, monkeypatch):
    def refuse(*args):
        raise AssertionError("the slab sweep ran")
    monkeypatch.setattr(core, "_finite_axiom_checks", refuse)
    report = FiniteTable(product_table(g8, 4)).axiom_report
    assert report.passed and report.max_residual == 0.0
    assert [r.samples for r in report.results] == [32 ** 3] * 7 + [
        32 ** 2, 32 ** 3]
    # a broken table does reach the sweep
    with pytest.raises(AssertionError, match="slab sweep"):
        check_axioms(corrupted(g8, 4, "row-swapped"))


def test_identities_of_a_gyrogroup_never_sweep(g8, monkeypatch):
    # the identities are theorems of the axioms: a table that passes the
    # sufficient tests is answered without one op or gyr call
    calls = []
    for name in ("op", "gyr"):
        def counted(self, *args, name=name, method=getattr(FiniteTable, name)):
            calls.append(name)
            return method(self, *args)
        monkeypatch.setattr(FiniteTable, name, counted)
    model = FiniteTable(product_table(g8, 4))
    report = check_identities(model)
    assert calls == []
    assert report.passed and report.max_residual == 0.0
    assert [r.samples for r in report.results] == [32 ** 3] * 6
    # a broken table is swept through op and gyr, for its witnesses
    path = Path(__file__).parent / "golden" / "tables" / "g8-swapped.json"
    report = check_identities(table_load(path.read_text(), validate=False))
    assert {"op", "gyr"} <= set(calls)
    assert not report.passed


@pytest.mark.parametrize("kind", ["valid", "column-swapped"])
def test_check_axioms_stays_below_a_quarter_cube(g8, kind):
    # g8 x Z_32 (n = 256): valid, with 2 distinct gyrations, and with two
    # columns swapped, with 33906
    if kind == "valid":
        model = FiniteTable(product_table(g8, 32), validate=False)
    else:
        model = corrupted(g8, 32, kind)
    assert len(model.P) == {"valid": 2, "column-swapped": 33906}[kind]
    tracemalloc.start()
    try:
        assert check_axioms(model).passed == (kind == "valid")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n ** 3 // 4


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
    for count in (1, 300):  # 300 pairs span five batches
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


# ------------------------------------------- orbit partition and shrink

@functools.cache
def product_model(k):
    """g8 x Z_k, loaded once per test session."""
    return FiniteTable(product_table(load_bundled("g8"), k), name=f"g8xz{k}")


def bfs_orbits(model):
    """Per element, the least element reached from it through the
    permutations of ``gyr_table``, by breadth-first search."""
    n = model.n
    perms = [model.gyr_table(a, b) for a in range(n) for b in range(n)]
    lab = np.full(n, -1)
    for x in range(n):
        if lab[x] < 0:
            lab[x], frontier = x, [x]
            while frontier:
                y = frontier.pop()
                for w in {int(p[y]) for p in perms}:
                    if lab[w] < 0:
                        lab[w] = x
                        frontier.append(w)
    return lab


@pytest.mark.parametrize("k", [1, 2, 6])
def test_gyr_orbits_match_permutation_bfs(k):
    model = product_model(k)
    want = bfs_orbits(model)
    assert np.array_equal(model.gyr_orbits, want)
    assert not np.array_equal(want, np.arange(model.n))  # orbits merge
    assert np.array_equal(model.orbit_labels,
                          np.minimum(want, want[model.inverses]))


def test_gyr_orbits_close_a_planted_cycle(g8):
    # a planted gyration z -> z + 2 mod 16 on g8 x Z_2 reaches two steps
    # at a time, so the orbits {evens} and {odds} need repeated squaring
    model = FiniteTable(product_table(g8, 2))
    plant_gyration(model, 5, 3, (np.arange(16) + 2) % 16)
    assert np.array_equal(model.gyr_orbits, bfs_orbits(model))
    assert np.array_equal(model.gyr_orbits, np.arange(16) % 2)


@pytest.mark.parametrize("k", [1, 6, 16])  # n = 8, 48, 128
def test_invariance_witness_matches_gathers(k):
    # orbit unions, every other one perturbed in one or two elements; the
    # n^2 |U| and n^3 gathers on the whole gyration tensor are the oracles
    model = product_model(k)
    n, G, orb = model.n, full_gyrations(model), model.gyr_orbits
    reps = np.unique(orb)
    rng = np.random.default_rng(k)
    verdicts = []
    for i in range(200):
        m = np.isin(orb, reps[rng.random(reps.size) < rng.uniform(0.1, 0.9)])
        if i % 2:
            m[rng.integers(n, size=rng.integers(1, 3))] ^= True
        S = FiniteSet.of(m)
        want = first_hit(~m[G[..., S.index_array()]].all(-1))
        assert S.gyr_invariance_witness(model) == (want and tuple(want))
        want = first_hit(m[G] != m)
        assert model.invariance_witness(m) == want
        verdicts.append(want is None)
    assert 0 < sum(verdicts) < 200


def lift(k, S, Z):
    """The g8 x Z_k indices of S x Z."""
    return [g * k + z for g in S for z in Z]


def test_invariance_witness_finds_planted_numerator_defect():
    # the prenorm numerators of g8 x Z_16 (n = 128, slabs of 4 first
    # indices) on [G, S4 x Z_16, S2 x Z_16, S2 x {0}, {0}], with one
    # numerator raised on an element that g8's gyrations move
    k = 16
    model = product_model(k)
    n, G = model.n, full_gyrations(model)
    chain = DyadicChain([FiniteSet(n, indices=s) for s in (
        range(n), lift(k, [0, 1, 4, 5], range(k)), lift(k, [0, 1], range(k)),
        lift(k, [0, 1], [0]), [0])], "admissible")
    family = build_dyadic_family(model, chain, depth=4)
    assert model.invariance_witness(family._num) is None
    z = int(np.flatnonzero(model.gyr_orbits != np.arange(n))[0])
    family._num[z] += 1
    want = first_hit(family._num[G] != family._num)
    assert want[0] >= 4  # beyond the first slab
    assert model.invariance_witness(family._num) == want
    rec = {r.name: r for r in prenorm_laws_check(model, family)}[
        "prenorm-gyr-invariance"]
    assert (rec.passed, rec.samples, rec.witness) == (
        False, n ** 3, {"elements": want})


def meshgrid_greedy(model, start, target, triple):
    """The greedy shrink over the |V|^2 or |V|^3 index meshgrid: the oracle."""
    T, lab = model.table, model.orbit_labels
    V = _invariant_restriction(model, start).members().copy()
    in_target = target.members()
    while True:
        idx = np.flatnonzero(V)
        grid = np.meshgrid(*[idx] * (3 if triple else 2), indexing="ij")
        vals = T[grid[0], T[grid[1], grid[2]]] if triple else T[grid[0], grid[1]]
        involved = np.concatenate([g[~in_target[vals]] for g in grid])
        if involved.size == 0:
            return FiniteSet.of(V)
        V &= lab != lab[int(np.max(involved[involved != 0]))]


def meshgrid_hull(model, U, depth):
    """``admissible_hull`` on the meshgrid greedy: the oracle."""
    lab = model.orbit_labels
    sets = [_invariant_restriction(model, U)]
    while len(sets[-1]) > 1:
        cur = sets[-1]
        V = meshgrid_greedy(model, cur, cur, True)
        if V == cur:
            V = FiniteSet.of(cur.members() & (lab != lab[cur.index_array()[-1]]))
        sets.append(V)
    return sets + sets[-1:] * (depth + 1 - len(sets))


def symmetric_group(d):
    """The Cayley table of S_d on its permutations in lexicographic order,
    (p q)(i) = p(q(i)): a group, so each unit is {x, -x}."""
    perms = list(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteTable([[index[tuple(p[i] for i in q)] for q in perms]
                        for p in perms], name=f"s{d}")


@pytest.mark.parametrize("k,count", [(1, 40), (2, 20), (6, 6), (16, 2),
                                     ("s4", 300)])
def test_shrink_and_hull_match_meshgrid_greedy(k, count):
    # S_4 is where the greedy step's three ways into a bad triple, and the
    # column of a bad pair, decide which unit goes first
    model = symmetric_group(4) if k == "s4" else product_model(k)
    n = model.n
    rng = np.random.default_rng(7)
    sizes = set()
    for _ in range(count):
        A, B = (FiniteSet.of((rng.random(n) < rng.uniform(lo, 1.0))
                             | (np.arange(n) == 0)) for lo in (0.3, 0.5))
        for triple in (False, True):
            assert _greedy_shrink(model, A, B, triple) == meshgrid_greedy(
                model, A, B, triple)
        assert shrink(model, B) == meshgrid_greedy(model, B, B, False)
        chain, tail = admissible_hull(model, B, depth=6)
        assert chain.sets == meshgrid_hull(model, B, 6)
        assert tail == chain.sets[-1]
        sizes.add(len(chain.sets[1]))
    assert max(sizes) > 1  # some hulls descend in more than one step


def test_invariance_and_hull_peak_below_cube(g8):
    # g8 x Z_16 (n = 128): on a fresh table, the orbit partition, the
    # whole-carrier invariance verdict and the hull stay below n^3 bytes,
    # measured by tracemalloc
    full = FiniteSet.of(np.ones(128, dtype=bool))
    for run in (full.gyr_invariance_witness,
                lambda model: admissible_hull(model, full)):
        model = FiniteTable(product_table(g8, 16))
        tracemalloc.start()
        try:
            run(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.n ** 3


@pytest.mark.parametrize("kind", ["product", "cyclic", "planted"])
def test_is_group_slabbed_and_below_cube(g8, kind):
    # n = 128: g8 x Z_16 is not a group; Z_128 is, unless one gyration of
    # its last first index is planted; each verdict stays below n^3 / 8
    # bytes
    if kind == "product":
        model = FiniteTable(product_table(g8, 16))
    else:
        model = FiniteTable(cyclic_table(128).table, validate=False)
        if kind == "planted":
            row = model.gyr_table(127, 3)
            row[5] = 6
            plant_gyration(model, 127, 3, row)
    tracemalloc.start()
    try:
        verdict = model.is_group()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == bool(np.all(model.P[model.gid] == np.arange(model.n)))
    assert verdict == (kind == "cyclic")
    assert peak < model.n ** 3 // 8


# is_L_subgyrogroup, finite micro_assoc_check and the cosets command's
# homogeneity-bijection are reads of FiniteTable.leaving_pair, which tests
# each row of P once; the per-pair cubes they replace are the oracles.

def relabeled(g8, k, seed):
    """g8 x Z_k and the map p of its indices, with p the identity for seed
    None, else 0 kept and the rest permuted with ``seed``; the relabeled
    table sends (p[x], p[y]) to p[x + y]."""
    n = 8 * k
    if seed is None:
        return FiniteTable(product_table(g8, k)), np.arange(n)
    rest = 1 + np.random.default_rng(seed).permutation(n - 1)
    p = np.concatenate([[0], rest])
    q = np.argsort(p)
    return FiniteTable(p[product_table(g8, k)[q][:, q]]), p


@pytest.mark.parametrize("seed", [None, 4, 9])
@pytest.mark.parametrize("k,subs,lsubs", [(1, 10, 8), (2, 35, 27),
                                          (3, 20, 16)])
def test_l_subgyrogroups_and_homogeneity_match_cube_oracles(g8, k, subs,
                                                            lsubs, seed):
    found = brute_subgyrogroups(product_model(k))
    assert len(found) == subs
    model, p = relabeled(g8, k, seed)
    verdicts = []
    for sub in found:
        H = FiniteSet(model.n, indices=p[list(sub)])
        got = is_L_subgyrogroup(model, H)
        assert got == cube_l_subgyrogroup(model, H)
        verdicts.append(got[0])
        if got[0]:
            part = left_cosets(model, H)
            cosets, index_of = brute_left_cosets(model, H)
            assert part.cosets == cosets
            assert part.index_of.tolist() == index_of
            assert homogeneity_check(part) == table_homogeneity(part)
            assert homogeneity_check(part).passed
    assert sum(verdicts) == lsubs


def test_micro_assoc_matches_cube_oracle_on_every_g8_pair(g8):
    # every W <= V of g8 subsets holding 0, {0, 1, 3} among the V that
    # no gyration keeps
    failed = set()
    for vbits in range(1, 2 ** 8, 2):
        V = set_of_bits(8, vbits)
        for wbits in range(1, 2 ** 8, 2):
            if wbits & ~vbits:
                continue
            W = set_of_bits(8, wbits)
            got = micro_assoc_check(g8, W, V)
            assert got == cube_micro_assoc(g8, W, V)
            if not got.passed:
                failed.add(V.indices())
    assert (0, 1, 3) in failed
    assert all(FiniteSet(8, indices=v).gyr_invariance_witness(g8)
               for v in failed)


@pytest.mark.parametrize("seed", [None, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_micro_assoc_matches_cube_oracle_on_lifts(g8, k, seed):
    # W = V = S4 x Z_k, W = S2 x {0} in V = S4 x Z_k, and W = V =
    # {0, 1, 3} x Z_k, which fails
    model, p = relabeled(g8, k, seed)
    s2, s4, v013 = (FiniteSet(model.n, indices=p[lift(k, S, Z)]) for S, Z in (
        ([0, 1], [0]), ([0, 1, 4, 5], range(k)), ([0, 1, 3], range(k))))
    for W, V, passed in ((s4, s4, True), (s2, s4, True),
                         (v013, v013, False)):
        got = micro_assoc_check(model, W, V)
        assert got == cube_micro_assoc(model, W, V)
        assert got.passed == passed


def test_leaving_pair_reads_the_rows_of_p(g8xz2):
    # the first (a, b), row-major over the grid given, whose gyration
    # carries a member out; a planted row is read through gid
    model = FiniteTable(g8xz2.table)
    H = FiniteSet(16, indices=range(4))
    rows, cols = np.arange(16), H.index_array()
    assert model.leaving_pair(H.members(), rows, cols) is None
    row = model.gyr_table(5, 3)
    row[1] = 4
    plant_gyration(model, 5, 3, row)
    assert model.leaving_pair(H.members(), rows, cols) == (5, 3)
    assert model.leaving_pair(H.members(), rows[6:], cols) is None
    assert model.leaving_pair(H.members(), [7, 5], [3, 0]) == (5, 3)
    assert model.leaving_pair(np.zeros(16, dtype=bool), rows, cols) is None


@pytest.mark.parametrize("stage", ["cosets", "microassoc"])
def test_coset_and_micro_assoc_peaks_below_a_quarter_cube(g8, stage):
    # g8 x Z_32 (n = 256), H = S4 x Z_32: the L-subgyrogroup test with the
    # partition, and micro-associativity with W = V = H, hold no cube of
    # pairs; tracemalloc's peak stays below n^3 / 4
    model = FiniteTable(product_table(g8, 32))
    H = FiniteSet(256, indices=lift(32, [0, 1, 4, 5], range(32)))
    tracemalloc.start()
    try:
        if stage == "cosets":
            assert is_L_subgyrogroup(model, H) == (True, None)
            assert len(left_cosets(model, H).cosets) == 2
        else:
            assert micro_assoc_check(model, H, H).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.n ** 3 // 4
