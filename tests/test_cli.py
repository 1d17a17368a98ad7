import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gyrokit
from gyrokit import (EinsteinModel, SampleSpec, check_axioms,
                     check_identities)
from gyrokit import cli
from gyrokit.cli import build_parser, main

from conftest import bundled_table_path, hand_built_partition, load_bundled

Z4 = f"table:{bundled_table_path('z4')}"
G8 = f"table:{bundled_table_path('g8')}"


@pytest.fixture
def weak_chain(tmp_path):
    p = tmp_path / "weak.json"
    p.write_text(json.dumps(
        {"flavor": "weak", "sets": [[0, 1, 2, 3], [0, 2], [0]]}))
    return str(p)


@pytest.fixture
def adm_chain(tmp_path):
    p = tmp_path / "adm.json"
    p.write_text(json.dumps(
        {"flavor": "admissible", "sets": [[0, 1, 2, 3], [0, 2], [0, 2]]}))
    return str(p)


@pytest.fixture
def radial_chain(tmp_path):
    radii = [0.8, 0.5] + [0.5 / 2 ** k for k in range(1, 10)]
    p = tmp_path / "radial.json"
    p.write_text(json.dumps({"flavor": "weak", "radii": radii}))
    return str(p)


def read_jsonl(path):
    return [json.loads(line) for line in open(path)]


class TestCheck:
    def test_table_passes(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert main(["check", "--model", Z4, "--out", str(out)]) == 0
        recs = read_jsonl(out)
        assert all(r["verdict"] == "pass" for r in recs if "verdict" in r)

    def test_einstein_seeded(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["check", "--model", "einstein", "--samples", "10000",
                   "--seed", "7", "--out", str(out)])
        assert rc == 0
        residuals = [r["residual"] for r in read_jsonl(out) if "residual" in r]
        assert max(residuals) < 1e-9

    def test_broken_table_fails_with_witness(self, tmp_path):
        doc = json.loads(bundled_table_path("z4").read_text())
        doc["table"][1][1] = 3
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        rc = main(["check", "--model", f"table:{bad}", "--out", str(out)])
        assert rc == 1
        fails = [r for r in read_jsonl(out) if r.get("verdict") == "fail"]
        assert fails and any(r.get("witnesses") for r in fails)

    def test_missing_file_is_input_error(self):
        assert main(["check", "--model", "table:/nope/nothing.json"]) == 2

    def test_unknown_model_is_input_error(self):
        assert main(["check", "--model", "octonion"]) == 2


class TestIdentities:
    def test_mobius(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["identities", "--model", "mobius", "--samples", "3000",
                   "--seed", "5", "--out", str(out)])
        assert rc == 0
        names = {r["check"] for r in read_jsonl(out)}
        assert "identity-gyrosum-inversion" in names


class TestCosets:
    def test_partition(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["cosets", "--model", Z4, "--subset", "0,2",
                   "--out", str(out)])
        assert rc == 0
        part = next(r for r in read_jsonl(out) if r["check"] == "partition")
        assert part["cosets"] == [[0, 2], [1, 3]]

    def test_non_subgyrogroup_exits_one(self):
        assert main(["cosets", "--model", Z4, "--subset", "0,1"]) == 1

    def test_non_L_subgyrogroup_exits_one(self):
        # {0, 3} is a subgyrogroup of g8 but not an L-subgyrogroup
        assert main(["cosets", "--model", G8, "--subset", "0,3"]) == 1

    def test_continuous_rejected(self):
        assert main(["cosets", "--model", "einstein", "--subset", "axis:x"]) == 2

    def test_representative_dependent_translation_exits_two(self, monkeypatch,
                                                            capsys):
        # no L-subgyrogroup's partition reaches this refusal: g8's {0, 3},
        # whose gyr[2, 1] leaves it, is let through with hand-built classes
        monkeypatch.setattr(cli, "is_L_subgyrogroup",
                            lambda model, H: (True, None))
        monkeypatch.setattr(cli, "left_cosets", lambda model, H:
                            hand_built_partition(model, H.indices(), [
                                (0, 3), (1, 2), (4, 7), (5, 6)]))
        assert main(["cosets", "--model", G8, "--subset", "0,3"]) == 2
        assert capsys.readouterr().err == (
            "error: h_a is representative-dependent at a=2, coset=1: "
            "images [0, 2]\n")


class TestMetric:
    def test_finite_pairs(self, weak_chain, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["metric", "--model", Z4, "--chain", weak_chain,
                   "--pairs", "0:1,0:2", "--depth", "4", "--out", str(out)])
        assert rc == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["distance[0]"]["value"] == "2"
        assert recs["distance[1]"]["value"] == "1"
        assert recs["prenorm-values"]["value"] == {
            "0": "0", "1": "1", "2": "1/2", "3": "1"}

    def test_quotient_table(self, adm_chain, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["metric", "--model", Z4, "--chain", adm_chain,
                   "--subset", "0,2", "--quotient", "--depth", "4",
                   "--out", str(out)])
        assert rc == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["quotient-distances"]["value"] == [["0", "2"], ["2", "0"]]

    def test_einstein_zero_distance(self, radial_chain, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["metric", "--model", "einstein", "--chain", radial_chain,
                   "--pairs", "0:0", "--samples", "500", "--out", str(out)])
        assert rc == 0
        rec = next(r for r in read_jsonl(out) if r["check"] == "distance[0]")
        assert float(rec["value"]) == 0.0

    def test_invalid_chain_exits_two(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"flavor": "weak", "sets": [[0, 1, 2, 3],
                                                            [0, 1]]}))
        assert main(["metric", "--model", Z4, "--chain", str(p)]) == 2

    def test_sampled_gyr_invariance_failure_exits_one(self, tmp_path, capsys):
        # on a ball model, chain-gyr-invariant measures the model's float
        # gyrations against --eps: a verification failure, as in hull
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"flavor": "weak",
                                 "radii": [0.8, 0.35066, 0.12146, 0.04]}))
        out = tmp_path / "r.jsonl"
        assert main(["metric", "--model", "einstein", "--eps", "1e-17",
                     "--chain", str(p), "--depth", "3", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        recs = {r["check"]: r for r in read_jsonl(out)}
        rec = recs["chain-gyr-invariant"]
        assert rec["verdict"] == "fail" and rec["residual"] > 1e-17
        assert recs["chain-containment[0]"]["verdict"] == "pass"

    def test_radial_chain_law_exits_two(self, tmp_path, capsys):
        # a failing radial chain law is still an invalid chain, even with
        # the sampled gyration check failing too
        p = tmp_path / "chain.json"
        p.write_text(json.dumps({"flavor": "weak", "radii": [0.5, 0.49]}))
        out = tmp_path / "r.jsonl"
        assert main(["metric", "--model", "einstein", "--eps", "1e-17",
                     "--chain", str(p), "--depth", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "invalid chain: chain-containment[0] ")
        assert not out.exists()


MALFORMED = [
    (["metric", "--model", Z4], "chain", [1, 2]),
    (["metric", "--model", Z4], "chain", {"sets": 5}),
    (["metric", "--model", Z4], "chain", {"sets": [[0, "a"]]}),
    (["metric", "--model", Z4], "chain", {"sets": [[0, 1.5]]}),
    (["metric", "--model", Z4], "chain", {"sets": [[0, 9]]}),
    (["intersect", "--model", Z4], "chain", {"sets": [[0, True]]}),
    (["metric", "--model", "einstein"], "chain", {"radii": 5}),
    (["check"], "table", {"labels": 5, "table": [[0, 1], [1, 0]]}),
    (["check"], "table", {"labels": ["e", 1], "table": [[0, 1], [1, 0]]}),
]


@pytest.mark.parametrize("argv,kind,doc", MALFORMED)
def test_malformed_input_exits_two(argv, kind, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if kind == "chain":
        argv = argv + ["--chain", str(path)]
    else:
        argv = argv + ["--model", f"table:{path}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind} rejected: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("table,text", [
    ([[0, 1], [1]], "table must be square"),
    ([[0, 1], [1, 10 ** 20]], "table entries must be indices in 0..n-1"),
    ([[0, -10 ** 20], [1, 0]], "table entries must be indices in 0..n-1"),
], ids=["ragged", "huge", "huge-negative"])
def test_ragged_or_huge_table_exits_two(table, text, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"table": table}))
    assert main(["check", "--model", f"table:{path}"]) == 2
    assert capsys.readouterr() == ("", f"error: table rejected: {text}\n")


@pytest.mark.parametrize("pairs", ["99999999999999999999:0",
                                   "0:-99999999999999999999"])
def test_huge_pair_index_exits_two(pairs, capsys):
    chain = Path(__file__).parent / "golden" / "chains" / "g8-adm.json"
    assert main(["metric", "--model", G8, "--chain", str(chain),
                 "--pairs", pairs]) == 2
    assert capsys.readouterr() == ("", "error: index out of range\n")


def test_out_of_range_subset_exits_two(capsys):
    assert main(["cosets", "--model", Z4, "--subset", "0,9"]) == 2
    assert capsys.readouterr().err == "error: index 9 out of range 0..3\n"


@pytest.mark.parametrize("member", [4, -2])
def test_out_of_range_chain_member_exits_two(member, tmp_path, capsys):
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"flavor": "weak", "sets": [[0, 1, member]]}))
    assert main(["metric", "--model", Z4, "--chain", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"error: chain rejected: index {member} out of range 0..3\n")


BAD_NUMBERS = [
    (["check", "--model", "mobius", "--eps", "-1"], "--eps"),
    (["check", "--model", "mobius", "--eps", "nan"], "--eps"),
    (["identities", "--model", "mobius", "--eps", "inf"], "--eps"),
    (["check", "--model", "einstein", "--samples", "-5"], "--samples"),
    (["hull", "--model", "einstein", "--subset", "ball:0.8",
      "--depth", "-1"], "--depth"),
    (["check", "--model", "einstein", "--c", "inf"], "c must be"),
    (["check", "--model", "einstein", "--dim", "4"], "dim must be"),
    (["metric", "--model", Z4, "--depth", "63"], "--depth"),
    (["hull", "--model", Z4, "--subset", "0", "--depth", "63"], "--depth"),
]


@pytest.mark.parametrize("argv,flag", BAD_NUMBERS)
def test_bad_numeric_flag_exits_two(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "identities"])
@pytest.mark.parametrize("model", ["einstein", "mobius"])
def test_negative_seed_exits_two(command, model, capsys):
    # the seed is refused before any block of the sweep is drawn
    assert main([command, "--model", model, "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("",
                                   "error: expected non-negative integer\n")


@pytest.mark.parametrize("argv,text", [
    (["check", "--model", "table:{dir}"], "Is a directory"),
    (["metric", "--model", Z4, "--chain", "{dir}"], "Is a directory"),
    (["check", "--model", Z4, "--out", "{dir}"],
     "--out is a directory: {dir}"),
    (["check", "--model", Z4, "--out", "{dir}/missing/r.jsonl"],
     "no such directory for --out: {dir}/missing"),
    (["check", "--model", "table:{dir}/missing.json"],
     "no such table file: {dir}/missing.json"),
    (["metric", "--model", Z4, "--chain", "{dir}/missing.json"],
     "no such chain file: {dir}/missing.json"),
], ids=["table-dir", "chain-dir", "out-dir", "out-missing-dir",
        "table-missing", "chain-missing"])
def test_unreadable_path_exits_two(argv, text, tmp_path, capsys):
    # refused before the sweep, and nothing is written
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert text.format(dir=tmp_path) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["microassoc", "--model", "einstein", "--vset", "ball:0.5", "--wset",
     "ball:0.3", "--samples", "1000000000000000"],
    ["hull", "--model", "einstein", "--subset", "ball:0.8", "--samples",
     "1000000000000000"],
], ids=["microassoc", "hull"])
def test_unallocatable_count_exits_two(argv, capsys):
    # 10^15 rows exceed any 64-bit address space: the allocation fails at
    # once, and the MemoryError is reported as an input error
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: Unable to allocate")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "identities"])
def test_sample_count_beyond_array_limit_exits_two(command, capsys):
    # refused before a block is drawn: unbounded, the lazy sweep would run
    # for ever
    assert main([command, "--model", "einstein", "--samples",
                 "99999999999999999999999"]) == 2
    assert capsys.readouterr() == ("", (
        "error: --samples must be <= 9223372036854775807, "
        "got 99999999999999999999999\n"))


class TestOtherCommands:
    def test_microassoc_finite(self):
        rc = main(["microassoc", "--model", G8, "--vset", "0,1,4,5",
                   "--wset", "0,1"])
        assert rc == 0

    def test_microassoc_counterexample(self):
        rc = main(["microassoc", "--model", G8, "--vset", "0,1,3"])
        assert rc == 1

    def test_microassoc_einstein(self):
        rc = main(["microassoc", "--model", "einstein", "--vset", "ball:0.5",
                   "--wset", "ball:0.3", "--samples", "40"])
        assert rc == 0

    @pytest.mark.parametrize("argv,checks", [
        (["microassoc", "--model", "einstein", "--vset", "ball:0.5"],
         ["micro-associativity"]),
        (["microassoc", "--model", "einstein", "--dim", "2", "--vset",
          "ball:0.5"], ["micro-associativity"]),
        (["microassoc", "--model", "mobius", "--vset", "ball:0.5"],
         ["micro-associativity"]),
        (["metric", "--model", "einstein"],
         ["chain-gyr-invariant", "prenorm-symmetry", "prenorm-subadditivity",
          "prenorm-gyr-invariance", "prenorm-sandwich"]),
        (["hull", "--model", "einstein", "--subset", "ball:0.8"],
         ["chain-gyr-invariant", "tail-l-subgyrogroup"]),
        (["hull", "--model", "mobius", "--subset", "ball:0.8"],
         ["chain-gyr-invariant", "tail-l-subgyrogroup"]),
    ], ids=["model0", "model1", "model2",
            "metric-einstein", "hull-einstein", "hull-mobius"])
    def test_microassoc_no_samples(self, argv, checks, radial_chain, tmp_path):
        # an empty sampled batch passes at residual 0, in microassoc and in
        # the sampled chain and prenorm checks of metric and hull
        out = tmp_path / "r.jsonl"
        if argv[0] == "metric":
            argv = argv + ["--chain", radial_chain]
        assert main(argv + ["--samples", "0", "--out", str(out)]) == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        for name in checks:
            rec = recs[name]
            assert (rec["verdict"], rec["samples"], rec["residual"]) == (
                "pass", 0, 0.0)

    def test_hull(self, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["hull", "--model", G8, "--subset", "0,1,2,3,4,5,6,7",
                   "--depth", "6", "--out", str(out)])
        assert rc == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["tail-l-subgyrogroup"]["verdict"] == "pass"
        assert recs["hull-chain"]["value"]["flavor"] == "admissible"

    @pytest.mark.parametrize("model", [["einstein", "--dim", "2"], ["mobius"]])
    def test_hull_ball_tail_samples(self, model, tmp_path):
        # the ball tail {0} is tested at --samples seeded pairs
        out = tmp_path / "r.jsonl"
        assert main(["hull", "--model", *model, "--subset", "ball:0.8",
                     "--samples", "123", "--seed", "4", "--out", str(out)]) == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["tail-l-subgyrogroup"] == {
            "check": "tail-l-subgyrogroup", "verdict": "pass",
            "samples": 123, "residual": 0.0}

    def test_intersect(self, adm_chain, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["intersect", "--model", Z4, "--chain", adm_chain,
                   "--chain", adm_chain, "--out", str(out)])
        assert rc == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["intersection-chain"]["value"]["sets"][1] == [0, 2]


class TestDeterminism:
    @pytest.mark.parametrize("command, sweep", [
        ("check", check_axioms), ("identities", check_identities)])
    @pytest.mark.parametrize("argv, model", [
        (["--model", G8], lambda: load_bundled("g8")),
        (["--model", "einstein", "--dim", "3"], lambda: EinsteinModel(dim=3)),
    ], ids=["g8", "einstein-d3"])
    def test_one_serializer(self, command, sweep, argv, model, tmp_path):
        """The CLI's --out lines are the library report's JSON lines."""
        out = tmp_path / "r.jsonl"
        main([command, *argv, "--samples", "200", "--seed", "7",
              "--out", str(out)])
        lines = [line for line in out.read_text().splitlines()
                 if json.loads(line)["check"] != "_config"]
        assert lines == sweep(model(), SampleSpec(200, 7)).to_json_lines()

    def test_byte_identical_reports(self, adm_chain, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"rep{i}.jsonl"
            rc = main(["metric", "--model", Z4, "--chain", adm_chain,
                       "--subset", "0,2", "--quotient", "--depth", "6",
                       "--seed", "42", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

        outs = []
        for i in (1, 2):
            out = tmp_path / f"chk{i}.jsonl"
            rc = main(["check", "--model", G8, "--seed", "42",
                       "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_parser_reused_without_leaking_state(self, adm_chain, weak_chain,
                                                 tmp_path):
        """The parser is built once per process; no call sees another's
        arguments, and a command's bytes match those of a fresh process."""
        assert build_parser() is build_parser()
        other = tmp_path / "adm2.json"
        other.write_text(json.dumps(
            {"flavor": "admissible", "sets": [[0, 1, 2, 3], [0, 2], [0]]}))
        for chains in ([adm_chain, adm_chain], [str(other)]):
            out = tmp_path / "inter.jsonl"
            argv = ["intersect", "--model", Z4, "--out", str(out)]
            for c in chains:
                argv += ["--chain", c]
            assert main(argv) == 0
            config = {r["check"]: r for r in read_jsonl(out)}["_config"]
            assert config["chain"] == chains

        out = tmp_path / "metric.jsonl"
        assert main(["metric", "--model", Z4, "--chain", weak_chain,
                     "--depth", "3", "--pairs", "1:2", "--out",
                     str(out)]) == 0
        check = ["check", "--model", G8, "--seed", "3"]
        here, fresh = tmp_path / "here.jsonl", tmp_path / "fresh.jsonl"
        assert main(check + ["--out", str(here)]) == 0
        env = {**os.environ,
               "PYTHONPATH": str(Path(gyrokit.__file__).parents[1])}
        run = subprocess.run(
            [sys.executable, "-m", "gyrokit.cli", *check, "--out",
             str(fresh)], env=env, capture_output=True)
        assert run.returncode == 0, run.stderr
        assert here.read_bytes() == fresh.read_bytes()
