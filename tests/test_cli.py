import json

import pytest

from gyrokit.cli import main

from conftest import bundled_table_path

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


BAD_NUMBERS = [
    (["check", "--model", "mobius", "--eps", "-1"], "--eps"),
    (["check", "--model", "mobius", "--eps", "nan"], "--eps"),
    (["identities", "--model", "mobius", "--eps", "inf"], "--eps"),
    (["check", "--model", "einstein", "--samples", "-5"], "--samples"),
    (["hull", "--model", "einstein", "--subset", "ball:0.8",
      "--depth", "-1"], "--depth"),
    (["check", "--model", "einstein", "--c", "inf"], "c must be"),
    (["check", "--model", "einstein", "--dim", "4"], "dim must be"),
]


@pytest.mark.parametrize("argv,flag", BAD_NUMBERS)
def test_bad_numeric_flag_exits_two(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert "Traceback" not in err


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
         ["chain-gyr-invariant"]),
        (["hull", "--model", "mobius", "--subset", "ball:0.8"],
         ["chain-gyr-invariant"]),
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

    def test_intersect(self, adm_chain, tmp_path):
        out = tmp_path / "r.jsonl"
        rc = main(["intersect", "--model", Z4, "--chain", adm_chain,
                   "--chain", adm_chain, "--out", str(out)])
        assert rc == 0
        recs = {r["check"]: r for r in read_jsonl(out)}
        assert recs["intersection-chain"]["value"]["sets"][1] == [0, 2]


class TestDeterminism:
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
