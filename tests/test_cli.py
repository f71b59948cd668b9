"""Command-line interface: outputs, exit codes, determinism."""

import json

import pytest

from edskit.cli import main

FIXTURE_CURVE = {
    "a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0",
    "x": "0/1", "y": "0/1",
}
TORSION_CURVE = {
    "a1": "0", "a2": "-1", "a3": "1", "a4": "0", "a6": "0",
    "x": "0/1", "y": "0/1",
}


@pytest.fixture
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(FIXTURE_CURVE))
    return str(path)


def test_gen_writes_table(tmp_path, curve_file, capsys):
    out = str(tmp_path / "table.jsonl")
    rc = main(["gen", "--curve", curve_file, "--n-max", "8", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "1, 1, 1, 1, 2, 1, 3, 5" in text
    lines = open(out).read().splitlines()
    assert json.loads(lines[0])["n_max"] == 8
    assert json.loads(lines[-1])["D"] == "5"


def test_gen_single_term(tmp_path, curve_file, capsys):
    out = str(tmp_path / "t.jsonl")
    assert main(["gen", "--curve", curve_file, "--n-max", "1", "--out", out]) == 0
    assert len(open(out).read().splitlines()) == 2  # header + one term


def test_gen_torsion_point_exits_3(tmp_path, capsys):
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(TORSION_CURVE))
    rc = main(["gen", "--curve", str(path), "--n-max", "8",
               "--out", str(tmp_path / "t.jsonl")])
    assert rc == 3


def test_bad_curve_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = dict(FIXTURE_CURVE, y="1/1")  # point not on the curve
    path.write_text(json.dumps(doc))
    rc = main(["verify-law", "--curve", str(path), "--p-max", "10"])
    assert rc == 2


def test_verify_law_passes(curve_file, capsys):
    rc = main(["verify-law", "--curve", curve_file, "--p-max", "100", "--n-max", "60"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0 violation(s)" in text
    assert "p=37: skipped" in text


def test_verify_law_guard_skips_2_and_3(curve_file, capsys):
    rc = main(["verify-law", "--curve", curve_file, "--p-max", "10", "--guard"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p=2: skipped (exceptional set)" in text
    assert "p=3: skipped (exceptional set)" in text


def test_obstruct_exclusion(curve_file, capsys):
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "5,3"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "excluded" in text
    assert "oracle is_power=False" in text


def test_obstruct_soundness_error_exits_4(curve_file, capsys, monkeypatch):
    from edskit.curve import FpCurve

    # A broken F_p group law: [l]P never reaches O, contradicting p | D_l.
    monkeypatch.setattr(FpCurve, "mul", lambda self, n, P: P)
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "5,3"])
    assert rc == 4
    assert "SOUNDNESS CONTRADICTION" in capsys.readouterr().err


def test_obstruct_square(curve_file, capsys):
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "5,5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "power" in text
    assert "oracle is_power=True" in text


def test_obstruct_invalid_rho(curve_file, capsys):
    assert main(["obstruct", "--curve", curve_file, "--rho", "4", "--tuple", "5,3"]) == 2


def test_obstruct_strict_needs_threshold(curve_file, capsys):
    rc = main(["obstruct", "--curve", curve_file, "--strict", "--tuple", "5,3"])
    assert rc == 2
    rc = main(["obstruct", "--curve", curve_file, "--strict", "--L-rho", "3",
               "--tuple", "5,3"])
    assert rc == 0


def test_obstruct_malformed_tuple_file(tmp_path, curve_file, capsys):
    bad = tmp_path / "tuples.txt"
    bad.write_text("5,x\n")
    rc = main(["obstruct", "--curve", curve_file, "--tuple-file", str(bad)])
    assert rc == 2
    empty = tmp_path / "none.txt"
    empty.write_text("")
    assert main(["obstruct", "--curve", curve_file, "--tuple-file", str(empty)]) == 2


def test_obstruct_json_deterministic(curve_file, capsys):
    argv = ["obstruct", "--curve", curve_file, "--rho", "2",
            "--tuple", "5,3", "--format", "json"]
    docs = []
    for _ in range(2):
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("generated_at")
        docs.append(doc)
    assert docs[0] == docs[1]
    assert docs[0]["thresholds"]["rho"] == 2
    assert docs[0]["exceptional_set"]["primes"] == [["37", "bad_reduction"]]


def test_probe_detecting(curve_file, capsys):
    rc = main(["probe-detecting", "--curve", curve_file, "--rho", "2",
               "--l-max", "13"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "l=5: 2^1" in text
    assert "l=7: 3^1" in text
    assert "l=11: 23^1" in text
    assert "l=13: 59^1" in text
    assert "l=2: none" in text
    assert "l=3: none" in text
    assert "largest prime index with no detecting prime found: 3" in text


def test_probe_detecting_empty_range(curve_file, capsys):
    rc = main(["probe-detecting", "--curve", curve_file, "--l-max", "1"])
    assert rc == 0
    doc = capsys.readouterr().out
    assert "largest" not in doc


def test_bad_effort_spec(curve_file):
    assert main(["obstruct", "--curve", curve_file, "--tuple", "5,3",
                 "--effort", "oops"]) == 2


def test_version_flag(capsys):
    assert main(["--version"]) == 0
