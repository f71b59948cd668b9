"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from edskit import cli, factor, intmath
from edskit.cli import main

FIXTURE_CURVE = {
    "a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0",
    "x": "0/1", "y": "0/1",
}
TORSION_CURVE = {
    "a1": "0", "a2": "-1", "a3": "1", "a4": "0", "a6": "0",
    "x": "0/1", "y": "0/1",
}
# a1 odd, Delta = -61 and D_1..D_4 = 1, 2, 3, 8: the law fails at 2, since
# v_2(D_4) = 3 != v_2(D_2) + 1, so 2 must be in S although 2 is a good prime.
LAW_FAILS_AT_2_CURVE = {
    "a1": "-1", "a2": "3", "a3": "-1", "a4": "1", "a6": "0",
    "x": "-1/1", "y": "-1/1",
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
    lines = Path(out).read_text().splitlines()
    assert json.loads(lines[0])["n_max"] == 8
    assert json.loads(lines[-1])["D"] == "5"


def test_gen_single_term(tmp_path, curve_file, capsys):
    out = str(tmp_path / "t.jsonl")
    assert main(["gen", "--curve", curve_file, "--n-max", "1", "--out", out]) == 0
    assert len(Path(out).read_text().splitlines()) == 2  # header + one term


def test_gen_to_unwritable_path_exits_2(tmp_path, curve_file):
    out = tmp_path / "missing" / "t.jsonl"
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "edskit.cli", "gen", "--curve", curve_file,
                           "--n-max", "10", "--out", str(out)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"error: cannot write table file {out}: No such file or directory"
    ]
    assert [p.name for p in tmp_path.iterdir()] == ["curve.json"]


def test_gen_torsion_point_exits_3(tmp_path, capsys):
    # The second point has order 2 on a curve with odd a1 and good reduction at 2,
    # so building S meets the torsion before the table does.
    odd_a1 = {"a1": "1", "a2": "-2", "a3": "-2", "a4": "0", "a6": "-1", "x": "0/1", "y": "1/1"}
    for doc in (TORSION_CURVE, odd_a1):
        path = tmp_path / "torsion.json"
        path.write_text(json.dumps(doc))
        rc = main(["gen", "--curve", str(path), "--n-max", "8",
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == 3
        assert "TorsionPoint" in capsys.readouterr().err


def test_gen_past_int_str_digit_limit(tmp_path, curve_file, capsys):
    from fractions import Fraction

    from edskit.curve import WeierstrassCurve
    from edskit.eds import eds_range
    from oracles import read_table_file

    # A_441 of this fixture is the first numerator past 4300 decimal digits.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        out = str(tmp_path / "big.jsonl")
        rc = main(["gen", "--curve", curve_file, "--n-max", "450", "--out", out,
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        E, P = WeierstrassCurve(0, 0, 1, -1, 0), (Fraction(0), Fraction(0))
        terms, content_hash = read_table_file(out, E, P)
        assert terms == eds_range(E, P, 450).terms
        assert content_hash == doc["content_hash"]
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


def test_gen_cross_check_disagreement_exits_4(tmp_path, curve_file, capsys, monkeypatch):
    from edskit import eds

    monkeypatch.setattr(eds, "eds_term", lambda E, P, n: eds.EdsTerm(n=n, A=0, D=1))
    rc = main(["gen", "--curve", curve_file, "--n-max", "8",
               "--out", str(tmp_path / "t.jsonl")])
    assert rc == 4
    assert "SOUNDNESS CONTRADICTION" in capsys.readouterr().err


def test_bad_curve_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    doc = dict(FIXTURE_CURVE, y="1/1")  # point not on the curve
    path.write_text(json.dumps(doc))
    rc = main(["verify-law", "--curve", str(path), "--p-max", "10"])
    assert rc == 2


@pytest.mark.parametrize("doc", [
    dict(FIXTURE_CURVE, x="0/0"),
    [FIXTURE_CURVE],
    dict(FIXTURE_CURVE, a3=1.9),  # int() would run a3 = 1
    dict(FIXTURE_CURVE, a3=True),
], ids=["zero-denominator", "json-list", "float-coefficient", "bool-coefficient"])
def test_malformed_curve_file_exits_2(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-law", "--curve", str(path), "--p-max", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: bad curve file")


@pytest.mark.parametrize("argv, error", [
    (["obstruct", "--tuple", "5,a"], "error: bad tuple"),
    (["obstruct", "--tuple", "5,,3"], "error: bad tuple"),
    (["verify-law", "--p-max", "10", "--extra-s", "x"], "error: bad --extra-s"),
    (["verify-law", "--p-max", "20", "--extra-s", "5,,7"], "error: bad --extra-s"),
], ids=["tuple", "tuple-blank-field", "extra-s", "extra-s-blank-field"])
def test_malformed_number_exits_2(argv, error, curve_file, capsys):
    assert main(argv + ["--curve", curve_file]) == 2
    assert capsys.readouterr().err.startswith(error)


def test_verify_law_passes(curve_file, capsys):
    rc = main(["verify-law", "--curve", curve_file, "--p-max", "100", "--n-max", "60"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0 violation(s)" in text
    assert "p=37: skipped" in text


def test_verify_law_extra_s_skips_2_and_3(curve_file, capsys):
    rc = main(["verify-law", "--curve", curve_file, "--p-max", "10", "--extra-s", "2,3"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p=2: skipped (exceptional set)" in text
    assert "p=3: skipped (exceptional set)" in text


@pytest.fixture
def law_fails_at_2_file(tmp_path):
    path = tmp_path / "law-fails-at-2.json"
    path.write_text(json.dumps(LAW_FAILS_AT_2_CURVE))
    return str(path)


def test_obstruct_keeps_2_in_s_where_the_law_fails_there(law_fails_at_2_file, capsys):
    # With 2 outside S the checkers would certify that D_2 * D_4 = 16 is not a square.
    argv = ["obstruct", "--curve", law_fails_at_2_file, "--tuple", "2,4", "--n-max", "10",
            "--format", "json"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exceptional_set"]["primes"] == [["2", "law_fails_at_2"], ["61", "bad_reduction"]]
    assert doc["tuples"][0]["oracle"]["is_power"]
    # The rule holds no assert: python -O prints the same report.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-m", "edskit.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    optimized = json.loads(proc.stdout)
    for report in (doc, optimized):
        report.pop("generated_at")
    assert optimized == doc


def test_verify_law_and_probe_skip_2_where_the_law_fails_there(law_fails_at_2_file, capsys):
    argv = ["--curve", law_fails_at_2_file]
    assert main(["verify-law", "--p-max", "7", "--n-max", "12"] + argv) == 0
    assert "p=2: skipped (exceptional set)" in capsys.readouterr().out
    assert main(["probe-detecting", "--l-max", "7", "--format", "json"] + argv) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results[0] == {"l": "2", "detecting_prime_exists": False}  # D_2 = 2


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


def test_obstruct_oracle_contradiction_exits_4(curve_file, capsys, monkeypatch):
    import edskit.obstruction

    # The prime-gap exclusion of D_14 * D_9 cross-checks the power oracle,
    # here made to claim the product is a square.
    real = edskit.obstruction.test_relation
    monkeypatch.setattr(edskit.obstruction, "test_relation",
                        lambda table, n, rho: real(table, n, rho)._replace(is_power=True))
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "14,9"])
    assert rc == 4
    assert "contradicted by the exact power oracle" in capsys.readouterr().err


def test_obstruct_contradiction_prints_no_report(curve_file, capsys, monkeypatch):
    from fractions import Fraction

    import edskit.obstruction
    from edskit.curve import WeierstrassCurve
    from edskit.eds import eds_range

    # Only the second tuple's product is claimed to be a square, so the
    # first report is complete before the contradiction ends the run.
    table = eds_range(WeierstrassCurve(0, 0, 1, -1, 0), (Fraction(0), Fraction(0)), 14)
    target = table.D(14) * table.D(9)
    real = edskit.obstruction.test_relation

    def claims_square(table, n, rho):
        rel = real(table, n, rho)
        return rel._replace(is_power=rel.is_power or rel.product == target)

    monkeypatch.setattr(edskit.obstruction, "test_relation", claims_square)
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--format", "json",
               "--tuple", "5,3", "--tuple", "14,9", "--tuple", "7,2"])
    assert rc == 4
    captured = capsys.readouterr()
    assert "contradicted by the exact power oracle" in captured.err
    assert captured.out == ""


def test_obstruct_effort_budgets_only_the_D_l(curve_file, capsys):
    # With one trial prime and no rho step 15 is still factored, since every prime of an
    # index is at most the largest entry; D_2..D_5 fall to the sieve: the reports agree.
    tuples = []
    for effort in (["--effort", "1:1:1"], []):
        rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "15,3",
                   "--tuple", "5,3", "--format", "json"] + effort)
        assert rc == 0
        tuples.append(json.loads(capsys.readouterr().out)["tuples"])
    assert [r["n"] for r in tuples[0]] == [[15, 3], [5, 3]]
    assert tuples[0] == tuples[1]
    dropped = tuples[0][0]["cluster_packing"]["dropped"]
    assert "l is not the largest prime divisor of n_1=15" in dropped["3"]


def test_obstruct_B_with_4B_past_the_float_range(curve_file, capsys):
    # 4 * 5e307 overflows a float, but the bound on l is computed exactly.
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--B", "5e307",
               "--tuple", "5,3"])
    assert rc == 0
    assert "oracle is_power=False" in capsys.readouterr().out


def test_obstruct_square(curve_file, capsys):
    rc = main(["obstruct", "--curve", curve_file, "--rho", "2", "--tuple", "5,5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "power" in text
    assert "oracle is_power=True" in text


def test_obstruct_invalid_rho(curve_file, capsys):
    assert main(["obstruct", "--curve", curve_file, "--rho", "4", "--tuple", "5,3"]) == 2


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


def test_obstruct_builds_its_context_from_rho_B_and_L_rho(curve_file, capsys):
    from edskit.eds import eds_range
    from edskit.obstruction import ObstructionContext, evaluate_tuple
    from edskit.valuation import build_exceptional_set

    # l = 5 <= (sqrt(7)+1)^2 at (5, 3); at (143, 2), 143 = 13 * 11 has a cofactor above B.
    # The rho-iteration budget, not the clock, ends each factorization of D_l up to l = 139.
    # The header records the detecting threshold as 0: no option sets it.
    pairs = [(5, 3), (143, 2), (17, 19)]
    argv = ["obstruct", "--curve", curve_file, "--rho", "3", "--B", "7",
            "--effort", "1000:1000:600", "--format", "json"]
    assert main(argv + [arg for n in pairs for arg in ("--tuple", f"{n[0]},{n[1]}")]) == 0
    doc = json.loads(capsys.readouterr().out)
    th = doc["thresholds"]
    assert (th["rho"], th["B"], th["L_rho"]) == (3, 7.0, 0)
    E, P = cli.load_curve_file(curve_file)
    S = build_exceptional_set(E, P)
    table = eds_range(E, P, th["n_max"])
    ctx = ObstructionContext(table, S, 3, 7.0, cli._parse_effort(th["effort"]))
    reports = doc["tuples"]
    assert [r["n"] for r in reports] == [list(n) for n in pairs]
    for n, report in zip(pairs, reports):
        report.pop("oracle")
        assert report == json.loads(json.dumps(evaluate_tuple(ctx, n).to_json())), n
    text = json.dumps(reports)
    assert "is not B-smooth" in text and "B=7.0" in text


def test_probe_detecting(curve_file, capsys):
    rc = main(["probe-detecting", "--curve", curve_file, "--rho", "2",
               "--l-max", "13"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        "l=2: none",
        "l=3: none",
        "l=5: a detecting prime exists",  # D_5 = 2
        "l=7: a detecting prime exists",  # D_7 = 3
        "l=11: a detecting prime exists",
        "l=13: a detecting prime exists",
        "largest prime index with no detecting prime: 3 (empirical observation only, not a bound)",
    ]


def test_probe_detecting_json(curve_file, capsys):
    rc = main(["probe-detecting", "--curve", curve_file, "--rho", "3", "--l-max", "13",
               "--l-min", "3", "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"] == [
        {"l": "3", "detecting_prime_exists": False},  # D_3 = 1
        {"l": "5", "detecting_prime_exists": True},
        {"l": "7", "detecting_prime_exists": True},
        {"l": "11", "detecting_prime_exists": True},
        {"l": "13", "detecting_prime_exists": True},
    ]
    assert doc["largest_prime_index_without_detecting_prime"] == "3"


# D_l is a rho-th power outside S only at small l on the reference pairs.
PROBE_CURVES = {
    "37": FIXTURE_CURVE,
    "37q": dict(FIXTURE_CURVE, x="1/4", y="-5/8"),
    "43": {"a1": "0", "a2": "1", "a3": "1", "a4": "0", "a6": "0", "x": "0/1", "y": "0/1"},
}


@pytest.mark.parametrize("name, largest", [("37", "3"), ("43", "7"), ("37q", "2")])
@pytest.mark.parametrize("rho", ["2", "3"])
def test_probe_detecting_decides_every_index_to_200_without_factoring(
    name, largest, rho, tmp_path, capsys, monkeypatch
):
    import edskit.valuation

    def factoring(*args, **kwargs):
        raise AssertionError("probe-detecting factored a D_l")

    for module in (edskit.valuation, cli):
        monkeypatch.setattr(module, "term_radical_data", factoring, raising=False)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(PROBE_CURVES[name]))
    rc = main(["probe-detecting", "--curve", str(path), "--rho", rho, "--l-max", "200",
               "--format", "json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 46  # the primes up to 200
    assert doc["largest_prime_index_without_detecting_prime"] == largest


def test_setup_factors_the_discriminant_once(curve_file, monkeypatch):
    # The exceptional set and the minimality report read one factorization of |Delta|.
    import edskit.curve
    import edskit.valuation

    real = edskit.curve.factorize
    calls = []

    def counting(x, *args):
        calls.append(x)
        return real(x, *args)

    for module in (edskit.curve, edskit.valuation):
        monkeypatch.setattr(module, "factorize", counting)
    args = cli.build_parser().parse_args(["gen", "--curve", curve_file, "--n-max", "1"])
    E, _P, S, minim = cli._setup(args)
    assert calls.count(abs(E.discriminant)) == 1
    assert S.primes == [37] and minim.certified


def test_probe_detecting_header_names_every_threshold(curve_file, capsys):
    # No factoring budget bounds the answer, so the header names none.
    rc = main(["probe-detecting", "--curve", curve_file, "--l-max", "13", "--l-min", "5",
               "--format", "json"])
    assert rc == 0
    thresholds = json.loads(capsys.readouterr().out)["thresholds"]
    assert thresholds == {"l_max": 13, "l_min": 5, "rho": 2}


def test_obstruct_json_under_the_smallest_int_digit_limit(curve_file):
    # The oracle product D_160^3 of this fixture has 853 digits, past the
    # smallest limit the interpreter accepts, and no report lifts the limit.
    src = Path(cli.__file__).resolve().parents[1]
    argv = [sys.executable, "-m", "edskit.cli", "obstruct", "--curve", curve_file,
            "--tuple", "160,160,160", "--effort", "10000:2000:600", "--format", "json"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    env["PYTHONPATH"] = str(src)
    docs = []
    for limit in ({"PYTHONINTMAXSTRDIGITS": "640"}, {}):  # then the default limit
        proc = subprocess.run(argv, capture_output=True, text=True, env={**env, **limit},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        del doc["generated_at"]
        docs.append(doc)
    assert docs[0] == docs[1]
    assert len(docs[0]["tuples"][0]["oracle"]["product"]) == 853


@pytest.mark.parametrize("argv", [
    ["obstruct", "--B", "nan", "--tuple", "5,3"],
    ["obstruct", "--B", "inf", "--tuple", "5,3"],
    ["obstruct", "--B", "1.5", "--tuple", "5,3"],
    ["obstruct", "--n-max", "10", "--tuple", "14,9"],
    # A range with no prime would check nothing.
    ["probe-detecting", "--l-min", "5", "--l-max", "3"],
    ["probe-detecting", "--l-min", "14", "--l-max", "13"],
    ["probe-detecting", "--l-min", "24", "--l-max", "28"],
], ids=["B-nan", "B-inf", "B-below-2", "obstruct-n-max-below-tuple", "probe-l-min-above-l-max",
        "probe-empty-range", "probe-no-prime-in-range"])
def test_bad_size_or_bound_exits_2_before_any_work(argv, curve_file, capsys, monkeypatch):
    def setup(args):
        raise AssertionError("work started before the configuration was checked")

    monkeypatch.setattr(cli, "_setup", setup)
    assert main(argv + ["--curve", curve_file]) == 2
    assert capsys.readouterr().err.startswith("error: --")


@pytest.mark.parametrize("argv, flag", [
    (["gen", "--n-max", "8", "--max-digits", "0"], "--max-digits"),
    (["gen", "--n-max", "40", "--max-digits", "-3"], "--max-digits"),
    (["gen", "--n-max", "0"], "--n-max"),
    (["verify-law", "--n-max", "0", "--p-max", "10"], "--n-max"),
    (["obstruct", "--n-max", "-3", "--tuple", "5,3"], "--n-max"),
    (["probe-detecting", "--l-max", "13", "--l-min", "0"], "--l-min"),
    # A prime range needs an upper bound of at least 2, or it checks nothing.
    (["verify-law", "--p-max", "-5"], "--p-max"),
    (["verify-law", "--p-max", "1"], "--p-max"),
    (["probe-detecting", "--l-max", "1"], "--l-max"),
], ids=["max-digits-0", "max-digits-negative", "gen-n-max-0", "verify-law-n-max-0",
        "obstruct-n-max-negative", "probe-l-min-0", "p-max-negative", "p-max-1", "l-max-1"])
def test_nonpositive_size_flag_exits_2_before_any_work(argv, flag, curve_file, capsys,
                                                       monkeypatch):
    def setup(args):
        raise AssertionError("work started before the size flag was checked")

    monkeypatch.setattr(cli, "_setup", setup)
    assert main(argv + ["--curve", curve_file]) == 2
    assert f"argument {flag}: " in capsys.readouterr().err


def test_import_loads_only_the_shared_layers():
    # gen, verify-law and probe-detecting never load the obstruction layer or the
    # oracle, and no module pulls in dataclasses and, through it, inspect.
    src = Path(cli.__file__).resolve().parents[1]
    code = ("import sys; before = set(sys.modules); import edskit.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "edskit.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "edskit.obstruction", "edskit.relation"}


@pytest.mark.parametrize("argv", [
    ["obstruct", "--tuple", "5,3", "--effort", "oops"],
    # a negative trial bound would pass 22 and 33 off as primes
    ["obstruct", "--tuple", "22,33", "--effort=-60:100:10"],
    # trial division of D_47 to 10**12 would sieve a 5 * 10**11-byte array
    ["obstruct", "--tuple", "47,3", "--effort", "1000000000000:100:5"],
    ["obstruct", "--tuple", "47,3", "--effort", "%d:100:5" % (factor.MAX_TRIAL + 1)],
], ids=["obstruct", "obstruct-negative-budget", "obstruct-huge-trial", "obstruct-trial-past-max"])
def test_bad_effort_spec_exits_2_before_any_work(argv, curve_file, capsys, monkeypatch):
    def setup(args):
        raise AssertionError("work started before the effort spec was parsed")

    def sieve(limit):
        raise AssertionError(f"sieve to {limit} started before the effort spec was parsed")

    monkeypatch.setattr(cli, "_setup", setup)
    monkeypatch.setattr(intmath, "cached_primes", sieve)
    monkeypatch.setattr(factor, "cached_primes", sieve)
    assert main(argv + ["--curve", curve_file]) == 2
    assert capsys.readouterr().err.startswith("error: bad effort spec")


# Every option of each subcommand, in declaration order.
OPTIONS = {
    "gen": ["--curve", "--format", "--extra-s", "--n-max", "--out", "--max-digits"],
    "verify-law": ["--curve", "--format", "--extra-s", "--p-max", "--n-max"],
    "obstruct": ["--curve", "--format", "--extra-s", "--rho", "--effort",
                 "--B", "--n-max", "--tuple", "--tuple-file"],
    "probe-detecting": ["--curve", "--format", "--extra-s", "--rho", "--l-max", "--l-min"],
}


def _subcommand_options(command):
    """{option string: dest} of one subcommand, --help left out."""
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.option_strings[0]: a.dest
        for a in sub.choices[command]._actions
        if a.option_strings and not isinstance(a, argparse._HelpAction)
    }


def test_each_subcommand_declares_its_pinned_options():
    assert {c: list(_subcommand_options(c)) for c in OPTIONS} == OPTIONS
    assert sum(map(len, OPTIONS.values())) == 26


@pytest.mark.parametrize("argv", [
    ["gen", "--n-max", "8"],
    ["verify-law", "--p-max", "30", "--n-max", "12"],
    ["obstruct", "--tuple", "5,3", "--tuple-file", "TUPLES", "--n-max", "8"],
    ["probe-detecting", "--l-max", "13"],
], ids=lambda argv: argv[0])
def test_every_option_is_read(argv, tmp_path, curve_file, capsys, monkeypatch):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    build = cli.build_parser

    def recording_parser():
        ap = build()
        parse = ap.parse_args

        def parse_args(args):
            ns = parse(args, namespace=Recorder())
            reads.clear()  # argparse itself reads every dest while parsing
            return ns

        ap.parse_args = parse_args
        return ap

    tuples = tmp_path / "tuples.txt"
    tuples.write_text("7,2\n")
    argv = [str(tuples) if a == "TUPLES" else a for a in argv]
    if argv[0] == "gen":
        argv += ["--out", str(tmp_path / "t.jsonl")]
    monkeypatch.setattr(cli, "build_parser", recording_parser)
    assert main(argv + ["--curve", curve_file]) == 0
    unread = set(_subcommand_options(argv[0]).values()) - reads
    assert not unread


@pytest.mark.parametrize("argv", [
    [command, flag] + value
    for command in ("gen", "verify-law")
    for flag, value in (("--effort", ["1:1:1"]), ("--sieve-bound", ["10"]), ("--strict", []))
] + [["probe-detecting", "--strict"], ["probe-detecting", "--effort", "1:1:1"]] + [
    # No detecting threshold is assumed, so no option sets or demands one.
    ["obstruct", "--strict"], ["obstruct", "--L-rho", "7"],
] + [
    # The D_l trial-division floor is the constant valuation.SIEVE_BOUND, no flag.
    [command, "--sieve-bound", "10"] for command in ("obstruct", "probe-detecting")
] + [
    # S is computed from the curve; --extra-s is the one way to enlarge it.
    [command, "--guard"] for command in ("gen", "verify-law", "obstruct", "probe-detecting")
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_flag_the_subcommand_does_not_take_exits_2(argv, tmp_path, curve_file, capsys):
    required = {"gen": ["--n-max", "8", "--out", str(tmp_path / "t.jsonl")],
                "verify-law": ["--p-max", "10"], "obstruct": ["--tuple", "5,3"],
                "probe-detecting": ["--l-max", "13"]}
    assert main(argv + required[argv[0]] + ["--curve", curve_file]) == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_cache_dir_variable_is_ignored(tmp_path, curve_file, capsys, monkeypatch):
    # Every table comes from eds_range; none is read from or written to a cache.
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("EDSKIT_CACHE_DIR", str(cache))
    out = str(tmp_path / "table.jsonl")
    assert main(["gen", "--curve", curve_file, "--n-max", "12", "--out", out]) == 0
    assert main(["verify-law", "--curve", curve_file, "--p-max", "50", "--n-max", "12"]) == 0
    assert main(["obstruct", "--curve", curve_file, "--tuple", "5,3"]) == 0
    assert list(cache.iterdir()) == []


# -- the streamed JSON writer ---------------------------------------------

_keys = st.text()  # any code point but surrogates: quotes, backslashes, controls
_scalars = (
    st.none() | st.booleans() | st.text() | st.floats()
    | st.integers() | st.integers(min_value=2 ** 64, max_value=2 ** 256)
    | st.integers(max_value=-(2 ** 64), min_value=-(2 ** 256))
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
        | st.lists(st.text(), max_size=5) | st.dictionaries(_keys, inner, max_size=5)
    ),
    max_leaves=30,
)
# Four containers around every generated value guarantee the nesting depth.
_documents = st.builds(
    lambda k1, k2, v, strs: {k1: [{k2: (v, strs, {}, [], ())}]},
    _keys, _keys, _values, st.lists(st.text(), max_size=3),
) | _values


def _compact(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@given(_documents)
def test_write_json_matches_json_dumps(doc):
    out = io.StringIO()
    cli._write_json(doc, out)
    assert out.getvalue() == _compact(doc)


class _DictBlock(dict):
    pass


class _ListBlock(list):
    pass


@given(_documents)
def test_write_json_shared_values_match_json_dumps(value):
    # One object at several positions, at several depths, plain or as a block.
    for shared in (value, _DictBlock(v=value), _ListBlock([value, value])):
        doc = {"a": [shared, shared, shared], "b": {"c": shared, "d": [[shared], shared]},
               "e": shared}
        out = io.StringIO()
        cli._write_json(doc, out)
        assert out.getvalue() == _compact(doc)


@pytest.mark.parametrize("flush_pieces", [1, 5, cli._FLUSH_PIECES])
def test_write_json_shared_containers_across_flushes(flush_pieces, monkeypatch):
    monkeypatch.setattr(cli, "_FLUSH_PIECES", flush_pieces)
    strs = ["p", "q"]
    inner = {"k": [1, None, "x"], "strs": strs, "empty": {}}
    verdict = {"inner": inner, "n": list(range(20)), "strs": strs, "none": []}
    doc = {
        "tuples": [{"verdicts": [verdict, inner, verdict]} for _ in range(4)],
        "top": verdict,
        "lists": [strs, inner["k"], [inner["k"], strs], inner["k"]],
    }
    out = _CountingStream()
    cli._write_json(doc, out)
    assert out.getvalue() == _compact(doc)
    if flush_pieces == 1:
        assert out.writes > 20


@pytest.mark.parametrize("run", ["37:2", "43:3"])
def test_obstruct_prints_the_reports_the_bench_reference_digests(run, capsys, monkeypatch):
    # Each printed tuple report is the compact blob whose sha256 prefix
    # bench/reference/obstruct-batch.json pins, byte for byte.
    root = Path(cli.__file__).resolve().parents[2]
    ref = json.loads((root / "bench" / "reference" / "obstruct-batch.json").read_text())
    header = ref["runs"][run]["header"]
    th = header["thresholds"]
    keys = sorted(ref["runs"][run]["reports"])[::49]
    assert len(keys) == 20
    monkeypatch.chdir(root)  # the header names the curve file relative to it
    argv = ["obstruct", "--curve", header["curve_file"], "--format", "json",
            "--rho", str(th["rho"]), "--n-max", str(th["n_max"]), "--effort", th["effort"]]
    assert main(argv + [arg for key in keys for arg in ("--tuple", key)]) == 0
    out = capsys.readouterr().out
    blobs = [_compact(rep)[:-1] for rep in json.loads(out)["tuples"]]
    assert out.endswith('"tuples":[' + ",".join(blobs) + "]}\n")
    digests = [hashlib.sha256(blob.encode()).hexdigest()[:16] for blob in blobs]
    assert digests == [ref["runs"][run]["reports"][key] for key in keys]


@pytest.mark.parametrize("run", ["37:2", "43:3"])
def test_obstruct_stops_trial_division_at_2_15_and_encodes_each_verdict_once(
    run, capsys, monkeypatch
):
    # At the bench effort, ECM factors every D_l of these tuples completely and
    # shows the one prime between 2**15 and 10**6 (865721 | D_43 on 43), so trial division
    # never asks for the sieve to 10**6.  Only the ECM plan's stage-2 primes pass 2**15.
    root = Path(cli.__file__).resolve().parents[2]
    ref = json.loads((root / "bench" / "reference" / "obstruct-batch.json").read_text())
    header = ref["runs"][run]["header"]
    th = header["thresholds"]
    keys = sorted(ref["runs"][run]["reports"])[::49]
    monkeypatch.chdir(root)
    monkeypatch.setattr(intmath, "_sieve", (1, []))
    asked, docs, encoded = [], [], []
    sieve, write, encode = factor.cached_primes, cli._write_json, cli._encode
    monkeypatch.setattr(factor, "cached_primes", lambda limit: asked.append(limit) or sieve(limit))
    monkeypatch.setattr(cli, "_write_json", lambda doc, out: docs.append(doc) or write(doc, out))
    monkeypatch.setattr(cli, "_encode", lambda o: encoded.append(o) or encode(o))
    argv = ["obstruct", "--curve", header["curve_file"], "--format", "json",
            "--rho", str(th["rho"]), "--n-max", str(th["n_max"]), "--effort", th["effort"]]
    assert th["effort"] == "1000000:1000000:600"
    assert main(argv + [arg for key in keys for arg in ("--tuple", key)]) == 0
    assert max(asked) <= factor.FIRST_TRIAL_BOUND
    assert intmath._sieve[0] <= max(factor.FIRST_TRIAL_BOUND, factor.ECM_B2)
    # Each distinct verdict goes through the compact encoder once, whole.
    verdicts = {id(v) for rep in docs[0]["tuples"] for v in rep["verdicts"]}
    blocks = [id(o) for o in encoded if isinstance(o, dict)]
    assert len(verdicts) < sum(len(rep["verdicts"]) for rep in docs[0]["tuples"])
    assert sorted(blocks) == sorted(verdicts)
    assert capsys.readouterr().out == _compact(docs[0])


def test_write_json_keeps_int_str_digit_limit():
    with pytest.raises(ValueError):
        _compact({"x": 10 ** 5000})
    with pytest.raises(ValueError):
        cli._write_json({"x": 10 ** 5000}, io.StringIO())


class _CountingStream(io.StringIO):
    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("argv", [
    ["gen", "--n-max", "30"],
    ["verify-law", "--p-max", "200"],
    ["obstruct", "--rho", "2"] + [
        arg for t in combinations_with_replacement(range(1, 13), 2)
        for arg in ("--tuple", "%d,%d" % t)
    ],
    ["probe-detecting", "--rho", "2", "--l-max", "13"],
], ids=["gen", "verify-law", "obstruct", "probe-detecting"])
def test_json_output_is_json_dumps_bytes(argv, tmp_path, curve_file, monkeypatch):
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "t.jsonl")]
    stream = _CountingStream()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv + ["--curve", curve_file, "--format", "json"]) == 0
    out = stream.getvalue()
    assert out == _compact(json.loads(out))
    if argv[0] == "obstruct":  # the 78 reports span several flushes
        assert stream.writes >= 4
