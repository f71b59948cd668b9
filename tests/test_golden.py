"""Golden digests of the obstruct reports on two fixed sweeps.

Each entry of golden/obstruct_reports.json is the first 16 hex digits of
the sha256 of one tuple's report and oracle JSON, serialized with sorted
keys and compact separators.  Any change to a verdict, witness, note,
skip reason or the order of the verdicts changes a digest.

The sweeps:
  37  all multisets from {1..12}^k, k <= 3, rho in {2, 3} (the soundness
      sweep of the acceptance suite, 908 tuples);
  43  every pair from {1..60}, rho = 3 (1830 tuples).

Everything is built from scratch here, without the session fixtures, so
the same digests can be recomputed in a fresh interpreter, including one
running under python -O, where every assert statement is stripped.

A third sweep, golden/threshold_reports.json, varies what the first two
hold fixed: one digest per (curve, effort, B, rho) over a thinned pair
sweep, so the B-smoothness wording and that of a D_l factored only in part
are pinned too.  Its keys still read L_rho=0, the threshold every report
records.

The benchmark's three references in bench/reference are reproduced here
too, in process: the obstruct-batch reports, the law-sweep reports and the
gen-ladder tables.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import edskit
from edskit.cli import _parse_effort, load_curve_file, main
from edskit.curve import WeierstrassCurve
from edskit.eds import eds_range
from edskit.factor import Effort
from edskit.intmath import primes_up_to
from edskit.obstruction import ObstructionContext, evaluate_tuple, prime_facts
from edskit.relation import test_relation as product_relation
from edskit.valuation import SIEVE_BOUND, build_exceptional_set

GOLDEN = Path(__file__).parent / "golden" / "obstruct_reports.json"
THRESHOLD_GOLDEN = Path(__file__).parent / "golden" / "threshold_reports.json"
ROOT = Path(__file__).resolve().parent.parent


def _context(coeffs, N, rho, B=2, effort=Effort()):
    curve = WeierstrassCurve(*coeffs)
    point = (Fraction(0), Fraction(0))
    S = build_exceptional_set(curve, point)
    return ObstructionContext(eds_range(curve, point, N), S, rho, B, effort)


def report_digest(ctx, n):
    rep = evaluate_tuple(ctx, n)
    oracle = product_relation(ctx.table, n, ctx.rho)
    doc = json.dumps(
        {"report": rep.to_json(), "oracle": oracle.to_json()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


def golden_digests():
    """{"<curve>/<rho>/<n_1,...,n_k>": digest} over both sweeps."""
    out = {}
    for rho in (2, 3):
        ctx37 = _context((0, 0, 1, -1, 0), 60, rho)
        for k in (1, 2, 3):
            for n in combinations_with_replacement(range(1, 13), k):
                out[f"37/{rho}/{','.join(map(str, n))}"] = report_digest(ctx37, n)
    ctx43 = _context((0, 1, 1, 0, 0), 60, 3)
    for n in combinations_with_replacement(range(1, 61), 2):
        out[f"43/3/{','.join(map(str, n))}"] = report_digest(ctx43, n)
    return out


# Every twelfth pair from {1..60}: 153 tuples per configuration.
THRESHOLD_PAIRS = list(combinations_with_replacement(range(1, 61), 2))[::12]
# Wordings the threshold sweep must reach: a cofactor above B, and a D_l that the
# zero effort leaves partly factored with no prime found ("partial factorization
# and empty certain radical"); indices are always factored completely.
# large_prime_gap reads no B: l > (sqrt(B)+1)^2 gives (sqrt(l)-1)^2 > B, so a
# B-smooth cofactor already meets its gap condition.
THRESHOLD_WORDINGS = ("is not B-smooth", "partial factorization")
THRESHOLD_CURVES = (("37", (0, 0, 1, -1, 0)), ("43", (0, 1, 1, 0, 0)))
THRESHOLD_EFFORTS = (("default", Effort()), ("zero", Effort(0, 0, 0)))
THRESHOLD_BOUNDS = (2, 7, 30.5)


def threshold_sweep():
    """({"<curve>/<effort>/B=<B>/L_rho=0/rho=<rho>": digest}, wordings seen).

    Each digest is the sha256 of the configuration's reports, one compact
    sorted-key JSON line per tuple, from one context per configuration.
    """
    out, seen = {}, set()
    for name, coeffs in THRESHOLD_CURVES:
        for label, effort in THRESHOLD_EFFORTS:
            for B in THRESHOLD_BOUNDS:
                for rho in (2, 3):
                    ctx = _context(coeffs, 60, rho, B, effort)
                    h = hashlib.sha256()
                    for n in THRESHOLD_PAIRS:
                        doc = json.dumps(
                            evaluate_tuple(ctx, n).to_json(),
                            sort_keys=True, separators=(",", ":"),
                        )
                        seen.update(w for w in THRESHOLD_WORDINGS if w in doc)
                        h.update(doc.encode() + b"\n")
                    out[f"{name}/{label}/B={B}/L_rho=0/rho={rho}"] = h.hexdigest()[:16]
    return out, seen


def test_threshold_reports_match_golden_digests():
    expected = json.loads(THRESHOLD_GOLDEN.read_text())
    assert len(expected) == 2 * 2 * 3 * 2
    got, seen = threshold_sweep()
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} configurations changed, first: {changed[:5]}"
    assert seen == set(THRESHOLD_WORDINGS)


def test_index_facts_and_exclusions_do_not_depend_on_the_effort():
    """On every configuration and pair of the threshold sweep, the PrimeFacts record at each
    prime l <= max(n) is the same at zero and at the default effort, and no certified
    exclusion at either effort is of a product that the exact oracle finds a rho-th power.

    Every prime of an index n_i, and of a quotient n_i / l, is at most max(n), so
    deciding the index facts needs no factoring budget.
    """
    for name, coeffs in THRESHOLD_CURVES:
        for B in THRESHOLD_BOUNDS:
            for rho in (2, 3):
                ctxs = [_context(coeffs, 60, rho, B, effort) for _, effort in THRESHOLD_EFFORTS]
                for n in THRESHOLD_PAIRS:
                    where = (name, B, rho, n)
                    default, zero = ([prime_facts(c, n, l) for l in primes_up_to(max(n))]
                                     for c in ctxs)
                    assert zero == default, where
                    if any(evaluate_tuple(c, n).certified_exclusions for c in ctxs):
                        assert not product_relation(ctxs[0].table, n, rho).is_power, where


def test_obstruct_reports_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    assert len(expected) == 908 + 1830
    got = golden_digests()
    assert got.keys() == expected.keys()
    changed = [key for key in expected if got[key] != expected[key]]
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


def test_golden_digests_survive_optimize():
    # No verdict may rest on an assert: the -O run must reproduce every digest.
    code = textwrap.dedent("""
        import json, sys
        if not sys.flags.optimize:
            sys.exit("not running under -O")
        from test_golden import golden_digests, threshold_sweep
        print(json.dumps([golden_digests(), threshold_sweep()[0]]))
    """)
    src = str(Path(edskit.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    reports, thresholds = json.loads(proc.stdout)
    assert reports == json.loads(GOLDEN.read_text())
    assert thresholds == json.loads(THRESHOLD_GOLDEN.read_text())


def test_obstruct_batch_reference_digests():
    """Every tuple report in bench/reference/obstruct-batch.json, with its oracle.

    Each run is rebuilt from the thresholds in its recorded header, and each
    report is digested as bench/run.py digests the reports of `obstruct`.
    """
    ref = json.loads((ROOT / "bench" / "reference" / "obstruct-batch.json").read_text())
    assert sorted(ref["runs"]) == ["37:2", "43:3"]
    for name, run in ref["runs"].items():
        header, th = run["header"], run["header"]["thresholds"]
        curve, point = load_curve_file(str(ROOT / header["curve_file"]))
        S = build_exceptional_set(curve, point)
        assert S.to_json() == header["exceptional_set"]
        table = eds_range(curve, point, th["n_max"])
        assert th["sieve_bound"] == SIEVE_BOUND
        assert th["L_rho"] == 0
        ctx = ObstructionContext(table, S, th["rho"], th["B"], _parse_effort(th["effort"]))
        assert len(run["reports"]) == 980
        changed = []
        for key, digest in run["reports"].items():
            n = [int(x) for x in key.split(",")]
            doc = evaluate_tuple(ctx, n).to_json()
            doc["oracle"] = product_relation(table, n, th["rho"]).to_json()
            blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
            if hashlib.sha256(blob.encode()).hexdigest()[:16] != digest:
                changed.append(key)
        assert not changed, f"{name}: {len(changed)} reports changed, first: {changed[:5]}"


def _bench_law_args(monkeypatch):
    """law_args from bench/run.py, which imports its sibling module tracing."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.law_args


def test_law_sweep_reference(monkeypatch, capsys):
    """verify-law on each fixture, with the benchmark's arguments, prints its reference."""
    ref = json.loads((ROOT / "bench" / "reference" / "law-sweep.json").read_text())
    law_args = _bench_law_args(monkeypatch)
    monkeypatch.chdir(ROOT)  # the arguments and the reference name fixtures relative to it
    assert sorted(ref) == ["37", "37q", "43"]
    for name, want in ref.items():
        assert main(law_args(name)) == 0
        doc = json.loads(capsys.readouterr().out)
        doc.pop("generated_at")
        results = doc.pop("results")
        assert doc == want["header"], name
        assert len(results) == len(want["results"]) > 600, name
        changed = [r["p"] for r, w in zip(results, want["results"]) if r != w]
        assert not changed, f"{name}: {len(changed)} prime results changed, first: {changed[:5]}"


def test_gen_ladder_reference(tmp_path):
    """Every table of bench/reference/gen-ladder.json, built, written and read back in process.

    The reference's crash fields describe the 4300-digit crash, which no
    current run reaches; they are not read.
    """
    from oracles import read_table_file  # not at the top: the -O run imports this module

    ref = json.loads((ROOT / "bench" / "reference" / "gen-ladder.json").read_text())
    assert len(ref["sizes"]) == 6
    for key, want in ref["sizes"].items():
        name, n = key.split(":")
        n = int(n)
        curve, point = load_curve_file(str(ROOT / "bench" / "fixtures" / f"{name}.json"))
        table = eds_range(curve, point, n)
        assert [str(d) for d in table.d_values()[:20]] == want["D_prefix"], key
        path = str(tmp_path / f"{name}-{n}.jsonl")
        assert table.dump(path) == want["content_hash"], key
        terms, content_hash = read_table_file(path, curve, point)
        assert (terms, content_hash) == (table.terms, want["content_hash"]), key
