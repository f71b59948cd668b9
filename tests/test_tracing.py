"""bench/tracing.py still finds every name it patches.

The tracer wraps edskit functions and methods by name and counts radical
lookups through ObstructionContext._radical_cache, so a rename in the
package breaks the traced benchmark run.  Each case runs the script on one
small command; nothing is written under bench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edskit

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("argv, expected", [
    (["obstruct", "--tuple", "5,3", "--tuple", "22,33"],
     {"obstruction.evaluate_tuple", "factor.factorize", "relation.test_relation"}),
    (["verify-law", "--p-max", "50", "--n-max", "12"],
     {"factor.factorize", "valuation.check_valuation_law", "curve.reduction_order"}),
    (["gen", "--n-max", "40", "--out", "t.jsonl"],
     {"eds.eds_range", "eds.check_divisibility", "eds.dump"}),
], ids=["obstruct", "verify-law", "gen"])
def test_tracing_script_runs(argv, expected, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(Path(edskit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-B", str(BENCH / "tracing.py"), str(spans), "--", *argv,
         "--curve", str(BENCH / "fixtures" / "37.json"), "--format", "json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    named = {doc["names"][span[0]] for span in doc["spans"]}
    assert expected | {"cli.main", "cli.setup", "cli.emit"} <= named
    if argv[0] == "obstruct":
        assert doc["sums"]["obstruction.radical_lookups"] > 0
    if argv[0] == "gen":
        assert doc["sums"]["eds.terms"] == 40
        assert doc["sums"]["eds.dump.bytes"] == (tmp_path / "t.jsonl").stat().st_size > 0
