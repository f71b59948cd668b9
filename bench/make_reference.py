"""Regenerate the reference outputs in ``bench/reference`` from the current code.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted: every later benchmark
run is judged against what it writes.  It runs the same ``eds`` commands as
the benchmark and stores

* ``law-sweep.json``: each fixture's report header and per-prime results;
* ``gen-ladder.json``: ``content_hash`` and ``D_prefix`` for every ladder
  size, the report of each size that succeeds, the error line of each size
  that crashes, the first index whose numerator passes the integer-to-string
  digit limit, and the traceback.  For crashing sizes the hash is computed
  in-process from ``eds_range`` with a chunked decimal conversion, so the
  limit is never raised here either;
* ``obstruct-batch.json``: a pool of tuples (the benchmark samples 200 of
  them per seed), each run's report header and a digest of every tuple
  report.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path

import run as bench

sys.path.insert(0, str(bench.ROOT / "src"))

from edskit.cli import load_curve_file  # noqa: E402
from edskit.eds import curve_point_key, eds_range  # noqa: E402

POOL_SEED = 20261017
POOL_SIZE = 1000
DIGIT_LIMIT = 4300


def require(condition: bool, message: str) -> None:
    """Refuse to store a reference the current code does not support."""
    if not condition:
        raise RuntimeError(message)


def decimal(n: int) -> str:
    """str(n) for any size without touching the integer-to-string limit."""
    if n < 0:
        return "-" + decimal(-n)
    if n < 10 ** 4000:
        return str(n)
    high, low = divmod(n, 10 ** 4000)
    return decimal(high) + str(low).zfill(4000)


def content_hash(key: str, terms) -> str:
    """EdsTable.content_hash, re-derived with decimal() for huge terms."""
    h = hashlib.sha256()
    h.update(key.encode())
    for t in terms:
        h.update(f"{t.n}:{decimal(t.A)}:{decimal(t.D)};".encode())
    return h.hexdigest()[:16]


def write(name: str, doc: dict) -> None:
    path = bench.REFERENCE / f"{name}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(f"wrote {path.relative_to(bench.ROOT)}")


def law_sweep(runner: bench.Runner) -> None:
    ref = {}
    for name in ("37", "37q", "43"):
        out = runner.spawn(["-m", "edskit.cli"] + bench.law_args(name), Path(bench.WORK) / "law.txt")
        require(out.exit_problem() is None, f"verify-law {name}: {out.exit_problem()}")
        doc = bench.read_doc(out)
        require(doc["violation_count"] == 0, f"verify-law {name} reports violations")
        results = doc.pop("results")
        ref[name] = {"header": doc, "results": results}
    write("law-sweep", ref)


def gen_ladder(runner: bench.Runner) -> None:
    sizes = {}
    boundaries = {}
    traceback = None
    for name in ("37", "37q", "43"):
        E, P = load_curve_file(bench.FIXTURES[name])
        n_top = max(n for f, n in bench.GEN_LADDER if f == name)
        table = eds_range(E, P, n_top, max_digits=10 ** 6)
        boundaries[name] = next(
            (t.n for t in table.terms if len(decimal(abs(t.A))) > DIGIT_LIMIT), None
        )
        for f, n in bench.GEN_LADDER:
            if f != name:
                continue
            terms = table.terms[:n]
            out = runner.spawn(["-m", "edskit.cli"] + bench.gen_args(name, n), Path(bench.WORK) / "gen.txt")
            entry = {
                "content_hash": content_hash(curve_point_key(E, P), terms),
                "D_prefix": [str(t.D) for t in terms[:20]],
                "doc": None,
                "crash": None,
            }
            if out.exit_problem() is None:
                doc = bench.read_doc(out)
                require(
                    (doc["content_hash"], doc["D_prefix"]) == (entry["content_hash"], entry["D_prefix"]),
                    f"gen {name} N={n}: content_hash or D_prefix disagrees with eds_range",
                )
                entry["doc"] = doc
            else:
                require(
                    out.rc == 1 and boundaries[name] is not None and n >= boundaries[name],
                    f"gen {name} N={n} failed below the digit limit: {out.exit_problem()}",
                )
                entry["crash"] = out.stderr.strip().splitlines()[-1]
                traceback = out.stderr.replace(str(bench.ROOT) + os.sep, "")
            sizes[f"{name}:{n}"] = entry
    write("gen-ladder", {
        "digit_limit": DIGIT_LIMIT,
        "first_index_past_limit": boundaries,
        "sizes": sizes,
        "traceback": traceback,
    })


def obstruct_batch(runner: bench.Runner) -> None:
    rng = random.Random(POOL_SEED)
    pool = [
        ",".join(str(rng.randint(1, 60)) for _ in range(rng.randint(2, 4)))
        for _ in range(POOL_SIZE)
    ]
    tuples = pool + list(bench.FIXED_TUPLES)
    tuple_file = Path(bench.WORK) / "pool.txt"
    tuple_file.write_text("".join(t + "\n" for t in tuples))
    runs = {}
    for name, rho in bench.OBSTRUCT_RUNS:
        out = runner.spawn(
            ["-m", "edskit.cli"] + bench.obstruct_args(name, rho, str(tuple_file)),
            Path(bench.WORK) / "obstruct.txt",
        )
        require(out.exit_problem() is None, f"obstruct {name}: {out.exit_problem()}")
        doc = bench.read_doc(out)
        reports = doc.pop("tuples")
        require(len(reports) == len(tuples), f"obstruct {name}: {len(reports)} reports")
        runs[f"{name}:{rho}"] = {
            "header": doc,
            "reports": {t: bench.report_digest(rep) for t, rep in zip(tuples, reports)},
        }
    write("obstruct-batch", {"pool": pool, "pool_seed": POOL_SEED, "runs": runs})


def main() -> int:
    os.chdir(bench.ROOT)
    shutil.rmtree(bench.WORK, ignore_errors=True)
    os.makedirs(bench.WORK)
    os.makedirs(bench.REFERENCE, exist_ok=True)
    runner = bench.Runner(deadline=time.monotonic() + 3600)
    try:
        law_sweep(runner)
        gen_ladder(runner)
        obstruct_batch(runner)
    finally:
        shutil.rmtree(bench.WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
