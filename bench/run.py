"""edskit benchmark: the ``eds`` command line run as a user runs it.

    python3 bench/run.py --workload law-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each workload is a fixed list of
``python -m edskit.cli ...`` invocations (a "round"), one fresh process
each, run one after another: a closed loop with one client.  Rounds repeat
until ``--seconds`` is used up; every output is checked against the
references in ``bench/reference``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (medians over rounds).
``--trace 1`` alternates untraced and traced rounds; traced invocations run
through ``bench/tracing.py`` and the per-layer metrics come from their spans.

Workloads (see ``bench/NOTES.md`` for why each exists):

* ``law-sweep``: ``verify-law --p-max 5000 --n-max 60`` on the three fixtures.
* ``gen-ladder``: ``gen`` at N = 300 and 600 on ``37`` and ``43`` and at
  N = 60 and 120 on ``37q``.  The larger sizes cross Python's 4300-digit
  integer-to-string limit and fail at the seed; they count as failed
  operations and the limit is never raised.
* ``obstruct-batch``: ``obstruct --format json`` with a fixed factoring
  budget on ``37`` (rho 2) and ``43`` (rho 3), on 200 multisets drawn by
  ``--seed`` from a reference pool plus three fixed tuples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from statistics import median, median_low
from typing import Callable, Dict, List, Optional, Tuple

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = "bench/.work"
REFERENCE = BENCH / "reference"
FIXTURES = {name: f"bench/fixtures/{name}.json" for name in ("37", "37q", "43")}
# The rho iteration cap binds long before the wall-clock limit (10^6 Brent
# iterations take seconds), so no verdict depends on machine load.
EFFORT = "1000000:1000000:600"
GEN_LADDER = (("37", 300), ("37", 600), ("43", 300), ("43", 600), ("37q", 60), ("37q", 120))
OBSTRUCT_RUNS = (("37", 2), ("43", 3))
OBSTRUCT_SAMPLE = 200
FIXED_TUPLES = ("31,29", "47,53", "5,3")
# Hard stop for the child processes of one benchmark run, in seconds.
RUN_LIMIT = 170.0
TRACEBACK = "Traceback (most recent call last)"

END_TO_END = [
    ("wall_s", "s"),
    ("ops_per_s", "ops/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


@dataclass
class Outcome:
    """One finished child process."""

    rc: int
    stdout: Path
    stderr: str
    wall_s: float
    cpu_s: float
    rss_mb: float

    def exit_problem(self) -> Optional[str]:
        """Why the process did not end cleanly, or None."""
        if self.rc == 0 and TRACEBACK not in self.stderr:
            return None
        last = self.stderr.strip().splitlines()[-1:] or [""]
        if self.rc == 4:
            return f"soundness contradiction (exit 4): {last[0]}"
        return f"exit {self.rc}: {last[0]}"


@dataclass
class Invocation:
    """One ``eds`` call of a round and how to judge its output."""

    label: str
    args: List[str]
    ops: int
    # (outcome) -> (failed operations, problems that make the run incorrect)
    check: Callable[[Outcome], Tuple[int, List[str]]]


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    problems: List[str] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)


class Runner:
    """Starts children with a clean environment and a shared deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        # Never raise the integer-to-string limit, never read a table cache.
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.env.pop("EDSKIT_CACHE_DIR", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def spawn(self, argv: List[str], stdout: Path) -> Outcome:
        stderr_path = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err, env=self.env)
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
                watchdog.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(
            rc=proc.returncode,
            stdout=stdout,
            stderr=stderr_path.read_text(errors="replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
        )

    def run_round(self, invocations: List[Invocation], traced: bool) -> Round:
        r = Round()
        for i, inv in enumerate(invocations):
            stdout = Path(WORK) / f"out-{i}.txt"
            if traced:
                spans = Path(WORK) / f"spans-{i}.json"
                spans.unlink(missing_ok=True)
                argv = ["bench/tracing.py", str(spans), "--"] + inv.args
            else:
                argv = ["-m", "edskit.cli"] + inv.args
            out = self.spawn(argv, stdout)
            try:
                failed, problems = inv.check(out)
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                failed, problems = inv.ops, [f"unreadable output: {exc!r}"]
            r.wall_s += out.wall_s
            r.cpu_s += out.cpu_s
            r.peak_rss_mb = max(r.peak_rss_mb, out.rss_mb)
            r.attempted += inv.ops
            r.failed += failed
            r.output_bytes += stdout.stat().st_size
            r.problems += [f"{inv.label}: {p}" for p in problems]
            if traced:
                if spans.exists():
                    r.spans.append(json.loads(spans.read_text()))
                else:
                    r.problems.append(f"{inv.label}: no span file written")
        return r


# -- output checks -----------------------------------------------------------


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE / f"{workload}.json").read_text())


def read_doc(out: Outcome) -> dict:
    """The command's JSON report without its timestamp."""
    doc = json.loads(out.stdout.read_text())
    doc.pop("generated_at", None)
    return doc


def report_digest(report: dict) -> str:
    """Stable digest of one tuple report (the reference stores only these)."""
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check_law(ref: dict, out: Outcome) -> Tuple[int, List[str]]:
    ops = len(ref["results"])
    problem = out.exit_problem()
    if problem:
        return ops, [problem]
    doc = read_doc(out)
    results = doc.pop("results")
    if doc.get("violation_count") != 0:
        return ops, [f"violation_count is {doc.get('violation_count')}, expected 0"]
    if doc != ref["header"]:
        return ops, ["report header differs from the reference"]
    failed = sum(got != want for got, want in zip_longest(results, ref["results"]))
    return min(failed, ops), ([f"{failed} prime result(s) differ"] if failed else [])


def check_gen(ref: dict, n: int, table_file: Path, out: Outcome) -> Tuple[int, List[str]]:
    problem = out.exit_problem()
    if problem:
        # The known defect: past 4300 digits str(A_n) raises ValueError.
        # It fails the operations but is not a wrong output.
        known = ref["crash"] is not None and out.rc == 1 and problem.endswith(ref["crash"])
        return n, ([] if known else [problem])
    doc = read_doc(out)
    if doc["content_hash"] != ref["content_hash"] or doc["D_prefix"] != ref["D_prefix"]:
        return n, ["content_hash or D_prefix differs from the reference"]
    if ref["doc"] is not None and doc != ref["doc"]:
        return n, ["report differs from the reference"]
    with open(table_file) as fh:
        header = json.loads(fh.readline())
        lines = 1 + sum(1 for _ in fh)
    if header.get("content_hash") != ref["content_hash"] or lines != n + 1:
        return n, ["written table file differs from the reference"]
    return 0, []


def check_obstruct(ref: dict, tuples: List[str], out: Outcome) -> Tuple[int, List[str]]:
    ops = len(tuples)
    problem = out.exit_problem()
    if problem:
        return ops, [problem]
    doc = read_doc(out)
    reports = doc.pop("tuples")
    if doc != ref["header"]:
        return ops, ["report header differs from the reference"]
    failed = sum(
        t is None or rep is None or report_digest(rep) != ref["reports"].get(t)
        for t, rep in zip_longest(tuples, reports)
    )
    return min(failed, ops), ([f"{failed} tuple report(s) differ"] if failed else [])


# -- workloads ---------------------------------------------------------------


def law_sweep(seed: int) -> Tuple[List[Invocation], List[str]]:
    ref = load_reference("law-sweep")
    invocations = []
    for name in ("37", "37q", "43"):
        r = ref[name]
        invocations.append(
            Invocation(
                label=f"verify-law {name}",
                args=law_args(name),
                ops=len(r["results"]),
                check=lambda out, r=r: check_law(r, out),
            )
        )
    return invocations, ["37", "37q", "43"]


def gen_ladder(seed: int) -> Tuple[List[Invocation], List[str]]:
    ref = load_reference("gen-ladder")
    invocations = []
    for name, n in GEN_LADDER:
        r = ref["sizes"][f"{name}:{n}"]
        invocations.append(
            Invocation(
                label=f"gen {name} N={n}",
                args=gen_args(name, n),
                ops=n,
                check=lambda out, r=r, n=n, f=gen_table(name, n): check_gen(r, n, f, out),
            )
        )
    return invocations, ["37", "37q", "43"]


def obstruct_tuples(pool: List[str], seed: int) -> List[str]:
    """The seeded tuple file: 200 pool multisets plus the fixed three."""
    rng = random.Random(seed)
    return [pool[i] for i in rng.sample(range(len(pool)), OBSTRUCT_SAMPLE)] + list(FIXED_TUPLES)


def obstruct_batch(seed: int) -> Tuple[List[Invocation], List[str]]:
    ref = load_reference("obstruct-batch")
    tuples = obstruct_tuples(ref["pool"], seed)
    tuple_file = Path(WORK) / "tuples.txt"
    tuple_file.write_text("".join(t + "\n" for t in tuples))
    invocations = []
    for name, rho in OBSTRUCT_RUNS:
        r = ref["runs"][f"{name}:{rho}"]
        invocations.append(
            Invocation(
                label=f"obstruct {name} rho={rho}",
                args=obstruct_args(name, rho, str(tuple_file)),
                ops=len(tuples),
                check=lambda out, r=r: check_obstruct(r, tuples, out),
            )
        )
    return invocations, [name for name, _ in OBSTRUCT_RUNS]


def law_args(name: str) -> List[str]:
    return ["verify-law", "--curve", FIXTURES[name], "--format", "json",
            "--n-max", "60", "--p-max", "5000"]


def gen_table(name: str, n: int) -> Path:
    return Path(WORK) / f"gen-{name}-{n}.jsonl"


def gen_args(name: str, n: int) -> List[str]:
    return ["gen", "--curve", FIXTURES[name], "--format", "json",
            "--n-max", str(n), "--out", str(gen_table(name, n))]


def obstruct_args(name: str, rho: int, tuple_file: str) -> List[str]:
    return ["obstruct", "--curve", FIXTURES[name], "--format", "json", "--rho", str(rho),
            "--n-max", "60", "--effort", EFFORT, "--tuple-file", tuple_file]


WORKLOADS = {"law-sweep": law_sweep, "gen-ladder": gen_ladder, "obstruct-batch": obstruct_batch}


# -- measurement -------------------------------------------------------------


def probe_setup(runner: Runner, fixture: str) -> Outcome:
    """Time one fresh interpreter through the start-up every call pays."""
    out = runner.spawn(["bench/setup_probe.py", FIXTURES[fixture]], Path(WORK) / "setup.txt")
    if out.exit_problem():
        raise RuntimeError(f"setup probe failed: {out.exit_problem()}")
    return out


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(args: argparse.Namespace) -> int:
    start = time.monotonic()
    if not (ROOT / "src" / "edskit" / "cli.py").is_file():
        print(f"error: no edskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    runner = Runner(deadline=start + RUN_LIMIT)
    try:
        invocations, fixtures = WORKLOADS[args.workload](args.seed)
        # The untimed warm-up fills the bytecode cache; users do not pay that
        # on every call.
        probe_setup(runner, fixtures[0])
        digit_limit = int((Path(WORK) / "setup.txt").read_text())
        print(
            f"edskit benchmark: workload={args.workload} seed={args.seed} "
            f"seconds={args.seconds} trace={args.trace}"
        )
        print(
            f"environment: git={git_revision()} python={platform.python_version()} "
            f"int_max_str_digits={digit_limit} nproc={os.cpu_count()} cpu={cpu_model()}"
        )
        plain: List[Round] = []
        traced: List[Round] = []
        # Set-up samples are taken between rounds, so that they spread over
        # the run like the rounds do.
        setup_samples = [] if args.trace else [probe_setup(runner, f).wall_s for f in fixtures]
        measure_start = time.monotonic()
        cycle = 0.0
        while True:
            cycle_start = time.monotonic()
            plain.append(runner.run_round(invocations, traced=False))
            if args.trace:
                traced.append(runner.run_round(invocations, traced=True))
            else:
                setup_samples += [probe_setup(runner, f).wall_s for f in fixtures]
            now = time.monotonic()
            cycle = max(cycle, now - cycle_start)
            # Start another round only if it should end within --seconds.
            if now + cycle > measure_start + args.seconds:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    rounds = plain + traced
    for i, r in enumerate(plain, 1):
        print(
            f"round {i}: wall {r.wall_s:.3f} s, cpu {r.cpu_s:.3f} s, "
            f"ok {r.attempted - r.failed}/{r.attempted} ops, peak rss {r.peak_rss_mb:.1f} MB"
        )
    for i, r in enumerate(traced, 1):
        print(f"traced round {i}: wall {r.wall_s:.3f} s")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = sorted({p for r in rounds for p in r.problems})
    for p in problems:
        print(f"PROBLEM {p}")

    if args.trace:
        per_round = [tracing.layer_metrics(r.spans, r.output_bytes) for r in traced]
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            # Counts are exact; keep them whole numbers.
            exact = all(isinstance(v, int) for v in values)
            metrics[name] = median_low(values) if exact else median(values)
        metrics["tracing.overhead_s"] = median(r.wall_s for r in traced) - median(
            r.wall_s for r in plain
        )
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    else:
        metrics = {
            "wall_s": median(r.wall_s for r in plain),
            "ops_per_s": median((r.attempted - r.failed) / r.wall_s for r in plain),
            "cpu_s": median(r.cpu_s for r in plain),
            "peak_rss_mb": median(r.peak_rss_mb for r in plain),
            "setup_s": median(setup_samples),
        }
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"{name:45s} {value!r:>24} {units[name]}")
    print(f"{'error_rate':45s} {failed / attempted!r:>24} ratio ({failed} of {attempted} ops failed)")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
