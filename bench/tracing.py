"""Span tracing for the traced benchmark run.

Run as a script, this wraps the public functions of every edskit module,
runs the ``eds`` command line in-process and writes the recorded spans to
a JSON file when the command ends (also when it raises):

    python bench/tracing.py SPANS.json -- verify-law --curve ... --p-max 5000

Each name is patched wherever a caller looks it up (``edskit.valuation.
factorize``, ``edskit.cli.eds_range``, ...), so the spans sit at the layer
boundaries without any change to the package.  Spans are kept in memory as
(name, parent, start, end, self) tuples; self time is a span's duration
minus the time covered by its child spans.

Imported by ``run.py``, this module only turns span files into the
per-layer metrics; it never imports edskit there.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from statistics import quantiles
from typing import Callable, Dict, List, Optional

# (metric name, unit, better) in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("curve.reduction_order.calls", "count", "lower"),
    ("curve.reduction_order.total_s", "s", "lower"),
    ("curve.reduction_order.p50_ms", "ms", "lower"),
    ("curve.reduction_order.max_ms", "ms", "lower"),
    ("curve.group_order.calls", "count", "lower"),
    ("curve.group_order.total_s", "s", "lower"),
    ("curve.point_order.calls", "count", "lower"),
    ("curve.point_order.total_s", "s", "lower"),
    ("curve.fp_add.calls", "count", "lower"),
    ("curve.q_add.calls", "count", "lower"),
    ("curve.q_add.total_s", "s", "lower"),
    ("curve.q_mul.calls", "count", "lower"),
    ("curve.q_mul.total_s", "s", "lower"),
    ("eds.eds_range.calls", "count", "lower"),
    ("eds.eds_range.total_s", "s", "lower"),
    ("eds.eds_range.self_s", "s", "lower"),
    ("eds.terms", "count", "higher"),
    ("eds.check_divisibility.total_s", "s", "lower"),
    ("eds.dump.total_s", "s", "lower"),
    ("eds.dump.bytes", "bytes", "lower"),
    ("eds.max_D_bits", "bits", "higher"),
    ("intmath.valuation.calls", "count", "lower"),
    ("intmath.valuation.total_s", "s", "lower"),
    ("intmath.int_nth_root.calls", "count", "lower"),
    ("intmath.int_nth_root.total_s", "s", "lower"),
    ("intmath.is_prime.calls", "count", "lower"),
    ("intmath.is_prime.total_s", "s", "lower"),
    ("intmath.primes_up_to.calls", "count", "lower"),
    ("intmath.primes_up_to.total_s", "s", "lower"),
    ("factor.factorize.calls", "count", "lower"),
    ("factor.factorize.total_s", "s", "lower"),
    ("factor.factorize.p50_ms", "ms", "lower"),
    ("factor.factorize.max_ms", "ms", "lower"),
    ("factor.partial_ratio", "ratio", "lower"),
    ("factor.input_bits_max", "bits", "lower"),
    ("valuation.check_valuation_law.calls", "count", "lower"),
    ("valuation.check_valuation_law.total_s", "s", "lower"),
    ("valuation.check_valuation_law.p50_ms", "ms", "lower"),
    ("valuation.check_valuation_law.p90_ms", "ms", "lower"),
    ("valuation.term_radical_data.calls", "count", "lower"),
    ("valuation.term_radical_data.total_s", "s", "lower"),
    ("valuation.build_exceptional_set.total_s", "s", "lower"),
    ("obstruction.evaluate_tuple.calls", "count", "lower"),
    ("obstruction.evaluate_tuple.total_s", "s", "lower"),
    ("obstruction.evaluate_tuple.self_s", "s", "lower"),
    ("obstruction.evaluate_tuple.p50_ms", "ms", "lower"),
    ("obstruction.evaluate_tuple.p90_ms", "ms", "lower"),
    ("obstruction.radical_cache_hit_ratio", "ratio", "higher"),
    ("obstruction.verdicts", "count", "higher"),
    ("obstruction.certified_exclusions", "count", "higher"),
    ("relation.test_relation.calls", "count", "lower"),
    ("relation.test_relation.total_s", "s", "lower"),
    ("relation.product_bits_max", "bits", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.startup.total_s", "s", "lower"),
    ("cli.emit.total_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
]


class Tracer:
    """In-memory span recorder with a call stack for self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: list = []  # [name index, parent span index or -1, start, end, self]
        self.stack: list = []  # [span index, time covered by children]
        self.sums: Dict[str, float] = {}
        self.maxima: Dict[str, int] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.sums[key] = self.sums.get(key, 0) + amount

    def high(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            frame = [index, 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (nid, parent, start, end, end - start - frame[1])
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
            "sums": self.sums,
            "maxima": self.maxima,
        }


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import os

    import edskit
    from edskit import cli, curve, eds, factor, intmath, obstruction, relation, valuation

    modules = [edskit, cli, curve, eds, factor, intmath, obstruction, relation, valuation]

    def function(module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr)
        traced = tracer.wrap(name, original, on_result)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

    def method(cls, attr: str, name: str, on_result=None) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), on_result))

    def on_table(args, table) -> None:
        tracer.add("eds.terms", len(table.terms))
        tracer.high("eds.max_D_bits", max(t.D.bit_length() for t in table.terms))

    def on_dump(args, _) -> None:
        tracer.add("eds.dump.bytes", os.path.getsize(args[1]))

    def on_factorization(args, fac) -> None:
        tracer.add("factor.partial", 0 if fac.complete else 1)
        tracer.high("factor.input_bits_max", fac.n.bit_length())

    def on_report(args, report) -> None:
        tracer.add("obstruction.verdicts", len(report.verdicts) + (report.cluster is not None))
        tracer.add("obstruction.certified_exclusions", len(report.certified_exclusions))

    def on_relation(args, rel) -> None:
        tracer.high("relation.product_bits_max", rel.product.bit_length())

    method(curve.WeierstrassCurve, "reduction_order", "curve.reduction_order")
    method(curve.WeierstrassCurve, "group_order", "curve.group_order")
    method(curve.WeierstrassCurve, "add", "curve.q_add")
    method(curve.WeierstrassCurve, "mul", "curve.q_mul")
    method(curve.FpCurve, "point_order", "curve.point_order")
    # F_p additions run millions of times: counted, not spanned.
    fp_add = curve.FpCurve.add

    def counted_fp_add(self, P, Q):
        tracer.sums["curve.fp_add.calls"] += 1
        return fp_add(self, P, Q)

    tracer.sums["curve.fp_add.calls"] = 0
    curve.FpCurve.add = counted_fp_add

    function(eds, "eds_range", "eds.eds_range", on_table)
    method(eds.EdsTable, "check_divisibility", "eds.check_divisibility")
    method(eds.EdsTable, "dump", "eds.dump", on_dump)

    for attr in ("valuation", "int_nth_root", "is_prime", "primes_up_to"):
        function(intmath, attr, "intmath." + attr)
    function(factor, "factorize", "factor.factorize", on_factorization)

    for attr in ("check_valuation_law", "term_radical_data", "build_exceptional_set"):
        function(valuation, attr, "valuation." + attr)

    function(obstruction, "evaluate_tuple", "obstruction.evaluate_tuple", on_report)
    radical_data = obstruction.ObstructionContext.radical_data

    def counted_radical_data(self, l):
        tracer.add("obstruction.radical_lookups")
        if l in self._radical_cache:
            tracer.add("obstruction.radical_hits")
        return radical_data(self, l)

    obstruction.ObstructionContext.radical_data = counted_radical_data

    function(relation, "test_relation", "relation.test_relation", on_relation)
    function(cli, "_setup", "cli.setup")
    function(cli, "_emit", "cli.emit")


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.json -- EDS-ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import edskit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", edskit.cli.main)
    try:
        return run(cli_args)
    finally:
        doc = tracer.to_json()
        doc["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(doc, fh)


# -- aggregation in the benchmark process ----------------------------------


def _percentile_ms(durations: List[float], q: int) -> float:
    """q-th percentile in ms (the only value, or 0, below two samples)."""
    if len(durations) < 2:
        return sum(durations) * 1e3
    return quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(docs: List[dict], output_bytes: int) -> Dict[str, float]:
    """Per-layer metrics of one traced round from its span files."""
    durations: Dict[str, List[float]] = {}
    self_s: Dict[str, float] = {}
    sums: Dict[str, float] = {}
    maxima: Dict[str, int] = {}
    import_s = 0.0
    for doc in docs:
        names = doc["names"]
        for nid, _parent, start, end, own in doc["spans"]:
            name = names[nid]
            durations.setdefault(name, []).append(end - start)
            self_s[name] = self_s.get(name, 0.0) + own
        for key, value in doc["sums"].items():
            sums[key] = sums.get(key, 0) + value
        for key, value in doc["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
        import_s += doc["import_s"]

    def calls(name: str) -> int:
        return len(durations.get(name, []))

    def total(name: str) -> float:
        return sum(durations.get(name, []), 0.0)

    # Span statistics first; counters and the cli figures then overwrite
    # the names that are not plain spans.
    out: Dict[str, float] = {}
    for metric, _unit, _better in LAYER_METRICS:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls(layer)
        elif stat == "total_s":
            out[metric] = total(layer)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif stat in ("p50_ms", "p90_ms"):
            out[metric] = _percentile_ms(durations.get(layer, []), int(stat[1:3]))
        elif stat == "max_ms":
            out[metric] = max(durations.get(layer, [0.0])) * 1e3
    out["curve.fp_add.calls"] = int(sums.get("curve.fp_add.calls", 0))
    out["eds.terms"] = int(sums.get("eds.terms", 0))
    out["eds.dump.bytes"] = int(sums.get("eds.dump.bytes", 0))
    out["eds.max_D_bits"] = maxima.get("eds.max_D_bits", 0)
    factorizations = calls("factor.factorize")
    out["factor.partial_ratio"] = sums.get("factor.partial", 0) / factorizations if factorizations else 0.0
    out["factor.input_bits_max"] = maxima.get("factor.input_bits_max", 0)
    lookups = sums.get("obstruction.radical_lookups", 0)
    out["obstruction.radical_cache_hit_ratio"] = (
        sums.get("obstruction.radical_hits", 0) / lookups if lookups else 0.0
    )
    out["obstruction.verdicts"] = int(sums.get("obstruction.verdicts", 0))
    out["obstruction.certified_exclusions"] = int(sums.get("obstruction.certified_exclusions", 0))
    out["relation.product_bits_max"] = maxima.get("relation.product_bits_max", 0)
    out["cli.startup.total_s"] = import_s + total("cli.setup")
    out["cli.emit.total_s"] = total("cli.emit")
    out["cli.output_bytes"] = output_bytes
    out["cli.self_s"] = self_s.get("cli.main", 0.0)
    return {name: out[name] for name, _, _ in LAYER_METRICS if name in out}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
