"""Batch command-line frontend.

Subcommands:

  eds gen              generate and persist a denominator table
  eds verify-law       empirical valuation-law verification over a prime range
  eds obstruct         run every obstruction checker on index tuples
  eds probe-detecting  probe detecting-prime existence at prime indices

Machine output is JSON (``--format json``); all big integers are emitted
as decimal strings.  Reports embed every threshold so each claim is
reproducible.  Exit codes: 0 ok, 1 law violation found, 2 invalid
configuration, 3 curve/point errors, 4 internal soundness contradiction.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import __version__
from .curve import WeierstrassCurve, minimality_report
from .errors import BudgetExceeded, EdskitError, PrimeTooLarge, SoundnessError, TorsionPoint
from .eds import EdsTable, eds_range
from .factor import Effort
from .intmath import is_prime, primes_up_to
from .obstruction import ObstructionContext, evaluate_tuple
from .relation import test_relation
from .valuation import build_exceptional_set, check_valuation_law, detecting_primes

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_CURVE = 3
EXIT_SOUNDNESS = 4


class ConfigError(Exception):
    pass


def _parse_rational(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def load_curve_file(path: str):
    """Curve/point JSON: a1..a6 decimal strings, x and y as "num/den"."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        coeffs = [int(doc[k]) for k in ("a1", "a2", "a3", "a4", "a6")]
        P = (_parse_rational(doc["x"]), _parse_rational(doc["y"]))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad curve file {path}: {exc}")
    try:
        E = WeierstrassCurve(*coeffs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not E.contains(P):
        raise ConfigError("point does not lie on the curve")
    return E, P


def _parse_effort(spec: str) -> Effort:
    """Effort spec "TRIAL:RHO_ITERS:SECONDS", e.g. "1000000:10000000:60"."""
    try:
        trial, rho_iters, seconds = spec.split(":")
        return Effort(int(trial), int(rho_iters), float(seconds))
    except ValueError:
        raise ConfigError(f"bad effort spec {spec!r}; expected TRIAL:RHO:SECONDS")


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--curve", required=True, help="curve/point JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--effort", default="1000000:10000000:60")
    p.add_argument("--sieve-bound", type=int, default=10 ** 4)
    p.add_argument("--extra-s", default="", help="comma list of primes to add to S")
    p.add_argument(
        "--guard",
        action="store_true",
        help="include the {2,3} small-prime guard in the exceptional set",
    )
    p.add_argument("--strict", action="store_true", help="require explicit thresholds")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eds")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a denominator table")
    _common_flags(g)
    g.add_argument("--n-max", type=int, required=True)
    g.add_argument("--out", help="output table path (default: cache dir by curve hash)")
    g.add_argument("--max-digits", type=int, default=10 ** 5)

    v = sub.add_parser("verify-law", help="verify the valuation law over a prime range")
    _common_flags(v)
    v.add_argument("--p-max", type=int, required=True)
    v.add_argument("--n-max", type=int, default=60)

    o = sub.add_parser("obstruct", help="run obstruction checkers on index tuples")
    _common_flags(o)
    o.add_argument("--rho", type=int, default=2)
    o.add_argument("--B", type=float, default=2.0)
    o.add_argument("--L-rho", type=int, default=0, dest="L_rho")
    o.add_argument("--n-max", type=int, help="table range (default: largest tuple entry)")
    o.add_argument("--tuple", action="append", default=[], help="comma list, e.g. 5,3")
    o.add_argument("--tuple-file", help="file with one comma-separated tuple per line")

    d = sub.add_parser("probe-detecting", help="probe detecting primes at prime indices")
    _common_flags(d)
    d.add_argument("--rho", type=int, default=2)
    d.add_argument("--l-max", type=int, required=True)
    d.add_argument("--l-min", type=int, default=2)
    return ap


def _cache_dir(args) -> Optional[str]:
    return os.environ.get("EDSKIT_CACHE_DIR")


def _setup(args):
    E, P = load_curve_file(args.curve)
    extra = [int(x) for x in args.extra_s.split(",") if x.strip()]
    for p in extra:
        if not is_prime(p):
            raise ConfigError(f"--extra-s entry {p} is not prime")
    S = build_exceptional_set(E, P, extra=extra, include_guard=args.guard)
    minim = minimality_report(E)
    return E, P, S, minim


def _header(args, S, minim, **thresholds) -> dict:
    return {
        "tool_version": __version__,
        "command": args.command,
        "curve_file": args.curve,
        "exceptional_set": S.to_json(),
        "minimality": minim.to_json(),
        "thresholds": {k: v for k, v in sorted(thresholds.items())},
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _emit(doc: dict, fmt: str, text_lines: List[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_gen(args) -> int:
    E, P, S, minim = _setup(args)
    table = eds_range(E, P, args.n_max, max_digits=args.max_digits, cache_dir=_cache_dir(args))
    out = args.out
    if out is None:
        out = f"eds-table-{table.key}.jsonl"
    table.dump(out)
    shown = table.d_values()[: min(args.n_max, 20)]
    doc = _header(args, S, minim, n_max=args.n_max, max_digits=args.max_digits)
    doc["table_file"] = out
    doc["content_hash"] = table.content_hash()
    doc["D_prefix"] = [str(d) for d in shown]
    lines = [
        f"table written to {out} ({args.n_max} terms, hash {table.content_hash()})",
        "D_1..D_%d: %s" % (len(shown), ", ".join(str(d) for d in shown)),
    ]
    if not minim.certified:
        lines.append("WARNING: minimality unverified: " + "; ".join(minim.notes))
    _emit(doc, args.format, lines)
    return EXIT_OK


def cmd_verify_law(args) -> int:
    E, P, S, minim = _setup(args)
    table = eds_range(E, P, args.n_max, cache_dir=_cache_dir(args))
    doc = _header(args, S, minim, p_max=args.p_max, n_max=args.n_max)
    results = []
    lines = []
    violations = 0
    for p in primes_up_to(args.p_max):
        if p in S:
            results.append({"p": str(p), "status": "skipped", "reason": "in exceptional set"})
            lines.append(f"p={p}: skipped (exceptional set)")
            continue
        if not E.has_good_reduction(p):
            results.append({"p": str(p), "status": "skipped", "reason": "bad reduction"})
            lines.append(f"p={p}: skipped (bad reduction)")
            continue
        try:
            rep = check_valuation_law(E, P, S, p, args.n_max, table)
        except PrimeTooLarge:
            results.append({"p": str(p), "status": "skipped", "reason": "order not factored"})
            lines.append(f"p={p}: skipped (order not factored)")
            continue
        status = "pass" if rep.holds else "FAIL"
        if not rep.holds:
            violations += 1
        results.append(
            {
                "p": str(p),
                "status": status,
                "r_p": str(rep.r_p),
                "violations": [
                    {"n": v.n, "clause": v.clause, "expected": v.expected, "actual": v.actual}
                    for v in rep.violations
                ],
            }
        )
        lines.append(f"p={p}: {status} (r_p={rep.r_p})")
    doc["results"] = results
    doc["violation_count"] = violations
    lines.append(f"{violations} violation(s) over p <= {args.p_max}, n <= {args.n_max}")
    _emit(doc, args.format, lines)
    return EXIT_VIOLATION if violations else EXIT_OK


def _read_tuples(args) -> List[List[int]]:
    tuples = []
    for spec in args.tuple:
        tuples.append([int(x) for x in spec.split(",") if x.strip()])
    if args.tuple_file:
        try:
            with open(args.tuple_file) as fh:
                for line in fh:
                    line = line.strip()
                    if line:
                        tuples.append([int(x) for x in line.split(",")])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad tuple file: {exc}")
    if not tuples:
        raise ConfigError("no tuples given (use --tuple or --tuple-file)")
    for t in tuples:
        if not t or any(x < 1 for x in t):
            raise ConfigError(f"tuple entries must be positive: {t}")
    return tuples


def cmd_obstruct(args) -> int:
    if args.rho < 2 or not is_prime(args.rho):
        raise ConfigError("--rho must be prime")
    if args.B < 2:
        raise ConfigError("--B must be at least 2")
    if args.strict and args.L_rho <= 0:
        raise ConfigError("--strict requires an explicit positive --L-rho")
    tuples = _read_tuples(args)
    E, P, S, minim = _setup(args)
    n_max = args.n_max or max(max(t) for t in tuples)
    table = eds_range(E, P, n_max, cache_dir=_cache_dir(args))
    ctx = ObstructionContext(
        E, P, S, table, sieve_bound=args.sieve_bound, effort=_parse_effort(args.effort)
    )
    doc = _header(
        args, S, minim, rho=args.rho, B=args.B, L_rho=args.L_rho,
        n_max=n_max, sieve_bound=args.sieve_bound, effort=args.effort,
    )
    reports = []
    lines = []
    for t in tuples:
        rep = evaluate_tuple(ctx, t, args.rho, B=args.B, L_rho=args.L_rho)
        oracle = test_relation(table, t, args.rho)
        excluded = rep.certified_exclusions
        if excluded and oracle.is_power:
            print(
                f"SOUNDNESS CONTRADICTION at n={t}: certified exclusion "
                f"{excluded} but the product is an exact {args.rho}-th power",
                file=sys.stderr,
            )
            return EXIT_SOUNDNESS
        rj = rep.to_json()
        rj["oracle"] = oracle.to_json()
        reports.append(rj)
        summary = "excluded" if excluded else ("power" if oracle.is_power else "no verdict")
        lines.append(
            f"n={tuple(t)} rho={args.rho}: {summary}"
            + (f" via {sorted(set(excluded))}" if excluded else "")
            + f"; oracle is_power={oracle.is_power}"
        )
    doc["tuples"] = reports
    _emit(doc, args.format, lines)
    return EXIT_OK


def cmd_probe_detecting(args) -> int:
    if args.rho < 2 or not is_prime(args.rho):
        raise ConfigError("--rho must be prime")
    E, P, S, minim = _setup(args)
    ls = [l for l in primes_up_to(args.l_max) if l >= args.l_min]
    doc = _header(
        args, S, minim, rho=args.rho, l_max=args.l_max, sieve_bound=args.sieve_bound
    )
    lines = []
    results = []
    if ls:
        table = eds_range(E, P, max(ls), cache_dir=_cache_dir(args))
        effort = _parse_effort(args.effort)
        largest_without = None
        for l in ls:
            found, complete = detecting_primes(
                E, P, S, l, args.rho, table, sieve_bound=args.sieve_bound, effort=effort
            )
            if not found:
                largest_without = l
            results.append(
                {
                    "l": str(l),
                    "detecting": [[str(p), v] for p, v in found],
                    "search_complete": complete,
                }
            )
            desc = ", ".join(f"{p}^{v}" for p, v in found) or "none"
            lines.append(f"l={l}: {desc}{'' if complete else ' (search incomplete)'}")
        doc["largest_prime_index_without_detecting_prime"] = (
            str(largest_without) if largest_without else None
        )
        lines.append(
            "largest prime index with no detecting prime found: "
            f"{largest_without} (empirical observation only, not a bound)"
        )
    doc["results"] = results
    _emit(doc, args.format, lines)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        handler = {
            "gen": cmd_gen,
            "verify-law": cmd_verify_law,
            "obstruct": cmd_obstruct,
            "probe-detecting": cmd_probe_detecting,
        }[args.command]
        return handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SoundnessError as exc:
        print(f"SOUNDNESS CONTRADICTION: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except (TorsionPoint, BudgetExceeded, EdskitError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CURVE


if __name__ == "__main__":
    sys.exit(main())
