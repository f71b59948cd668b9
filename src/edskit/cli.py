"""Batch command-line frontend.

Subcommands:

  eds gen              generate and persist a denominator table
  eds verify-law       empirical valuation-law verification over a prime range
  eds obstruct         run every obstruction checker on index tuples
  eds probe-detecting  decide detecting-prime existence at prime indices, without factoring

A detecting prime at l (p outside S, rho not dividing v_p(D_l)) exists exactly
when D_l with S divided out is not a rho-th power, so probe-detecting answers
every l exactly.  obstruct factors each D_l within --effort for the primes it
prints; it factors indices and quotients completely, whatever the effort.
obstruct assumes no detecting threshold: an exclusion is certified only where a
detecting prime is proven at each l it uses, and the header records the
threshold as 0.

Machine output is JSON (``--format json``): one line, the compact form of
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, with every big
integer emitted as a decimal string.  Reports embed every threshold so each
claim is reproducible.  Exit codes: 0 ok, 1 law violation found, 2 invalid
configuration, 3 curve/point errors, 4 internal soundness contradiction.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

from . import __version__
from .curve import WeierstrassCurve, minimality_report
from .errors import EdskitError, SoundnessError
from .eds import DEFAULT_MAX_DIGITS, eds_range
from .factor import Effort
from .intmath import is_prime, primes_up_to
from .valuation import SIEVE_BOUND, build_exceptional_set, check_valuation_law
from .valuation import detecting_prime_exists, s_free_part

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
        # Through str(): int() alone would round 1.9 down and read true as 1.
        coeffs = [int(str(doc[k])) for k in ("a1", "a2", "a3", "a4", "a6")]
        P = (_parse_rational(doc["x"]), _parse_rational(doc["y"]))
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad curve file {path}: {exc}")
    try:
        E = WeierstrassCurve(*coeffs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if not E.contains(P):
        raise ConfigError("point does not lie on the curve")
    return E, P


# The largest TRIAL of --effort.  Trial division past 2**15 sieves up to TRIAL,
# which SECONDS does not cover; the sieve to 10**7 takes about 0.16 s and 50 MB
# on a 2-core x86-64 host.
MAX_TRIAL = 10 ** 7


def _parse_effort(spec: str) -> Effort:
    """Effort spec "TRIAL:RHO_ITERS:SECONDS", e.g. "1000000:10000000:60"."""
    try:
        trial, rho_iters, seconds = spec.split(":")
        effort = Effort(int(trial), int(rho_iters), float(seconds))
    except ValueError:
        raise ConfigError(f"bad effort spec {spec!r}; expected TRIAL:RHO:SECONDS")
    if effort.trial_bound > MAX_TRIAL:
        raise ConfigError(f"bad effort spec {spec!r}; TRIAL may be at most {MAX_TRIAL}")
    return effort


def _prime(s: str) -> int:
    rho = int(s)
    if not is_prime(rho):
        raise argparse.ArgumentTypeError(f"{s} is not prime")
    return rho


def _positive(s: str) -> int:
    value = int(s)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{s} is not positive")
    return value


def _prime_bound(s: str) -> int:
    """An upper bound of a prime range: below 2 the range would be empty."""
    value = int(s)
    if value < 2:
        raise argparse.ArgumentTypeError(f"{s} is below 2, the least prime")
    return value


def _int_list(spec: str) -> List[int]:
    """A comma list of integers, as --tuple and --extra-s take it; a blank field is an error."""
    return [int(x) for x in spec.split(",")]


def _curve_flags(p: argparse.ArgumentParser) -> None:
    """The flags of every subcommand: the curve, the output format and S."""
    p.add_argument("--curve", required=True, help="curve/point JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--extra-s", default="", help="comma list of primes to add to S")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eds")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a denominator table")
    _curve_flags(g)
    g.add_argument("--n-max", type=_positive, required=True)
    g.add_argument("--out", help="output table path (default: ./eds-table-<curve hash>.jsonl)")
    g.add_argument("--max-digits", type=_positive, default=DEFAULT_MAX_DIGITS)

    v = sub.add_parser("verify-law", help="verify the valuation law over a prime range")
    _curve_flags(v)
    v.add_argument("--p-max", type=_prime_bound, required=True)
    v.add_argument("--n-max", type=_positive, default=60)

    o = sub.add_parser("obstruct", help="run obstruction checkers on index tuples")
    _curve_flags(o)
    o.add_argument("--rho", type=_prime, default=2)
    o.add_argument("--effort", default="1000000:10000000:60")
    o.add_argument("--B", type=float, default=2.0)
    o.add_argument("--n-max", type=_positive, help="table range (default: largest tuple entry)")
    o.add_argument("--tuple", action="append", default=[], help="comma list, e.g. 5,3")
    o.add_argument("--tuple-file", help="file with one comma-separated tuple per line")

    d = sub.add_parser("probe-detecting", help="decide detecting-prime existence without factoring")
    _curve_flags(d)
    d.add_argument("--rho", type=_prime, default=2)
    d.add_argument("--l-max", type=_prime_bound, required=True)
    d.add_argument("--l-min", type=_positive, default=2)
    return ap


def _setup(args):
    E, P = load_curve_file(args.curve)
    try:
        extra = _int_list(args.extra_s) if args.extra_s else []
    except ValueError as exc:
        raise ConfigError(f"bad --extra-s: {exc}")
    for p in extra:
        if not is_prime(p):
            raise ConfigError(f"--extra-s entry {p} is not prime")
    S = build_exceptional_set(E, P, extra=extra)
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


# Pieces buffered by _write_json between writes: large enough that writes
# are few, small enough that an obstruct report never exists as one string.
_FLUSH_PIECES = 1024
# The compact sorted encoder, which runs in C for a dict or a list.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_PLAIN = (dict, list, tuple)


def _write_json(doc, out) -> None:
    """Write ``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"`` to ``out``.

    ``json.dumps`` builds the whole document in memory.  This walks dicts,
    lists and tuples itself, encodes strings with the C string encoder,
    hands every other scalar to the compact encoder and writes as it goes,
    so the output is the same bytes.  Keys must be strings.

    A container of a subclass of dict, list or tuple, such as an obstruction
    verdict's dict, is a block: the compact encoder turns it into text at its
    first occurrence, in one C call, and every later occurrence reuses that
    text.  ``doc`` keeps each block alive, so its ``id`` stays unique.
    """
    enc = encode_basestring_ascii
    encode = _encode
    pending: List[str] = []
    put = pending.append
    texts: Dict[int, str] = {}

    def value(o) -> None:
        if isinstance(o, str):
            put(enc(o))
        elif o is None:
            put("null")
        elif o is True:
            put("true")
        elif o is False:
            put("false")
        elif type(o) in _PLAIN:
            container(o)
        elif isinstance(o, _PLAIN):
            text = texts.get(id(o))
            if text is None:
                text = texts[id(o)] = encode(o)
            put(text)
        else:
            put(encode(o))
        if len(pending) >= _FLUSH_PIECES:
            out.write("".join(pending))
            pending.clear()

    def container(o) -> None:
        if isinstance(o, dict):
            sep = "{"
            for k, v in sorted(o.items()):
                put(sep + enc(k) + ":")
                value(v)
                sep = ","
            put("}" if o else "{}")
        else:
            sep = "["
            for x in o:
                put(sep)
                value(x)
                sep = ","
            put("]" if o else "[]")

    value(doc)
    put("\n")
    out.write("".join(pending))


def _emit(doc: dict, fmt: str, text_lines: List[str]) -> None:
    if fmt == "json":
        _write_json(doc, sys.stdout)
    else:
        for line in text_lines:
            print(line)


def cmd_gen(args) -> int:
    E, P, S, minim = _setup(args)
    table = eds_range(E, P, args.n_max, max_digits=args.max_digits)
    out = args.out
    if out is None:
        out = f"eds-table-{table.key}.jsonl"
    try:
        table.dump(out)
    except OSError as exc:
        raise ConfigError(f"cannot write table file {out}: {exc.strerror or exc}")
    digest = table.content_hash()
    shown = table.d_values()[: min(args.n_max, 20)]
    doc = _header(args, S, minim, n_max=args.n_max, max_digits=args.max_digits)
    doc["table_file"] = out
    doc["content_hash"] = digest
    doc["D_prefix"] = [str(d) for d in shown]
    lines = [
        f"table written to {out} ({args.n_max} terms, hash {digest})",
        "D_1..D_%d: %s" % (len(shown), ", ".join(str(d) for d in shown)),
    ]
    if not minim.certified:
        lines.append("WARNING: minimality unverified: " + "; ".join(minim.notes))
    _emit(doc, args.format, lines)
    return EXIT_OK


def cmd_verify_law(args) -> int:
    E, P, S, minim = _setup(args)
    table = eds_range(E, P, args.n_max)
    doc = _header(args, S, minim, p_max=args.p_max, n_max=args.n_max)
    results = []
    lines = []
    violations = 0
    for p in primes_up_to(args.p_max):
        if p in S:
            results.append({"p": str(p), "status": "skipped", "reason": "in exceptional set"})
            lines.append(f"p={p}: skipped (exceptional set)")
            continue
        rep = check_valuation_law(table, S, p)
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
    """The --tuple entries, then the non-blank lines of --tuple-file; a blank field is an error."""
    try:
        specs = list(args.tuple)
        if args.tuple_file:
            with open(args.tuple_file) as fh:
                specs.extend(line for line in fh if line.strip())
        tuples = [_int_list(spec) for spec in specs]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad tuple: {exc}")
    if not tuples:
        raise ConfigError("no tuples given (use --tuple or --tuple-file)")
    for t in tuples:
        if any(x < 1 for x in t):
            raise ConfigError(f"tuple entries must be positive: {t}")
    return tuples


def cmd_obstruct(args) -> int:
    # Imported here: no other subcommand runs the obstruction layer or the oracle.
    from .obstruction import ObstructionContext, evaluate_tuple
    from .relation import test_relation

    if not math.isfinite(args.B) or args.B < 2:
        raise ConfigError("--B must be a finite number of at least 2")
    tuples = _read_tuples(args)
    largest = max(max(t) for t in tuples)
    if args.n_max is not None and args.n_max < largest:
        raise ConfigError(f"--n-max {args.n_max} is below the largest tuple entry {largest}")
    n_max = largest if args.n_max is None else args.n_max
    effort = _parse_effort(args.effort)
    E, P, S, minim = _setup(args)
    table = eds_range(E, P, n_max)
    ctx = ObstructionContext(table, S, args.rho, args.B, effort)
    doc = _header(
        args, S, minim, B=args.B, L_rho=0, n_max=n_max, rho=args.rho,
        sieve_bound=SIEVE_BOUND, effort=args.effort,
    )
    reports = []
    lines = []
    for t in tuples:
        rep = evaluate_tuple(ctx, t)
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
    ls = [l for l in primes_up_to(args.l_max) if l >= args.l_min]
    if not ls:
        raise ConfigError(
            f"--l-min {args.l_min} and --l-max {args.l_max} leave no prime to probe"
        )
    E, P, S, minim = _setup(args)
    doc = _header(args, S, minim, rho=args.rho, l_max=args.l_max, l_min=args.l_min)
    table = eds_range(E, P, ls[-1])
    lines = []
    results = []
    largest_without = None
    for l in ls:
        exists = detecting_prime_exists(s_free_part(table.D(l), S), args.rho)
        if not exists:
            largest_without = l
        results.append({"l": str(l), "detecting_prime_exists": exists})
        lines.append(f"l={l}: {'a detecting prime exists' if exists else 'none'}")
    doc["largest_prime_index_without_detecting_prime"] = (
        str(largest_without) if largest_without else None
    )
    lines.append(
        "largest prime index with no detecting prime: "
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
    except EdskitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CURVE


if __name__ == "__main__":
    sys.exit(main())
