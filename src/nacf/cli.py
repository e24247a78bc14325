"""Command-line front end.

Subcommands: expand, orbit, match, interval, badrat, kset, nomatch-regions,
verify.  Inputs are exact only ("p/q" or "(a+b*sqrt(d))/c"); decimals are
rejected.  Exit codes: 0 success, 1 parse error, 2 domain error, 3 a
certified negative result, 4 internal invariant or closed-form mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .exact import decimal_str, format_exact, parse_exact
from .expansion import OutOfDomain, Params, expand
from .matching import (BadRational, MatchReport, MismatchDetected,
                       NoMatchWithinBudget, bad_rational_certificate,
                       detect_matching, matching_interval,
                       verify_theorem_intervals)
from .orbits import InvariantViolation, orbit_quadratic, orbit_rational
from .paramspace import NotApplicable, emit_kset_plot_data, no_matching_regions

EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_NEGATIVE, EXIT_INTERNAL = 0, 1, 2, 3, 4

CONFIG_ENV = "NACF_CONFIG"
DEFAULTS = {"budget": 1000, "format": "text", "precision": 10,
            "alpha_min": Fraction(1, 100)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_PARSE)


def _load_config(path):
    cfg = dict(DEFAULTS)
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return cfg
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key in ("budget", "precision"):
                cfg[key] = int(value)
            elif key == "alpha_min":
                cfg[key] = parse_exact(value)
            elif key == "format":
                cfg[key] = value
    if cfg["budget"] < 1 or not 1 <= cfg["precision"] <= 200:
        raise ValueError("config: budget >= 1 and precision in [1, 200] required")
    return cfg


def _exact(text):
    try:
        return parse_exact(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}")


def _k_range(text):
    lo, hi = map(int, text.split("..", 1) if ".." in text else (text, text))
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty k range: {text!r}")
    return range(lo, hi + 1)


def _emit(obj, fmt, precision):
    if fmt == "json":
        print(json.dumps(obj, indent=None, sort_keys=True))
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def _interval_text(iv, precision):
    lo, hi = format_exact(iv.lo), format_exact(iv.hi)
    return (f"{'(' if iv.lo_open else '['}{lo} ~ {decimal_str(iv.lo, precision)}, "
            f"{hi} ~ {decimal_str(iv.hi, precision)}{')' if iv.hi_open else ']'}")


def _cmd_expand(args, cfg):
    p = Params(args.N, args.alpha)
    word = expand(args.x, p, args.n)
    if cfg["format"] == "json":
        print(json.dumps(word.to_json()))
    else:
        print(str(word))
    return EXIT_OK


def _cmd_orbit(args, cfg):
    p = Params(args.N, args.alpha)
    budget = args.budget or cfg["budget"]
    if args.quadratic or not isinstance(args.x, Fraction):
        trace = orbit_quadratic(args.x, p, budget)
    else:
        trace = orbit_rational(args.x, p, budget)
    for record in trace.json_lines():
        print(json.dumps(record, sort_keys=True))
    print(str(trace.verdict))
    return EXIT_OK


def _cmd_match(args, cfg):
    budget = args.budget or cfg["budget"]
    report = detect_matching(args.alpha, args.N, budget)
    out = report.to_json()
    out["certificates"] = []
    if isinstance(report, MatchReport) and args.N == 2:
        try:
            mi = matching_interval(args.alpha, 2, budget=min(budget, 64))
            out["stable_exponents"] = [mi.K, mi.L]
            out["interval"] = mi.interval.to_json()
            out["interval_text"] = _interval_text(mi.interval, cfg["precision"])
        except BadRational:
            out["stable_exponents"] = None
    elif isinstance(report, NoMatchWithinBudget) and report.obstruction is not None:
        out["certificates"].append(report.obstruction.to_json())
    _emit(out, cfg["format"], cfg["precision"])
    if not isinstance(report, MatchReport):
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_interval(args, cfg):
    budget = args.budget or 40
    try:
        mi = matching_interval(args.alpha, args.N, budget=budget)
    except BadRational as exc:
        out = {"alpha": format_exact(exc.alpha), "N": exc.N,
               "bad_rational_candidate": True}
        alpha = exc.alpha
        if alpha.numerator == 1 and alpha.denominator >= 8 \
                and alpha.denominator & (alpha.denominator - 1) == 0:
            cert = bad_rational_certificate(alpha.denominator.bit_length() - 1)
            out["certificate"] = cert.to_json()
        _emit(out, cfg["format"], cfg["precision"])
        return EXIT_NEGATIVE
    out = mi.to_json()
    out["interval_text"] = _interval_text(mi.interval, cfg["precision"])
    _emit(out, cfg["format"], cfg["precision"])
    return EXIT_OK


def _cmd_badrat(args, cfg):
    cert = bad_rational_certificate(args.n)
    if cfg["format"] == "json":
        print(json.dumps(cert.to_json(), sort_keys=True))
    else:
        print(f"alpha = {format_exact(cert.alpha)}")
        print(f"expansion of alpha:     {cert.word_alpha}")
        print(f"expansion of alpha+1:   {cert.word_alpha_plus_one}")
        print(f"point match exponents:  {cert.point_exponents}")
        print(f"RM = {cert.rm.entries()}  M = {cert.m4.entries()}")
        print("mod-2 classes [[1,1],[1,1]] and [[0,0],[1,1]] are closed under "
              "appending digit 1; no exponent pair is projectively equivalent")
        print(f"certificate valid: {cert.valid}")
    return EXIT_OK if cert.valid else EXIT_INTERNAL


def _cmd_kset(args, cfg):
    n_min, n_max = (2, args.n_max) if args.N is None else (args.N, args.N)
    rows = emit_kset_plot_data(n_max, cfg["precision"], cfg["alpha_min"], n_min=n_min)
    if cfg["format"] == "json":
        print(json.dumps([{"N": r[0], "lo": r[1], "hi": r[2], "in_K": r[3],
                           "digit_lo": r[4], "digit_hi": r[5]} for r in rows]))
    else:
        print("N,lo,hi,in_K,digit_lo,digit_hi")
        for r in rows:
            print(",".join(str(v) for v in r))
    return EXIT_OK


def _cmd_nomatch_regions(args, cfg):
    regions = no_matching_regions(args.N)
    if cfg["format"] == "json":
        print(json.dumps([r.to_json() for r in regions]))
    else:
        for r in regions:
            print(_interval_text(r, cfg["precision"]))
    return EXIT_OK


def _cmd_verify(args, cfg):
    fams = ["i", "ii", "iii", "iv"] if args.family == "all" else [args.family]
    matrices_only = args.what == "table"
    failed = 0
    for fam in fams:
        checks = verify_theorem_intervals(fam, args.k, matrices_only=matrices_only)
        good = sum(1 for c in checks if c.ok)
        print(f"family {fam}: {good}/{len(checks)} pass")
        for c in checks:
            if not c.ok:
                failed += 1
                print(f"  k={c.k}: MISMATCH in {', '.join(c.failures)}")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="nacf", description=__doc__)
    top.add_argument("--config", help="path to a key=value config file")
    top.add_argument("--format", choices=["text", "json", "csv"])
    top.add_argument("--precision", type=int)
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expand", help="first digits of an expansion")
    sp.add_argument("--x", type=_exact, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--alpha", type=_exact, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_expand)

    sp = sub.add_parser("orbit", help="exact orbit trace with cycle detection")
    sp.add_argument("--x", type=_exact, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--alpha", type=_exact, required=True)
    sp.add_argument("--budget", type=int)
    sp.add_argument("--quadratic", action="store_true")
    sp.set_defaults(fn=_cmd_orbit)

    sp = sub.add_parser("match", help="minimal matched pair of the endpoint orbits")
    sp.add_argument("--alpha", type=_exact, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--budget", type=int)
    sp.set_defaults(fn=_cmd_match)

    sp = sub.add_parser("interval", help="stable exponents and matching interval (N=2)")
    sp.add_argument("--alpha", type=_exact, required=True)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--budget", type=int)
    sp.set_defaults(fn=_cmd_interval)

    sp = sub.add_parser("badrat", help="mod-2 certificate for alpha = 1/2^n")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(fn=_cmd_badrat)

    sp = sub.add_parser("kset", help="digit-set cells and the coprime region")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--N", type=int)
    group.add_argument("--n-max", type=int, dest="n_max")
    sp.add_argument("--alpha-min", type=_exact, dest="alpha_min")
    sp.set_defaults(fn=_cmd_kset)

    sp = sub.add_parser("nomatch-regions", help="no-matching intervals for odd N >= 5")
    sp.add_argument("--N", type=int, required=True)
    sp.set_defaults(fn=_cmd_nomatch_regions)

    sp = sub.add_parser("verify", help="recompute the closed-form families")
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--theorem", dest="what", action="store_const",
                       const="theorem", default="theorem")
    group.add_argument("--table", dest="what", action="store_const", const="table")
    sp.add_argument("--family", choices=["i", "ii", "iii", "iv", "all"],
                    default="all")
    sp.add_argument("--k", type=_k_range, default=range(0, 1))
    sp.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        cfg = _load_config(args.config)
        if args.format:
            cfg["format"] = args.format
        if args.precision is not None:
            cfg["precision"] = args.precision
        if getattr(args, "alpha_min", None) is not None:
            cfg["alpha_min"] = args.alpha_min
        return args.fn(args, cfg)
    except (OutOfDomain, NotApplicable, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (InvariantViolation, MismatchDetected, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
