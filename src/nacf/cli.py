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
from .expansion import Params, expand
from .matching import (BadRational, MatchReport, MismatchDetected,
                       bad_rational_certificate, matching_interval,
                       verify_theorem_intervals, _match)
from .orbits import orbit_quadratic, orbit_rational
from .paramspace import DEFAULT_ALPHA_MIN, no_matching_regions, _plot_rows

EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_NEGATIVE, EXIT_INTERNAL = 0, 1, 2, 3, 4

CONFIG_ENV = "NACF_CONFIG"
DEFAULTS = {"budget": 1000, "format": "text", "precision": 10,
            "alpha_min": DEFAULT_ALPHA_MIN}
CONFIG_READERS = {"budget": int, "format": str, "precision": int, "alpha_min": parse_exact}
FORMATS = ("text", "json", "csv")
BADRAT_N_MAX = 10000  # keeps 2^(n+1) inside Python's 4300-digit int-to-str limit
VERIFY_K_VALUES_MAX = 1000  # each value runs up to four family checks
VERIFY_K_MAX = 10_000  # operands grow with k's digits: a value costs ~170x more at 4200
EXPAND_N_MAX = 50_000  # the word is held in memory; its digits grow with n
ORBIT_BUDGET_MAX = 20_000  # its integers grow with each step: 176 MB of output at 20 000
QUADRATIC_BUDGET_MAX = 2500  # its surds outgrow its output: 3 s at 2500 steps, 25 s at 5000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


class _Unbuilt:
    """Stands in for the parser of a subcommand that argv does not name.
    argparse parses only with the parser whose name is an argv token, and the
    top-level usage, help and "invalid choice" lines read just the names and
    help strings, so nothing ever reads this object."""

    def add_argument(self, *args, **kwargs):
        pass

    def add_mutually_exclusive_group(self, **kwargs):
        return self

    def set_defaults(self, **kwargs):
        pass


def _exact(text):
    try:
        return parse_exact(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}")


def _k_range(text):
    try:
        lo, hi = map(int, text.split("..", 1) if ".." in text else (text, text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a k range: {text!r}")
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty k range: {text!r}")
    return range(lo, hi + 1)


def _settings(args) -> dict:
    """The run settings, each settled once: DEFAULTS, overridden by the
    key = value config file named by --config or $NACF_CONFIG, overridden by
    every flag given.  The file may hold blank lines and # comments; any
    other line must set a known key to a readable value.  Precision and
    format are checked here, whatever set them; budget is passed on as
    given, for the command to check."""
    cfg = dict(DEFAULTS)
    path = args.config or os.environ.get(CONFIG_ENV)
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}")
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = (part.strip() for part in line.partition("="))
            if not eq or key not in CONFIG_READERS:
                raise ValueError(f"config file {path}, line {number}: expected key = value "
                                 f"with a key in {', '.join(CONFIG_READERS)}, got {line!r}")
            try:
                cfg[key] = CONFIG_READERS[key](value)
            except ValueError:
                raise ValueError(f"config file {path}: bad {key} value {value!r}") from None
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if not 1 <= cfg["precision"] <= 200:
        raise ValueError(f"precision must be in [1, 200], got {cfg['precision']}")
    if cfg["format"] not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {cfg['format']!r}")
    return cfg


def _emit(obj, fmt):
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
    if args.n > EXPAND_N_MAX:
        raise ValueError(f"expand needs n <= {EXPAND_N_MAX}, got {args.n}")
    p = Params(args.N, args.alpha)
    word = expand(args.x, p, args.n)
    if cfg["format"] == "json":
        print(json.dumps(word.to_json()))
    else:
        print(str(word))
    return EXIT_OK


def _cmd_orbit(args, cfg):
    budget = cfg["budget"]
    quadratic = args.quadratic or not isinstance(args.x, Fraction)
    if budget > ORBIT_BUDGET_MAX:
        raise ValueError(f"orbit needs budget <= {ORBIT_BUDGET_MAX}, got {budget}")
    if quadratic and budget > QUADRATIC_BUDGET_MAX:
        raise ValueError(f"a quadratic orbit needs budget <= {QUADRATIC_BUDGET_MAX}, "
                         f"got {budget}")
    p = Params(args.N, args.alpha)
    if quadratic:
        trace = orbit_quadratic(args.x, p, budget)
    else:
        trace = orbit_rational(args.x, p, budget)
    write = sys.stdout.write
    for line in trace.json_lines():
        write(line + "\n")
    print(str(trace.verdict))
    return EXIT_OK


def _cmd_match(args, cfg):
    budget = cfg["budget"]
    report, orbits = _match(args.alpha, args.N, budget)
    out = report.to_json()
    out["certificates"] = []
    matched = isinstance(report, MatchReport)
    if matched and args.N == 2:
        try:
            mi = orbits.interval(min(budget, 64))
        except BadRational:
            out["stable_exponents"] = None
        else:
            out["stable_exponents"] = [mi.K, mi.L]
            out["interval"] = mi.interval.to_json()
            out["interval_text"] = _interval_text(mi.interval, cfg["precision"])
    elif orbits is None:  # the certificate answered
        out["certificates"].append(report.obstruction.to_json())
    _emit(out, cfg["format"])
    return EXIT_OK if matched else EXIT_NEGATIVE


def _cmd_interval(args, cfg):
    try:
        mi = matching_interval(args.alpha, args.N, budget=cfg["budget"])
    except BadRational as exc:
        out = {"alpha": format_exact(exc.alpha), "N": exc.N,
               "bad_rational_candidate": True, "proved": exc.proved}
        alpha = exc.alpha
        if alpha.numerator == 1 and alpha.denominator >= 8 \
                and alpha.denominator & (alpha.denominator - 1) == 0:
            cert = bad_rational_certificate(alpha.denominator.bit_length() - 1)
            out["certificate"] = cert.to_json()
        _emit(out, cfg["format"])
        return EXIT_NEGATIVE
    out = mi.to_json()
    out["interval_text"] = _interval_text(mi.interval, cfg["precision"])
    _emit(out, cfg["format"])
    return EXIT_OK


def _cmd_badrat(args, cfg):
    if args.n > BADRAT_N_MAX:
        raise ValueError(f"badrat needs n <= {BADRAT_N_MAX}, got {args.n}")
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
    rows = _plot_rows(n_max, cfg["precision"], cfg["alpha_min"], n_min)
    write = sys.stdout.write
    if cfg["format"] == "json":  # each row's bytes are json.dumps of its dict
        sep = "["
        for n, lo, hi, in_k, digit_lo, digit_hi in rows:
            write(f'{sep}{{"N": {n}, "lo": "{lo}", "hi": "{hi}", '
                  f'"in_K": {"true" if in_k else "false"}, '
                  f'"digit_lo": {digit_lo}, "digit_hi": {digit_hi}}}')
            sep = ", "
        write("]\n")
    else:  # the header goes out with the first row, so a bad input prints nothing
        head = "N,lo,hi,in_K,digit_lo,digit_hi\n"
        for n, lo, hi, in_k, digit_lo, digit_hi in rows:
            write(f"{head}{n},{lo},{hi},{in_k},{digit_lo},{digit_hi}\n")
            head = ""
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
    if len(args.k) > VERIFY_K_VALUES_MAX:
        raise ValueError(f"verify takes at most {VERIFY_K_VALUES_MAX} k values, "
                         f"got {len(args.k)}")
    lo, hi = min(args.k), max(args.k)
    if lo < 0:  # the closed-form families are defined for k >= 0
        raise ValueError(f"verify needs k >= 0, got {lo}")
    if hi > VERIFY_K_MAX:
        raise ValueError(f"verify needs |k| <= {VERIFY_K_MAX}, got {hi}")
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


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The nacf parser.  Given the argv it is to parse, only the subcommands
    named in argv get a real parser; with no argv every subcommand does."""
    named = None if argv is None else set(argv)

    def subparser(**kwargs):  # kwargs["prog"] is "nacf <name>"
        if named is None or kwargs["prog"].rpartition(" ")[2] in named:
            return _Parser(**kwargs)
        return _Unbuilt()

    top = _Parser(prog="nacf", description=__doc__)
    top.add_argument("--config", help="path to a key=value config file")
    top.add_argument("--format", choices=FORMATS)
    top.add_argument("--precision", type=int)
    sub = top.add_subparsers(dest="command", required=True, parser_class=subparser)

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
    sp.add_argument("--budget", type=int, default=40)  # a config-file budget never reaches it
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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        code = args.fn(args, _settings(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`nacf kset ... | head`).  Point fd 1
        # at devnull, so the flush at interpreter exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except ValueError as exc:  # OutOfDomain and NotApplicable among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (MismatchDetected, RuntimeError) as exc:  # InvariantViolation is one
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
