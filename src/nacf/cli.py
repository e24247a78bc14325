"""Command-line front end.

Subcommands: expand, orbit, match, interval, badrat, kset, nomatch-regions,
verify.  Inputs are exact only ("p/q" or "(a+b*sqrt(d))/c"); decimals are
rejected.  Exit codes: 0 success, 1 parse error, 2 domain error, 3 a
certified negative result, 4 internal invariant or closed-form mismatch.

One table, GLOBAL_OPTIONS and COMMANDS, declares every option: build_parser()
builds argparse's parser from it and _parse() reads a canonical argv with it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from .exact import decimal_str, format_exact, parse_exact, _int, _int_str
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
# the surds of a quadratic orbit or a surd's expansion outgrow the output: under
# 3 s at 2500 steps, but an orbit takes 25 s at 5000 and expand 42 s at 10000
QUADRATIC_BUDGET_MAX = 2500
MATCH_BUDGET_MAX = 20_000  # its orbits are held: 1 s, 45 MB at 20 000; 1.3 GB past 30 s at 10^8
# the first row waits on one gcd per residue of N: 0.3 s at 10^6, 2.4 s at 10^7
KSET_N_MAX = 10_000_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _exact(text):
    try:
        return parse_exact(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exact number: {text!r}")


_DIGITS = re.compile(r"[+-]?[0-9]+")


def _whole(text):
    """int(text); a plain digit string that int() refuses for its length
    (past 4300 digits on Python 3.11+) goes through exact._int, and any
    other text int() refuses gets argparse's own message for an int option."""
    try:
        return int(text)
    except ValueError:
        if _DIGITS.fullmatch(text):
            return _int(text)
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


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


def _json(obj, **kw) -> str:
    """json.dumps(obj, **kw).  From Python 3.11 on, json.dumps refuses an
    integer past sys.get_int_max_str_digits() digits; that is a domain
    error here, raised before any of the record is written."""
    try:
        return json.dumps(obj, **kw)
    except ValueError:
        raise ValueError(f"an integer in the JSON output has more than "
                         f"{sys.get_int_max_str_digits()} digits; use --format text") from None


def _emit(obj, fmt):
    if fmt == "json":
        print(_json(obj, sort_keys=True))
    else:
        for key, value in obj.items():
            print(f"{key}: {_int_str(value) if isinstance(value, int) else value}")


def _interval_text(iv, precision):
    lo, hi = format_exact(iv.lo), format_exact(iv.hi)
    return (f"{'(' if iv.lo_open else '['}{lo} ~ {decimal_str(iv.lo, precision)}, "
            f"{hi} ~ {decimal_str(iv.hi, precision)}{')' if iv.hi_open else ']'}")


def _cmd_expand(args, cfg):
    if args.n > EXPAND_N_MAX:
        raise ValueError(f"expand needs n <= {EXPAND_N_MAX}, got {_int_str(args.n)}")
    if not isinstance(args.x, Fraction) and args.n > QUADRATIC_BUDGET_MAX:
        raise ValueError(f"expand of a surd needs n <= {QUADRATIC_BUDGET_MAX}, "
                         f"got {_int_str(args.n)}")
    p = Params(args.N, args.alpha)
    word = expand(args.x, p, args.n)
    if cfg["format"] == "json":
        print(_json(word.to_json()))
    else:
        print(str(word))
    return EXIT_OK


def _cmd_orbit(args, cfg):
    budget = cfg["budget"]
    quadratic = args.quadratic or not isinstance(args.x, Fraction)
    if budget > ORBIT_BUDGET_MAX:
        raise ValueError(f"orbit needs budget <= {ORBIT_BUDGET_MAX}, got {_int_str(budget)}")
    if quadratic and budget > QUADRATIC_BUDGET_MAX:
        raise ValueError(f"a quadratic orbit needs budget <= {QUADRATIC_BUDGET_MAX}, "
                         f"got {_int_str(budget)}")
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
    if budget > MATCH_BUDGET_MAX:
        raise ValueError(f"match needs budget <= {MATCH_BUDGET_MAX}, got {_int_str(budget)}")
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
        raise ValueError(f"badrat needs n <= {BADRAT_N_MAX}, got {_int_str(args.n)}")
    cert = bad_rational_certificate(args.n)
    if cfg["format"] == "json":
        print(_json(cert.to_json(), sort_keys=True))
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
    if args.N is not None and args.N > KSET_N_MAX:
        raise ValueError(f"kset needs N <= {KSET_N_MAX}, got {_int_str(args.N)}")
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
        print(_json([r.to_json() for r in regions]))
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


class _Exclusive(NamedTuple):
    """Options of which a run gives at most one, or exactly one if required."""
    required: bool
    options: tuple


_REQ_EXACT = {"type": _exact, "required": True}
_REQ_INT = {"type": _whole, "required": True}

# Every option, declared once as (flag, add_argument keywords), and every
# subcommand as (help, function, options).
GLOBAL_OPTIONS = (("--config", {"help": "path to a key=value config file"}),
                  ("--format", {"choices": FORMATS}),
                  ("--precision", {"type": int}))
COMMANDS = {
    "expand": ("first digits of an expansion", _cmd_expand,
               (("--x", _REQ_EXACT), ("--N", _REQ_INT), ("--alpha", _REQ_EXACT),
                ("--n", _REQ_INT))),
    "orbit": ("exact orbit trace with cycle detection", _cmd_orbit,
              (("--x", _REQ_EXACT), ("--N", _REQ_INT), ("--alpha", _REQ_EXACT),
               ("--budget", {"type": _whole}), ("--quadratic", {"action": "store_true"}))),
    "match": ("minimal matched pair of the endpoint orbits", _cmd_match,
              (("--alpha", _REQ_EXACT), ("--N", _REQ_INT), ("--budget", {"type": _whole}))),
    "interval": ("stable exponents and matching interval (N=2)", _cmd_interval,
                 (("--alpha", _REQ_EXACT), ("--N", {"type": _whole, "default": 2}),
                  # a config-file budget never reaches this default
                  ("--budget", {"type": _whole, "default": 40}))),
    "badrat": ("mod-2 certificate for alpha = 1/2^n", _cmd_badrat, (("--n", _REQ_INT),)),
    "kset": ("digit-set cells and the coprime region", _cmd_kset,
             (_Exclusive(True, (("--N", {"type": _whole}),
                                ("--n-max", {"type": int, "dest": "n_max"}))),
              ("--alpha-min", {"type": _exact, "dest": "alpha_min"}))),
    "nomatch-regions": ("no-matching intervals for odd N >= 5", _cmd_nomatch_regions,
                        (("--N", _REQ_INT),)),
    "verify": ("recompute the closed-form families", _cmd_verify,
               (_Exclusive(False, (("--theorem", {"dest": "what", "action": "store_const",
                                                  "const": "theorem", "default": "theorem"}),
                                   ("--table", {"dest": "what", "action": "store_const",
                                                "const": "table"}))),
                ("--family", {"choices": ["i", "ii", "iii", "iv", "all"], "default": "all"}),
                ("--k", {"type": _k_range, "default": range(0, 1)}))),
}


def _index(options) -> dict:
    """{flag: (dest, keywords)} of options, groups opened, in table order."""
    flat = [o for e in options for o in (e.options if isinstance(e, _Exclusive) else (e,))]
    return {flag: (kw.get("dest", flag[2:].replace("-", "_")), kw) for flag, kw in flat}


_GLOBAL_INDEX = _index(GLOBAL_OPTIONS)
_COMMAND_INDEX = {name: _index(options) for name, (_, _, options) in COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    """The full nacf parser, built from GLOBAL_OPTIONS and COMMANDS."""
    # the docstring's last paragraph is for readers of this file, not of -h
    top = _Parser(prog="nacf", description=__doc__ and __doc__.rsplit("\n\n", 1)[0])
    for flag, kw in GLOBAL_OPTIONS:
        top.add_argument(flag, **kw)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, fn, options) in COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for entry in options:
            if isinstance(entry, _Exclusive):
                group = sp.add_mutually_exclusive_group(required=entry.required)
                for flag, kw in entry.options:
                    group.add_argument(flag, **kw)
            else:
                sp.add_argument(entry[0], **entry[1])
        sp.set_defaults(fn=fn)
    return top


def _read(argv, i, index, given):
    """Read options of index from argv[i:] into given ({flag: value}) up to
    the first token that is none of them, and return its position; None if
    an option repeats or its value is missing, starts with '-', or fails its
    type or choices."""
    while i < len(argv) and argv[i] in index:
        flag = argv[i]
        if flag in given:
            return None
        kw = index[flag][1]
        if "action" in kw:  # store_true or store_const: no value follows
            value = kw.get("const", True)
        else:
            i += 1
            if i == len(argv) or argv[i].startswith("-"):
                return None
            value = argv[i]
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except (ValueError, TypeError, argparse.ArgumentTypeError):
                    return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        given[flag] = value
        i += 1
    return i


def _parse(argv):
    """The Namespace of build_parser().parse_args(argv), read straight from
    the option table, when argv is canonical: global options, an exact
    subcommand name, then that subcommand's options, each by its exact flag
    at most once, with every required option and exclusive group kept.  None
    otherwise: argparse then parses argv or writes its help or error."""
    given = {}
    i = _read(argv, 0, _GLOBAL_INDEX, given)
    if i is None or i == len(argv) or argv[i] not in COMMANDS:
        return None
    command = argv[i]
    if _read(argv, i + 1, _COMMAND_INDEX[command], given) != len(argv):
        return None
    _, fn, options = COMMANDS[command]
    for entry in options:
        if isinstance(entry, _Exclusive):
            count = sum(flag in given for flag, _ in entry.options)
            if count > 1 or entry.required and not count:
                return None
    values = {dest: given.get(flag, kw.get("default"))
              for flag, (dest, kw) in _GLOBAL_INDEX.items()}
    values["command"] = command
    for flag, (dest, kw) in _COMMAND_INDEX[command].items():
        if flag in given:
            values[dest] = given[flag]
        elif kw.get("required"):
            return None
        elif dest not in values:
            values[dest] = kw.get("default", False if kw.get("action") == "store_true" else None)
    values["fn"] = fn
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
