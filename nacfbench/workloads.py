"""Seeded item lists for the three workloads, each item with its check.

The seed picks parameters; it never changes how many items of each kind a
workload has.  Items of one kind are drawn from cost strata (a graded cost
target, or a stratum of a population ranked by a cost proxy), so that the
total work and its spread over items barely move from seed to seed.

Every check compares the CLI's exit code and output with answers computed
by :mod:`oracle`, which never imports nacf.  A check returns None when the
output is right and a short reason otherwise.  An item may name a known
defect: the start of the error its CLI call is documented to raise.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle as O

EXIT_OK, EXIT_NEGATIVE, EXIT_INTERNAL = 0, 3, 4


@dataclass(frozen=True)
class Item:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str], Optional[str]]
    known_defect: Optional[str] = None


def _graded(i: int, count: int, lo: float, hi: float) -> float:
    return lo if count == 1 else lo + (hi - lo) * i / (count - 1)


def _strata(population: list, count: int) -> list[list]:
    """`count` contiguous, nearly equal slices of a ranked population."""
    size = len(population)
    return [population[i * size // count:(i + 1) * size // count] for i in range(count)]


def rationals(q_max: int, lo: Fraction, hi_sq: int, offset: int = 0) -> list[Fraction]:
    """p/q with q <= q_max, p/q > lo and (p/q + offset)^2 <= hi_sq."""
    return sorted({Fraction(p, q) for q in range(1, q_max + 1) for p in range(1, 3 * q)
                   if Fraction(p, q) > lo and (p + offset * q) ** 2 <= hi_sq * q * q})


# -- checks ---------------------------------------------------------------

def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_kset(ns, alpha_min: Fraction, fmt: str):
    def check(code, out):
        rows = [row for n in ns for row in O.kset_rows(n, alpha_min)]
        if code != EXIT_OK:
            return f"exit {code}"
        if fmt == "json":
            want = [dict(zip(("N", "lo", "hi", "in_K", "digit_lo", "digit_hi"), r)) for r in rows]
            return None if _json(out) == want else "cells differ"
        want = ["N,lo,hi,in_K,digit_lo,digit_hi"] + [",".join(map(str, r)) for r in rows]
        return None if out.splitlines() == want else "cells differ"
    return check


def check_nomatch(n: int):
    def check(code, out):
        text, coprime = O.nomatch_region(n)
        if not coprime:
            return None if code == EXIT_INTERNAL else f"exit {code}, want 4"
        if code != EXIT_OK:
            return f"exit {code}"
        return None if out.strip() == text else "region differs"
    return check


def _stable_problems(alpha: Fraction, budget: int, exponents, interval, text) -> Optional[str]:
    pair, da, db, _ = O.stable_pair(2, alpha, budget)
    if pair is None:
        return None if exponents is None else "stable pair where none exists"
    if exponents is None or tuple(exponents) != pair:
        return f"stable exponents {exponents}, want {list(pair)}"
    return "; ".join(O.interval_problems(2, alpha, da, db, *pair, interval, text)) or None


def check_interval(alpha: Fraction, budget: int):
    def check(code, out):
        got = _json(out)
        if not isinstance(got, dict) or got.get("alpha") != O.fmt(alpha) or got.get("N") != 2:
            return f"exit {code}, unreadable output"
        pair = O.stable_pair(2, alpha, budget)[0]
        if pair is None:
            if code != EXIT_NEGATIVE or got.get("bad_rational_candidate") is not True:
                return f"exit {code}, want a bad-rational candidate"
            q = alpha.denominator
            if alpha.numerator == 1 and q >= 8 and q & (q - 1) == 0 \
                    and got.get("certificate", {}).get("valid") is not True:
                return "missing valid mod-2 certificate"
            return None
        if code != EXIT_OK:
            return f"exit {code}"
        return _stable_problems(alpha, budget, [got.get("K"), got.get("L")],
                                got.get("interval"), got.get("interval_text"))
    return check


def check_match(n: int, alpha: Fraction, budget: int):
    def check(code, out):
        got = _json(out)
        if not isinstance(got, dict) or got.get("alpha") != O.fmt(alpha) or got.get("N") != n:
            return f"exit {code}, unreadable output"
        hit = O.minimal_match(n, alpha, budget)
        if hit is None:
            if code != EXIT_NEGATIVE or got.get("match", 0) is not None \
                    or got.get("budget") != budget:
                return f"exit {code}, want a certified miss"
            holds = O.obstruction_holds(n, alpha)
            obs = got.get("obstruction")
            if (obs is not None and obs.get("holds") is True) != holds:
                return "obstruction verdict"
            return None if got.get("certificates") == ([obs] if holds else []) else "certificates"
        k, l, value = hit
        if code != EXIT_OK:
            return f"exit {code}"
        if (got.get("K"), got.get("L"), got.get("index"), got.get("matched_value")) != \
                (k, l, k - l, O.fmt(value)):
            return f"match {got.get('K')},{got.get('L')}, want {k},{l}"
        (_, da), (_, db) = O.endpoint_orbits(n, alpha, max(k, l))
        stable = "stable" if O.stable_at(n, da, db, k, l) else \
            "unstable" if n == 2 else "unknown-for-this-N"
        if got.get("stable") != stable:
            return f"stability {got.get('stable')}, want {stable}"
        if n != 2:
            return None
        return _stable_problems(alpha, min(budget, 64), got.get("stable_exponents"),
                                got.get("interval"), got.get("interval_text"))
    return check


def _check_lines(want_lines: list[dict], verdict: str, code: int, out: str) -> Optional[str]:
    if code != EXIT_OK:
        return f"exit {code}"
    lines = out.splitlines()
    if len(lines) != len(want_lines) + 1:
        return f"{len(lines) - 1} states, want {len(want_lines)}"
    if lines[-1] != verdict:
        return f"verdict {lines[-1]!r}, want {verdict!r}"
    for got, want in zip(lines, want_lines):
        if _json(got) != want:
            return f"state {want['n']} differs"
    return None


def check_orbit(n: int, alpha: Fraction, x0: Fraction, budget: int):
    def check(code, out):
        return _check_lines(*O.rational_orbit_lines(n, alpha, x0, budget), code, out)
    return check


def check_quad_orbit(n: int, alpha: Fraction, x0: O.Quad, budget: int):
    def check(code, out):
        return _check_lines(*O.quad_orbit_lines(n, alpha, x0, budget), code, out)
    return check


FAMILIES = ("i", "ii", "iii", "iv")


def check_verify(ks: range):
    """The documented state of the closed forms: family iii fails for k >= 4
    (its first digit is 11+4k there, not 10+4k) and the run exits 4; every
    other member passes."""
    def check(code, out):
        failing = {"iii": [k for k in ks if k >= 4]}
        want = []
        for fam in FAMILIES:
            bad = failing.get(fam, [])
            want.append(f"family {fam}: {len(ks) - len(bad)}/{len(ks)} pass")
            want.extend(f"  k={k}: MISMATCH in" for k in bad)
        lines = out.splitlines()
        if len(lines) != len(want) or any(not g.startswith(w) for g, w in zip(lines, want)):
            return "family summary differs"
        want_code = EXIT_INTERNAL if failing["iii"] else EXIT_OK
        return None if code == want_code else f"exit {code}, want {want_code}"
    return check


# -- workloads --------------------------------------------------------------

def _tri(m: int) -> int:
    return m * (m + 1) // 2 - 1            # 2 + 3 + ... + m


def cells(rng: random.Random, size: dict) -> list[Item]:
    """Digit-set cells: kset for one N and for N = 2..m, nomatch-regions.

    kset(N, alpha_min) has about N/alpha_min + N breakpoints, so each kset
    item gets a graded breakpoint total T, the seed picks the N, and
    alpha_min = S/(T - S) where S is the sum of those N.  Per breakpoint,
    `--n-max m` costs up to 1.6x more for small m than for large m, so the
    seed picks m among the three largest that keep alpha_min <= 1/3, where
    that cost is nearly flat.  nomatch-regions costs grow with N, so its N come in pairs that sum to 16; they cost a
    little more than the largest kset item, which keeps the cost profile
    free of jumps around the median and p75 that the metrics read.
    """
    items = []
    count = size["kset_n"]
    for i in range(count):
        target = round(_graded(i, count, 100, 700))
        n = rng.randint(12, 30)
        alpha_min = Fraction(n, target - n)
        fmt = ("csv", "json")[i % 2]
        items.append(Item("kset", ("--format", fmt, "kset", "--N", str(n),
                                   "--alpha-min", O.fmt(alpha_min)),
                          check_kset([n], alpha_min, fmt)))
    count = size["kset_nmax"]
    for i in range(count):
        target = round(_graded(i, count, 100, 700))
        m = rng.choice([m for m in range(3, 25) if _tri(m) <= 0.25 * target][-3:])
        alpha_min = Fraction(_tri(m), target - _tri(m))
        fmt = ("json", "csv")[i % 2]
        items.append(Item("kset-nmax", ("--format", fmt, "kset", "--n-max", str(m),
                                        "--alpha-min", O.fmt(alpha_min)),
                          check_kset(range(2, m + 1), alpha_min, fmt)))
    n = 9
    for i in range(size["nomatch"]):
        n = rng.choice((7, 9)) if i % 2 == 0 else 16 - n
        items.append(Item("nomatch", ("nomatch-regions", "--N", str(n)), check_nomatch(n)))
    rng.shuffle(items)
    return items


def _scan_population(budget: int):
    """p/q with q <= 40 in (0, sqrt(2)-1], split into bad rationals (no stable
    pair within the budget) ranked by pairs scanned, and matched ones."""
    bad, matched = [], []
    for alpha in rationals(40, Fraction(0), 2, offset=1):
        pair, _, _, pairs = O.stable_pair(2, alpha, budget)
        if pair is None:
            bad.append((sum(k + l for _, k, l in pairs), alpha))
        else:
            matched.append(alpha)
    return [a for _, a in sorted(bad)], matched


def scan(rng: random.Random, size: dict) -> list[Item]:
    """N = 2 matching: interval and match over a stratified sample, verify.

    Bad rationals (about 30x slower than matched ones) make up 161 of the
    203 alphas of the full scan, and each kind draws them in that
    proportion, so the split is fixed and is the population's own.  Bad
    rationals are drawn one per stratum of a ranking by the number of
    matched pairs the stability scan has to test.  The item costs form two
    modes, and the median and the tail both read the slow one, far from the
    boundary near the 21st percentile.
    """
    budget = 40
    bad, matched = _scan_population(budget)
    items = []
    for kind in ("interval", "match"):
        count = size[kind]
        nbad = round(count * len(bad) / (len(bad) + len(matched)))
        alphas = [rng.choice(s) for s in _strata(bad, nbad)] + \
                 [rng.choice(s) for s in _strata(matched, count - nbad)]
        for alpha in alphas:
            if kind == "interval":
                argv = ("--format", "json", "interval", "--alpha", O.fmt(alpha),
                        "--budget", str(budget))
                check = check_interval(alpha, budget)
            else:
                argv = ("--format", "json", "match", "--alpha", O.fmt(alpha), "--N", "2",
                        "--budget", str(budget))
                check = check_match(2, alpha, budget)
            items.append(Item(kind, argv, check))
    width = size["verify_width"]
    for i in range(size["verify"]):
        a = rng.choice((2 * i, 2 * i + 1))
        ks = range(a, a + width)
        items.append(Item("verify", ("verify", "--family", "all", "--k", f"{a}..{a + width - 1}"),
                          check_verify(ks)))
    rng.shuffle(items)
    return items


# Orbits grow by about log(N/x) bits a step, so parameters come from one
# narrow band of the coprime region (1, sqrt(N)-1] per N.
BANDS = {5: (Fraction(11, 10), Fraction(6, 5)), 7: (Fraction(13, 10), Fraction(7, 5))}


def _coprime_alphas(n: int) -> list[Fraction]:
    """Rational parameters in the band of N with every digit coprime to N and
    N dividing neither t0 nor t0 + s0."""
    lo, hi = BANDS[n]
    return [a for a in rationals(20, lo, n, offset=1)
            if a <= hi and O.coprime_digits(n, a)
            and a.numerator % n and (a.numerator + a.denominator) % n]


def _point_in(rng: random.Random, alpha: Fraction) -> Fraction:
    q = rng.randint(2, 30)
    lo, hi = math.ceil(alpha * q), math.floor((alpha + 1) * q)
    return Fraction(rng.randint(lo, hi), q)


def _quad_in(rng: random.Random, n: int, alpha: Fraction) -> O.Quad:
    """A surd in [alpha, alpha+1] whose orbit is certified non-periodic."""
    while True:
        d, b, c = rng.choice((2, 3, 6, 10, 11, 13, 14, 15)), rng.randint(1, 2), rng.randint(1, 6)
        root = math.isqrt(b * b * d)
        lo, hi = math.floor(alpha * c) - root, math.ceil((alpha + 1) * c) - root
        x = O.quad(rng.randint(lo, hi), b, d, c)
        if isinstance(x, O.Quad) and not O.less(x, alpha) and not O.less(alpha + 1, x) \
                and O.certified_nonperiodic_quad(n, alpha, x):
            return x


def _mirrored(rng: random.Random, pool: list):
    """Endless picks from a ranked pool in mirrored pairs (k, len-1-k): each
    pick varies with the seed, the mean rank of a pair does not."""
    while True:
        k = rng.randrange(len(pool))
        yield pool[k]
        yield pool[-1 - k]


# `match --N 3` on parameters that do match builds its report and then reads a
# field the report does not have.  Until that is fixed these items fail.
MATCH_N3_DEFECT = "AttributeError: 'MatchReport' object has no attribute 'obstruction'"


def _n3_matching(budget: int) -> list[Fraction]:
    return [a for a in rationals(30, Fraction(0), 3, offset=1)
            if O.minimal_match(3, a, budget) is not None]


def deep(rng: random.Random, size: dict) -> list[Item]:
    """Long exact computations in the coprime region, with budgets in the
    thousands so operands reach thousands of bits, plus N = 3 matches."""
    items = []
    picks = {n: _mirrored(rng, _coprime_alphas(n)) for n in (5, 7)}
    lo, hi = size["orbit_budget"]
    count = size["orbit"]
    for n in (5, 7):
        for i in range(count):
            budget = round(_graded(i, count, lo, hi))
            alpha = next(picks[n])
            x0 = _point_in(rng, alpha)
            items.append(Item("orbit", ("orbit", "--x", O.fmt(x0), "--N", str(n), "--alpha",
                                        O.fmt(alpha), "--budget", str(budget)),
                              check_orbit(n, alpha, x0, budget)))
    lo, hi = size["quad_budget"]
    count = size["quad"]
    for i in range(count):
        n = (5, 7)[i % 2]
        budget = round(_graded(i, count, lo, hi))
        alpha = next(picks[n])
        x0 = _quad_in(rng, n, alpha)
        items.append(Item("orbit-quadratic",
                          ("orbit", "--x", O.fmt(x0), "--quadratic", "--N", str(n),
                           "--alpha", O.fmt(alpha), "--budget", str(budget)),
                          check_quad_orbit(n, alpha, x0, budget)))
    lo, hi = size["match_budget"]
    count = size["match_coprime"]
    for i in range(count):
        n = (5, 7)[i % 2]
        budget = round(_graded(i, count, lo, hi))
        alpha = next(picks[n])
        items.append(Item("match-coprime",
                          ("--format", "json", "match", "--alpha", O.fmt(alpha), "--N", str(n),
                           "--budget", str(budget)),
                          check_match(n, alpha, budget)))
    pool = _n3_matching(1000)
    for alpha in rng.sample(pool, size["match_n3"]):
        items.append(Item("match-n3", ("--format", "json", "match", "--alpha", O.fmt(alpha),
                                       "--N", "3"), check_match(3, alpha, 1000),
                          known_defect=MATCH_N3_DEFECT))
    rng.shuffle(items)
    return items


WORKLOADS = {"cells": cells, "scan": scan, "deep": deep}

# Share of each workload's time that slows as the reference chunk does
# (reference.slowdown).  kset and the N = 2 scan are interpreter-bound like
# the chunk.  Long orbits spend much of their time in big-integer arithmetic,
# which the host's slow phases slow less: at share 1, deep's normalised
# times rose with the chunk's speed.  The share was chosen from three sets
# of ten runs on the development host; nacfbench/README.md gives the spreads.
REFERENCE_SHARE = {"cells": 1.0, "scan": 1.0, "deep": 0.75}


def build(name: str, seed: int, size: dict) -> list[Item]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), size)
