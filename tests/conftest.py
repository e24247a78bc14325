"""Shared helpers: independent high-precision oracles and random generators.

The oracles here deliberately avoid the package's own comparison and floor
paths: everything is bounded through integer square roots at a fixed
bit-precision, so library results can be cross-checked independently.
The one exception, :func:`step_by_definition`, checks the map's kernels
against its definition through the generic Surd arithmetic and
compare_exact.
"""

import math
from fractions import Fraction

from nacf.exact import Surd, surd, floor_exact, compare_exact
from nacf.expansion import Params, alpha_max


def approx_bounds(x, bits=128):
    """A Fraction interval [lo, hi] containing x, of width 1/(c*2^bits)."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(x)
    scale = 1 << bits
    r = math.isqrt(x.d * x.b * x.b * scale * scale)
    lo_num = x.a * scale + (r if x.b > 0 else -r - 1)
    return Fraction(lo_num, x.c * scale), Fraction(lo_num + 1, x.c * scale)


def interval_compare(x, y, bits=128):
    """-1/0/+1 when the precision intervals separate, else None."""
    xl, xh = approx_bounds(x, bits)
    yl, yh = approx_bounds(y, bits)
    if xh < yl:
        return -1
    if yh < xl:
        return 1
    if xl == xh == yl == yh:
        return 0
    return None


SQUAREFREE_POOL = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 29)


def random_fraction(rng, den_max=60, lo=-4, hi=4):
    den = rng.randint(1, den_max)
    num = rng.randint(lo * den, hi * den)
    return Fraction(num, den)


def random_surd(rng, size=30):
    d = rng.choice(SQUAREFREE_POOL)
    while True:
        value = surd(rng.randint(-size, size), rng.randint(-size, size),
                     d, rng.randint(1, size))
        if isinstance(value, Surd):
            return value


def random_exact(rng):
    return random_surd(rng) if rng.random() < 0.5 else random_fraction(rng)


def random_params(rng, n=None):
    """A valid parameter pair with rational alpha, drawn uniformly-ish."""
    if n is None:
        n = rng.randint(2, 9)
    edge = alpha_max(n)
    while True:
        den = rng.randint(7, 60)
        num = rng.randint(1, floor_exact(edge * den))
        alpha = Fraction(num, den)
        if 0 < alpha and compare_exact(alpha, edge) <= 0:
            return Params(n, alpha)


def random_rational_in(p, rng, den_max=60):
    """A random rational inside [alpha, alpha+1]."""
    den = rng.randint(2, den_max)
    lo = floor_exact(p.alpha * den) + 1
    hi = floor_exact(p.upper * den)
    if lo > hi:
        return random_rational_in(p, rng, den_max)
    x = Fraction(rng.randint(lo, hi), den)
    if not p.contains(x):
        return random_rational_in(p, rng, den_max)
    return x


def random_surd_in(p, rng):
    """A random quadratic surd inside [alpha, alpha+1]."""
    while True:
        d = rng.choice(SQUAREFREE_POOL)
        c = rng.randint(2, 12)
        b = rng.randint(1, 4)
        root = surd(0, b, d)
        lo_a = floor_exact(p.alpha * c - root) + 1
        hi_a = floor_exact(p.upper * c - root)
        if lo_a > hi_a:
            continue
        x = surd(rng.randint(lo_a, hi_a), b, d, c)
        if isinstance(x, Surd) and p.contains(x):
            return x


def brute_digits(x, p, count):
    """Digit oracle via plain Fraction arithmetic (rational alpha only)."""
    assert isinstance(p.alpha, Fraction)
    out = []
    for _ in range(count):
        d = math.floor(Fraction(p.N) / x - p.alpha)
        if x == p.alpha and (Fraction(p.N) / p.alpha - p.alpha).denominator == 1:
            d -= 1
        x = Fraction(p.N) / x - d
        out.append(d)
    return out


def step_by_definition(x, p):
    """(d, N/x - d) with d the largest integer for which N/x - d >= alpha,
    found by exact comparisons alone and lowered by one at x = alpha when
    N/alpha - alpha is an integer."""
    quotient = Fraction(p.N) / x
    def fits(d):
        return compare_exact(quotient - d, p.alpha) >= 0
    lo, hi = 0, 1  # N/x >= sqrt(N) > alpha on the domain, so fits(0)
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    e = Fraction(p.N) / p.alpha - p.alpha
    if compare_exact(x, p.alpha) == 0 and isinstance(e, Fraction) and e.denominator == 1:
        lo -= 1
    return lo, quotient - lo
