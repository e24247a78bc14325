"""Exact arithmetic on big rationals and real quadratic surds.

Every value handled by this package is an ``ExactNumber``: either a
``fractions.Fraction`` or a :class:`Surd` representing ``(a + b*sqrt(d))/c``.
Both are read through one integer view, the tuple (a, b, c, d) with c > 0
and b = d = 0 for a rational.  Arithmetic, comparisons, floors and text
work on that view, with one formula per operation and the sign and floor
kernels below.  Floors, comparisons, root selection and decimal text use
integer arithmetic only; there is no floating-point anywhere, and no
factoring either: only :func:`format_exact` splits a radicand.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Callable, Optional, Union


class MixedRadicands(ArithmeticError):
    """Arithmetic between surds over radicands whose product is no square."""


class NoRootInRange(ValueError):
    """The quadratic has no root (or no unique root) in the requested range."""


class DegenerateEquation(ValueError):
    """Both the quadratic and the linear coefficient vanish."""


_SPLIT_LIMIT = 1 << 22  # trial divisors stay below it, so radicands below 2^44 split


@lru_cache(maxsize=4096)
def _square_free_split(n: int) -> tuple[int, int]:
    # n = s*s*f with f squarefree, to print a surd.  Trial division by 2, 3 and
    # 6k +- 1 leaves 1 or a prime below 2^44; a larger rest raises ValueError.
    m, s, f = n, 1, 1
    for p in chain((2, 3), chain.from_iterable(zip(range(5, _SPLIT_LIMIT, 6),
                                                   range(7, _SPLIT_LIMIT, 6)))):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                f *= p
    else:
        if m >= _SPLIT_LIMIT * _SPLIT_LIMIT:
            raise ValueError(f"cannot split the radicand {_int_str(n)} to print it: "
                             "trial division stops at 2^22")
    return s, f * m


# Sorenson and Webster (2015): no composite below this bound is a strong
# probable prime to all the prime bases 2..41
_PRIME_PROOF_BOUND = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41.  False proves n composite (or
    below 2); True proves n prime below _PRIME_PROOF_BOUND, and only makes
    it probable from there on."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^r * odd
    odd = (n - 1) >> r
    for a in _PRIME_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sign(n) -> int:
    return (n > 0) - (n < 0)


def _sign2(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), integer arithmetic only."""
    if q == 0 or d == 0:
        return _sign(p)
    if p == 0:
        return _sign(q)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    lhs, rhs = q * q * d, p * p  # |q*sqrt(d)|^2 vs |p|^2
    if q > 0:
        return _sign(lhs - rhs)
    return _sign(rhs - lhs)


def _sign3(p: int, q: int, d1: int, r: int, d2: int) -> int:
    """Sign of p + q*sqrt(d1) + r*sqrt(d2), integer arithmetic only.

    Once p + q*sqrt(d1) and -r*sqrt(d2) have the same sign, comparing their
    squares decides, and that argument holds for any radicands: distinct,
    equal, or 0 for a rational term.
    """
    sa = _sign2(p, q, d1)     # p + q*sqrt(d1)  vs  -r*sqrt(d2)
    sb = _sign(-r)
    if sa != sb:
        return 1 if sa > sb else -1
    if sa == 0:
        return 0
    t = _sign2(p * p + q * q * d1 - r * r * d2, 2 * p * q, d1)
    return sa * t


class Surd:
    """Quadratic surd (a + b*sqrt(d))/c, d kept as given (not squarefree).

    Instances are always irrational: c > 0, b != 0, d not a perfect square,
    gcd(a, b, c) = 1.  Use :func:`surd` to construct values; it collapses
    rational cases to ``Fraction``.  Immutable; == and hash are the value's.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    # -- arithmetic ---------------------------------------------------
    # one formula per operator on (a, b, c) views, one surd() call each

    def _field_view(self, other):
        """(a, b, c) with other = (a + b*sqrt(self.d))/c; None for a non-number."""
        if not isinstance(other, _OPERANDS):
            return None
        a, b, c, d = _surd_parts(other)
        if b and d != self.d:
            r = math.isqrt(d * self.d)  # sqrt(d) = r*sqrt(self.d)/self.d when r*r = d*self.d
            if r * r != d * self.d:
                raise MixedRadicands(f"sqrt({_int_str(self.d)}) vs sqrt({_int_str(d)})")
            a, b, c = a * self.d, b * r, c * self.d
        return a, b, c

    def __add__(self, other):
        y = self._field_view(other)
        if y is None:
            return NotImplemented
        a, b, c = y
        return surd(self.a * c + a * self.c, self.b * c + b * self.c, self.d, self.c * c)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.c, self.d)

    def __sub__(self, other):
        return self + (-other) if isinstance(other, _OPERANDS) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _OPERANDS) else NotImplemented

    def __mul__(self, other):
        y = self._field_view(other)
        if y is None:
            return NotImplemented
        return _product(self._view(), y, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        y = self._field_view(other)
        if y is None:
            return NotImplemented
        return _product(self._view(), _reciprocal(*y, self.d), self.d)

    def __rtruediv__(self, other):
        y = self._field_view(other)
        if y is None:
            return NotImplemented
        return _product(y, _reciprocal(*self._view(), self.d), self.d)

    def _view(self):
        return self.a, self.b, self.c

    # -- comparisons --------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Surd):
            if self.d == other.d:  # one radicand: the reduced views decide
                return (self.a, self.b, self.c) == (other.a, other.b, other.c)
            return compare_exact(self, other) == 0
        if isinstance(other, (int, Fraction)):
            return False  # a Surd is irrational
        return NotImplemented

    def __hash__(self):
        # equal values share the rational part a/c, whatever their radicands
        return hash(Fraction(self.a, self.c))

    def __lt__(self, other):
        return compare_exact(self, other) < 0

    def __le__(self, other):
        return compare_exact(self, other) <= 0

    def __gt__(self, other):
        return compare_exact(self, other) > 0

    def __ge__(self, other):
        return compare_exact(self, other) >= 0

    def __repr__(self):
        return _view_str(self.a, self.b, self.c, self.d)


ExactNumber = Union[Fraction, Surd]
_OPERANDS = (int, Fraction, Surd)


def _product(x, y, d: int) -> ExactNumber:
    """x*y for views x = (a, b, c) and y over one radicand d; c may be negative."""
    xa, xb, xc = x
    ya, yb, yc = y
    return surd(xa * ya + xb * yb * d, xa * yb + xb * ya, d, xc * yc)


def _reciprocal(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """1/x = c*(a - b*sqrt(d))/(a^2 - b^2*d) for x = (a + b*sqrt(d))/c.  The
    norm vanishes only at x = 0; the returned denominator may be negative."""
    norm = a * a - b * b * d
    if norm == 0:
        raise ZeroDivisionError("division by zero")
    return a * c, -b * c, norm


def _as_exact(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


def surd(a: int, b: int, d: int, c: int = 1) -> ExactNumber:
    """Build (a + b*sqrt(d))/c with c > 0 and gcd(a, b, c) = 1.

    d is kept as given, square factors and all; a perfect-square d
    collapses the value to a Fraction.
    """
    if c == 0:
        raise ZeroDivisionError("surd with zero denominator")
    if d < 0:
        raise ValueError("negative radicand")
    if c < 0:
        a, b, c = -a, -b, -c
    r = math.isqrt(d)
    if b == 0 or r * r == d:  # d = 0 among the squares
        return Fraction(a + b * r, c)
    g = math.gcd(a, b, c)
    return Surd(a // g, b // g, c // g, d)


def _lowest_terms(t: int, s: int) -> Fraction:
    # t/s with gcd(t, s) = 1 and s > 0, built without Fraction's gcd; the
    # private constructor keyword differs across Python versions.
    f = object.__new__(Fraction)
    f._numerator, f._denominator = t, s
    return f


def _surd_parts(x) -> tuple[int, int, int, int]:
    # The integer view (a, b, c, d) of x = (a + b*sqrt(d))/c with c > 0;
    # b = d = 0 for a rational.
    x = _as_exact(x)
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator, 0
    return x.a, x.b, x.c, x.d


def compare_exact(x, y) -> int:
    """Exact trichotomy: -1, 0 or +1 for x < y, x = y, x > y.

    Works across rationals and surds with equal or different radicands:
    the sign of x - y is decided on the integer views by cross-multiplication
    and squaring only.
    """
    return _compare_views(_surd_parts(x), _surd_parts(y))


def _compare_views(x: tuple, y: tuple) -> int:
    """:func:`compare_exact` of two integer views (a, b, c, d) with c > 0.
    Two rationals (b = 0) compare by the sign of one cross product."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    if not xb and not yb:
        return _sign(xa * yc - ya * xc)
    return _sign3(xa * yc - ya * xc, xb * yc, xd, -yb * xc, yd)


def floor_exact(x) -> int:
    """Greatest integer <= x, via integer-square-root bounding for surds."""
    a, b, c, d = _surd_parts(x)
    return _floor_linear_surd(a, b, d, c)


def _floor_linear_surd(p: int, q: int, d: int, e: int) -> int:
    """floor((p + q*sqrt(d))/e) with e > 0, for any d >= 0.

    With r = isqrt(q^2 d), f = floor(q*sqrt(d)) is r for q > 0; for q < 0
    it is -r when q^2 d is a square and -r - 1 otherwise.  Since p and e are
    integers, floor((p + q*sqrt(d))/e) = floor((p + f)/e).
    """
    if q == 0:
        return p // e
    if e <= 0:
        raise ValueError("floor kernel needs a positive denominator")
    m = q * q * d
    r = math.isqrt(m)  # floor(|q|*sqrt(d))
    f = r if q > 0 else (-r if r * r == m else -r - 1)
    return (p + f) // e


def solve_quadratic(c2: int, c1: int, c0: int) -> tuple:
    """Real roots of c2*x^2 + c1*x + c0 = 0 (integer coefficients), ascending.

    c2 = 0 degrades to the linear equation; c2 = c1 = 0 is rejected.
    """
    if c2 == 0:
        if c1 == 0:
            raise DegenerateEquation("all coefficients of degree >= 1 vanish")
        return (Fraction(-c0, c1),)
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return ()
    if disc == 0:
        return (Fraction(-c1, 2 * c2),)
    minus = surd(-c1, -1, disc, 2 * c2)
    plus = surd(-c1, 1, disc, 2 * c2)
    # plus - minus = sqrt(disc)/c2, so the sign of c2 orders the roots
    return (minus, plus) if c2 > 0 else (plus, minus)


def solve_mobius_fixed_point(m, shift: int, lo=None, hi=None) -> ExactNumber:
    """Unique root of  x + shift = (a*x + b)/(c*x + d)  inside [lo, hi], for
    m a Mobius or any tuple (a, b, c, d).

    The equation expands to c*x^2 + (d + shift*c - a)*x + (shift*d - b) = 0
    over the integers.  ``None`` bounds are unbounded.  Raises NoRootInRange
    when the range does not isolate exactly one real root.
    """
    a, b, c, d = m
    roots = solve_quadratic(c, d + shift * c - a, shift * d - b)
    hits = [r for r in roots
            if (lo is None or compare_exact(r, lo) >= 0)
            and (hi is None or compare_exact(r, hi) <= 0)]
    if not hits:
        raise NoRootInRange(f"no root of the fixed-point equation in [{lo}, {hi}]")
    if len(hits) > 1:
        raise NoRootInRange("two roots in range; the range must isolate one")
    return hits[0]


def _root_view(c2: int, c1: int, c0: int) -> Optional[tuple]:
    """The integer view (a, b, c, d) of the one root >= 0 of
    c2*x^2 + c1*x + c0, or None where [0, oo) holds no root or two: the
    rule of ``solve_mobius_fixed_point(m, s, lo=0, hi=None)``, decided from
    the signs of the coefficients and the discriminant alone.

    With c2 > 0, two distinct roots have the product c0/c2 and the sum
    -c1/c2, so exactly one is >= 0 (the larger) when c0 < 0, or when c0 = 0
    and the other root -c1/c2 is negative; c0 > 0 puts both on one side,
    and a negative discriminant needs c0 > 0.  A double root -c1/(2*c2)
    counts once.  The view's radicand is the discriminant, perfect square
    or not; ``surd`` collapses a square to a Fraction.
    """
    if c2 < 0:  # the same roots, under a positive leading coefficient
        c2, c1, c0 = -c2, -c1, -c0
    elif c2 == 0:
        if c1 == 0:
            raise DegenerateEquation("all coefficients of degree >= 1 vanish")
        if c1 < 0:
            c1, c0 = -c1, -c0
        return (-c0, 0, c1, 0) if c0 <= 0 else None
    disc = c1 * c1 - 4 * c2 * c0
    if disc == 0:
        return (-c1, 0, 2 * c2, 0) if c1 <= 0 else None
    if c0 < 0 or (c0 == 0 and c1 > 0):
        return (-c1, 1, 2 * c2, disc)
    return None


def rational_between(lo, hi) -> Fraction:
    """Some exact rational strictly inside the nonempty open interval (lo, hi).

    Raises ValueError when lo >= hi.  Only an empty or extremely narrow
    interval gets past denominator 2**64, so the emptiness test runs there
    and nowhere else.
    """
    a, b, c, d = _surd_parts(lo)
    k = 1
    while True:
        q = Fraction(_floor_linear_surd(a * k, b * k, d, c) + 1, k)  # floor(lo*k) + 1
        if compare_exact(q, hi) < 0 and compare_exact(lo, q) < 0:
            return q
        k *= 2
        if k == 1 << 64 and compare_exact(lo, hi) >= 0:
            raise ValueError("empty interval: lo >= hi")


def decimal_str(x, places: int) -> str:
    """Decimal rendering of an exact value, rounded half-up. Display only."""
    return _decimal_printer(places)(*_surd_parts(x))


def _decimal_printer(places: int) -> Callable[[int, int, int, int], str]:
    """:func:`decimal_str` at one precision, as one function of the integer
    view (a, b, c, d), any d >= 0, that takes 10^places once for every view
    it prints."""
    scale = 10 ** places

    def text(a: int, b: int, c: int, d: int) -> str:
        # floor(x*10^k + 1/2) = floor((2a*10^k + c + 2b*10^k*sqrt(d))/(2c))
        n = _floor_linear_surd(2 * a * scale + c, 2 * b * scale, d, 2 * c)
        sign = "-" if n < 0 else ""
        if places == 0:
            return f"{sign}{abs(n)}"
        digits = str(abs(n)).zfill(places + 1)  # one digit at least before the point
        return f"{sign}{digits[:-places]}.{digits[-places:]}"
    return text


_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*([1-9]\d*))?\s*$")
_SURD_RE = re.compile(
    r"^\s*\(\s*([+-]?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"\s*/\s*([1-9]\d*)\s*$")
_SQRT_RE = re.compile(r"^\s*sqrt\(\s*(\d+)\s*\)\s*$")


def parse_exact(text: str) -> ExactNumber:
    """Parse "p/q", "(a+b*sqrt(d))/c" or "sqrt(d)". Decimals are rejected."""
    m = _RATIONAL_RE.match(text)
    if m:
        num, den = m.group(1), m.group(2)
        return Fraction(_int(num), _int(den) if den else 1)
    m = _SURD_RE.match(text)
    if m:
        a, sgn, b, d, c = m.groups()
        b = _int(b) if sgn == "+" else -_int(b)
        return surd(_int(a), b, _int(d), _int(c))
    m = _SQRT_RE.match(text)
    if m:
        return surd(0, 1, _int(m.group(1)))
    raise ValueError(f"not an exact number: {text!r}")


def _int(digits: str) -> int:
    """The integer of a decimal digit string of any length; the inverse of
    :func:`_int_str`."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _int_str(n: int) -> str:
    """Decimal digits of an integer of any size.  From Python 3.11 on, str()
    refuses integers past sys.get_int_max_str_digits() digits; Decimal
    converts them without a limit."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def format_exact(x) -> str:
    """Canonical text: "p/q" (or bare integer), "(a+b*sqrt(d))/c" with d squarefree."""
    a, b, c, d = _surd_parts(x)
    return _view_printer(d)(a, b, c) if b else _view_str(a, b, c, d)


def _view_printer(d: int) -> Callable[[int, int, int], str]:
    """:func:`format_exact` of the reduced views (a, b, c) over one radicand
    d, as one function that splits d once for every view it prints."""
    s, f = _square_free_split(d)
    if s == 1:
        return lambda a, b, c: _view_str(a, b, c, f)

    def text(a: int, b: int, c: int) -> str:
        g = math.gcd(a, b * s, c)  # a reduced view stays so until s joins b
        return _view_str(a // g, b * s // g, c // g, f)
    return text


def _view_str(a: int, b: int, c: int, d: int) -> str:
    """Text of the integer view (a, b, c, d) as it stands, radicand unsplit:
    :func:`format_exact`'s form, and that of messages and repr, which must
    not fail on a radicand that cannot be split."""
    if b:
        sign = "+" if b > 0 else ""
        return f"({_int_str(a)}{sign}{_int_str(b)}*sqrt({_int_str(d)}))/{_int_str(c)}"
    return _int_str(a) if c == 1 else f"{_int_str(a)}/{_int_str(c)}"
