"""Digit maps and expansions for the interval dynamics x -> N/x - d.

For N >= 2 and a parameter alpha in (0, sqrt(N)-1], every point of
[alpha, alpha+1] has a unique infinite expansion with constant numerator N
whose remainders all lie back in the interval.  This module provides the
digit function (with the left-endpoint adjustment), the one-step map,
expansion and evaluation of digit words, the 2x2 integer matrices behind
the convergents, and the alternating order used to certify expansions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import cycle, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .exact import (ExactNumber, NoRootInRange, Surd, compare_exact,
                    floor_exact, solve_mobius_fixed_point, surd, _as_exact,
                    _floor_linear_surd, _int_str, _lowest_terms, _sign3,
                    _strong_probable_prime, _surd_parts, _view_str, _PRIME_PROOF_BOUND)


class OutOfDomain(ValueError):
    """Point outside [alpha, alpha+1]."""

    @classmethod
    def at(cls, x) -> "OutOfDomain":
        """The error for x, which prints x's integer view, radicand unsplit."""
        return cls(f"{_view_str(*_surd_parts(x))} outside [alpha, alpha+1]")


class NoValidTail(ValueError):
    """A digit word cannot be evaluated without a usable tail value."""


class Undecidable(ValueError):
    """Finite digit prefixes coincide; the order of the points is unknown."""


def alpha_max(n: int) -> ExactNumber:
    """Right end of the parameter space: sqrt(N) - 1."""
    return surd(-1, 1, n)


class _Value:
    """Base of the value classes that check their input or cache values
    (Params, DigitWord, ParamInterval, OrbitTrace).  Each ``__init__`` runs
    its checks and then writes the fields named in ``_fields`` to the
    instance dict once; == and hash are those fields', as are the
    ``Name(field=value, ...)`` repr, and assignment and deletion raise
    AttributeError.  ``functools.cached_property`` writes to the instance
    dict directly, so cached values still fill.  The plain records are
    NamedTuples.  Neither is a dataclass: importing dataclasses (with
    inspect behind it) and building the classes took about 25 ms of each
    CLI start, more than most commands' own work."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Params(_Value):
    """A pair (N, alpha) with N >= 2 and 0 < alpha <= sqrt(N) - 1, checked exactly."""

    _fields = ("N", "alpha")

    def __init__(self, N: int, alpha: ExactNumber):
        if not isinstance(N, int) or N < 2:
            raise ValueError("N must be an integer >= 2")
        alpha = _as_exact(alpha)
        if not isinstance(alpha, (Fraction, Surd)):
            raise TypeError("alpha must be an exact number")
        if compare_exact(alpha, 0) <= 0 or compare_exact(alpha, alpha_max(N)) > 0:
            raise ValueError("alpha must lie in (0, sqrt(N)-1]")
        self.__dict__.update(N=N, alpha=alpha)

    @cached_property
    def upper(self) -> ExactNumber:
        return self.alpha + 1

    @cached_property
    def alpha_parts(self) -> tuple[int, int, int, int]:
        """The integer view (a, b, c, d) of alpha, read once per parameter."""
        return _surd_parts(self.alpha)

    @cached_property
    def left_end_quotient(self) -> Optional[int]:
        """N/alpha - alpha when it is an integer, else None; the left-end
        rule of :func:`step` applies exactly when this is not None.  A surd
        alpha can qualify too: N = 2, alpha = (-5+sqrt(33))/2 gives 5."""
        e = Fraction(self.N) / self.alpha - self.alpha
        return e.numerator if isinstance(e, Fraction) and e.denominator == 1 else None

    @cached_property
    def digit_range(self) -> range:
        """:func:`digit_set`, computed once per parameter."""
        return digit_set(self)

    @cached_property
    def rational_digit(self) -> Callable[[int, int], int]:
        """The digit of a rational point t/s (lowest terms, t, s > 0), as one
        kernel per parameter that :func:`step` and rational orbits share:
        the floor of N*s/t - alpha, lowered by one when t/s is alpha and
        the left-end rule of :func:`step` applies.  For a rational alpha =
        aa/ac the floor is one integer division, and the left-end test is
        made only where that rule exists."""
        n, (aa, ab, ac, ad) = self.N, self.alpha_parts
        if ab:  # a surd alpha is never the rational t/s
            return lambda t, s: _floor_linear_surd(n * s * ac - aa * t, -ab * t, ad, t * ac)
        nac = n * ac
        if self.left_end_quotient is None:
            return lambda t, s: (nac * s - aa * t) // (ac * t)

        def digit(t: int, s: int) -> int:
            d = (nac * s - aa * t) // (ac * t)
            return d - 1 if t == aa and s == ac else d
        return digit

    def __reduce__(self):
        # the cached kernels are closures, so a copy rebuilds them on use
        return Params, (self.N, self.alpha)

    def contains(self, x) -> bool:
        """Membership of x in the closed interval [alpha, alpha+1]."""
        return (compare_exact(self.alpha, x) <= 0
                and compare_exact(x, self.upper) <= 0)


class Mobius(NamedTuple):
    """2x2 integer matrix acting projectively: (a*x + b)/(c*x + d)."""

    a: int
    b: int
    c: int
    d: int

    def __matmul__(self, o: "Mobius") -> "Mobius":
        return Mobius(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                      self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def apply(self, x) -> ExactNumber:
        den = self.c * _as_exact(x) + self.d
        if den == 0:
            raise ZeroDivisionError("pole of the transformation")
        return (self.a * _as_exact(x) + self.b) / den

    def scaled(self, f: int) -> "Mobius":
        return Mobius(self.a * f, self.b * f, self.c * f, self.d * f)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def entries_mod(self, m: int) -> tuple[int, int, int, int]:
        return (self.a % m, self.b % m, self.c % m, self.d % m)

    @staticmethod
    def branch(n: int, d: int) -> "Mobius":
        """Matrix of the inverse branch x -> N/(d + x)."""
        return Mobius(0, n, 1, d)


IDENTITY = Mobius(1, 0, 0, 1)
ADD_ONE = Mobius(1, 1, 0, 1)  # acts as x -> x + 1


def _running_products(n: int, digits: Iterable[int]) -> Iterator[Mobius]:
    """The running products M_i = M_{i-1} * branch(N, d_i) from M_0 = I, as
    M_1, M_2, ...: the one place that appends a digit to a product."""
    m = IDENTITY
    for d in digits:
        m = m @ Mobius.branch(n, d)
        yield m


def _lasso(prefix: Sequence[int], period: Optional[Sequence[int]],
           exhausted: str) -> Iterator[int]:
    """The digits of a lasso: ``prefix``, then ``period`` repeated forever,
    or IndexError(exhausted) after the prefix when there is no period.  The
    one reader of DigitWord heads and of an orbit's digits."""
    yield from prefix
    if period is None:
        raise IndexError(exhausted)
    yield from cycle(period)


def branch_product(n: int, digits: Sequence[int]) -> Mobius:
    m = IDENTITY
    for m in _running_products(n, digits):
        pass
    return m


def projective_equiv(m1: Mobius, m2: Mobius) -> bool:
    """True iff the matrices are proportional (same projective action)."""
    t1, t2 = m1.entries(), m2.entries()
    for u, v in zip(t1, t2):
        if (u == 0) != (v == 0):
            return False
    pivot = next((i for i, u in enumerate(t1) if u != 0), None)
    if pivot is None:
        return all(v == 0 for v in t2)
    return all(t1[pivot] * t2[j] == t2[pivot] * t1[j] for j in range(4))


def _minimal_repetend(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for length in range(1, n + 1):
        if n % length == 0 and period == period[:length] * (n // length):
            return period[:length]
    return period


class DigitWord(_Value):
    """A digit prefix plus an optional periodic tail, kept canonical.

    Canonical form: the repetend is minimal and the prefix is as short as
    possible (trailing prefix digits equal to the tail are absorbed), so
    structural equality coincides with equality of the digit sequences.
    Text form: "[0; 8, (1)]" with the parenthesised block repeating.
    """

    _fields = ("prefix", "period")

    def __init__(self, prefix: Iterable[int], period: Optional[Iterable[int]] = None):
        prefix = tuple(int(d) for d in prefix)
        period = None if period is None else tuple(int(d) for d in period)
        if period is not None and not period:
            raise ValueError("period must be nonempty when present")
        for d in prefix + (period or ()):
            if d < 1:
                raise ValueError("digits must be positive integers")
        if period is not None:
            period = _minimal_repetend(period)
            prefix = list(prefix)
            while prefix and prefix[-1] == period[-1]:
                prefix.pop()
                period = period[-1:] + period[:-1]
            prefix = tuple(prefix)
        self.__dict__.update(prefix=prefix, period=period)

    def digit_at(self, i: int) -> int:
        """0-based digit access, following the periodic tail when present."""
        if i < len(self.prefix):
            return self.prefix[i]
        if self.period is None:
            raise IndexError("finite word exhausted")
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def head(self, n: int) -> tuple[int, ...]:
        """The first n digits, read as digit_at reads them."""
        return tuple(islice(_lasso(self.prefix, self.period, "finite word exhausted"), max(n, 0)))

    def shifted(self) -> "DigitWord":
        """Drop the first digit (the shift map on digit sequences)."""
        if self.prefix:
            return DigitWord(self.prefix[1:], self.period)
        if self.period is None:
            raise IndexError("cannot shift the empty word")
        return DigitWord((), self.period[1:] + self.period[:1])

    def __str__(self):
        parts = list(map(_int_str, self.prefix))
        if self.period is not None:
            parts.append("(" + ", ".join(map(_int_str, self.period)) + ")")
        return "[0; " + ", ".join(parts) + "]" if parts else "[0;]"

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix),
                "period": None if self.period is None else list(self.period)}


def digit_set(p: Params) -> range:
    """The digits available for (N, alpha), a range of consecutive integers."""
    n, a = p.N, p.alpha
    d_min = floor_exact(Fraction(n) / p.upper - a)
    d_max = floor_exact(Fraction(n) / a - a)
    return range(d_min, d_max + 1)


# all_digits_coprime takes at most this many gcds
_COPRIME_SCAN_MAX = 1 << 20


def all_digits_coprime(p: Params) -> Optional[bool]:
    """Whether every available digit is coprime with N, or None when that
    stays undecided, in bounded time.

    A range of N or more digits holds a multiple of N.  A shorter one is
    scanned with at most 2^20 gcds, and past 2^20 digits a prime N, proved
    so below exact._PRIME_PROOF_BOUND, is decided first: it shares a factor
    only with its multiples.  Any other N is scanned over the first 2^20
    digits, which meet a multiple of each of its prime factors below 2^20,
    and gives None if they are all coprime with it.
    """
    n, ds = p.N, p.digit_range
    size = ds.stop - ds.start  # len() fails past sys.maxsize
    if size >= n:
        return False
    if size > _COPRIME_SCAN_MAX and n < _PRIME_PROOF_BOUND and _strong_probable_prime(n):
        return -(-ds.start // n) * n >= ds.stop  # the first multiple of N lies past the range
    if not all(math.gcd(n, d) == 1 for d in ds[:_COPRIME_SCAN_MAX]):
        return False
    return True if size <= _COPRIME_SCAN_MAX else None


def step(x, p: Params) -> tuple[int, ExactNumber]:
    """One application of the map: returns (digit, N/x - digit).

    The digit is floor(N/x - alpha), adjusted at x = alpha.  When
    N/alpha - alpha is an integer the plain floor would give the left
    endpoint a private digit; it is lowered by one there so that the point
    maps to alpha + 1 instead.  Interior points with an integral quotient
    keep the plain floor (which already maps them back into the interval).

    The map works on the integer view (a, b, c, r) of x = (a + b*sqrt(r))/c.
    A rational x takes the digit kernel that rational orbits share
    (:attr:`Params.rational_digit`), and its image (N*c - d*a)/a is reduced
    by gcd(N, a) alone, with no Euclid on the growing operands.  A surd x
    under a rational alpha is decided on its norm form G = a^2 - b^2 r,
    H = a*c, K = c^2, formed once (:func:`_surd_step`).  Under a surd
    alpha, N/x is N*c*(a - b*sqrt(r))/G; one floor-kernel call takes its
    floor against alpha, and one constructor call builds the result.  Over two radicands
    N/x - alpha is no surd: its floor, floor(N/x) - floor(alpha) or one
    less, is decided by an exact sign of N/x - (d+1) - alpha.
    """
    x = _as_exact(x)
    a, b, c, r = _surd_parts(x)
    aa, ab, ac, ad = p.alpha_parts
    if b and not ab:
        return _surd_step(p, x, a * a - b * b * r, a * c, c * c)
    if not p.contains(x):
        raise OutOfDomain.at(x)
    if b == 0:
        d = p.rational_digit(a, c)  # N/x = N*c/a with a > 0 on the domain
        g = math.gcd(p.N, a)  # = gcd(N*c - d*a, a), as gcd(a, c) = 1
        return d, _lowest_terms((p.N * c - d * a) // g, a // g)
    qa, qb, qc = p.N * c * a, -p.N * c * b, a * a - b * b * r
    if qc < 0:
        qa, qb, qc = -qa, -qb, -qc
    if ad == r:
        d = _floor_linear_surd(qa * ac - aa * qc, qb * ac - ab * qc, r, qc * ac)
    else:
        d = _floor_linear_surd(qa, qb, r, qc) - floor_exact(p.alpha) - 1
        while _sign3((qa - (d + 1) * qc) * ac - aa * qc, qb * ac, r, -ab * qc, ad) >= 0:
            d += 1
    if x == p.alpha and p.left_end_quotient is not None:
        d -= 1
    return d, surd(qa - d * qc, qb, r, qc)


def _norm_sign(a: int, b: int, c: int, G: int, H: int, K: int, u: int, v: int) -> int:
    """Sign of x - u/v for x = (a + b*sqrt(r))/c with b != 0 and v > 0, from
    the norm form G = a^2 - b^2 r, H = a*c, K = c^2 of x.

    x - u/v has the sign of P + b*v*sqrt(r) with P = a*v - u*c: the sign of
    b where P shares it, and otherwise that of the larger square.  The b
    term wins (P = 0 among those cases) when P^2 - b^2 v^2 r =
    v^2 G - 2uv H + u^2 K is negative; it is never 0, as r is no square.
    With u and v small, every product is big by small.
    """
    if ((a * v - u * c) > 0) == (b > 0) or v * v * G - 2 * u * v * H + u * u * K < 0:
        return 1 if b > 0 else -1
    return -1 if b > 0 else 1


def _surd_step(p: Params, x: Surd, G: int, H: int, K: int) -> tuple[int, Surd]:
    """:func:`step` of a surd x = (a + b*sqrt(r))/c under a rational alpha =
    aa/ac, decided on the norm form G = a^2 - b^2 r, H = a*c, K = c^2 of x.

    Each decision is one :func:`_norm_sign` against a small rational: the
    domain test compares x with alpha and alpha + 1, and the digit is the
    largest m of the digit range with N/x - alpha >= m, that is with
    x <= N*ac/(m*ac + aa), found by binary search.  An irrational x is never
    alpha, so the left-end rule never applies.  The image is
    N/x - d = (N*H - d*G - N*c*b*sqrt(r))/G, and g = gcd(N*c*gcd(a, b), G)
    is the gcd of its three integers, because N*H - d*G differs from N*c*a
    by a multiple of G.
    """
    a, b, c, r = x.a, x.b, x.c, x.d
    aa, _, ac, _ = p.alpha_parts
    if _norm_sign(a, b, c, G, H, K, aa, ac) < 0 or \
            _norm_sign(a, b, c, G, H, K, aa + ac, ac) > 0:
        raise OutOfDomain.at(x)
    n, digits = p.N, p.digit_range
    u, lo, hi = n * ac, digits.start, digits.stop - 1  # lo fits on the domain
    while lo < hi:
        m = (lo + hi + 1) // 2
        if _norm_sign(a, b, c, G, H, K, u, m * ac + aa) < 0:
            lo = m
        else:
            hi = m - 1
    nc = n * c
    g = math.gcd(nc * math.gcd(a, b), G)
    if G < 0:
        g = -g
    na, nb = n * H - lo * G, -nc * b
    if g == 1:
        return lo, Surd(na, nb, G, r)
    return lo, Surd(na // g, nb // g, G // g, r)


def expand(x, p: Params, n: int) -> DigitWord:
    """First n digits of the expansion of x as a finite word."""
    if n < 0:
        raise ValueError(f"expand needs n >= 0, got {n}")
    digits = []
    for _ in range(n):
        d, x = step(x, p)
        digits.append(d)
    return DigitWord(tuple(digits))


def evaluate(w: DigitWord, n: int, tail=None) -> ExactNumber:
    """Exact value of a digit word with numerator N.

    Eventually periodic words use the fixed point of the repetend's matrix
    in (0, N) as tail value; finite words need an explicit ``tail``.
    """
    if w.period is not None:
        p = branch_product(n, w.period)
        try:
            tail = solve_mobius_fixed_point(p, 0, lo=Fraction(0), hi=Fraction(n))
        except NoRootInRange as exc:
            raise NoValidTail(str(exc)) from exc
    elif tail is None:
        raise NoValidTail("finite word: pass an explicit tail value")
    return branch_product(n, w.prefix).apply(tail)


def convergents(w, n: int) -> list[tuple[int, int, Mobius]]:
    """Numerators, denominators and matrices along a digit prefix.

    Returns [(p_1, q_1, M_1), ...] with the running products
    M_i = M_{i-1} * branch(N, d_i) = [[p_{i-1}, p_i], [q_{i-1}, q_i]], so
    p_i = d_i p_{i-1} + N p_{i-2} and q_i likewise from the seeds
    p_-1 = 1, p_0 = 0, q_-1 = 0, q_0 = 1.  det(M_i) = (-N)^i is checked.
    """
    digits = w.prefix if isinstance(w, DigitWord) else tuple(w)
    det, out = 1, []
    for m in _running_products(n, digits):
        det *= -n  # (-N)^i, kept running
        if m.det() != det:
            raise RuntimeError("determinant law violated in convergent recurrence")
        out.append((m.b, m.d, m))
    return out


def _first_difference(w1: DigitWord, w2: DigitWord, length: int) -> Optional[int]:
    for i in range(length):
        try:
            d1, d2 = w1.digit_at(i), w2.digit_at(i)
        except IndexError:
            raise Undecidable("finite prefixes coincide over their common length")
        if d1 != d2:
            # branches are decreasing: at odd (1-based) positions a larger
            # digit means a smaller point, at even positions a larger point
            if i % 2 == 0:
                return -1 if d1 > d2 else 1
            return 1 if d1 > d2 else -1
    return None


def validate_expansion(w: DigitWord, p: Params, depth: int = 96) -> bool:
    """Whether an eventually periodic word is a valid expansion for (N, alpha).

    All digits must come from the digit set and every shift of the word must
    lie between the expansions of alpha and alpha + 1 in alternating order
    (weakly on the left; strictly on the right except for the word itself at
    shift 0 and for the left-endpoint adjustment chain, where the expansion
    legitimately passes through alpha + 1).  Both endpoint expansions are
    computed once, to ``depth`` digits; agreeing that far counts as equal.
    """
    if w.period is None:
        raise ValueError("validation needs an eventually periodic word")
    if not all(d in p.digit_range for d in w.prefix + w.period):
        return False
    boundary_chain_ok = p.left_end_quotient is not None
    left, right_end = expand(p.alpha, p, depth), expand(p.upper, p, depth)
    shifts = len(w.prefix) + len(w.period)
    cur = w
    for nshift in range(shifts + 1):
        if _first_difference(cur, left, depth) == -1:
            return False
        right = _first_difference(cur, right_end, depth)
        if right == 1:
            return False
        if right is None and nshift > 0 and not boundary_chain_ok:
            return False
        cur = cur.shifted()
    return True


def xi(n: int) -> ExactNumber:
    """Positive solution of x = N/(N-2+x); rationals below xi(N)-1 all reach 1."""
    if n < 2:
        raise ValueError("N must be >= 2")
    return surd(-(n - 2), 1, n * n + 4, 2)
