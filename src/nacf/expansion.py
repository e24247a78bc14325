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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .exact import (ExactNumber, NoRootInRange, Surd, compare_exact,
                    floor_exact, format_exact, solve_mobius_fixed_point, surd,
                    _as_exact, _floor_linear_surd, _sign3, _surd_parts)


class OutOfDomain(ValueError):
    """Point outside [alpha, alpha+1]."""


class NoValidTail(ValueError):
    """A digit word cannot be evaluated without a usable tail value."""


class Undecidable(ValueError):
    """Finite digit prefixes coincide; the order of the points is unknown."""


def alpha_max(n: int) -> ExactNumber:
    """Right end of the parameter space: sqrt(N) - 1."""
    return surd(-1, 1, n)


@dataclass(frozen=True)
class Params:
    """A pair (N, alpha) with N >= 2 and 0 < alpha <= sqrt(N) - 1, checked exactly."""

    N: int
    alpha: ExactNumber

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError("N must be an integer >= 2")
        object.__setattr__(self, "alpha", _as_exact(self.alpha))
        if not isinstance(self.alpha, (Fraction, Surd)):
            raise TypeError("alpha must be an exact number")
        if compare_exact(self.alpha, 0) <= 0 or \
                compare_exact(self.alpha, alpha_max(self.N)) > 0:
            raise ValueError("alpha must lie in (0, sqrt(N)-1]")

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

    def contains(self, x) -> bool:
        """Membership of x in the closed interval [alpha, alpha+1]."""
        return (compare_exact(self.alpha, x) <= 0
                and compare_exact(x, self.upper) <= 0)


@dataclass(frozen=True, slots=True)
class Mobius:
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


def branch_product(n: int, digits: Sequence[int]) -> Mobius:
    m = IDENTITY
    for m in _running_products(n, digits):
        pass
    return m


def mobius_apply(m: Mobius, x) -> ExactNumber:
    return m.apply(x)


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


@dataclass(frozen=True)
class DigitWord:
    """A digit prefix plus an optional periodic tail, kept canonical.

    Canonical form: the repetend is minimal and the prefix is as short as
    possible (trailing prefix digits equal to the tail are absorbed), so
    structural equality coincides with equality of the digit sequences.
    Text form: "[0; 8, (1)]" with the parenthesised block repeating.
    """

    prefix: tuple[int, ...]
    period: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        prefix = tuple(int(d) for d in self.prefix)
        period = None if self.period is None else tuple(int(d) for d in self.period)
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
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)

    def digit_at(self, i: int) -> int:
        """0-based digit access, following the periodic tail when present."""
        if i < len(self.prefix):
            return self.prefix[i]
        if self.period is None:
            raise IndexError("finite word exhausted")
        return self.period[(i - len(self.prefix)) % len(self.period)]

    def head(self, n: int) -> tuple[int, ...]:
        return tuple(self.digit_at(i) for i in range(n))

    def shifted(self) -> "DigitWord":
        """Drop the first digit (the shift map on digit sequences)."""
        if self.prefix:
            return DigitWord(self.prefix[1:], self.period)
        if self.period is None:
            raise IndexError("cannot shift the empty word")
        return DigitWord((), self.period[1:] + self.period[:1])

    def __len__(self):
        if self.period is not None:
            raise TypeError("eventually periodic word has no finite length")
        return len(self.prefix)

    def __str__(self):
        parts = [str(d) for d in self.prefix]
        if self.period is not None:
            parts.append("(" + ", ".join(str(d) for d in self.period) + ")")
        return "[0; " + ", ".join(parts) + "]" if parts else "[0;]"

    @classmethod
    def parse(cls, text: str) -> "DigitWord":
        body = text.strip()
        if not (body.startswith("[0;") and body.endswith("]")):
            raise ValueError(f"not a digit word: {text!r}")
        body = body[3:-1].strip()
        period = None
        if "(" in body:
            head, tail = body.split("(", 1)
            if not tail.rstrip().endswith(")"):
                raise ValueError(f"unbalanced period in {text!r}")
            period = tuple(int(t) for t in tail.rstrip().rstrip(")").split(",") if t.strip())
            body = head.rstrip().rstrip(",")
        prefix = tuple(int(t) for t in body.split(",") if t.strip())
        return cls(prefix, period)

    def to_json(self) -> dict:
        return {"prefix": list(self.prefix),
                "period": None if self.period is None else list(self.period)}

    @classmethod
    def from_json(cls, obj: dict) -> "DigitWord":
        period = obj.get("period")
        return cls(tuple(obj["prefix"]), None if period is None else tuple(period))


def digit_set(p: Params) -> range:
    """The digits available for (N, alpha), a range of consecutive integers."""
    n, a = p.N, p.alpha
    d_min = floor_exact(Fraction(n) / p.upper - a)
    d_max = floor_exact(Fraction(n) / a - a)
    return range(d_min, d_max + 1)


def all_digits_coprime(p: Params) -> bool:
    """Whether every available digit is coprime with N."""
    return all(math.gcd(p.N, d) == 1 for d in digit_set(p))


def digit(x, p: Params) -> int:
    """First digit of x: floor(N/x - alpha), adjusted at x = alpha (see step)."""
    return step(x, p)[0]


def step(x, p: Params) -> tuple[int, ExactNumber]:
    """One application of the map: returns (digit, N/x - digit).

    The digit is floor(N/x - alpha), adjusted at x = alpha.  When
    N/alpha - alpha is an integer the plain floor would give the left
    endpoint a private digit; it is lowered by one there so that the point
    maps to alpha + 1 instead.  Interior points with an integral quotient
    keep the plain floor (which already maps them back into the interval).

    The map works on the integer view: for x = (a + b*sqrt(r))/c the
    quotient N/x is N*c*(a - b*sqrt(r))/(a^2 - b^2 r); one floor-kernel call
    (for a rational x, the digit kernel rational orbits share) takes its
    floor against alpha, and one constructor call builds the result.  Over
    two radicands N/x - alpha is no surd: its floor, floor(N/x) - floor(alpha)
    or one less, is decided by an exact sign of N/x - (d+1) - alpha.
    """
    x = _as_exact(x)
    if not p.contains(x):
        raise OutOfDomain(f"{format_exact(x)} outside [alpha, alpha+1]")
    a, b, c, r = _surd_parts(x)
    if b == 0:
        d = _rational_digit(p, a, c)  # N/x = N*c/a with a > 0 on the domain
        return d, Fraction(p.N * c - d * a, a)
    aa, ab, ac, ad = p.alpha_parts
    qa, qb, qc = p.N * c * a, -p.N * c * b, a * a - b * b * r
    if qc < 0:
        qa, qb, qc = -qa, -qb, -qc
    if ab == 0 or ad == r:
        d = _floor_linear_surd(qa * ac - aa * qc, qb * ac - ab * qc, r, qc * ac)
    else:
        d = _floor_linear_surd(qa, qb, r, qc) - floor_exact(p.alpha) - 1
        while _sign3((qa - (d + 1) * qc) * ac - aa * qc, qb * ac, r, -ab * qc, ad) >= 0:
            d += 1
    if x == p.alpha and p.left_end_quotient is not None:
        d -= 1
    return d, surd(qa - d * qc, qb, r, qc)


def _rational_digit(p: Params, t: int, s: int) -> int:
    """The digit of the rational point t/s (lowest terms, t, s > 0): the
    floor of N*s/t - alpha on the integer view of alpha, lowered by one
    when t/s is alpha and the left-end rule of :func:`step` applies."""
    aa, ab, ac, ad = p.alpha_parts
    d = _floor_linear_surd(p.N * s * ac - aa * t, -ab * t, ad, t * ac)
    if t == aa and s == ac and ab == 0 and p.left_end_quotient is not None:
        d -= 1
    return d


def digit_stream(x, p: Params) -> Iterator[int]:
    """Digits of the expansion of x, generated on demand."""
    while True:
        d, x = step(x, p)
        yield d


def expand(x, p: Params, n: int) -> DigitWord:
    """First n digits of the expansion of x as a finite word."""
    if n < 0:
        raise ValueError(f"expand needs n >= 0, got {n}")
    return DigitWord(tuple(islice(digit_stream(x, p), n)))


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


def alternating_compare(w1: DigitWord, w2: DigitWord) -> int:
    """Order of the points represented by two digit words: -1, 0 or +1.

    Eventually periodic words are decided over pre-period + lcm of the
    periods + 1 positions; a pair of coinciding finite prefixes raises
    :class:`Undecidable`.
    """
    pre = max(len(w1.prefix), len(w2.prefix))
    if w1.period is not None and w2.period is not None:
        length = pre + math.lcm(len(w1.period), len(w2.period)) + 1
        verdict = _first_difference(w1, w2, length)
        return 0 if verdict is None else verdict
    finite = min(len(w.prefix) for w in (w1, w2) if w.period is None)
    verdict = _first_difference(w1, w2, finite)
    if verdict is None:
        raise Undecidable("finite prefixes coincide; no periods given")
    return verdict


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
    digits = set(w.prefix) | set(w.period)
    if not digits <= set(digit_set(p)):
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
