"""Exact orbit computation with cycle detection.

The digit rule and the running branch product each live once, in
:mod:`nacf.expansion`: a rational orbit takes its digits from the kernel
that :func:`step` uses.  Rational points are tracked both through reduced
fractions (which decide periodicity) and through the raw recurrence
t' = N*s - d*t, s' = t that the divisibility arguments reason about.  For
t/s in lowest terms, gcd(N*s - d*t, t) = gcd(N, t), so each step divides
by a gcd taken with N instead of one between two growing numerators.  The
same fact ties the two tracks together: the raw pair is cof times the
reduced pair, with cof = prod gcd(N, t_k) over the steps so far.  That
implies rt*s = t*rs, and checking it costs two big-by-small products once
the orbit turns coprime with N, where every later gcd is 1.
Quadratic irrationals carry an integer coefficient triple (A, B, C) with
A x^2 + B x + C = 0 alongside the exactly iterated surd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .exact import Surd, compare_exact, format_exact, _as_exact, _int_str
from .expansion import OutOfDomain, Params, all_digits_coprime, step, _rational_digit


class InvariantViolation(RuntimeError):
    """An internal cross-check between two exact representations failed."""


REACHED_ONE = "reached-one"
PERIODIC = "periodic"
NO_PERIOD = "no-period-within-budget"


@dataclass(frozen=True, slots=True)
class Verdict:
    kind: str
    pre_period: Optional[int] = None  # minimal pre-period
    period: Optional[int] = None      # minimal period

    @property
    def is_periodic(self) -> bool:
        return self.kind in (REACHED_ONE, PERIODIC)

    @property
    def first_repeat(self) -> Optional[int]:
        """Step at which the first repeated value appears (pre + period)."""
        if not self.is_periodic:
            return None
        return self.pre_period + self.period

    def __str__(self):
        if self.is_periodic:
            return (f"Periodic pre={self.pre_period} period={self.period} "
                    f"first-repeat={self.first_repeat}")
        return "NoPeriodWithinBudget"


@dataclass(frozen=True, slots=True)
class RationalOrbitState:
    index: int
    t: int  # raw numerator per the recurrence, not reduced
    s: int
    value: Fraction


@dataclass(frozen=True, slots=True)
class QuadCoeffState:
    index: int
    A: int
    B: int
    C: int
    root_sign: int  # which root of A x^2 + B x + C the orbit point is
    value: Surd


@dataclass(frozen=True)
class OrbitTrace:
    """An orbit stored as a lasso: the states x_0..x_r and digits d_1..d_r up
    to the first repeated value (or the budget), read modulo the cycle
    beyond that point."""

    kind: str  # "rational" | "quadratic"
    params: Params
    digits: tuple[int, ...]
    states: tuple
    verdict: Verdict

    def _lasso_index(self, k: int, stored: int) -> int:
        if 0 <= k < stored:
            return k
        v = self.verdict
        if k < 0 or not v.is_periodic:
            raise IndexError(f"step {k} lies beyond the orbit's budget")
        return v.pre_period + (k - v.pre_period) % v.period

    def value_at(self, k: int):
        """The point x_k, 0-based like the states."""
        return self.states[self._lasso_index(k, len(self.states))].value

    def digit_at(self, k: int) -> int:
        """The digit d_{k+1} that x_k emits, 0-based like DigitWord.digit_at."""
        return self.digits[self._lasso_index(k, len(self.digits))]

    def values(self) -> list:
        return [st.value for st in self.states]

    @cached_property
    def first_index(self) -> dict:
        """The first stored index of each value."""
        return {st.value: i for i, st in reversed(tuple(enumerate(self.states)))}

    @property
    def one_at(self) -> Optional[int]:
        """The first stored index whose value is 1, if any."""
        return self.first_index.get(1)

    def json_lines(self) -> Iterator[str]:
        """Each state as one JSON line, byte-identical to ``json.dumps`` of
        its fields with ``sort_keys=True`` (digit null on the last state).

        Lines are rendered straight from the integers, and each integer is
        converted to decimal once: the raw s_n is t_{n-1}, a value already in
        lowest terms is the raw pair again, and A_n is C_{n-1}.
        """
        last, text = None, ""  # the previous state's t (or C) and its digits
        for i, st in enumerate(self.states):
            d = self.digits[i] if i < len(self.digits) else "null"
            if self.kind == "rational":
                s = text if st.s == last else _int_str(st.s)
                last, text = st.t, _int_str(st.t)
                v = st.value
                if (v.numerator, v.denominator) != (st.t, st.s):
                    value = format_exact(v)
                else:
                    value = text if st.s == 1 else f"{text}/{s}"
                yield (f'{{"digit": {d}, "n": {st.index}, "s": {s}, "t": {text}, '
                       f'"value": "{value}"}}')
            else:
                a = text if st.A == last else _int_str(st.A)
                last, text = st.C, _int_str(st.C)
                yield (f'{{"A": {a}, "B": {_int_str(st.B)}, "C": {text}, "digit": {d}, '
                       f'"n": {st.index}, "value": "{format_exact(st.value)}"}}')


def _lowest_terms(t: int, s: int) -> Fraction:
    # t/s with gcd(t, s) = 1 and s > 0, built without Fraction's gcd; the
    # private constructor keyword differs across Python versions.
    f = object.__new__(Fraction)
    f._numerator, f._denominator = t, s
    return f


def orbit_rational(x, p: Params, budget: int = 1000) -> OrbitTrace:
    """Orbit of a rational point, with cycle detection on reduced values.

    Raw (t, s) follow the recurrence t' = N*s - d*t, s' = t from the same
    digits, and are checked at every step to be cof times the reduced pair;
    states record the raw pair and the reduced value.  The verdict
    reports (pre-period, period) of the first repeated reduced value, a
    special kind when the detected cycle is the fixed point 1, or budget
    exhaustion.
    """
    x = _as_exact(x)
    if not isinstance(x, Fraction):
        raise TypeError("orbit_rational needs a rational starting point")
    if not p.contains(x):
        raise OutOfDomain(f"{x} outside [alpha, alpha+1]")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    rt, rs = x.numerator, x.denominator     # raw
    t, s = rt, rs                           # reduced
    cof = 1                                 # raw = cof * reduced
    states = [RationalOrbitState(0, rt, rs, Fraction(x))]
    digits: list[int] = []
    seen = {(t, s): 0}

    for n in range(1, budget + 1):
        d = _rational_digit(p, t, s)
        if d < 1:
            raise InvariantViolation("digit below 1; point drifted out of domain")
        rt, rs = p.N * rs - d * rt, rt
        g = math.gcd(p.N, t)
        t, s = (p.N * s - d * t) // g, t // g
        cof *= g
        if rt != cof * t or rs != cof * s:
            raise InvariantViolation("raw recurrence disagrees with reduced value")
        digits.append(d)
        states.append(RationalOrbitState(n, rt, rs, _lowest_terms(t, s)))
        key = (t, s)
        if key in seen:
            i = seen[key]
            kind = REACHED_ONE if (t, s) == (1, 1) and n - i == 1 else PERIODIC
            verdict = Verdict(kind, i, n - i)
            return OrbitTrace("rational", p, tuple(digits), tuple(states), verdict)
        seen[key] = n

    return OrbitTrace("rational", p, tuple(digits), tuple(states), Verdict(NO_PERIOD))


def quad_coefficients(x: Surd) -> tuple[int, int, int]:
    """Primitive integer (A, B, C) with A > 0 and A x^2 + B x + C = 0."""
    a2 = x.c * x.c
    b2 = -2 * x.a * x.c
    c2 = x.a * x.a - x.b * x.b * x.d
    g = math.gcd(math.gcd(a2, abs(b2)), abs(c2))
    return a2 // g, b2 // g, c2 // g


def orbit_quadratic(x0, p: Params, budget: int = 1000) -> OrbitTrace:
    """Orbit of a quadratic irrational via the coefficient recurrence.

    A' = C, B' = N*B + 2*d*C, C' = N^2*A + N*B*d + C*d^2.  At every step the
    recorded triple is cross-checked against the independently iterated surd
    (substitution must give exactly zero) and against the discriminant law
    disc_n = N^(2n) * disc_0.  Cycle detection runs on the canonical surd.
    """
    x0 = _as_exact(x0)
    if not isinstance(x0, Surd):
        raise ValueError("orbit_quadratic needs a genuinely irrational quadratic")
    if not p.contains(x0):
        raise OutOfDomain(f"{format_exact(x0)} outside [alpha, alpha+1]")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    A, B, C = quad_coefficients(x0)
    disc0 = B * B - 4 * A * C
    nn, scale = p.N * p.N, 1  # scale = N^(2n), kept running
    x = x0
    # the centre -B/(2A) of the primitive triple is x0.a/x0.c and A > 0
    states = [QuadCoeffState(0, A, B, C, 1 if x0.b > 0 else -1, x0)]
    digits: list[int] = []
    seen = {x0: 0}

    for n in range(1, budget + 1):
        d, x = step(x, p)
        A, B, C = C, p.N * B + 2 * d * C, nn * A + p.N * B * d + C * d * d
        # for x = (a + b*sqrt(r))/c with b != 0, c^2 (A x^2 + B x + C) is
        # A(a^2 + b^2 r) + B a c + C c^2 + b (2 A a + B c) sqrt(r), which
        # vanishes exactly when both parts do
        a, b, c, r = x.a, x.b, x.c, x.d
        if 2 * A * a + B * c != 0 or A * (a * a + b * b * r) + B * a * c + C * c * c != 0:
            raise InvariantViolation("coefficient triple lost the orbit point")
        scale *= nn
        if B * B - 4 * A * C != scale * disc0:
            raise InvariantViolation("discriminant law failed")
        digits.append(d)
        # the first identity puts the centre -B/(2A) at a/c, so x lies on
        # the side of it that b gives, and the sign of A orients the roots
        states.append(QuadCoeffState(n, A, B, C, 1 if (b > 0) == (A > 0) else -1, x))
        if x in seen:
            verdict = Verdict(PERIODIC, seen[x], n - seen[x])
            return OrbitTrace("quadratic", p, tuple(digits), tuple(states), verdict)
        seen[x] = n

    return OrbitTrace("quadratic", p, tuple(digits), tuple(states), Verdict(NO_PERIOD))


def discriminant_check(trace: OrbitTrace) -> bool:
    """Recompute B_n^2 - 4 A_n C_n = N^(2n) (B_0^2 - 4 A_0 C_0) on a trace."""
    if trace.kind != "quadratic":
        raise ValueError("discriminant check applies to quadratic traces")
    st0 = trace.states[0]
    disc0 = st0.B * st0.B - 4 * st0.A * st0.C
    nn, scale = trace.params.N ** 2, 1  # scale = N^(2 index), kept running
    for st in trace.states:
        if st.B * st.B - 4 * st.A * st.C != scale * disc0:
            return False
        scale *= nn
    return True


def reaches_one(x, p: Params, budget: int = 1000) -> bool:
    """Whether the orbit hits the exact value 1 within the budget."""
    trace = orbit_rational(x, p, budget)
    i = trace.one_at
    # after 1 the digits stay at N-1, except when alpha = 1 where the
    # left-endpoint adjustment sends 1 to alpha + 1 instead
    if i is not None and p.alpha != 1 and any(d != p.N - 1 for d in trace.digits[i:]):
        raise InvariantViolation("tail digits after reaching 1 are not N-1")
    return i is not None


@dataclass(frozen=True)
class DivisibilityReport:
    raw_t_residues: tuple[int, ...]       # raw t_n mod N
    reduced_t_residues: tuple[int, ...]   # reduced numerators mod N
    common_prime_found: bool              # some prime not dividing N divides a raw pair
    t_strictly_increasing: bool


def divisibility_diagnostics(trace: OrbitTrace, n: int) -> DivisibilityReport:
    """Residues and shared-factor diagnostics on a rational trace.

    Flags whether any prime that does not divide N ever divides both raw
    t_k and s_k (k >= 1), and whether the raw numerators grow strictly.
    """
    if trace.kind != "rational":
        raise ValueError("divisibility diagnostics apply to rational traces")
    raw = tuple(st.t % n for st in trace.states)
    reduced = tuple(st.value.numerator % n for st in trace.states)
    common = False
    for st in trace.states[1:]:
        g = math.gcd(st.t, st.s)
        while (h := math.gcd(g, n)) > 1:
            g //= h
        if g > 1:
            common = True
            break
    ts = [st.t for st in trace.states]
    increasing = all(u < v for u, v in zip(ts, ts[1:]))
    return DivisibilityReport(raw, reduced, common, increasing)


@dataclass(frozen=True)
class NonPeriodicityCertificate:
    certified: bool
    reason: Optional[str] = None

    def __str__(self):
        return f"CertifiedNonPeriodic({self.reason})" if self.certified else "NotCertified"


def nonperiodicity_certificate(x0, p: Params) -> NonPeriodicityCertificate:
    """Certify non-periodicity from verifiable hypotheses, or decline.

    Rational points: every digit coprime with N and alpha > 1.  Quadratic
    points: every digit coprime with N, N odd, and gcd(C_0, N) = 1 for the
    primitive coefficient triple.  Anything else is NotCertified; budget
    exhaustion is never treated as evidence.
    """
    x0 = _as_exact(x0)
    if not p.contains(x0) or not all_digits_coprime(p):
        return NonPeriodicityCertificate(False)
    if isinstance(x0, Fraction):
        if compare_exact(p.alpha, 1) > 0:
            return NonPeriodicityCertificate(True, "rational-in-K")
        return NonPeriodicityCertificate(False)
    _, _, c0 = quad_coefficients(x0)
    if p.N % 2 == 1 and math.gcd(abs(c0), p.N) == 1:
        return NonPeriodicityCertificate(True, "quadratic-in-K")
    return NonPeriodicityCertificate(False)
