"""Exact orbit computation with cycle detection.

The digit rule and the running branch product each live once, in
:mod:`nacf.expansion`: a rational orbit takes its digits from the
per-parameter kernel that :func:`step` uses, and a quadratic orbit under a
rational alpha steps on the norm form (a^2 - b^2 r, a*c, c^2) of each
point, which its own triple check forms.  Rational points are tracked
both through reduced fractions (which decide periodicity) and through the
raw recurrence t' = N*s - d*t, s' = t that the divisibility arguments
reason about.  For t/s in lowest terms, gcd(N*s - d*t, t) = gcd(N, t), so
each step divides by a gcd taken with N instead of one between two growing
numerators.  The same fact ties the two tracks together: the raw pair is
cof times the reduced pair, with cof = prod gcd(N, t_k) over the steps so
far.  That implies rt*s = t*rs, and checking it costs two big-by-small
products once the orbit turns coprime with N, where every later gcd is 1.
Quadratic irrationals carry an integer coefficient triple (A, B, C) with
A x^2 + B x + C = 0 alongside the exactly iterated surd.

An orbit builds no object per step: its trace keeps the states as columns
of plain values (see :class:`OrbitTrace`), and ``states`` is a view built
on first read.  :meth:`OrbitTrace.json_lines` prints the integers from an
exact Decimal shadow of the raw recurrence, because Decimal's str is linear
in the digits where int's is quadratic, and checks the shadow's last value
against the integer orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import (MAX_EMAX, MAX_PREC, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded)
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional

from .exact import (Surd, compare_exact, _as_exact, _lowest_terms, _surd_parts,
                    _view_printer)
from .expansion import OutOfDomain, Params, all_digits_coprime, step, _lasso, _surd_step


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
    beyond that point.

    The states are kept as columns, one entry per state.  ``points`` holds
    the key that cycle detection and matching use: the reduced pair (t, s)
    of a rational point, or the surd of a quadratic one.  A rational trace adds
    ``cofs`` (the raw pair is cof times the reduced pair), a quadratic one
    ``coeffs``, the (A, B, C) of each state."""

    kind: str  # "rational" | "quadratic"
    params: Params
    digits: tuple[int, ...]
    verdict: Verdict
    points: tuple
    cofs: tuple[int, ...] = ()
    coeffs: tuple[tuple[int, int, int], ...] = ()

    def _lasso_index(self, k: int, stored: int) -> int:
        if 0 <= k < stored:
            return k
        v = self.verdict
        if k < 0 or not v.is_periodic:
            raise IndexError(f"step {k} lies beyond the orbit's budget")
        return v.pre_period + (k - v.pre_period) % v.period

    def point_at(self, k: int):
        """The stored point of x_k, 0-based like the states: its reduced
        pair (t, s) with s > 0 for a rational state, its surd for a
        quadratic one.  Either form is canonical, so equal points are equal
        values."""
        return self.points[self._lasso_index(k, len(self.points))]

    def value_at(self, k: int):
        """The point x_k, 0-based like the states."""
        x = self.point_at(k)
        return _lowest_terms(*x) if self.kind == "rational" else x

    def digit_at(self, k: int) -> int:
        """The digit d_{k+1} that x_k emits, 0-based like DigitWord.digit_at."""
        return self.digits[self._lasso_index(k, len(self.digits))]

    def lasso_digits(self) -> Iterator[int]:
        """The digits d_1, d_2, ...: the stored column, then the cycle's
        digits forever.  Past the budget of an orbit that found no period
        it raises IndexError, as digit_at does."""
        v = self.verdict
        cycle = self.digits[v.pre_period:] if v.is_periodic else None
        return _lasso(self.digits, cycle,
                      f"step {len(self.digits)} lies beyond the orbit's budget")

    def values(self) -> list:
        if self.kind == "rational":
            return [_lowest_terms(t, s) for t, s in self.points]
        return list(self.points)

    @cached_property
    def first_index(self) -> dict:
        """The first stored index of each point (see point_at), so a value
        is looked up by its reduced pair or its surd."""
        points = self.points
        return dict(zip(reversed(points), range(len(points) - 1, -1, -1)))

    @property
    def one_at(self) -> Optional[int]:
        """The first stored index whose value is 1, if any: a rational
        point (1, 1); no surd equals that pair."""
        return self.first_index.get((1, 1))

    @cached_property
    def states(self) -> tuple:
        """The states as objects, built from the columns on first read."""
        if self.kind == "rational":
            return tuple(RationalOrbitState(i, cof * t, cof * s, v) for i, ((t, s), cof, v)
                         in enumerate(zip(self.points, self.cofs, self.values())))
        # the triple's centre -B/(2A) is x's a/c, so x lies on the side of
        # it that b gives, and the sign of A orients the roots
        return tuple(QuadCoeffState(i, A, B, C, 1 if (x.b > 0) == (A > 0) else -1, x)
                     for i, ((A, B, C), x) in enumerate(zip(self.coeffs, self.points)))

    def json_lines(self) -> Iterator[str]:
        """Each state as one JSON line, byte-identical to ``json.dumps`` of
        its fields with ``sort_keys=True`` (digit null on the last state).

        The integers come from a shadow of the raw recurrence in
        ``decimal.Decimal``, run from the first state over the digits
        column: t' = N*s - d*t with s' = t for a rational orbit, and the
        triple recurrence of :func:`orbit_quadratic` for a quadratic one.
        Decimal's str is linear in the digits, where int's is quadratic, so
        no raw integer goes through int's str (a quadratic point's value is
        still written in format_exact's form, with the orbit's one radicand
        split once).  Every operation is a method of one exact context
        (Inexact and Rounded trapped), so the thread's context is neither
        entered nor changed, and its precision and traps do not matter.
        A reduced value is the raw pair divided by cof.
        After the last line the shadow's last t (or triple) must equal the
        integer orbit's, or InvariantViolation is raised.
        """
        return self._rational_lines() if self.kind == "rational" else self._quadratic_lines()

    def _rational_lines(self) -> Iterator[str]:
        # the raw s_n is t_{n-1}, so each line converts one new integer;
        # x_0 is in lowest terms, so cof_0 = 1 and its raw pair is points[0]
        n, points, digits = Decimal(self.params.N), self.points, self.digits
        mul, fma, div = _EXACT.multiply, _EXACT.fma, _EXACT.divide_int
        t, s = map(Decimal, points[0])
        s_text = str(s)
        for i, ((_, den), cof, d) in enumerate(zip(points, self.cofs, (*digits, "null"))):
            t_text = str(t)
            if cof == 1:
                value = t_text if den == 1 else f"{t_text}/{s_text}"
            else:
                value = str(div(t, cof)) if den == 1 else f"{div(t, cof)}/{div(s, cof)}"
            yield f'{{"digit": {d}, "n": {i}, "s": {s_text}, "t": {t_text}, "value": "{value}"}}'
            if i < len(digits):  # the last state emits no digit
                t, s = fma(n, s, mul(-d, t)), t
            s_text = t_text
        if t != cof * points[-1][0]:
            raise InvariantViolation("decimal shadow disagrees with the integer orbit")

    def _quadratic_lines(self) -> Iterator[str]:
        # A_n is C_{n-1}, so each line converts two new integers; every
        # point keeps x_0's radicand, which is split once to print them all
        n, digits = Decimal(self.params.N), self.digits
        mul, fma = _EXACT.multiply, _EXACT.fma
        nn = mul(n, n)
        a, b, c = map(Decimal, self.coeffs[0])
        a_text = str(a)
        text = _view_printer(self.points[0].d)
        for i, (x, d) in enumerate(zip(self.points, (*digits, "null"))):
            c_text = str(c)
            yield (f'{{"A": {a_text}, "B": {b!s}, "C": {c_text}, "digit": {d}, '
                   f'"n": {i}, "value": "{text(x.a, x.b, x.c)}"}}')
            if i < len(digits):
                nb = mul(n, b)
                a, b, c = c, fma(2 * d, c, nb), fma(nn, a, fma(nb, d, mul(c, d * d)))
            a_text = c_text
        if (a, b, c) != self.coeffs[-1]:
            raise InvariantViolation("decimal shadow disagrees with the integer orbit")


# Integer arithmetic in Decimal that raises instead of rounding; at MAX_PREC
# an inexact division would ask for MAX_PREC digits, so only divide_int is used
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def orbit_rational(x, p: Params, budget: int = 1000) -> OrbitTrace:
    """Orbit of a rational point, with cycle detection on reduced values.

    Raw (t, s) follow the recurrence t' = N*s - d*t, s' = t from the same
    digits, and are checked at every step to be cof times the reduced pair;
    the trace keeps the digits, the reduced pairs and cof.  The verdict
    reports (pre-period, period) of the first repeated reduced value, a
    special kind when the detected cycle is the fixed point 1, or budget
    exhaustion.
    """
    x = _as_exact(x)
    if not isinstance(x, Fraction):
        raise TypeError("orbit_rational needs a rational starting point")
    if not p.contains(x):
        raise OutOfDomain.at(x)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    N, digit = p.N, p.rational_digit
    rt, rs = x.numerator, x.denominator     # raw
    t, s = rt, rs                           # reduced
    cof = 1                                 # raw = cof * reduced
    digits: list[int] = []
    pairs, cofs = [(t, s)], [cof]
    seen = {(t, s): 0}
    verdict = Verdict(NO_PERIOD)

    for n in range(1, budget + 1):
        d = digit(t, s)
        if d < 1:
            raise InvariantViolation("digit below 1; point drifted out of domain")
        rt, rs = N * rs - d * rt, rt
        g = math.gcd(N, t)
        if g == 1:
            t, s = N * s - d * t, t
        else:
            t, s = (N * s - d * t) // g, t // g
            cof *= g
        if cof == 1:  # the same test as below, without multiplying by 1
            lost = rt != t or rs != s
        else:
            lost = rt != cof * t or rs != cof * s
        if lost:
            raise InvariantViolation("raw recurrence disagrees with reduced value")
        digits.append(d)
        key = (t, s)
        pairs.append(key)
        cofs.append(cof)
        if key in seen:
            i = seen[key]
            kind = REACHED_ONE if (t, s) == (1, 1) and n - i == 1 else PERIODIC
            verdict = Verdict(kind, i, n - i)
            break
        seen[key] = n

    return OrbitTrace("rational", p, tuple(digits), verdict, tuple(pairs), cofs=tuple(cofs))


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
    disc_n = N^(2n) * disc_0.  Cycle detection keys on each point's reduced
    (a, b, c), exact since every point keeps x0's radicand.

    The substitution check forms the norm form G = a^2 - b^2 r, H = a*c,
    K = c^2 of each point; under a rational alpha the next step is decided
    on those same three integers (:func:`nacf.expansion._surd_step`), so a
    point's big products are formed once.  A surd alpha takes :func:`step`.
    """
    x0 = _as_exact(x0)
    if not isinstance(x0, Surd):
        raise ValueError("orbit_quadratic needs a genuinely irrational quadratic")
    if not p.contains(x0):
        raise OutOfDomain.at(x0)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    A, B, C = quad_coefficients(x0)
    disc0 = B * B - 4 * A * C
    nn, scale = p.N * p.N, 1  # scale = N^(2n), kept running
    x, (a, b, c, r) = x0, _surd_parts(x0)
    G, H, K = a * a - b * b * r, a * c, c * c  # the norm form of x
    kernel = p.alpha_parts[1] == 0  # a rational alpha: step on the norm form
    coeffs, points = [(A, B, C)], [x0]
    digits: list[int] = []
    seen = {(x0.a, x0.b, x0.c): 0}
    verdict = Verdict(NO_PERIOD)

    for n in range(1, budget + 1):
        d, x = _surd_step(p, x, G, H, K) if kernel else step(x, p)
        A, B, C = C, p.N * B + 2 * d * C, nn * A + p.N * B * d + C * d * d
        # for x = (a + b*sqrt(r))/c with b != 0, c^2 (A x^2 + B x + C) is
        # A(a^2 + b^2 r) + B a c + C c^2 + b (2 A a + B c) sqrt(r), which
        # vanishes exactly when both parts do; its products are x's norm form
        a, b, c = x.a, x.b, x.c
        aa, bbr = a * a, b * b * r
        G, H, K = aa - bbr, a * c, c * c
        if 2 * A * a + B * c != 0 or A * (aa + bbr) + B * H + C * K != 0:
            raise InvariantViolation("coefficient triple lost the orbit point")
        scale *= nn
        if B * B - 4 * A * C != scale * disc0:
            raise InvariantViolation("discriminant law failed")
        digits.append(d)
        coeffs.append((A, B, C))
        points.append(x)
        if (a, b, c) in seen:
            verdict = Verdict(PERIODIC, seen[a, b, c], n - seen[a, b, c])
            break
        seen[a, b, c] = n

    return OrbitTrace("quadratic", p, tuple(digits), verdict, tuple(points), coeffs=tuple(coeffs))


def discriminant_check(trace: OrbitTrace) -> bool:
    """Recompute B_n^2 - 4 A_n C_n = N^(2n) (B_0^2 - 4 A_0 C_0) on a trace."""
    if trace.kind != "quadratic":
        raise ValueError("discriminant check applies to quadratic traces")
    A, B, C = trace.coeffs[0]
    disc0 = B * B - 4 * A * C
    nn, scale = trace.params.N ** 2, 1  # scale = N^(2 index), kept running
    for A, B, C in trace.coeffs:
        if B * B - 4 * A * C != scale * disc0:
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
    ts = [cof * t for (t, _), cof in zip(trace.points, trace.cofs)]  # raw t_k
    raw = tuple(t % n for t in ts)
    reduced = tuple(t % n for t, _ in trace.points)
    common = False
    for (t, s), cof in zip(trace.points[1:], trace.cofs[1:]):
        g = cof * math.gcd(t, s)  # the gcd of the raw pair (cof*t, cof*s)
        while (h := math.gcd(g, n)) > 1:
            g //= h
        if g > 1:
            common = True
            break
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
