"""Matching of the endpoint orbits and the intervals where it is stable.

For a rational parameter alpha, "matching" means the orbits of alpha and
alpha + 1 meet: T^K(alpha) = T^L(alpha + 1).  Stability of a matched pair
is decided through the projective criterion ADD_ONE * M_K ~ M_L on the
digit matrices of the two orbits; stable pairs persist on a parameter
interval, the cylinder of both orbits' digit prefixes.  That is one bound
pair, solved on the prefix matrices the orbits hold and clamped once; the
bounds are solved and compared as integer views, and only the final pair
becomes surds.
Rationals that sit in no matching interval admit a mod-2 obstruction
certificate, and a mod-N congruence obstruction rules out matching inside
the coprime region.

Stability is constant along each diagonal K - L.  The digit of a point
depends on the point alone, so once T^K(alpha) = T^L(alpha + 1) both orbits
continue through the same digits, and M_{K+j} = M_K W_j, M_{L+j} = M_L W_j
with the same invertible W_j.  Hence ADD_ONE * M_{K+j} ~ M_{L+j} exactly
when ADD_ONE * M_K ~ M_L, and any two matched pairs on one diagonal are
related this way.  Stability is therefore decided once per diagonal, at
its first matched pair.

For N = 2 every rational orbit ends at the fixed point 1, whose digit is 1
(the paper's period-1 theorem).  Let ka and kb be the first indices with
T^ka(alpha) = 1 = T^kb(alpha + 1).  After a match with a value other than
1 both orbits go on together and reach 1 at once, so every such match lies
on the diagonal D0 = ka - kb of the minimal match.  The other matches are
the tail pairs K >= ka, L >= kb, and they meet every diagonal D0 + e.  On
the tail M_K = M_ka B^(K-ka) with B = branch(2, 1), so the tail diagonal
D0 + e is stable exactly when X = (ADD_ONE M_ka)^-1 M_kb ~ B^e.  B has the
eigenvalues 2 and -1; X ~ B^e means X commutes with B, so X = uI + vB, and
(u + 2v)/(u - v) = (-2)^e.  At most one e qualifies, so matching_interval
weighs at most two diagonal heads: D0's, checked directly, and that e's.

A parameter's endpoint orbits, their prefix matrices, its minimal match
and that match's diagonal stability are each decided once, on one
_EndpointOrbits object that match, interval and verify all read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence, Union

from .exact import (ExactNumber, compare_exact, format_exact, rational_between,
                    surd, _as_exact, _compare_views, _int_str, _root_view,
                    _strong_probable_prime, _PRIME_PROOF_BOUND)
from .expansion import (ADD_ONE, IDENTITY, DigitWord, Mobius, Params,
                        alpha_max, all_digits_coprime, projective_equiv, step,
                        _running_products)
from .orbits import PERIODIC, InvariantViolation, orbit_rational

STABLE = "stable"
UNSTABLE = "unstable"
UNKNOWN = "unknown-for-this-N"


class PrerequisiteNotMet(ValueError):
    """The claimed matched pair does not actually match."""


class EmptyInterval(ValueError):
    """An interval operation produced an empty set."""


class BadRational(Exception):
    """No stable matched pair was found within the scan budget.

    ``proved`` is True when both endpoint orbits reached 1 and no stable
    pair exists at any K and L, so alpha sits in no matching interval.
    """

    proved = False

    def __init__(self, alpha, n, budget):
        super().__init__(f"no stable matching for alpha={alpha} within K+L <= {_int_str(budget)}")
        self.alpha = alpha
        self.N = n
        self.budget = budget


class MismatchDetected(Exception):
    """A recomputed quantity disagrees with its closed form."""


@dataclass(frozen=True)
class ParamInterval:
    """An interval of parameters with exact rational or surd endpoints."""

    lo: ExactNumber
    hi: ExactNumber
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_exact(self.lo))
        object.__setattr__(self, "hi", _as_exact(self.hi))
        c = compare_exact(self.lo, self.hi)
        if c > 0 or (c == 0 and (self.lo_open or self.hi_open)):
            raise EmptyInterval(f"lo={format_exact(self.lo)} hi={format_exact(self.hi)}")

    def contains(self, x) -> bool:
        cl = compare_exact(self.lo, x)
        ch = compare_exact(x, self.hi)
        return (cl < 0 or (cl == 0 and not self.lo_open)) and \
               (ch < 0 or (ch == 0 and not self.hi_open))

    def intersect(self, other: "ParamInterval") -> "ParamInterval":
        cl = compare_exact(self.lo, other.lo)
        lo, lo_open = (self.lo, self.lo_open) if cl > 0 else \
                      (other.lo, other.lo_open) if cl < 0 else \
                      (self.lo, self.lo_open or other.lo_open)
        ch = compare_exact(self.hi, other.hi)
        hi, hi_open = (self.hi, self.hi_open) if ch < 0 else \
                      (other.hi, other.hi_open) if ch > 0 else \
                      (self.hi, self.hi_open or other.hi_open)
        return ParamInterval(lo, hi, lo_open, hi_open)

    def sample(self) -> Fraction:
        """An exact rational strictly inside the interval.

        A one-point interval [a, a] has no interior and raises EmptyInterval.
        """
        try:
            return rational_between(self.lo, self.hi)
        except ValueError as exc:
            raise EmptyInterval(f"no interior: {self}") from exc

    def to_json(self) -> dict:
        return {"lo": format_exact(self.lo), "hi": format_exact(self.hi),
                "lo_open": self.lo_open, "hi_open": self.hi_open}

    def __str__(self):
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{format_exact(self.lo)}, {format_exact(self.hi)}{right}"


@dataclass(frozen=True)
class MatchReport:
    alpha: Fraction
    N: int
    K: int
    L: int
    matched_value: ExactNumber
    stable: str  # STABLE | UNSTABLE | UNKNOWN

    @property
    def index(self) -> int:
        return self.K - self.L

    def to_json(self) -> dict:
        return {"alpha": format_exact(self.alpha), "N": self.N, "K": self.K,
                "L": self.L, "index": self.index,
                "matched_value": format_exact(self.matched_value),
                "stable": self.stable}


@dataclass(frozen=True)
class NoMatchWithinBudget:
    alpha: Fraction
    N: int
    budget: int
    obstruction: Optional["Obstruction"] = None

    def to_json(self) -> dict:
        return {"alpha": format_exact(self.alpha), "N": self.N,
                "budget": self.budget, "match": None,
                "obstruction": None if self.obstruction is None
                else self.obstruction.to_json()}


class _Orbit:
    """One exact orbit, stored once as an OrbitTrace lasso, plus its prefix
    matrices M_0 = I, M_k = M_{k-1} * branch(d_k), drawn on demand up to
    the largest index asked for."""

    def __init__(self, x0, p: Params, count: int):
        self.trace = orbit_rational(x0, p, count)
        self._matrices = [IDENTITY]
        self._products = _running_products(p.N, self.trace.lasso_digits())

    def matrix(self, k: int) -> Mobius:
        ms = self._matrices
        if len(ms) <= k:
            ms.extend(itertools.islice(self._products, k + 1 - len(ms)))
        return ms[k]

    def head(self, k: int) -> tuple[int, ...]:
        """The digits d_1..d_k."""
        return tuple(itertools.islice(self.trace.lasso_digits(), k))


class _EndpointOrbits:
    """The orbits of a rational alpha (``a``) and of alpha + 1 (``b``) over
    ``count`` steps, each built on first use (the constructor only checks
    the inputs), and the matching facts read from them: the minimal match
    and its diagonal's stability, the report, the stable heads and the
    interval."""

    def __init__(self, alpha, n: int, count: int):
        if not isinstance(_as_exact(alpha), Fraction):
            raise ValueError("matching detection works on rational parameters")
        self.params = Params(n, alpha)
        if count < 1:
            raise ValueError("budget must be >= 1")
        self.alpha, self.N, self.count = self.params.alpha, n, count

    @cached_property
    def a(self) -> _Orbit:
        return _Orbit(self.params.alpha, self.params, self.count)

    @cached_property
    def b(self) -> _Orbit:
        return _Orbit(self.params.upper, self.params, self.count)

    def stability(self, k: int, l: int) -> str:
        if projective_equiv(ADD_ONE @ self.a.matrix(k), self.b.matrix(l)):
            return STABLE
        return UNSTABLE if self.N == 2 else UNKNOWN

    @cached_property
    def first_match(self) -> Optional[tuple[int, int, str]]:
        """The minimal matched pair (K, L) in (K+L, K) order and the
        stability of its diagonal, or None when the orbits do not meet
        within the build.  Values first occur before the first repeat, so
        the stored points suffice, and they are matched as reduced pairs:
        equal pairs are equal values."""
        first_a = self.a.trace.first_index
        best = min(((i + j, i, j) for j, v in enumerate(self.b.trace.points)
                    if (i := first_a.get(v)) is not None), default=None)
        if best is None:
            return None
        _, k, l = best
        return k, l, self.stability(k, l)

    def report(self) -> Union[MatchReport, NoMatchWithinBudget]:
        """The minimal matched pair within the build's count."""
        if self.first_match is None:
            return NoMatchWithinBudget(self.alpha, self.N, self.count)
        k, l, stable = self.first_match
        return MatchReport(self.alpha, self.N, k, l, self.a.trace.value_at(k), stable)

    def stable_heads(self) -> list[tuple[int, int]]:
        """The head (K, L), K, L >= 1, of each stable diagonal K - L for
        N = 2: the minimal match's diagonal D0 and at most one tail diagonal
        D0 + e (see the module docstring)."""
        ta, tb = self.a.trace, self.b.trace
        if PERIODIC in (ta.verdict.kind, tb.verdict.kind):
            raise InvariantViolation("an N = 2 endpoint orbit cycles away from 1")
        if self.first_match is None:
            return []
        k, l, stable = self.first_match
        if k == 0 or l == 0:  # no digit prefix to pin a cylinder with; the
            k, l = k + 1, l + 1  # shifted head lies on the same diagonal
        heads = [(k, l)] if stable == STABLE else []
        ka, kb = ta.one_at, tb.one_at
        if ka is None or kb is None:
            return heads
        y, b1 = ADD_ONE @ self.a.matrix(ka), Mobius.branch(2, 1)
        x = Mobius(y.d, -y.b, -y.c, y.a) @ self.b.matrix(kb)
        if x @ b1 == b1 @ x:
            r = Fraction(x.a + 2 * x.c, x.a - x.c)  # (-2)^e exactly when X ~ B^e
            m = (abs(r.numerator) * r.denominator).bit_length() - 1
            e = m if r.denominator == 1 else -m
            if e and Fraction(-2) ** e == r:
                d = k - l + e
                k_tail = max(ka, kb + d)
                heads.append((k_tail, k_tail - d))
        return heads

    def interval(self, budget: int) -> MatchingInterval:
        """``matching_interval(alpha, 2, budget)`` for any budget up to the
        build's count.

        A build longer than ``budget`` finds the same first matched pair
        whenever it lies within ``budget``, and any stable head it adds lies
        beyond that budget and is dropped; it can only settle more
        BadRational cases as ``proved``."""
        heads = self.stable_heads()
        first = min(((k + l, k, l) for k, l in heads if max(k, l) <= budget), default=None)
        if first is None:
            exc = BadRational(self.alpha, self.N, budget)
            exc.proved = not heads and None not in (self.a.trace.one_at, self.b.trace.one_at)
            raise exc
        _, k, l = first
        a, b = self.a, self.b
        interval = _cylinder(self.N, [(0, a.head(k), map(a.matrix, range(1, k + 1))),
                                      (1, b.head(l), map(b.matrix, range(1, l + 1)))])
        if not interval.contains(self.alpha):
            raise MismatchDetected("stable pair's interval misses alpha")
        return MatchingInterval(self.alpha, self.N, k, l, interval)


def detect_matching(alpha, n: int, budget: int = 500
                    ) -> Union[MatchReport, NoMatchWithinBudget]:
    """Scan the exact endpoint orbits for the minimal matched pair.

    Pairs are ordered by K+L, ties broken towards smaller K.  The
    congruence certificate of no_matching_obstruction is tried first,
    after the input checks the scan makes: where it holds the orbits never
    meet, and the NoMatchWithinBudget record carrying it is returned
    without iterating either orbit.  A miss within the budget carries no
    certificate.
    """
    return _match(alpha, n, budget)[0]


def _match(alpha, n: int, budget: int):
    """``detect_matching(alpha, n, budget)`` and the endpoint orbits it
    read, built over ``budget`` steps, or None where the certificate
    answered without them."""
    orbits = _EndpointOrbits(alpha, n, budget)
    obs = no_matching_obstruction(orbits.alpha, n)
    if obs.holds:
        return NoMatchWithinBudget(orbits.alpha, n, budget, obs), None
    return orbits.report(), orbits


def stability_check(alpha, n: int, k: int, l: int) -> str:
    """Projective matrix criterion for a verified matched pair (K, L).

    Equivalence of ADD_ONE * M_K and M_L gives a stable match for every N;
    non-equivalence is conclusive only for N = 2 and is otherwise reported
    as unknown.
    """
    if k < 0 or l < 0:
        raise ValueError(f"stability_check needs K, L >= 0, got {k}, {l}")
    orbits = _EndpointOrbits(alpha, n, max(k, l) + 1)
    if orbits.a.trace.point_at(k) != orbits.b.trace.point_at(l):
        raise PrerequisiteNotMet(f"T^{k}(alpha) != T^{l}(alpha+1)")
    return orbits.stability(k, l)


def _cylinder(n: int, orbits) -> ParamInterval:
    # The parameters at which every orbit starts with its digits.  ``orbits``
    # holds one (s, digits d_1..d_k, running products M_1..M_k) per orbit,
    # with s = 0 for alpha and 1 for alpha + 1.  A prefix length bounds the
    # cylinder by the roots for the word with its last digit increased and
    # for the word itself (last digit > 1), or for the word shortened by one
    # with the argument shifted by one (last digit 1: the orbit exits through
    # alpha + 1); a one-digit word ending in 1 has only the first.  Every
    # bound is open: keep the largest lower and the smallest upper root (the
    # earlier on a tie), and clamp them to (0, sqrt(N)-1] once.  Roots are
    # solved and compared as integer views, read from the prefix's four
    # entries, and only the two that survive become surds.
    lo = hi = None
    for s, digits, products in orbits:
        pa, pb, pc, pd = 1, 0, 0, 1  # the prefix M_{depth-1}
        for depth, (d, word) in enumerate(zip(digits, products), 1):
            e = d + 1  # prefix @ branch(n, d + 1), then the word or prefix @ ADD_ONE
            a1 = _root(pb, n * pa + e * pb, pd, n * pc + e * pd, s)
            a2 = (_root(word.a, word.b, word.c, word.d, s) if d > 1 else
                  _root(pa, pa + pb, pc, pc + pd, s) if depth >= 2 else None)
            low, high = (a1, a2) if depth % 2 == 1 else (a2, a1)
            if low is None:
                raise EmptyInterval("left boundary has no positive solution")
            if lo is None or _compare_views(low, lo) > 0:
                lo = low
            if high is not None and (hi is None or _compare_views(high, hi) < 0):
                hi = high
            pa, pb, pc, pd = word.a, word.b, word.c, word.d
    lo, edge = _value(lo), alpha_max(n)
    hi = None if hi is None else _value(hi)
    if hi is None or compare_exact(hi, edge) > 0:
        return ParamInterval(lo, edge, True, False)
    return ParamInterval(lo, hi, True, True)


def _root(a: int, b: int, c: int, d: int, s: int) -> Optional[tuple]:
    # the view of the root >= 0 of x + s = (a*x + b)/(c*x + d), as
    # solve_mobius_fixed_point((a, b, c, d), s, lo=0) expands and picks it
    return _root_view(c, d + s * c - a, s * d - b)


def _value(view: tuple) -> ExactNumber:
    a, b, c, d = view
    return surd(a, b, d, c)


def cylinder_interval(kind: str, digits: Sequence[int], n: int) -> ParamInterval:
    """Parameters whose own expansion (or that of alpha + 1) starts with ``digits``.

    Each prefix length gives a pair of open bounds; the cylinder keeps the
    largest lower and the smallest upper one, clamped once to (0, sqrt(N)-1].
    (The innermost pair alone is not sound: it can poke out of a shorter
    prefix's cylinder when alpha sits close to a shallower branch boundary.)
    For N >= 3 the bound of the word itself (last digit > 1) can be attained
    and is still reported open: alpha = 5/14 at N = 3 has the alpha + 1 word
    (1, 2, 5, 2), whose cylinder is (5/14, (-11+2*sqrt(46))/7).
    """
    digits = tuple(int(d) for d in digits)
    if not digits or any(d < 1 for d in digits):
        raise ValueError("need a nonempty prefix of positive digits")
    if kind not in ("alpha", "alpha_plus_one"):
        raise ValueError("kind must be 'alpha' or 'alpha_plus_one'")
    return _cylinder(n, [(int(kind == "alpha_plus_one"), digits, _running_products(n, digits))])


@dataclass(frozen=True)
class MatchingInterval:
    alpha: Fraction
    N: int
    K: int
    L: int
    interval: ParamInterval

    def to_json(self) -> dict:
        return {"alpha": format_exact(self.alpha), "N": self.N, "K": self.K,
                "L": self.L, "index": self.K - self.L,
                "interval": self.interval.to_json()}


def matching_interval(alpha, n: int, budget: int = 40) -> MatchingInterval:
    """Stable exponents and the surrounding parameter interval (N = 2 only).

    Takes the first projectively stable matched pair in (K+L, K) order with
    K, L <= budget, from the at most two stable diagonal heads decided in
    closed form, and intersects the two cylinder intervals of the orbits'
    digit prefixes.  Raises BadRational when no such pair exists; its
    ``proved`` flag says whether none exists at any K and L.  Raises
    InvariantViolation if an endpoint orbit cycles away from 1, against the
    paper's theorem for N = 2.
    """
    if n != 2:
        raise ValueError("matching intervals are proof-backed only for N = 2")
    return _EndpointOrbits(alpha, n, budget).interval(budget)


@dataclass(frozen=True)
class Obstruction:
    holds: bool
    reason: str

    def to_json(self) -> dict:
        return {"holds": self.holds, "reason": self.reason}

    def __str__(self):
        return ("ObstructionHolds: " if self.holds else "HypothesesFail: ") + self.reason


def no_matching_obstruction(alpha, n: int) -> Obstruction:
    """Congruence certificate that the endpoint orbits of alpha never meet.

    Call x = t/s (lowest terms) coprime when gcd(t, N) = 1.  A step sends
    x to (N s - d t)/t, and gcd(N s - d t, t) = gcd(N, t), so a coprime x
    maps to z = P/Q with Q = t and N | P + d Q.  With every digit coprime
    with N the digits span fewer than N integers, so that congruence fixes
    d: z has at most one coprime preimage, Q/((P + d Q)/N), and z is
    coprime again.  Let v_0..v_j and w_0..w_k be the orbits of alpha and
    alpha + 1 up to their first coprime values (j = 0 or k = 0 when the
    endpoint itself is coprime).  Take a minimal match
    T^K(alpha) = T^L(alpha + 1) = z:

    - L = 0: a step takes the value alpha + 1 only through the left-end
      rule at alpha, where N/alpha - alpha is an integer (alpha = 1 matches
      at K, L = 1, 0 this way).  The certificate declines at this cut point.
    - K = 0: z = alpha = T(y) with y = w_{L-1}.  If y is not coprime, alpha
      is among w_1..w_k.  If it is, w_k..w_{L-1} are all coprime, so
      walking back from alpha through coprime preimages reaches w_k.
    - K, L >= 1: x = v_{K-1} and y = w_{L-1} differ, by minimality, and
      T(x) = T(y).  Were both coprime, both would be the one coprime
      preimage of z.  So x is not coprime (K <= j, and z = v_K has a
      coprime preimage or is among w_1..w_k) or y is not (L <= k, and
      z = w_L has a coprime preimage or is among v_1..v_j).

    So the certificate holds when alpha is no cut point, no value of
    v_1..v_j and w_1..w_k has a coprime preimage, the walk back from alpha
    misses w_k, and the two lists share no value.  Both lists and the walk
    are cut at 64 steps, and the certificate declines past that.  It also
    declines outright when N divides t0 + s0, or when N divides t0 and is
    composite or too large for :func:`exact._strong_probable_prime` to prove
    prime.  Where both endpoints are coprime it iterates neither orbit.
    """
    alpha = _as_exact(alpha)
    if not isinstance(alpha, Fraction):
        raise ValueError("the obstruction applies to rational parameters")
    p = Params(n, alpha)
    if not all_digits_coprime(p):
        return Obstruction(False, "some digit shares a factor with N")
    if p.left_end_quotient is not None:
        return Obstruction(False, "cut point: alpha maps to alpha + 1 in one step")
    t0, s0 = alpha.numerator, alpha.denominator
    if (t0 + s0) % n == 0:
        return Obstruction(False, "N divides t0 + s0")
    if t0 % n == 0:
        if not _strong_probable_prime(n):
            return Obstruction(False, "N divides t0 and N is composite")
        if n >= _PRIME_PROOF_BOUND:
            return Obstruction(False, "N divides t0 and is past the proven range of the prime test")
    ds = p.digit_range

    def preimage(z: Fraction) -> Optional[Fraction]:
        for d in ds:
            if (z.numerator + d * z.denominator) % n == 0:
                return Fraction(z.denominator, (z.numerator + d * z.denominator) // n)
        return None

    heads = []
    for x, where in ((alpha, ""), (alpha + 1, " of alpha + 1")):
        vals = [x]
        while math.gcd(vals[-1].numerator, n) != 1:
            if len(vals) > 64:
                return Obstruction(False, "numerators kept the factor N past the scan window")
            vals.append(step(vals[-1], p)[1])
            if preimage(vals[-1]) is not None:
                return Obstruction(False, f"congruence escape at step {len(vals) - 2}{where}")
        heads.append(vals)
    va, wb = heads
    if not set(va).isdisjoint(wb[1:]):
        return Obstruction(False, "the endpoint orbits meet before they turn coprime")
    z, seen = alpha, set()
    for _ in range(64):
        z = preimage(z)
        if z is None or not alpha <= z <= alpha + 1 or z in seen:
            break
        if z == wb[-1]:
            return Obstruction(False, "the orbit of alpha + 1 reaches alpha")
        seen.add(z)
    else:
        return Obstruction(False, "the walk back from alpha ran past the scan window")
    if t0 % n != 0:
        return Obstruction(True, "digits coprime with N; N divides neither t0 nor t0+s0")
    return Obstruction(True, "digits coprime with N; early N-divisible steps cleared")


@dataclass(frozen=True)
class BadRationalCertificate:
    """Mod-2 residue certificate that 1/2^n sits in no matching interval."""

    n: int
    alpha: Fraction
    word_alpha: DigitWord
    word_alpha_plus_one: DigitWord
    point_exponents: tuple[int, int]
    rm: Mobius          # ADD_ONE * M_{alpha,1}
    m4: Mobius          # M_{alpha+1,4}
    valid: bool

    def to_json(self) -> dict:
        return {"n": self.n, "alpha": format_exact(self.alpha),
                "word_alpha": str(self.word_alpha),
                "word_alpha_plus_one": str(self.word_alpha_plus_one),
                "point_exponents": list(self.point_exponents),
                "rm": list(self.rm.entries()), "m4": list(self.m4.entries()),
                "valid": self.valid}


def bad_rational_certificate(n: int) -> BadRationalCertificate:
    """Certify that alpha = 1/2^n (n >= 3) is a bad rational for N = 2.

    Verifies the two expansions, the point match (1, 4), the closed-form
    matrices, and that the classes of ADD_ONE*M_K and of half of M_L mod 2
    ([[1,1],[1,1]] and [[0,0],[1,1]]) are preserved under appending further
    digits 1, so no pair of exponents is ever projectively equivalent.
    """
    if n < 3:
        raise ValueError("the family starts at n = 3")
    alpha = Fraction(1, 2 ** n)
    pad = n + 6
    word_a = DigitWord((2 ** (n + 1) - 1,), (1,))
    word_b = DigitWord((1, 2, 2 ** (n - 1) - 1, 3), (1,))
    orbits = _EndpointOrbits(alpha, 2, pad)
    ok = orbits.a.head(pad) == word_a.head(pad)
    ok = ok and orbits.b.head(pad) == word_b.head(pad)
    ok = ok and orbits.a.trace.point_at(1) == (1, 1) == orbits.b.trace.point_at(4)

    rm = ADD_ONE @ orbits.a.matrix(1)
    m4 = orbits.b.matrix(4)
    two = 2 ** (n + 1)
    ok = ok and rm == Mobius(1, two + 1, 1, two - 1)
    ok = ok and m4 == Mobius(two, 3 * two + 8, two - 2, 3 * two + 2)
    ok = ok and all(e % 2 == 0 for e in m4.entries())
    m4_half = Mobius(*(e // 2 for e in m4.entries()))

    b1 = Mobius.branch(2, 1)
    ok = ok and rm.entries_mod(2) == (1, 1, 1, 1)
    ok = ok and m4_half.entries_mod(2) == (0, 0, 1, 1)
    for cls in ((1, 1, 1, 1), (0, 0, 1, 1)):
        stepped = Mobius(*cls) @ b1
        ok = ok and stepped.entries_mod(2) == cls

    return BadRationalCertificate(n, alpha, word_a, word_b, (1, 4), rm, m4, ok)


def equivalence_scan(alpha, n: int, max_k: int, max_l: int) -> list[tuple[int, int]]:
    """All (K, L) with ADD_ONE*M_K projectively equivalent to M_L.

    An empty range gives [] without building either orbit."""
    orbits = _EndpointOrbits(alpha, n, max(max_k, max_l, 1))
    if min(max_k, max_l) < 1:
        return []
    hits = []
    for k in range(1, max_k + 1):
        rma = ADD_ONE @ orbits.a.matrix(k)
        for l in range(1, max_l + 1):
            if projective_equiv(rma, orbits.b.matrix(l)):
                hits.append((k, l))
    return hits


def _family_table():
    return {
        "i": {
            "alpha": lambda k: Fraction(2, 9 + 4 * k),
            "word_alpha": lambda k: DigitWord((8 + 4 * k,), (1,)),
            "word_alpha_plus_one": lambda k: DigitWord((1, 2, k + 1, 2, 2), (1,)),
            "exponents": (3, 5),
            "point_exponents": (1, 5),
            "rm": lambda k: Mobius(4 * k + 12, 12 * k + 32, 4 * k + 10, 12 * k + 26),
            "m_scale": 2,
            "lo": lambda k: surd(-17 - 8 * k, 1, 369 + 304 * k + 64 * k * k, 10 + 4 * k),
            "hi": lambda k: surd(-2 - k, 1, 6 + 5 * k + k * k, 2 + k),
        },
        "ii": {
            "alpha": lambda k: Fraction(8, 43 + 16 * k),
            "word_alpha": lambda k: DigitWord((10 + 4 * k, 2, 2), (1,)),
            "word_alpha_plus_one": lambda k: DigitWord((1, 2, k + 2, 10, 2), (1,)),
            "exponents": (5, 5),
            "point_exponents": (2, 4),
            "rm": lambda k: Mobius(40 * k + 128, 88 * k + 280, 40 * k + 108, 88 * k + 236),
            "m_scale": 1,
            "lo": lambda k: surd(-81 - 32 * k, 1, 8289 + 5824 * k + 1024 * k * k, 54 + 20 * k),
            "hi": lambda k: surd(-10 - 4 * k, 1, 132 + 92 * k + 16 * k * k, 8 + 3 * k),
        },
        "iii": {
            "alpha": lambda k: Fraction(13, 72 + 26 * k),
            "word_alpha": lambda k: DigitWord((10 + 4 * k, 1, 2, 5), (1,)),
            "word_alpha_plus_one": lambda k: DigitWord((1, 2, k + 2, 7, 4, 2), (1,)),
            "exponents": (6, 6),
            "point_exponents": (4, 6),
            "rm": lambda k: Mobius(120 * k + 392, 296 * k + 968, 120 * k + 332, 296 * k + 820),
            "m_scale": 1,
            "lo": lambda k: surd(-133 - 52 * k, 1, 24033 + 16120 * k + 2704 * k * k, 122 + 44 * k),
            "hi": lambda k: surd(-273 - 104 * k, 1, 13 * (7061 + 4848 * k + 832 * k * k), 166 + 60 * k),
        },
        "iv": {
            "alpha": lambda k: Fraction(30, 191 + 60 * k),
            "word_alpha": lambda k: DigitWord((12 + 4 * k, 2, 2, 2, 2), (1,)),
            "word_alpha_plus_one": lambda k: DigitWord((1, 2, k + 2, 2, 2, 12, 2), (1,)),
            "exponents": (7, 7),
            "point_exponents": (4, 6),
            "rm": lambda k: Mobius(304 * k + 1120, 656 * k + 2416, 304 * k + 968, 656 * k + 2088),
            "m_scale": 1,
            "lo": lambda k: surd(-363 - 120 * k, 1, 3 * (53603 + 32080 * k + 4800 * k * k), 242 + 76 * k),
            "hi": lambda k: surd(-45 - 15 * k, 1, 15 * (170 + 101 * k + 15 * k * k), 35 + 11 * k),
        },
    }


FAMILIES = _family_table()
_FAMILY_MATCH_BUDGET = 64  # point-match scan budget for the family checks


@dataclass(frozen=True)
class FamilyCheck:
    family: str
    k: int
    alpha: Fraction
    exponents: tuple[int, int]
    interval: Optional[ParamInterval]
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_family(family: str, k: int, matrices_only: bool = False) -> FamilyCheck:
    """Recompute one member of a matching-interval family against its closed forms.

    Both endpoint orbits are computed once; the expansion, matrix,
    stability, point-match and interval checks all read them.
    """
    forms = FAMILIES[family]
    alpha = forms["alpha"](k)
    kk, ll = forms["exponents"]
    failures = []

    word_a, word_b = forms["word_alpha"](k), forms["word_alpha_plus_one"](k)
    pad = max(kk, ll) + len(word_b.prefix) + 4
    orbits = _EndpointOrbits(alpha, 2, max(pad, _FAMILY_MATCH_BUDGET))
    if orbits.a.head(pad) != word_a.head(pad):
        failures.append("expansion of alpha")
    if orbits.b.head(pad) != word_b.head(pad):
        failures.append("expansion of alpha+1")

    rm = ADD_ONE @ orbits.a.matrix(kk)
    mb = orbits.b.matrix(ll)
    if rm != forms["rm"](k):
        failures.append("matrix for alpha")
    if mb != rm.scaled(forms["m_scale"]):
        failures.append("matrix for alpha+1")
    equiv = projective_equiv(rm, mb)
    if not equiv:
        failures.append("projective equivalence")
    if orbits.a.trace.point_at(kk) != orbits.b.trace.point_at(ll):
        failures.append("stability (exponents do not match)")
    elif not equiv:
        failures.append("stability")

    interval = None
    if not matrices_only:
        det = orbits.report()
        if not isinstance(det, MatchReport) or (det.K, det.L) != forms["point_exponents"]:
            failures.append("point-match exponents")
        try:
            mi = orbits.interval(max(kk, ll) + 8)
        except (BadRational, EmptyInterval, MismatchDetected) as exc:
            failures.append(f"matching interval ({exc})")
        else:
            interval = mi.interval
            if (mi.K, mi.L) != (kk, ll):
                failures.append("stable exponents")
            if not (interval.lo == forms["lo"](k) and interval.hi == forms["hi"](k)):
                failures.append("interval endpoints")

    return FamilyCheck(family, k, alpha, (kk, ll), interval, tuple(failures))


def verify_theorem_intervals(families, k_range,
                             matrices_only: bool = False) -> list[FamilyCheck]:
    """Run the closed-form checks over families and k values.

    ``families`` may be a single name or an iterable drawn from i..iv.
    """
    if isinstance(families, str):
        families = [families]
    out = []
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        for k in k_range:
            out.append(verify_family(fam, k, matrices_only=matrices_only))
    return out
