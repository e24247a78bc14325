"""Matching of the endpoint orbits and the intervals where it is stable.

For a rational parameter alpha, "matching" means the orbits of alpha and
alpha + 1 meet: T^K(alpha) = T^L(alpha + 1).  Stability of a matched pair
is decided through the projective criterion ADD_ONE * M_K ~ M_L on the
digit matrices of the two orbits; stable pairs persist on a parameter
interval obtained by intersecting two cylinder intervals.  Rationals that
sit in no matching interval admit a mod-2 obstruction certificate, and a
mod-N congruence obstruction rules out matching inside the coprime region.

Stability is constant along each diagonal K - L.  The digit of a point
depends on the point alone, so once T^K(alpha) = T^L(alpha + 1) both orbits
continue through the same digits, and M_{K+j} = M_K W_j, M_{L+j} = M_L W_j
with the same invertible W_j.  Hence ADD_ONE * M_{K+j} ~ M_{L+j} exactly
when ADD_ONE * M_K ~ M_L, and any two matched pairs on one diagonal are
related this way.  The scan for stable exponents therefore decides each
diagonal once, at its first matched pair.

Both endpoint orbits and their prefix matrices are held by one
_EndpointOrbits object, computed once per parameter and shared by every
check made for that parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .exact import (ExactNumber, NoRootInRange, compare_exact, format_exact,
                    rational_between, solve_mobius_fixed_point, surd, _as_exact)
from .expansion import (ADD_ONE, IDENTITY, DigitWord, Mobius, Params,
                        alpha_max, all_digits_coprime, digit_set,
                        projective_equiv)
from .orbits import orbit_rational

STABLE = "stable"
UNSTABLE = "unstable"
UNKNOWN = "unknown-for-this-N"


class PrerequisiteNotMet(ValueError):
    """The claimed matched pair does not actually match."""


class EmptyInterval(ValueError):
    """An interval operation produced an empty set."""


class BadRational(Exception):
    """No stable matched pair was found within the scan budget."""

    def __init__(self, alpha, n, budget):
        super().__init__(f"no stable matching for alpha={alpha} within K+L <= {budget}")
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
    matrices M_0 = I, M_k = M_{k-1} * branch(d_k), built on demand up to
    the largest index asked for."""

    def __init__(self, x0, p: Params, count: int):
        self.trace = orbit_rational(x0, p, count)
        self.n = p.N
        self._matrices = [IDENTITY]

    def matrix(self, k: int) -> Mobius:
        ms = self._matrices
        while len(ms) <= k:
            ms.append(ms[-1] @ Mobius.branch(self.n, self.trace.digit_at(len(ms) - 1)))
        return ms[k]

    def head(self, k: int) -> tuple[int, ...]:
        """The digits d_1..d_k."""
        return tuple(map(self.trace.digit_at, range(k)))


class _EndpointOrbits:
    """The orbits of a rational alpha (``a``) and of alpha + 1 (``b``) over
    ``count`` steps.

    Built once per parameter; every check made for that parameter reads the
    same values, digits and prefix matrices, each up to its own budget.
    """

    def __init__(self, alpha, n: int, count: int):
        if not isinstance(_as_exact(alpha), Fraction):
            raise ValueError("matching detection works on rational parameters")
        p = Params(n, alpha)
        self.alpha, self.N = p.alpha, n
        self.a = _Orbit(p.alpha, p, count)
        self.b = _Orbit(p.upper, p, count)

    def stability(self, k: int, l: int) -> str:
        if projective_equiv(ADD_ONE @ self.a.matrix(k), self.b.matrix(l)):
            return STABLE
        return UNSTABLE if self.N == 2 else UNKNOWN

    def diagonal_heads(self, budget: int):
        """The first matched pair (K, L) with 1 <= K, L <= budget on each
        diagonal K - L, in (K+L, K) order.  Later pairs on a diagonal share
        its stability verdict (see the module docstring)."""
        ids: dict = {}

        def value_ids(trace):
            # ids of x_0..x_budget: the stored head, then the cycle repeated
            v = trace.verdict
            out = [ids.setdefault(st.value, len(ids))
                   for st in trace.states[:v.first_repeat]]
            cycle = out[v.pre_period:] if v.is_periodic else []
            while cycle and len(out) <= budget:
                out += cycle
            return out

        va, vb = value_ids(self.a.trace), value_ids(self.b.trace)
        seen = set()
        for s in range(2, 2 * budget + 1):
            for k in range(max(1, s - budget), min(s - 1, budget) + 1):
                if va[k] == vb[s - k] and 2 * k - s not in seen:
                    seen.add(2 * k - s)
                    yield k, s - k


def _minimal_match(a, b, budget: int) -> Optional[tuple[int, int, Fraction]]:
    # Values first occur before the first repeat: stored states suffice.
    first_a: dict = {}
    for i, st in enumerate(a.states[:budget + 1]):
        first_a.setdefault(st.value, i)
    best = None
    for j, st in enumerate(b.states[:budget + 1]):
        i = first_a.get(st.value)
        if i is None:
            continue
        cand = (i + j, i, j)
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    _, i, j = best
    return i, j, a.states[i].value


def detect_matching(alpha, n: int, budget: int = 500
                    ) -> Union[MatchReport, NoMatchWithinBudget]:
    """Scan the exact endpoint orbits for the minimal matched pair.

    Pairs are ordered by K+L, ties broken towards smaller K.  A miss within
    the budget returns a NoMatchWithinBudget record carrying the congruence
    obstruction certificate when its hypotheses hold.
    """
    return _detect_matching(_EndpointOrbits(alpha, n, budget), budget)


def _detect_matching(orbits: _EndpointOrbits, budget: int
                     ) -> Union[MatchReport, NoMatchWithinBudget]:
    alpha, n = orbits.alpha, orbits.N
    hit = _minimal_match(orbits.a.trace, orbits.b.trace, budget)
    if hit is None:
        obs = no_matching_obstruction(alpha, n)
        return NoMatchWithinBudget(alpha, n, budget, obs if obs.holds else None)
    k, l, value = hit
    return MatchReport(alpha, n, k, l, value, orbits.stability(k, l))


def stability_check(alpha, n: int, k: int, l: int) -> str:
    """Projective matrix criterion for a verified matched pair (K, L).

    Equivalence of ADD_ONE * M_K and M_L gives a stable match for every N;
    non-equivalence is conclusive only for N = 2 and is otherwise reported
    as unknown.
    """
    return _stability_check(_EndpointOrbits(alpha, n, max(k, l) + 1), k, l)


def _stability_check(orbits: _EndpointOrbits, k: int, l: int) -> str:
    if orbits.a.trace.value_at(k) != orbits.b.trace.value_at(l):
        raise PrerequisiteNotMet(f"T^{k}(alpha) != T^{l}(alpha+1)")
    return orbits.stability(k, l)


def _level_interval(kind: str, prefix: Mobius, last: int, depth: int,
                    n: int) -> ParamInterval:
    # Boundary equations for the last digit of a prefix of length ``depth``,
    # given the matrix ``prefix`` of the digits before it: one for the word
    # with that digit increased, one for the word itself when the digit
    # exceeds one, or for the word shortened by one with the argument shifted
    # by one when it equals one (the orbit exits through alpha + 1 there).
    # A one-digit word ending in 1 has no second equation; the domain edge
    # binds.  Clamped to (0, sqrt(N)-1].
    s = 1 if kind == "alpha_plus_one" else 0

    def boundary(m: Mobius) -> Optional[ExactNumber]:
        try:
            return solve_mobius_fixed_point(m, s, lo=Fraction(0), hi=None)
        except NoRootInRange:
            return None

    a1 = boundary(prefix @ Mobius.branch(n, last + 1))
    if last > 1:
        a2 = boundary(prefix @ Mobius.branch(n, last))
    elif depth >= 2:
        a2 = boundary(prefix @ ADD_ONE)
    else:
        a2 = None

    lo, hi = (a1, a2) if depth % 2 == 1 else (a2, a1)
    edge = alpha_max(n)
    if lo is None:
        raise EmptyInterval("left boundary has no positive solution")
    if compare_exact(lo, edge) >= 0:
        raise EmptyInterval("cylinder lies beyond the parameter space")
    if hi is None or compare_exact(hi, edge) > 0:
        return ParamInterval(lo, edge, True, False)
    return ParamInterval(lo, hi, True, True)


def cylinder_interval(kind: str, digits: Sequence[int], n: int) -> ParamInterval:
    """Parameters whose own expansion (or that of alpha + 1) starts with ``digits``.

    Each prefix length contributes a pair of boundary equations; the cylinder
    is the intersection over all prefix lengths.  (The innermost pair alone
    is not sound: its interval can poke out of a shorter prefix's cylinder
    when the parameter sits close to a shallower branch boundary.)
    """
    digits = tuple(int(d) for d in digits)
    if not digits or any(d < 1 for d in digits):
        raise ValueError("need a nonempty prefix of positive digits")
    if kind not in ("alpha", "alpha_plus_one"):
        raise ValueError("kind must be 'alpha' or 'alpha_plus_one'")
    interval, prefix = None, IDENTITY
    for depth, d in enumerate(digits, 1):
        level = _level_interval(kind, prefix, d, depth, n)
        interval = level if interval is None else interval.intersect(level)
        prefix = prefix @ Mobius.branch(n, d)
    return interval


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

    Scans matched pairs in (K+L, K) order for the first projectively stable
    one, deciding stability once per diagonal K - L, and intersects the two
    cylinder intervals of the orbits' digit prefixes.  Raises BadRational
    when no stable pair exists within the budget (a candidate bad rational,
    not a proof).
    """
    if n != 2:
        raise ValueError("matching intervals are proof-backed only for N = 2")
    return _matching_interval(_EndpointOrbits(alpha, n, budget), budget)


def _matching_interval(orbits: _EndpointOrbits, budget: int) -> MatchingInterval:
    # Pairs with K = 0 or L = 0 have no digit prefix to pin a cylinder with.
    for k, l in orbits.diagonal_heads(budget):
        if orbits.stability(k, l) != STABLE:
            continue
        cyl_a = cylinder_interval("alpha", orbits.a.head(k), orbits.N)
        cyl_b = cylinder_interval("alpha_plus_one", orbits.b.head(l), orbits.N)
        interval = cyl_a.intersect(cyl_b)
        if not interval.contains(orbits.alpha):
            raise MismatchDetected("stable pair's interval misses alpha")
        return MatchingInterval(orbits.alpha, orbits.N, k, l, interval)
    raise BadRational(orbits.alpha, orbits.N, budget)


@dataclass(frozen=True)
class Obstruction:
    holds: bool
    reason: str

    def to_json(self) -> dict:
        return {"holds": self.holds, "reason": self.reason}

    def __str__(self):
        return ("ObstructionHolds: " if self.holds else "HypothesesFail: ") + self.reason


def no_matching_obstruction(alpha, n: int) -> Obstruction:
    """Congruence certificate that alpha has no (stable) matching.

    Requires every digit of (N, alpha) to be coprime with N and the reduced
    numerators of both endpoint orbits to stay clear of N.  For alpha = t/s
    this follows from N not dividing t nor t+s.  When N is prime and divides
    t, the reduced numerators become coprime with N after finitely many
    steps; each early step is then cleared by checking that d*q + p = 0
    (mod N) is unsatisfiable over the digit set, where p/q is the next
    orbit value.
    """
    alpha = _as_exact(alpha)
    if not isinstance(alpha, Fraction):
        raise ValueError("the obstruction applies to rational parameters")
    p = Params(n, alpha)
    if not all_digits_coprime(p):
        return Obstruction(False, "some digit shares a factor with N")
    t0, s0 = alpha.numerator, alpha.denominator
    if (t0 + s0) % n == 0:
        return Obstruction(False, "N divides t0 + s0")
    if t0 % n != 0:
        return Obstruction(True, "digits coprime with N; N divides neither t0 nor t0+s0")
    # N | t0: usable only for prime N, where non-divisibility of the reduced
    # numerators re-establishes itself after finitely many steps and the
    # early steps can be cleared one by one.
    if any(n % q == 0 for q in range(2, n)):
        return Obstruction(False, "N divides t0 and N is composite")
    ds = digit_set(p)
    trace = orbit_rational(alpha, p, budget=64)
    vals = trace.values()
    for i, v in enumerate(vals):
        if v.numerator % n != 0:
            break
        if i + 1 >= len(vals):
            return Obstruction(False, "numerators kept the factor N past the scan window")
        nxt = vals[i + 1]
        pq = (nxt.numerator, nxt.denominator)
        if any((d * pq[1] + pq[0]) % n == 0 for d in ds):
            return Obstruction(False, f"congruence escape at step {i}")
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
    ok = ok and orbits.a.trace.value_at(1) == Fraction(1) == orbits.b.trace.value_at(4)

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
    """All (K, L) with ADD_ONE*M_K projectively equivalent to M_L."""
    orbits = _EndpointOrbits(alpha, n, max(max_k, max_l))
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

    def to_json(self) -> dict:
        return {"family": self.family, "k": self.k,
                "alpha": format_exact(self.alpha),
                "exponents": list(self.exponents),
                "interval": None if self.interval is None else self.interval.to_json(),
                "ok": self.ok, "failures": list(self.failures)}


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
    if not projective_equiv(rm, mb):
        failures.append("projective equivalence")
    try:
        if _stability_check(orbits, kk, ll) != STABLE:
            failures.append("stability")
    except PrerequisiteNotMet:
        failures.append("stability (exponents do not match)")

    interval = None
    if not matrices_only:
        det = _detect_matching(orbits, _FAMILY_MATCH_BUDGET)
        if not isinstance(det, MatchReport) or (det.K, det.L) != forms["point_exponents"]:
            failures.append("point-match exponents")
        try:
            mi = _matching_interval(orbits, max(kk, ll) + 8)
        except (BadRational, EmptyInterval, MismatchDetected) as exc:
            failures.append(f"matching interval ({exc})")
        else:
            interval = mi.interval
            if (mi.K, mi.L) != (kk, ll):
                failures.append("stable exponents")
            if not (interval.lo == forms["lo"](k) and interval.hi == forms["hi"](k)):
                failures.append("interval endpoints")

    return FamilyCheck(family, k, alpha, (kk, ll), interval, tuple(failures))


def verify_theorem_intervals(families, k_range, matrices_only: bool = False,
                             strict: bool = False) -> list[FamilyCheck]:
    """Run the closed-form checks over families and k values.

    ``families`` may be a single name or an iterable drawn from i..iv;
    ``strict`` raises MismatchDetected at the first failing component.
    """
    if isinstance(families, str):
        families = [families]
    out = []
    for fam in families:
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        for k in k_range:
            check = verify_family(fam, k, matrices_only=matrices_only)
            if strict and not check.ok:
                raise MismatchDetected(
                    f"family {fam}, k={k}: {', '.join(check.failures)}")
            out.append(check)
    return out
