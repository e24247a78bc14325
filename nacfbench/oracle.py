"""Reference answers for the benchmark's correctness checks.

Standard library only; this module never imports nacf.  Every expected
value is recomputed from the definitions: the map x -> N/x - d on
[alpha, alpha+1] with its left-endpoint adjustment, the branch matrices
[[0, N], [1, d]], the digit-set breakpoints, and the boundary equations of
cylinder intervals.  Where it is cheap the algorithm differs from the
program's (cells come from exact floors at dyadic sample points instead of
a comparison sort; matched pairs come from cumulative prefix matrices).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional


class Quad(NamedTuple):
    """The irrational number (a + b*sqrt(d))/c, canonical: c > 0, b != 0,
    d squarefree and > 1, gcd(a, b, c) = 1."""

    a: int
    b: int
    c: int
    d: int


def squarefree_split(n: int) -> tuple[int, int]:
    """(s, f) with n = s*s*f and f squarefree."""
    s, f, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            f *= p
        p += 1 if p == 2 else 2
    return s, f * n


def quad(a: int, b: int, d: int, c: int = 1):
    """Canonical form of (a + b*sqrt(d))/c: a Fraction or a Quad."""
    if c < 0:
        a, b, c = -a, -b, -c
    s, f = squarefree_split(d) if d > 0 else (0, 1)
    b *= s
    if b == 0 or f == 1:
        return Fraction(a + b, c)
    g = math.gcd(a, b, c)
    return Quad(a // g, b // g, c // g, f)


def floor_lin(p: int, q: int, d: int, e: int) -> int:
    """floor((p + q*sqrt(d))/e) for e > 0 and d not a perfect square."""
    r = math.isqrt(q * q * d)
    return (p + (r if q >= 0 else -r - 1)) // e


def floor_scaled(x, scale: int) -> int:
    """floor(x * scale) for a Fraction or Quad x and a positive integer scale."""
    if isinstance(x, Fraction):
        return x.numerator * scale // x.denominator
    return floor_lin(x.a * scale, x.b * scale, x.d, x.c)


def fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return f"({x.a}{x.b:+d}*sqrt({x.d}))/{x.c}"


def parse(text: str):
    text = text.strip()
    if text.startswith("("):
        head, c = text.rsplit("/", 1)
        body = head[1:-1]                        # a+b*sqrt(d)
        sign_at = max(body.rfind("+"), body.rfind("-"))
        a, rest = body[:sign_at], body[sign_at:]
        b, d = rest.split("*sqrt(")
        return quad(int(a), int(b), int(d.rstrip(")")), int(c))
    return Fraction(text)


def decimal(x, places: int) -> str:
    """Half-up decimal rendering with the given number of places."""
    scale = 10 ** places
    if isinstance(x, Fraction):
        n = math.floor(x * scale + Fraction(1, 2))
    else:
        n = floor_lin(2 * x.a * scale + x.c, 2 * x.b * scale, x.d, 2 * x.c)
    sign, n = ("-" if n < 0 else ""), abs(n)
    return f"{sign}{n // scale}.{n % scale:0{places}d}"


def less(x, y) -> bool:
    """x < y for Fractions and Quads, by refining dyadic floors."""
    if x == y:
        return False
    bits = 64
    while True:
        fx, fy = floor_scaled(x, 1 << bits), floor_scaled(y, 1 << bits)
        if fx != fy:
            return fx < fy
        bits *= 2


def digit_range(n: int, alpha: Fraction) -> range:
    return range(math.floor(n / (alpha + 1) - alpha), math.floor(n / alpha - alpha) + 1)


def coprime_digits(n: int, alpha: Fraction) -> bool:
    return all(math.gcd(n, d) == 1 for d in digit_range(n, alpha))


# -- parameter-space cells ---------------------------------------------

def cells(n: int, alpha_min: Fraction) -> list[tuple]:
    """Exact cells (lo, hi, digits) partitioning (alpha_min, sqrt(N)-1].

    Breakpoints solve a^2 + m*a - N = 0 (upper digit) and
    a^2 + (m+1)*a + m - N = 0 (lower digit).  They are ordered by exact
    dyadic floors, and each cell's digits are read at a dyadic point
    strictly inside it.
    """
    edge = quad(-1, 1, n)
    cuts = set()
    for m in range(1, math.floor(n / alpha_min) + 1):
        cuts.add(quad(-m, 1, m * m + 4 * n, 2))
        if m < n:
            cuts.add(quad(-(m + 1), 1, (m - 1) ** 2 + 4 * n, 2))
    inner = [b for b in cuts if less(alpha_min, b) and less(b, edge)]
    bits = 128
    while True:
        scale = 1 << bits
        keyed = sorted(((floor_scaled(b, scale), b) for b in inner), key=lambda kb: kb[0])
        keys = [floor_scaled(alpha_min, scale)] + [k for k, _ in keyed] \
            + [floor_scaled(edge, scale)]
        if all(k2 - k1 >= 2 for k1, k2 in zip(keys, keys[1:])):
            break
        bits *= 2
    bounds = [alpha_min] + [b for _, b in keyed] + [edge]
    return [(lo, hi, digit_range(n, Fraction(k + 1, scale)))
            for k, lo, hi in zip(keys, bounds, bounds[1:])]


def kset_rows(n: int, alpha_min: Fraction, places: int = 10) -> list[tuple]:
    """Rows (N, lo, hi, in_K, digit_lo, digit_hi) as the CLI prints them."""
    return [(n, decimal(lo, places), decimal(hi, places),
             all(math.gcd(n, d) == 1 for d in ds), ds.start, ds.stop - 1)
            for lo, hi, ds in cells(n, alpha_min)]


def nomatch_region(n: int, places: int = 10) -> tuple[str, bool]:
    """Text line of the no-matching region of odd N >= 5, and whether every
    cell inside it is coprime (if not, the program must exit 4)."""
    lo = Fraction(1) if n in (5, 7) else quad(-3, 1, 9 + 4 * n, 2)
    hi = quad(-1, 1, n)
    coprime = all(all(math.gcd(n, d) == 1 for d in ds)
                  for cell_lo, _, ds in cells(n, Fraction(1, 100))
                  if not less(cell_lo, lo))
    text = f"({fmt(lo)} ~ {decimal(lo, places)}, {fmt(hi)} ~ {decimal(hi, places)}]"
    return text, coprime


# -- orbits -------------------------------------------------------------

def _foot(n: int, alpha: Fraction) -> bool:
    e = n / alpha - alpha
    return e.denominator == 1


def rational_step(n: int, alpha: Fraction, x: Fraction, foot: bool) -> tuple[int, Fraction]:
    d = math.floor(n / x - alpha)
    if foot and x == alpha:
        d -= 1
    return d, n / x - d


def rational_orbit(n: int, alpha: Fraction, x0: Fraction, budget: int):
    """(digits, values, raw pairs, verdict) with cycle detection on values.

    The raw pair follows t' = N*s - d*t, s' = t from the unreduced start;
    the verdict is (kind, pre-period, period) or None within the budget.
    """
    foot = _foot(n, alpha)
    x, t, s = x0, x0.numerator, x0.denominator
    digits, values, raw = [], [x0], [(t, s)]
    seen = {x0: 0}
    for i in range(1, budget + 1):
        d, x = rational_step(n, alpha, x, foot)
        if d < 1 or not alpha <= x <= alpha + 1:
            raise ArithmeticError(f"orbit left the interval at step {i}")
        t, s = n * s - d * t, t
        digits.append(d)
        values.append(x)
        raw.append((t, s))
        if x in seen:
            j = seen[x]
            kind = "reached-one" if x == 1 and i - j == 1 else "periodic"
            return digits, values, raw, (kind, j, i - j)
        seen[x] = i
    return digits, values, raw, None


def verdict_text(verdict) -> str:
    if verdict is None:
        return "NoPeriodWithinBudget"
    _, pre, period = verdict
    return f"Periodic pre={pre} period={period} first-repeat={pre + period}"


def rational_orbit_lines(n, alpha, x0, budget) -> tuple[list[dict], str]:
    digits, values, raw, verdict = rational_orbit(n, alpha, x0, budget)
    lines = [{"n": i, "digit": digits[i] if i < len(digits) else None,
              "value": fmt(v), "t": raw[i][0], "s": raw[i][1]}
             for i, v in enumerate(values)]
    return lines, verdict_text(verdict)


def _quad_inverse_times(n: int, x: Quad):
    # N/x = N*c*(a - b*sqrt(d)) / (a^2 - b^2*d)
    return quad(n * x.c * x.a, -n * x.c * x.b, x.d, x.a * x.a - x.b * x.b * x.d)


def quad_orbit_lines(n: int, alpha: Fraction, x0: Quad, budget: int) -> tuple[list[dict], str]:
    """Orbit of a quadratic irrational with its coefficient triples.

    The triple starts primitive with A > 0 and follows A' = C,
    B' = N*B + 2*d*C, C' = N^2*A + N*B*d + C*d^2; each triple is checked to
    vanish at the orbit point and to obey disc_n = N^(2n) * disc_0.
    """
    a, b, c = x0.c * x0.c, -2 * x0.a * x0.c, x0.a * x0.a - x0.b * x0.b * x0.d
    g = math.gcd(a, b, c)
    A, B, C = a // g, b // g, c // g
    disc0 = B * B - 4 * A * C
    ap, aq = alpha.numerator, alpha.denominator
    x, seen, lines, verdict = x0, {x0: 0}, [], None
    for i in range(1, budget + 1):
        y = _quad_inverse_times(n, x)
        d = floor_lin(y.a * aq - ap * y.c, y.b * aq, y.d, y.c * aq)
        lines.append({"n": i - 1, "digit": d, "value": fmt(x), "A": A, "B": B, "C": C})
        x = quad(y.a - d * y.c, y.b, y.d, y.c)
        A, B, C = C, n * B + 2 * d * C, n * n * A + n * B * d + C * d * d
        if A * (x.a * x.a + x.b * x.b * x.d) + B * x.a * x.c + C * x.c * x.c != 0 \
                or 2 * A * x.a + B * x.c != 0 or B * B - 4 * A * C != n ** (2 * i) * disc0:
            raise ArithmeticError(f"coefficient triple lost the orbit at step {i}")
        if x in seen:
            verdict = ("periodic", seen[x], i - seen[x])
            break
        seen[x] = i
    lines.append({"n": len(lines), "digit": None, "value": fmt(x), "A": A, "B": B, "C": C})
    return lines, verdict_text(verdict)


def certified_nonperiodic_quad(n: int, alpha: Fraction, x0: Quad) -> bool:
    """The paper's hypotheses: N odd, every digit coprime with N, and the
    primitive constant coefficient C_0 coprime with N."""
    a, b, c = x0.c * x0.c, -2 * x0.a * x0.c, x0.a * x0.a - x0.b * x0.b * x0.d
    c0 = c // math.gcd(a, b, c)
    return n % 2 == 1 and coprime_digits(n, alpha) and math.gcd(c0, n) == 1


# -- matching -------------------------------------------------------------

def endpoint_orbits(n: int, alpha: Fraction, count: int):
    """Values and digits of the orbits of alpha and alpha + 1, `count` steps.

    Iterated straight through any cycle, which is what extending a detected
    cycle amounts to.
    """
    foot = _foot(n, alpha)
    out = []
    for x in (alpha, alpha + 1):
        values, digits = [x], []
        for _ in range(count):
            d, x = rational_step(n, alpha, x, foot)
            digits.append(d)
            values.append(x)
        out.append((values, digits))
    return out


def first_visits(n: int, alpha: Fraction, x0: Fraction, budget: int) -> dict:
    """value -> first step reaching it, over steps 0..budget (cycle-aware)."""
    foot = _foot(n, alpha)
    seen, x = {x0: 0}, x0
    for i in range(1, budget + 1):
        _, x = rational_step(n, alpha, x, foot)
        if x in seen:
            break
        seen[x] = i
    return seen


def minimal_match(n: int, alpha: Fraction, budget: int) -> Optional[tuple[int, int, Fraction]]:
    """(K, L, value) minimising (K+L, K) with T^K(alpha) = T^L(alpha+1)."""
    fa = first_visits(n, alpha, alpha, budget)
    fb = first_visits(n, alpha, alpha + 1, budget)
    hits = [(i + fb[v], i, fb[v], v) for v, i in fa.items() if v in fb]
    if not hits:
        return None
    _, k, l, v = min(hits, key=lambda h: h[:3])
    return k, l, v


def prefix_matrices(n: int, digits) -> list[tuple]:
    """[M_0, M_1, ...] with M_k = B(d_1)...B(d_k) and B(d) = [[0, N], [1, d]]."""
    m = (1, 0, 0, 1)
    out = [m]
    for d in digits:
        a, b, c, e = m
        m = (b, a * n + b * d, e, c * n + e * d)
        out.append(m)
    return out


def proportional(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(4) for j in range(i + 1, 4))


def add_one(m):
    a, b, c, d = m
    return (a + c, b + d, c, d)


def stable_at(n: int, da, db, k: int, l: int) -> bool:
    return proportional(add_one(prefix_matrices(n, da[:k])[-1]), prefix_matrices(n, db[:l])[-1])


def stable_pair(n: int, alpha: Fraction, budget: int):
    """First matched pair (K, L), K, L >= 1, in (K+L, K) order whose matrices
    satisfy ADD_ONE*M_K ~ M_L; None when there is none within the budget.
    Returns (pair, digits of alpha, digits of alpha + 1, pairs scanned)."""
    (va, da), (vb, db) = endpoint_orbits(n, alpha, budget)
    at = {}
    for i, v in enumerate(va):
        if i:
            at.setdefault(v, []).append(i)
    pairs = sorted((i + j, i, j) for j, v in enumerate(vb) if j for i in at.get(v, ()))
    ma, mb = prefix_matrices(n, da), prefix_matrices(n, db)
    for _, k, l in pairs:
        if proportional(add_one(ma[k]), mb[l]):
            return (k, l), da, db, pairs
    return None, da, db, pairs


def obstruction_holds(n: int, alpha: Fraction) -> bool:
    """Congruence obstruction for parameters with N dividing neither t0 nor
    t0 + s0; other parameters are not generated by the benchmark."""
    t0, s0 = alpha.numerator, alpha.denominator
    if t0 % n == 0:
        raise ValueError("obstruction with N | t0 is outside the oracle's scope")
    return coprime_digits(n, alpha) and (t0 + s0) % n != 0


def _boundary_matrices(n: int, digits: tuple) -> list[tuple]:
    out = []
    for j in range(1, len(digits) + 1):
        w = digits[:j]
        out.append(prefix_matrices(n, w[:-1] + (w[-1] + 1,))[-1])
        if w[-1] > 1:
            out.append(prefix_matrices(n, w)[-1])
        elif j >= 2:
            a, b, c, d = prefix_matrices(n, w[:-1])[-1]
            out.append((a, a + b, c, c + d))
    return out


def _solves(x, m, shift: int) -> bool:
    # x + shift = (a x + b)/(c x + d)  <=>  c x^2 + (d + shift c - a) x + (shift d - b) = 0
    a, b, c, d = m
    qa, qb, qc = c, d + shift * c - a, shift * d - b
    if isinstance(x, Fraction):
        return qa * x * x + qb * x + qc == 0
    return (qa * (x.a * x.a + x.b * x.b * x.d) + qb * x.a * x.c + qc * x.c * x.c == 0
            and 2 * qa * x.a + qb * x.c == 0)


def interval_problems(n: int, alpha: Fraction, da, db, k: int, l: int, iv: dict,
                      text: Optional[str], places: int = 10) -> list[str]:
    """Invariants of a matching interval: it contains alpha, and each endpoint
    solves a boundary equation of the two cylinders (or is sqrt(N) - 1)."""
    lo, hi = parse(iv["lo"]), parse(iv["hi"])
    problems = []
    if not (less(lo, alpha) or (lo == alpha and not iv["lo_open"])) or \
            not (less(alpha, hi) or (hi == alpha and not iv["hi_open"])):
        problems.append("interval misses alpha")
    edge = quad(-1, 1, n)
    eqs = [(m, 0) for m in _boundary_matrices(n, tuple(da[:k]))] + \
          [(m, 1) for m in _boundary_matrices(n, tuple(db[:l]))]
    for name, x in (("lo", lo), ("hi", hi)):
        if x != edge and not any(_solves(x, m, s) for m, s in eqs):
            problems.append(f"{name} solves no boundary equation")
    if text is not None:
        want = (f"{'(' if iv['lo_open'] else '['}{fmt(lo)} ~ {decimal(lo, places)}, "
                f"{fmt(hi)} ~ {decimal(hi, places)}{')' if iv['hi_open'] else ']'}")
        if text != want:
            problems.append("interval text")
    return problems
