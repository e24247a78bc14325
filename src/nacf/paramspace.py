"""The coprime region of the parameter space and its digit-set cells.

For each N the interval (0, sqrt(N)-1] splits at finitely many exact
breakpoints (above a cutoff) into cells on which the digit set is constant;
a cell belongs to the coprime region when every digit there is coprime
with N.  Inside that region rationals are never periodic for alpha > 1 and
matching is obstructed, which yields whole no-matching intervals for odd N.
The largest and the smallest digit both fall as alpha grows, so the cells
are one merge of their two breakpoint sequences (see :func:`_walk`), with
the cuts ordered by integer sign tests alone.  The plot rows are rendered
from the cuts' integer views and :func:`kset` builds its surds from the
same walk; neither factors a radicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from .exact import (ExactNumber, surd, _decimal_str, _sign, _sign2,
                    _surd_parts)
from .expansion import alpha_max
from .matching import ParamInterval


class NotApplicable(ValueError):
    """The requested region is only established for odd N >= 5."""


@dataclass(frozen=True)
class DigitSetCell:
    interval: ParamInterval  # half-open (lo, hi]
    digit_lo: int
    digit_hi: int
    in_k: bool

    def to_json(self) -> dict:
        return {"interval": self.interval.to_json(), "digit_lo": self.digit_lo,
                "digit_hi": self.digit_hi, "in_K": self.in_k}


DEFAULT_ALPHA_MIN = Fraction(1, 100)


# A cut is the positive root of a monic quadratic x^2 + s x + t, held as
# (s, t); the quadratic rises on x > 0, and t >= 0 (a lower cut past N - 1,
# which the walk never takes) makes the cut 0.

def _upper(n: int, m: int) -> tuple[int, int]:  # u(m): N/a - a = m
    return m, -n


def _lower(n: int, m: int) -> tuple[int, int]:  # l(m): N/(a+1) - a = m
    return m + 1, m - n


def _root(cut: tuple[int, int]) -> tuple[int, int, int, int]:
    s, t = cut
    return -s, 1, 2, s * s - 4 * t


def _at_or_below(cut: tuple[int, int], alpha: tuple[int, int, int, int]) -> bool:
    """Whether the cut is <= alpha > 0: the sign of its quadratic at alpha,
    times c^2 for alpha's integer view (a, b, c, d)."""
    s, t = cut
    a, b, c, d = alpha
    return _sign2(a * a + b * b * d + s * a * c + t * c * c, (2 * a + s * c) * b, d) >= 0


def _order(n: int, m_u: int, m_l: int) -> int:
    """Sign of u(m_u) - l(m_l), in integers.

    f(a) = N/a - a falls, f(u(m_u)) = m_u and f(l) = m_l + 1 + m_l/l for
    l = l(m_l) > 0, so u(m_u) > l exactly when k = m_u - m_l - 1 < m_l/l.
    For k > 0 that is l < m_l/k: the sign of the rising lower quadratic
    x^2 + (m_l+1) x + m_l - N at x = m_l/k, scaled by k^2, which is also
    +1 for m_l >= N, where l = 0.
    """
    k = m_u - m_l - 1
    if k <= 0:
        return 0 if m_l == k == 0 else 1
    return _sign(m_l * m_l + (m_l + 1) * m_l * k + (m_l - n) * k * k)


def _walk(n: int, alpha_min) -> tuple[list, list]:
    """Bounds (integer views, alpha_min's first) and cells (digit_lo,
    digit_hi, in_k) of (alpha_min, sqrt(N)-1], ascending; cells[i] holds on
    (bounds[i], bounds[i+1]].  One walk down from the edge sqrt(N)-1 = l(1):
    the next bound is the larger of the pending upper cut u(digit_hi+1),
    where the top digit gains one, and lower cut l(digit_lo+1), where the
    bottom digit gains one; equal cuts advance both.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    alpha = _surd_parts(alpha_min)
    if _sign2(alpha[0], alpha[1], alpha[3]) <= 0 or _at_or_below(_lower(n, 1), alpha):
        raise ValueError("alpha_min must lie in (0, sqrt(N)-1)")
    digit_lo, digit_hi = 1, 0
    while _order(n, digit_hi + 1, 1) >= 0:      # the top digit at the edge
        digit_hi += 1
    bounds, cells = [_root(_lower(n, 1))], []
    while True:
        side = _order(n, digit_hi + 1, digit_lo + 1)
        cut = _upper(n, digit_hi + 1) if side >= 0 else _lower(n, digit_lo + 1)
        last = _at_or_below(cut, alpha)
        bounds.append(alpha if last else _root(cut))
        cells.append((digit_lo, digit_hi,
                      all(math.gcd(n, d) == 1 for d in range(digit_lo, digit_hi + 1))))
        if last:
            return bounds[::-1], cells[::-1]
        digit_hi += side >= 0
        digit_lo += side <= 0


@lru_cache(maxsize=256)
def kset(n: int, alpha_min: Fraction = DEFAULT_ALPHA_MIN) -> tuple[DigitSetCell, ...]:
    """Partition (alpha_min, sqrt(N)-1] into half-open digit-set cells.

    The cells of one walk down from the edge (see :func:`_walk`), radicands
    unsplit; the digits of each cell are exact, with no sampling.
    """
    bounds, cells = _walk(n, alpha_min)
    ends = [surd(a, b, d, c) for a, b, c, d in bounds]
    return tuple(DigitSetCell(ParamInterval(lo, hi, True, False), *digits)
                 for lo, hi, digits in zip(ends, ends[1:], cells))


def digit_breakpoints(n: int, alpha_min: Fraction = DEFAULT_ALPHA_MIN) -> tuple[ExactNumber, ...]:
    """Exact parameters in (alpha_min, sqrt(N)-1] where the digit set jumps.

    These solve N/a - a = m (upper digit) or N/(a+1) - a = m (lower digit)
    for integers m >= 1; they are the right ends of the kset cells, the
    last being sqrt(N)-1 itself (the lower equation at m = 1).  The set is
    infinite as alpha -> 0, hence the cutoff.
    """
    return tuple(cell.interval.hi for cell in kset(n, alpha_min))


def no_matching_regions(n: int) -> list[ParamInterval]:
    """Intervals of parameters containing no matching interval (odd N >= 5).

    For N = 5 and 7 the whole of (1, sqrt(N)-1] qualifies; for odd N >= 9
    the interval starts at the positive solution of x = N/(3+x), beyond
    which only the digits 1 and 2 occur.  Each returned interval is checked
    to consist of coprime-region cells: its left end is itself a cut (the
    upper cut at m = N-1 for N = 5 and 7, at m = 3 for N >= 9), so the
    cells of the walk down to lo are exactly the region's.
    """
    if n % 2 == 0 or n < 5:
        raise NotApplicable("established only for odd N >= 5")
    lo = Fraction(1) if n in (5, 7) else surd(-3, 1, 9 + 4 * n, 2)
    region = ParamInterval(lo, alpha_max(n), True, False)
    for digit_lo, digit_hi, in_k in _walk(n, lo)[1]:
        if not in_k:
            raise RuntimeError(f"the cell with digits {digit_lo}..{digit_hi} "
                               f"in the region is not coprime")
    return [region]


def emit_kset_plot_data(n_max: int, precision: int = 6,
                        alpha_min: Fraction = DEFAULT_ALPHA_MIN,
                        n_min: int = 2) -> list[tuple]:
    """Rows (N, lo, hi, in_K, digit_lo, digit_hi) for N = n_min..n_max.

    Endpoint decimals are display renderings of the exact cell boundaries
    at the requested precision, each rendered once from the walk's integer
    view; suitable for plotting the coprime region.  The CLI's kset output
    is these rows.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError("N must run over 2 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        bounds, cells = _walk(n, alpha_min)
        ends = [_decimal_str(*b, precision) for b in bounds]
        rows += [(n, lo, hi, in_k, digit_lo, digit_hi)
                 for lo, hi, (digit_lo, digit_hi, in_k) in zip(ends, ends[1:], cells)]
    return rows
