"""The coprime region of the parameter space and its digit-set cells.

For each N the interval (0, sqrt(N)-1] splits at finitely many exact
breakpoints (above a cutoff) into cells on which the digit set is constant;
a cell belongs to the coprime region when every digit there is coprime
with N.  Inside that region rationals are never periodic for alpha > 1 and
matching is obstructed, which yields whole no-matching intervals for odd N.
The largest and the smallest digit both fall as alpha grows, so the cells
are one merge of their two breakpoint sequences walked up from alpha_min
(see :func:`_cells`), the cuts ordered by integer sign tests alone.  That
one walk renders each cut once, as it reaches it, by the caller's renderer:
plot rows stream with one decimal printer per precision, kset() builds one
surd per cut, and no_matching_regions() renders none.  None splits a
radicand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from .exact import (ExactNumber, floor_exact, surd, _as_exact, _decimal_printer,
                    _sign, _surd_parts)
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


DEFAULT_ALPHA_MIN = Fraction(1, 100)


# A cut is the positive root of a monic quadratic, rising on x > 0: the
# upper cut u(m) of x^2 + m x - N, where N/x - x = m, and the lower cut l(m)
# of x^2 + (m+1) x + m - N, where N/(x+1) - x = m.  Their integer views are
# (-m, 1, 2, m^2 + 4N) and (-m-1, 1, 2, (m-1)^2 + 4N).


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


def _shared(n: int, lo: int, hi: int) -> int:
    """The number of digits in [lo, hi] that share a factor with N.  That
    depends on the digit mod N alone, so whole periods are counted once."""
    periods, rest = divmod(hi - lo + 1, n)
    period = sum(math.gcd(n, d) > 1 for d in range(n)) if periods else 0
    return periods * period + sum(math.gcd(n, d) > 1 for d in range(lo, lo + rest))


def _cells(n: int, alpha_min, render=None):
    """The cells (lo, hi, digit_lo, digit_hi, in_k) of (alpha_min, sqrt(N)-1],
    ascending, the digits those of (lo, hi].  One walk up from alpha_min: the
    top digit falls past u(digit_hi), the bottom one past l(digit_lo), the
    next bound is the smaller cut (equal cuts move both), and the edge
    sqrt(N)-1 = l(1) ends it.  Each bound is rendered once, by
    render(a, b, c, d) of its integer view, as the walk reaches it, and a
    cell's hi is the next cell's lo; without a renderer both are None.
    in_k reads a running count of the digits in [digit_lo, digit_hi] that
    share a factor with N.
    """
    alpha = _as_exact(alpha_min)
    if alpha <= 0 or (digit_lo := -floor_exact(alpha - n / (alpha + 1)) - 1) < 1:
        raise ValueError("alpha_min must lie in (0, sqrt(N)-1)")
    digit_hi = -floor_exact(alpha - n / alpha) - 1      # ceil(N/a - a) - 1
    shared = _shared(n, digit_lo, digit_hi)
    lo = hi = render(*_surd_parts(alpha)) if render else None
    while True:
        side = _order(n, digit_hi, digit_lo)
        if render:
            hi = (render(-digit_hi, 1, 2, digit_hi * digit_hi + 4 * n) if side <= 0 else
                  render(-digit_lo - 1, 1, 2, (digit_lo - 1) ** 2 + 4 * n))
        yield lo, hi, digit_lo, digit_hi, shared == 0
        if side >= 0 and digit_lo == 1:
            return
        if side <= 0:
            shared -= math.gcd(n, digit_hi) > 1
            digit_hi -= 1
        if side >= 0:
            digit_lo -= 1
            shared += math.gcd(n, digit_lo) > 1
        lo = hi


@lru_cache(maxsize=256)
def kset(n: int, alpha_min: Fraction = DEFAULT_ALPHA_MIN) -> tuple[DigitSetCell, ...]:
    """Partition (alpha_min, sqrt(N)-1] into half-open digit-set cells.

    The cells of one walk up from alpha_min (see :func:`_cells`), radicands
    unsplit; the digits of each cell are exact, with no sampling.
    """
    cells = _cells(n, alpha_min, lambda a, b, c, d: surd(a, b, d, c))
    return tuple(DigitSetCell(ParamInterval(lo, hi, True, False), *digits)
                 for lo, hi, *digits in cells)


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
    cells of the walk up from lo are exactly the region's.
    """
    if n % 2 == 0 or n < 5:
        raise NotApplicable("established only for odd N >= 5")
    lo = Fraction(1) if n in (5, 7) else surd(-3, 1, 9 + 4 * n, 2)
    region = ParamInterval(lo, alpha_max(n), True, False)
    for _, _, digit_lo, digit_hi, in_k in _cells(n, lo):
        if not in_k:
            raise RuntimeError(f"the cell with digits {digit_lo}..{digit_hi} "
                               f"in the region is not coprime")
    return [region]


def _plot_rows(n_max: int, precision: int, alpha_min, n_min: int):
    """The rows of :func:`emit_kset_plot_data`, one cell at a time."""
    if not 2 <= n_min <= n_max:
        raise ValueError("N must run over 2 <= n_min <= n_max")
    text = _decimal_printer(precision)
    for n in range(n_min, n_max + 1):
        for lo, hi, digit_lo, digit_hi, in_k in _cells(n, alpha_min, text):
            yield n, lo, hi, in_k, digit_lo, digit_hi


def emit_kset_plot_data(n_max: int, precision: int = 6,
                        alpha_min: Fraction = DEFAULT_ALPHA_MIN,
                        n_min: int = 2) -> list[tuple]:
    """Rows (N, lo, hi, in_K, digit_lo, digit_hi) for N = n_min..n_max.

    Endpoint decimals are display renderings of the exact cell boundaries
    at the requested precision, each rendered once from the walk's integer
    view; suitable for plotting the coprime region.  The CLI's kset output
    is these rows, written as :func:`_plot_rows` yields them.
    """
    return list(_plot_rows(n_max, precision, alpha_min, n_min))
