"""The coprime region of the parameter space and its digit-set cells.

For each N the interval (0, sqrt(N)-1] splits at finitely many exact
breakpoints (above a cutoff) into cells on which the digit set is constant;
a cell belongs to the coprime region when every digit there is coprime
with N.  Inside that region rationals are never periodic for alpha > 1 and
matching is obstructed, which yields whole no-matching intervals for odd N.
The largest and the smallest digit both fall as alpha grows, so the cells
are one merge of their two breakpoint sequences (see :func:`kset`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from .exact import ExactNumber, compare_exact, decimal_str, surd, _as_exact
from .expansion import Params, alpha_max, digit_set
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


def _upper_cut(n: int, m: int) -> ExactNumber:
    # N/a - a = m, i.e. a^2 + m a - N = 0, positive root
    return surd(-m, 1, m * m + 4 * n, 2)


def _lower_cut(n: int, m: int) -> ExactNumber:
    # N/(a+1) - a = m, i.e. a^2 + (m+1) a + (m-N) = 0; no positive root for m >= N
    return surd(-(m + 1), 1, (m - 1) * (m - 1) + 4 * n, 2) if m < n else Fraction(0)


@lru_cache(maxsize=256)
def kset(n: int, alpha_min: Fraction = DEFAULT_ALPHA_MIN) -> tuple[DigitSetCell, ...]:
    """Partition (alpha_min, sqrt(N)-1] into half-open digit-set cells.

    One walk down from the edge: the next cell boundary is the larger of the
    next upper cut (where the top digit gains one) and the next lower cut
    (where the bottom digit gains one); equal cuts advance both.  The
    digits of each cell are those counters, exact with no sampling.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    alpha_min, edge = _as_exact(alpha_min), alpha_max(n)
    if compare_exact(alpha_min, 0) <= 0 or compare_exact(alpha_min, edge) >= 0:
        raise ValueError("alpha_min must lie in (0, sqrt(N)-1)")
    digits = digit_set(Params(n, edge))
    digit_lo, digit_hi = digits.start, digits.stop - 1
    upper, lower = _upper_cut(n, digit_hi + 1), _lower_cut(n, digit_lo + 1)
    cells, hi = [], edge
    while True:
        side = compare_exact(upper, lower)
        lo = upper if side >= 0 else lower
        last = compare_exact(lo, alpha_min) <= 0
        if last:
            lo = alpha_min
        in_k = all(math.gcd(n, d) == 1 for d in range(digit_lo, digit_hi + 1))
        cells.append(DigitSetCell(ParamInterval(lo, hi, True, False),
                                  digit_lo, digit_hi, in_k))
        if last:
            return tuple(reversed(cells))
        if side >= 0:
            digit_hi += 1
            upper = _upper_cut(n, digit_hi + 1)
        if side <= 0:
            digit_lo += 1
            lower = _lower_cut(n, digit_lo + 1)
        hi = lo


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
    to consist of coprime-region cells.
    """
    if n % 2 == 0 or n < 5:
        raise NotApplicable("established only for odd N >= 5")
    lo = Fraction(1) if n in (5, 7) else surd(-3, 1, 9 + 4 * n, 2)
    region = ParamInterval(lo, alpha_max(n), True, False)
    for cell in kset(n):
        if compare_exact(cell.interval.lo, region.lo) >= 0:
            if not cell.in_k:
                raise RuntimeError(f"cell {cell.interval} in the region is not coprime")
    return [region]


def emit_kset_plot_data(n_max: int, precision: int = 6,
                        alpha_min: Fraction = DEFAULT_ALPHA_MIN,
                        n_min: int = 2) -> list[tuple]:
    """Rows (N, lo, hi, in_K, digit_lo, digit_hi) for N = n_min..n_max.

    Endpoint decimals are display renderings of the exact cell boundaries
    at the requested precision, each boundary rendered once; suitable for
    plotting the coprime region.  The CLI's kset output is these rows.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError("N must run over 2 <= n_min <= n_max")
    rows = []
    for n in range(n_min, n_max + 1):
        cells = kset(n, alpha_min)
        bounds = [cells[0].interval.lo] + [cell.interval.hi for cell in cells]
        ends = [decimal_str(b, precision) for b in bounds]
        rows += [(n, lo, hi, cell.in_k, cell.digit_lo, cell.digit_hi)
                 for cell, lo, hi in zip(cells, ends, ends[1:])]
    return rows
