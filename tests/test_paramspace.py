import math
import random
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nacf import exact, paramspace
from nacf.exact import (compare_exact, decimal_str, floor_exact,
                        rational_between, surd)
from nacf.expansion import Params, alpha_max, digit_set
from nacf.paramspace import (NotApplicable, digit_breakpoints,
                             emit_kset_plot_data, kset, no_matching_regions)


def satisfies_breakpoint_equation(beta, n):
    upper = Fraction(n) / beta - beta
    if isinstance(upper, Fraction) and upper.denominator == 1:
        return True
    lower = Fraction(n) / (beta + 1) - beta
    return isinstance(lower, Fraction) and lower.denominator == 1


def test_breakpoints_for_two():
    bps = digit_breakpoints(2)
    assert surd(-5, 1, 33, 2) in bps          # root of a^2 + 5a - 2
    assert surd(-1, 1, 3) not in bps          # 0.73... lies past sqrt(2)-1
    assert all(satisfies_breakpoint_equation(b, 2) for b in bps)


def test_breakpoints_for_five():
    bps = digit_breakpoints(5)
    assert surd(-3, 1, 29, 2) in bps          # upper-digit jump inside (1, edge)
    assert surd(-1, 1, 21, 2) not in bps      # 1.79... exceeds sqrt(5)-1
    edge = alpha_max(5)
    assert all(compare_exact(b, edge) <= 0 for b in bps)
    assert all(compare_exact(Fraction(1, 100), b) < 0 for b in bps)


def test_breakpoints_sorted_distinct():
    for n in (2, 5, 9):
        bps = digit_breakpoints(n)
        assert all(compare_exact(a, b) < 0 for a, b in zip(bps, bps[1:]))


def test_kset_cells_for_five():
    cells = kset(5)
    last, second_last = cells[-1], cells[-2]
    assert second_last.interval.lo == Fraction(1)
    assert second_last.interval.hi == surd(-3, 1, 29, 2)
    assert (second_last.digit_lo, second_last.digit_hi) == (1, 3)
    assert last.interval.hi == alpha_max(5)
    assert (last.digit_lo, last.digit_hi) == (1, 2)
    for cell in cells:
        if compare_exact(cell.interval.lo, Fraction(1)) >= 0:
            assert cell.in_k


def test_kset_cells_for_nine():
    xi9 = surd(-3, 1, 45, 2)
    for cell in kset(9):
        if compare_exact(cell.interval.lo, xi9) >= 0:
            assert (cell.digit_lo, cell.digit_hi) == (1, 2)
            assert cell.in_k


def test_kset_cells_for_two():
    cells = kset(2)
    last = cells[-1]
    assert (last.digit_lo, last.digit_hi) == (1, 4)
    assert not last.in_k
    for cell in cells:
        assert cell.in_k == all(math.gcd(2, d) == 1
                                for d in range(cell.digit_lo, cell.digit_hi + 1))


def test_kset_tiling_and_constancy():
    rng = random.Random(40)
    for n in (2, 5, 12):
        cells = kset(n)
        assert cells[0].interval.lo == Fraction(1, 100)
        assert cells[-1].interval.hi == alpha_max(n)
        for a, b in zip(cells, cells[1:]):
            assert a.interval.hi == b.interval.lo
        for cell in rng.sample(cells, 12):
            lo, hi = cell.interval.lo, cell.interval.hi
            mid = rational_between(lo, hi)
            samples = [mid, rational_between(lo, mid), rational_between(mid, hi)]
            for s in samples:
                ds = digit_set(Params(n, s))
                assert (ds.start, ds.stop - 1) == (cell.digit_lo, cell.digit_hi)
                assert cell.in_k == all(math.gcd(n, d) == 1 for d in ds)


def reference_kset(n, alpha_min):
    """Cells built directly: every root of both breakpoint equations in
    (alpha_min, sqrt(N)-1), sorted, with each cell's digit set read off at
    a rational sample strictly inside it."""
    edge = alpha_max(n)
    found = set()
    for m in range(1, floor_exact(Fraction(n) / alpha_min) + 1):
        found.add(surd(-m, 1, m * m + 4 * n, 2))
        if m < n:
            found.add(surd(-(m + 1), 1, (m - 1) * (m - 1) + 4 * n, 2))
    cuts = sorted((b for b in found if compare_exact(alpha_min, b) < 0
                   and compare_exact(b, edge) < 0), key=cmp_to_key(compare_exact))
    bounds = [alpha_min] + cuts + [edge]
    cells = []
    for lo, hi in zip(bounds, bounds[1:]):
        ds = digit_set(Params(n, rational_between(lo, hi)))
        cells.append((lo, hi, ds.start, ds.stop - 1,
                      all(math.gcd(n, d) == 1 for d in ds)))
    return cells


def test_kset_matches_the_reference():
    root2 = surd(-1, 1, 2)
    cases = [(n, a) for n in range(2, 17)
             for a in (Fraction(1, 100), Fraction(1, 3), root2)
             if compare_exact(a, alpha_max(n)) < 0]
    cases += [(5, Fraction(1)),                # alpha_min on the upper cut u(4)
              (15, Fraction(2)),               # on the lower cut l(3) only
              (12, Fraction(2)),               # on u(4) and l(2) at once
              (9, surd(-3, 1, 45, 2)),         # on the upper cut u(3)
              (9, surd(-3, 1, 37, 2)),         # on the lower cut l(2)
              (2, Fraction(1, 1000)), (3, Fraction(1, 1000)),
              (47, Fraction(1, 10))]           # prime N: in_k flips at 47 and 94
    assert (16, root2) in cases and (2, root2) not in cases
    for n, alpha_min in cases:
        cells = kset(n, alpha_min)
        got = [(c.interval.lo, c.interval.hi, c.digit_lo, c.digit_hi, c.in_k)
               for c in cells]
        assert got == reference_kset(n, alpha_min), (n, alpha_min)
        assert all((c.interval.lo_open, c.interval.hi_open) == (True, False)
                   for c in cells)
        assert digit_breakpoints(n, alpha_min) == tuple(c.interval.hi for c in cells)
    assert kset(5, Fraction(1))[0].interval.lo == Fraction(1)
    assert {c.in_k for c in kset(47, Fraction(1, 10))} == {True, False}


def test_kset_rejects_alpha_min_outside_the_parameter_space():
    for n, alpha_min in ((5, Fraction(0)), (5, Fraction(-1, 3)), (5, Fraction(3)),
                         (5, alpha_max(5)), (4, Fraction(1)), (1, Fraction(1, 100))):
        with pytest.raises(ValueError):
            kset(n, alpha_min)


_PRIME_POWERS = (4, 8, 16, 32, 64, 128, 9, 27, 81, 25, 125, 49, 121, 169)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(st.integers(2, 200), st.sampled_from(_PRIME_POWERS)),
       st.integers(1, 10 ** 6), st.integers(0, 4), st.integers(0, 199))
@example(2, 1, 1, 0)       # one whole period
@example(12, 5, 0, 11)     # one short of a period
@example(128, 3, 3, 0)     # several periods of a prime power
def test_shared_count_takes_whole_periods_once(n, lo, periods, rest):
    # periods = 0 is shorter than N, (1, 0) exactly N, more spans several
    width = periods * n + rest % n
    assume(width > 0)
    hi = lo + width - 1
    want = sum(math.gcd(n, d) > 1 for d in range(lo, hi + 1))
    assert paramspace._shared(n, lo, hi) == want


def test_cut_order_matches_compare_exact():
    # every m_l <= N + 1, and m_u up to two past the sign change; N <= 30
    ties = 0
    for n in range(2, 31):
        upper = [surd(-m, 1, m * m + 4 * n, 2) for m in range(n * n + 2 * n + 4)]
        for m_l in range(n + 2):
            lower = surd(-(m_l + 1), 1, (m_l - 1) ** 2 + 4 * n, 2) if m_l < n else 0
            past = 0
            for m_u, cut in enumerate(upper):
                want = compare_exact(cut, lower)
                assert paramspace._order(n, m_u, m_l) == want, (n, m_u, m_l)
                ties += want == 0
                past += want < 0
                if past == 2:
                    break
            assert past == 2 or m_l >= n
    assert ties > 0


def test_plot_rows_equal_the_kset_cells():
    cases = [(n, a) for n in range(2, 41)
             for a in (Fraction(1, 100), Fraction(1, 3), surd(-1, 1, 2))
             if compare_exact(a, alpha_max(n)) < 0]
    cases += [(5, Fraction(1)), (2, surd(-5, 1, 33, 2))]   # a rational and a surd cut
    for n, alpha_min in cases:
        cells = kset(n, alpha_min)
        bounds = [alpha_min] + [c.interval.hi for c in cells]
        for places in (0, 6, 10):
            ends = [decimal_str(b, places) for b in bounds]
            want = [(n, lo, hi, c.in_k, c.digit_lo, c.digit_hi)
                    for c, lo, hi in zip(cells, ends, ends[1:])]
            assert emit_kset_plot_data(n, places, alpha_min, n_min=n) == want, (n, alpha_min)


def test_plot_rows_factor_no_cut(monkeypatch):
    # the rows come from the walk's integer views, so the number of
    # square-free splits does not grow with the number of cells
    calls = []
    split = exact._square_free_split
    monkeypatch.setattr(exact, "_square_free_split", lambda n: calls.append(n) or split(n))
    counts = []
    for alpha_min in (Fraction(1, 100), Fraction(1, 1000)):
        calls.clear()
        emit_kset_plot_data(2, 6, alpha_min)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_no_matching_regions():
    (r5,) = no_matching_regions(5)
    assert r5.lo == Fraction(1) and r5.hi == alpha_max(5)
    (r7,) = no_matching_regions(7)
    assert r7.lo == Fraction(1) and r7.hi == alpha_max(7)
    (r9,) = no_matching_regions(9)
    assert r9.lo == surd(-3, 1, 45, 2) and r9.hi == Fraction(2)
    for bad in (6, 4, 3, 2):
        with pytest.raises(NotApplicable):
            no_matching_regions(bad)


def test_plot_rows():
    rows = emit_kset_plot_data(5)
    assert (5, "1.000000", "1.192582", True, 1, 3) in rows
    assert (5, "1.192582", "1.236068", True, 1, 2) in rows
    two_rows = [r for r in rows if r[0] == 2]
    assert two_rows[0][1] == "0.010000"
    assert two_rows[-1][2] == "0.414214"
    for a, b in zip(two_rows, two_rows[1:]):
        assert a[2] == b[1]  # rendered endpoints chain without gaps
    assert emit_kset_plot_data(3, precision=3)[0][1] == "0.010"


def test_no_matching_regions_walk_their_own_cells(monkeypatch):
    for n in range(5, 100, 2):
        (region,) = no_matching_regions(n)
        cells = kset(n, region.lo)
        assert cells[0].interval.lo == region.lo
        assert cells[-1].interval.hi == region.hi
        assert region.lo in digit_breakpoints(n, region.lo / 2)   # a cut, not a clamp
        assert all(cell.in_k for cell in cells)
    # a cell that is not coprime still stops the check, first or last
    real = paramspace._cells
    one = (1, 0, 1, 0)  # the integer view of 1
    planted = (one, one, 1, 5, False)  # digit 5 shares a factor with N = 5
    for first in (True, False):
        def cells(n, alpha_min):
            walk = list(real(n, alpha_min))
            yield from [planted] + walk if first else walk + [planted]
        monkeypatch.setattr(paramspace, "_cells", cells)
        with pytest.raises(RuntimeError, match="not coprime"):
            no_matching_regions(5)
