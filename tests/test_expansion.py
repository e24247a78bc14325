import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (approx_bounds, brute_digits, random_params,
                      random_rational_in, random_surd_in)
from nacf.exact import Surd, compare_exact, floor_exact, surd
from nacf.expansion import (ADD_ONE, DigitWord, Mobius, NoValidTail,
                            OutOfDomain, Params, Undecidable,
                            all_digits_coprime, alpha_max,
                            alternating_compare, branch_product, convergents,
                            digit, digit_set, evaluate, expand, mobius_apply,
                            projective_equiv, step, validate_expansion, xi)


def test_params_validation():
    Params(2, Fraction(2, 5))
    Params(9, Fraction(2))          # right edge for a square N
    Params(2, alpha_max(2))         # right edge as a surd
    with pytest.raises(ValueError):
        Params(2, Fraction(1, 2))   # above sqrt(2)-1
    with pytest.raises(ValueError):
        Params(1, Fraction(1, 3))
    with pytest.raises(ValueError):
        Params(5, Fraction(0))


def test_digit_set_examples():
    assert list(digit_set(Params(2, Fraction(2, 5)))) == [1, 2, 3, 4]
    assert list(digit_set(Params(5, Fraction(6, 5)))) == [1, 2]
    # both floors evaluated exactly: floor(9/(249/100) - 149/100) = 2,
    # floor(9/(149/100) - 149/100) = 4
    assert list(digit_set(Params(9, Fraction(149, 100)))) == [2, 3, 4]


def test_digit_set_oracle():
    rng = random.Random(10)
    for _ in range(100):
        p = random_params(rng)
        ds = digit_set(p)
        lo = math.floor(Fraction(p.N) / (p.alpha + 1) - p.alpha)
        hi = math.floor(Fraction(p.N) / p.alpha - p.alpha)
        assert (ds.start, ds.stop - 1) == (lo, hi)
        assert ds.start >= 1


def test_digit_examples():
    assert digit(Fraction(1), Params(2, Fraction(2, 5))) == 1
    assert digit(Fraction(40, 33), Params(3, Fraction(73, 100))) == 1
    assert digit(Fraction(2), Params(9, Fraction(149, 100))) == 3


def test_digit_left_endpoint_adjustment():
    # N/alpha - alpha = 4 is an integer, so the digit at alpha drops to 3
    p = Params(5, Fraction(1))
    assert digit(Fraction(1), p) == 3
    d, nxt = step(Fraction(1), p)
    assert (d, nxt) == (3, Fraction(2))  # maps to alpha + 1
    # interior points with an integral quotient keep the plain floor
    q = Params(2, Fraction(2, 5))
    assert digit(Fraction(5, 6), q) == 2
    assert step(Fraction(5, 6), q)[1] == q.alpha


def test_left_endpoint_adjustment_for_a_surd_alpha():
    # alpha = (-5+sqrt(33))/2 solves alpha^2 + 5 alpha = 2, so N/alpha - alpha
    # is the integer 5 although alpha is irrational
    alpha = surd(-5, 1, 33, 2)
    p = Params(2, alpha)
    assert p.left_end_quotient == 5
    assert step(alpha, p) == (4, alpha + 1)
    assert expand(alpha, p, 3).prefix[0] == 4
    assert Params(2, surd(-1, 1, 2, 2)).left_end_quotient is None


def test_digit_across_two_radicands():
    # x and alpha over different radicands: N/x - alpha is no surd, so the
    # floor is checked against 128-bit rational bounds of both terms
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 9)
        c = rng.randint(2, 12)
        alpha = surd(rng.randint(-3 * c, 2 * c), 1, rng.choice((2, 3, 5, 7)), c)
        if compare_exact(alpha, 0) <= 0 or compare_exact(alpha, alpha_max(n)) > 0:
            continue
        p = Params(n, alpha)
        dx = rng.choice([d for d in (2, 3, 5, 6, 7, 10, 11) if d != alpha.d])
        c, b = rng.randint(2, 12), rng.randint(1, 4)
        shift = b * math.sqrt(dx)   # picks candidates only; containment is exact
        x = surd(rng.randint(math.floor(float(alpha) * c - shift),
                             math.ceil((float(alpha) + 1) * c - shift)), b, dx, c)
        if not p.contains(x):
            continue
        (xl, xh), (al, ah) = approx_bounds(x), approx_bounds(alpha)
        lo, hi = math.floor(n / xh - ah), math.floor(n / xl - al)
        if lo != hi:
            continue
        d, nxt = step(x, p)
        assert d == lo and p.contains(nxt) and isinstance(nxt, Surd)
        assert nxt.d == x.d
        checked += 1


def test_digit_out_of_domain():
    with pytest.raises(OutOfDomain):
        digit(Fraction(3), Params(2, Fraction(2, 5)))
    with pytest.raises(OutOfDomain):
        digit(Fraction(1, 5), Params(2, Fraction(2, 5)))


def test_step_examples():
    assert step(Fraction(1), Params(2, Fraction(2, 5))) == (1, Fraction(1))
    assert step(Fraction(40, 33), Params(3, Fraction(73, 100))) == (1, Fraction(59, 40))
    root2 = surd(0, 1, 2)
    d, nxt = step(root2, Params(2, root2 - 1))
    assert (d, nxt) == (1, root2 - 1)


@st.composite
def _step_inputs(draw):
    """(x, Params) over the pairings step treats apart: alpha rational, a
    surd, or a cut point alpha^2 + m*alpha = N of the left-end rule; x
    alpha itself, in alpha's field, rational, or a surd over a radicand
    other than alpha's."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(("rational", "surd", "cut")))
    if kind == "cut":
        m = draw(st.integers(1, 4 * n))
        alpha = surd(-m, 1, m * m + 4 * n, 2)
    else:
        q = draw(st.integers(1, 60))
        alpha = Fraction(draw(st.integers(0, 2 * q)), q)
        if kind == "surd":
            r = draw(st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13)))
            alpha += surd(-math.isqrt(r), 1, r, draw(st.integers(1, 60)))
    assume(compare_exact(alpha, 0) > 0 and compare_exact(alpha, alpha_max(n)) <= 0)
    p = Params(n, alpha)
    where = draw(st.sampled_from(("alpha", "field", "rational", "other")))
    m = draw(st.integers(1, 60))
    if where == "alpha":
        x = alpha
    elif where == "field":
        x = alpha + Fraction(draw(st.integers(0, m)), m)
    else:
        x = Fraction(floor_exact(alpha * m) + draw(st.integers(1, m)), m)
        if where == "other":
            r = draw(st.sampled_from([r for r in (2, 3, 5, 6, 7, 10, 11, 13)
                                      if not isinstance(alpha, Surd) or r != alpha.d]))
            x -= surd(-math.isqrt(r), 1, r, draw(st.integers(1, 60)))
    assume(p.contains(x))
    return x, p


def _step_by_definition(x, p):
    """(d, N/x - d) with d the largest integer for which N/x - d >= alpha,
    found by exact comparisons alone and lowered by one at x = alpha when
    N/alpha - alpha is an integer."""
    quotient = Fraction(p.N) / x
    def fits(d):
        return compare_exact(quotient - d, p.alpha) >= 0
    lo, hi = 0, 1  # N/x >= sqrt(N) > alpha on the domain, so fits(0)
    while fits(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    e = Fraction(p.N) / p.alpha - p.alpha
    if compare_exact(x, p.alpha) == 0 and isinstance(e, Fraction) and e.denominator == 1:
        lo -= 1
    return lo, quotient - lo


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_step_inputs())
@example((surd(-5, 1, 33, 2), Params(2, surd(-5, 1, 33, 2))))   # surd cut point
@example((Fraction(1), Params(5, Fraction(1))))                  # rational cut point
@example((surd(-1, 1, 3), Params(3, surd(-1, 1, 2, 2))))        # two radicands
@example((surd(-1, 1, 5, 2), Params(2, Fraction(2, 5))))        # surd x, rational alpha
def test_step_matches_its_definition(case):
    x, p = case
    assert step(x, p) == _step_by_definition(x, p)


def test_step_stays_in_interval():
    rng = random.Random(11)
    for _ in range(300):
        p = random_params(rng)
        x = random_rational_in(p, rng)
        _, nxt = step(x, p)
        assert compare_exact(p.alpha, nxt) <= 0
        assert compare_exact(nxt, p.upper) <= 0


def test_expand_examples():
    assert expand(Fraction(2, 9), Params(2, Fraction(2, 9)), 4).prefix == (8, 1, 1, 1)
    assert expand(Fraction(11, 9), Params(2, Fraction(2, 9)), 6).prefix == (1, 2, 1, 2, 2, 1)
    assert expand(Fraction(9, 8), Params(2, Fraction(1, 8)), 5).prefix == (1, 2, 3, 3, 1)


def test_expand_matches_brute_force():
    rng = random.Random(12)
    for _ in range(60):
        p = random_params(rng)
        x = random_rational_in(p, rng)
        n = rng.randint(1, 25)
        assert list(expand(x, p, n).prefix) == brute_digits(x, p, n)


def test_evaluate_periodic_words():
    for d in range(1, 11):
        assert evaluate(DigitWord((), (d,)), 2 * d + 4) == 2
    assert evaluate(DigitWord((8,), (1,)), 2) == Fraction(2, 9)
    assert evaluate(DigitWord((), (6,)), 7) == 1


def test_evaluate_needs_tail():
    with pytest.raises(NoValidTail):
        evaluate(DigitWord((1, 2)), 2)
    value = evaluate(DigitWord((1, 2)), 2, tail=Fraction(1))
    assert value == branch_product(2, (1, 2)).apply(Fraction(1))


def test_convergents_examples():
    p1, q1, m1 = convergents((1,), 2)[0]
    assert (p1, q1) == (2, 1) and Fraction(p1, q1) == 2
    _, _, m2 = convergents((1, 2), 3)[-1]
    assert m2 == Mobius(3, 6, 1, 5) and m2.det() == 9
    _, _, m3 = convergents((8, 1, 1), 2)[-1]
    assert ADD_ONE @ m3 == Mobius(12, 32, 10, 26)


def test_determinant_law_random_words():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 9)
        digits = [rng.randint(1, 9) for _ in range(rng.randint(1, 30))]
        for i, (_, _, m) in enumerate(convergents(digits, n), 1):
            assert m.det() == (-n) ** i


def test_mobius_apply_examples():
    x = surd(3, 1, 7, 2)
    assert mobius_apply(Mobius(1, 0, 0, 1), x) == x
    m3 = convergents((8, 1, 1), 2)[-1][2]
    assert mobius_apply(m3, Fraction(1)) == Fraction(2, 9)
    assert mobius_apply(Mobius.branch(2, 1), Fraction(1)) == 1
    with pytest.raises(ZeroDivisionError):
        mobius_apply(Mobius(1, 0, 1, -1), Fraction(1))


def test_reconstruction_identity():
    rng = random.Random(14)
    for _ in range(80):
        p = random_params(rng)
        x = random_surd_in(p, rng) if rng.random() < 0.4 else random_rational_in(p, rng)
        n = rng.randint(1, 20)
        word = expand(x, p, n)
        m = convergents(word, p.N)[-1][2]
        y = x
        for _ in range(n):
            _, y = step(y, p)
        assert mobius_apply(m, y) == x


def test_projective_equiv_examples():
    assert projective_equiv(Mobius(12, 32, 10, 26), Mobius(24, 64, 20, 52))
    assert not projective_equiv(Mobius(1, 17, 1, 15), Mobius(16, 56, 14, 50))
    m = Mobius(2, 8, 10, 36)
    assert projective_equiv(m, m.scaled(3))
    assert not projective_equiv(Mobius(1, 1, 0, 1), Mobius(1, 1, 1, 1))


def test_coprime_numerators_inside_coprime_region():
    rng = random.Random(15)
    for p in (Params(5, Fraction(6, 5)), Params(7, Fraction(8, 7))):
        assert all_digits_coprime(p)
        for _ in range(10):
            x = random_rational_in(p, rng)
            word = expand(x, p, 30)
            for pn, qn, _ in convergents(word, p.N):
                assert math.gcd(pn, qn) == 1


def test_convergents_approach_the_point():
    # |x - p_n/q_n| strictly decreasing past a small index, checked against
    # 256-bit bounds independent of the exact comparison paths
    rng = random.Random(16)
    for _ in range(12):
        p = random_params(rng)
        x = random_surd_in(p, rng)
        word = expand(x, p, 30)
        xl, xh = approx_bounds(x, 256)
        errors = []
        for pn, qn, _ in convergents(word, p.N):
            c = Fraction(pn, qn)
            lo = max(Fraction(0), xl - c, c - xh)
            hi = max(xh - c, c - xl)
            errors.append((lo, hi))
        start = 2
        assert all(errors[i + 1][1] < errors[i][0]
                   for i in range(start, len(errors) - 1))


def test_digitword_canonical_forms():
    assert DigitWord((2, 1), (1,)) == DigitWord((2,), (1,))
    assert DigitWord((), (3, 4, 3, 4)) == DigitWord((), (3, 4))
    assert DigitWord((5, 3, 4), (3, 4)).prefix == (5,)
    assert DigitWord((8,), (1,)).shifted() == DigitWord((), (1,))
    with pytest.raises(ValueError):
        DigitWord((0,))
    with pytest.raises(ValueError):
        DigitWord((1,), ())


def test_digitword_text_and_json():
    w = DigitWord((8,), (1,))
    assert str(w) == "[0; 8, (1)]"
    assert DigitWord.parse("[0; 8, (1)]") == w
    assert str(DigitWord((1, 2, 3))) == "[0; 1, 2, 3]"
    assert DigitWord.parse("[0; 1, 2, 3]") == DigitWord((1, 2, 3))
    assert DigitWord.from_json(w.to_json()) == w
    assert w.head(4) == (8, 1, 1, 1)
    assert w.digit_at(0) == 8 and w.digit_at(3) == 1


def test_alternating_compare_examples():
    w1 = DigitWord((8,), (1,))
    ones = DigitWord((), (1,))
    assert alternating_compare(w1, ones) == -1        # 2/9 < 1
    w2 = DigitWord((1, 2, 1, 2, 2), (1,))
    assert alternating_compare(w1.shifted(), w2) == -1
    assert alternating_compare(w2, w2) == 0


def test_alternating_compare_undecidable():
    with pytest.raises(Undecidable):
        alternating_compare(DigitWord((1, 2)), DigitWord((1, 2)))
    with pytest.raises(Undecidable):
        alternating_compare(DigitWord((1, 2)), DigitWord((1, 2, 3)))


def test_alternating_compare_agrees_with_point_order():
    rng = random.Random(17)
    done = 0
    while done < 60:
        p = random_params(rng)
        x, y = random_rational_in(p, rng), random_rational_in(p, rng)
        if x == y:
            continue
        n = 12
        wx, wy = expand(x, p, n), expand(y, p, n)
        try:
            got = alternating_compare(wx, wy)
        except Undecidable:
            continue
        assert got == compare_exact(x, y)
        done += 1


def test_validate_expansion_examples():
    assert validate_expansion(DigitWord((8,), (1,)), Params(2, Fraction(2, 9)))
    assert validate_expansion(DigitWord((), (3, 4)), Params(9, Fraction(149, 100)))
    assert not validate_expansion(DigitWord((), (9,)), Params(2, Fraction(2, 9)))
    # the expansion of alpha + 1 itself is accepted
    assert validate_expansion(DigitWord((1, 2, 1, 2, 2), (1,)), Params(2, Fraction(2, 9)))
    # the fixed point of branch 8 lies inside the domain, so (8) repeating is valid
    assert validate_expansion(DigitWord((), (8,)), Params(2, Fraction(2, 9)))
    # in-range digits but the represented value 5/23 falls below alpha
    assert not validate_expansion(DigitWord((8, 1, 2), (1,)), Params(2, Fraction(2, 9)))
    with pytest.raises(ValueError):
        validate_expansion(DigitWord((1, 2)), Params(2, Fraction(2, 9)))


def test_xi_values():
    assert xi(2) == surd(0, 1, 2)
    assert xi(3) == surd(-1, 1, 13, 2)
    assert xi(6) == surd(-2, 1, 10)
    for n in range(2, 13):
        x = xi(n)
        assert Fraction(n) / (n - 2 + x) == x
        assert compare_exact(Fraction(1), x) < 0 < compare_exact(Fraction(2), x)
