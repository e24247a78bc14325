import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from conftest import (approx_bounds, brute_digits, random_params,
                      random_rational_in, random_surd_in, step_by_definition)
from nacf.exact import Surd, compare_exact, floor_exact, surd
from nacf.expansion import (ADD_ONE, DigitWord, Mobius, NoValidTail,
                            OutOfDomain, Params, Undecidable,
                            all_digits_coprime, alpha_max, branch_product,
                            convergents, digit_set, evaluate, expand,
                            projective_equiv, step, validate_expansion, xi,
                            _first_difference)
from nacf.matching import EmptyInterval, ParamInterval
from nacf.orbits import orbit_rational


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


def test_params_pickle_after_their_kernels_are_built():
    for p in (Params(5, Fraction(1)), Params(2, Fraction(2, 5)), Params(2, alpha_max(2))):
        assert p.rational_digit(1, 1) == step(Fraction(1), p)[0]
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p and copy.rational_digit(1, 1) == p.rational_digit(1, 1)


def test_checked_classes_are_frozen_values():
    # Params, DigitWord, ParamInterval and OrbitTrace check or cache in
    # their own classes: each compares and hashes by its fields, prints
    # them as Name(field=value, ...), equals no tuple of them, refuses
    # assignment and deletion, and survives a pickle round trip
    p = Params(7, Fraction(11, 10))
    trace = orbit_rational(Fraction(7, 6), p, 5)
    cases = [
        (p, Params(7, Fraction(22, 20)), Params(7, Fraction(6, 5)), ("N", "alpha"),
         "Params(N=7, alpha=Fraction(11, 10))"),
        (DigitWord((1, 2, 1), (1,)), DigitWord([1, 2], (1, 1)), DigitWord((1, 2)),
         ("prefix", "period"), "DigitWord(prefix=(1, 2), period=(1,))"),
        (ParamInterval(1, 2, True, False), ParamInterval(Fraction(1), Fraction(2), True, False),
         ParamInterval(1, 2), ("lo", "hi", "lo_open", "hi_open"),
         "ParamInterval(lo=Fraction(1, 1), hi=Fraction(2, 1), lo_open=True, hi_open=False)"),
        (trace, orbit_rational(Fraction(7, 6), Params(7, Fraction(11, 10)), 5),
         orbit_rational(Fraction(7, 6), p, 4),
         ("kind", "params", "digits", "verdict", "points", "cofs", "coeffs"),
         "OrbitTrace(kind='rational', params=Params(N=7, alpha=Fraction(11, 10)), "
         "digits=(4, 2, 3, 3, 4), verdict=Verdict(kind='no-period-within-budget', "
         "pre_period=None, period=None), points=((7, 6), (2, 1), (3, 2), (5, 3), (6, 5), "
         "(11, 6)), cofs=(1, 7, 7, 7, 7, 7), coeffs=())"),
    ]
    for x, same, other, fields, text in cases:
        assert x == same and hash(x) == hash(same) and x is not same, text
        assert x != other and not x == other, text
        assert repr(x) == text
        assert x != tuple(getattr(x, f) for f in fields), text
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(x, f))
            with pytest.raises(AttributeError):
                delattr(x, f)
        assert pickle.loads(pickle.dumps(x)) == x, text
    # cached values still fill on a frozen instance, and leave its ==, hash
    # and pickle as they were: a trace's prefix matrices are no field
    assert p.upper == Fraction(21, 10) and p.upper is p.upper
    assert trace.first_index[(2, 1)] == 1
    m3 = trace.matrix(3)
    same = orbit_rational(Fraction(7, 6), p, 5)
    assert trace == same and hash(trace) == hash(same)
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and hash(copy) == hash(trace)
    assert copy.matrix(3) == m3 and copy.matrix(5) == same.matrix(5)
    with pytest.raises(EmptyInterval, match=r"^lo=2 hi=1$"):
        ParamInterval(2, 1)
    with pytest.raises(EmptyInterval, match=r"^lo=1/3 hi=1/3$"):
        ParamInterval(Fraction(1, 3), Fraction(1, 3), False, True)


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
    assert step(Fraction(1), Params(2, Fraction(2, 5)))[0] == 1
    assert step(Fraction(40, 33), Params(3, Fraction(73, 100)))[0] == 1
    assert step(Fraction(2), Params(9, Fraction(149, 100)))[0] == 3


def test_digit_left_endpoint_adjustment():
    # N/alpha - alpha = 4 is an integer, so the digit at alpha drops to 3
    p = Params(5, Fraction(1))
    assert step(Fraction(1), p)[0] == 3
    d, nxt = step(Fraction(1), p)
    assert (d, nxt) == (3, Fraction(2))  # maps to alpha + 1
    # interior points with an integral quotient keep the plain floor
    q = Params(2, Fraction(2, 5))
    assert step(Fraction(5, 6), q)[0] == 2
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


def _floor_difference(u, v):
    """floor(u - v), exactly, for u and v over any two radicands."""
    fu, fv = floor_exact(u), floor_exact(v)
    return fu - fv - (compare_exact(u - fu, v - fv) < 0)


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
        shift = surd(0, b, dx)
        # a from floor(alpha*c - shift) to ceil((alpha + 1)*c - shift)
        x = surd(rng.randint(_floor_difference(alpha * c, shift),
                             -_floor_difference(shift, (alpha + 1) * c)), b, dx, c)
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
        step(Fraction(3), Params(2, Fraction(2, 5)))
    with pytest.raises(OutOfDomain):
        step(Fraction(1, 5), Params(2, Fraction(2, 5)))


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


@settings(derandomize=True, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_step_inputs())
@example((surd(-5, 1, 33, 2), Params(2, surd(-5, 1, 33, 2))))   # surd cut point
@example((Fraction(1), Params(5, Fraction(1))))                  # rational cut point
@example((surd(-1, 1, 3), Params(3, surd(-1, 1, 2, 2))))        # two radicands
@example((surd(-1, 1, 5, 2), Params(2, Fraction(2, 5))))        # surd x, rational alpha
@example((surd(12, 1, 2, 10), Params(5, Fraction(6, 5))))      # rational part alpha
def test_step_matches_its_definition(case):
    x, p = case
    assert step(x, p) == step_by_definition(x, p)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.integers(2, 40), st.integers(1, 60), st.integers(0, 120),
       st.integers(1, 10 ** 40), st.data())
def test_rational_step_is_fractions_lowest_terms(n, q, num, s, data):
    # step divides N*c - d*a and a by gcd(N, a) alone and builds the Fraction
    # unchecked; it must be the Fraction that Euclid's algorithm gives
    alpha = Fraction(num, q)
    assume(0 < alpha and compare_exact(alpha, alpha_max(n)) <= 0)
    p = Params(n, alpha)
    x = Fraction(floor_exact(alpha * s) + data.draw(st.integers(1, s)), s)
    assume(p.contains(x))
    d, nxt = step(x, p)
    a, c = x.numerator, x.denominator
    want = Fraction(n * c - d * a, a)
    assert (nxt.numerator, nxt.denominator) == (want.numerator, want.denominator)
    assert nxt == want and hash(nxt) == hash(want)


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
    assert Mobius(1, 0, 0, 1).apply(x) == x
    m3 = convergents((8, 1, 1), 2)[-1][2]
    assert m3.apply(Fraction(1)) == Fraction(2, 9)
    assert Mobius.branch(2, 1).apply(1) == 1
    with pytest.raises(ZeroDivisionError, match="pole"):
        Mobius(1, 0, 1, -1).apply(Fraction(1))


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
        assert m.apply(y) == x


def test_projective_equiv_examples():
    assert projective_equiv(Mobius(12, 32, 10, 26), Mobius(24, 64, 20, 52))
    assert not projective_equiv(Mobius(1, 17, 1, 15), Mobius(16, 56, 14, 50))
    m = Mobius(2, 8, 10, 36)
    assert projective_equiv(m, m.scaled(3))
    assert not projective_equiv(Mobius(1, 1, 0, 1), Mobius(1, 1, 1, 1))


def test_all_digits_coprime_agrees_with_a_gcd_scan():
    # the bounded decision against one gcd per digit, for every p/q in
    # lowest terms with q <= 30 in (0, sqrt(N) - 1], i.e. p + q <= sqrt(N) q
    for n in range(2, 41):
        for q in range(1, 31):
            for num in range(1, math.isqrt(n * q * q) - q + 1):
                if math.gcd(num, q) == 1:
                    p = Params(n, Fraction(num, q))
                    want = all(math.gcd(n, d) == 1 for d in p.digit_range)
                    assert all_digits_coprime(p) is want, (n, num, q)


def test_all_digits_coprime_past_the_scan():
    # past 2^20 digits a prime N is decided by its multiples (the range of
    # 7/3 is longer than sys.maxsize, so len() of it would raise), and N or
    # more digits hold a multiple of N, here for a product of two primes
    # near 2^30 that the first 2^20 digits miss (test_matching's undecided
    # case)
    n = 10 ** 20 + 39
    assert all_digits_coprime(Params(n, Fraction(10))) is True
    assert all_digits_coprime(Params(n, Fraction(7, 3))) is True
    assert all_digits_coprime(Params(n, Fraction(9, 10))) is False  # N is a digit
    assert all_digits_coprime(Params(1073741827 * 1073741831, Fraction(1, 2))) is False


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
    assert str(DigitWord((1, 2, 3))) == "[0; 1, 2, 3]"
    assert w.to_json() == {"prefix": [8], "period": [1]}
    assert DigitWord((1, 2, 3)).to_json() == {"prefix": [1, 2, 3], "period": None}
    # str() of an int stops past 4300 digits on Python 3.11+; a word prints
    # its digits whole
    assert str(DigitWord((10 ** 4400,), (3,))) == f"[0; 1{'0' * 4400}, (3)]"
    assert w.head(4) == (8, 1, 1, 1)
    assert w.digit_at(0) == 8 and w.digit_at(3) == 1


def test_alternating_compare_examples():
    # the order of two words' points from their first differing digit, over
    # pre-period + lcm of the periods + 1 positions
    w1 = DigitWord((8,), (1,))
    ones = DigitWord((), (1,))
    assert _first_difference(w1, ones, 3) == -1        # 2/9 < 1
    w2 = DigitWord((1, 2, 1, 2, 2), (1,))
    assert _first_difference(w1.shifted(), w2, 7) == -1
    assert _first_difference(w2, w2, 7) is None        # the same point


def test_alternating_compare_undecidable():
    # a finite word that runs out before the words differ decides nothing
    with pytest.raises(Undecidable):
        _first_difference(DigitWord((1, 2)), DigitWord((1, 2)), 3)
    with pytest.raises(Undecidable):
        _first_difference(DigitWord((1, 2)), DigitWord((1, 2, 3)), 3)
    assert _first_difference(DigitWord((1, 2)), DigitWord((1, 3)), 3) == -1


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
        got = _first_difference(wx, wy, n)
        if got is None:  # equal prefixes leave the order open
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


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.integers(1, 9), max_size=6),
       st.one_of(st.none(), st.lists(st.integers(1, 9), min_size=1, max_size=4)),
       st.integers(-2, 24))
def test_digit_word_head_reads_as_digit_at(prefix, period, n):
    # head slices the prefix and then the repeated period; a finite word
    # runs out with digit_at's own error
    w = DigitWord(tuple(prefix), None if period is None else tuple(period))
    try:
        want = tuple(w.digit_at(i) for i in range(n))
    except IndexError as exc:
        assert str(exc) == "finite word exhausted"
        with pytest.raises(IndexError, match="^finite word exhausted$"):
            w.head(n)
    else:
        assert w.head(n) == want
