import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (approx_bounds, interval_compare, random_exact,
                      random_fraction, random_surd)
from nacf.exact import (DegenerateEquation, MixedRadicands, NoRootInRange,
                        Surd, compare_exact, decimal_str, floor_exact,
                        format_exact, parse_exact, rational_between,
                        solve_mobius_fixed_point, solve_quadratic, surd,
                        _compare_views, _decimal_printer, _floor_linear_surd,
                        _root_view, _sign3, _square_free_split, _strong_probable_prime,
                        _surd_parts, _PRIME_PROOF_BOUND)


def test_surd_normalization():
    assert surd(0, 1, 8) == surd(0, 2, 2)              # sqrt(8) = 2*sqrt(2)
    assert surd(1, 2, 9, 2) == Fraction(7, 2)          # perfect square radicand
    assert surd(3, 0, 5) == Fraction(3)                # b = 0
    assert surd(-4, 2, 40, 2) == surd(-2, 2, 10, 1)    # gcd and square pull
    assert surd(1, 1, 2, -1) == surd(-1, -1, 2, 1)     # sign of c
    # trial division continues past the prime sieve (primes below 2^16)
    assert surd(0, 1, 3 * 65537 ** 2) == surd(0, 65537, 3)
    assert surd(0, 1, 65539 * 65543).d == 65539 * 65543  # two primes past it
    assert _square_free_split.cache_info().maxsize is not None


# primes on both sides of powers of two, 2^16 included
_EDGE_PRIMES = (3, 5, 7, 17, 251, 257, 65521, 65537, 65539)


def test_square_free_split_at_the_sieve_edges():
    for p in _EDGE_PRIMES:
        assert _square_free_split(p) == (1, p)
        assert _square_free_split(p * p) == (p, 1)
    rng = random.Random(11)
    for _ in range(300):
        primes = rng.sample(_EDGE_PRIMES, rng.randint(1, 3))
        exps = [rng.randint(1, 5) for _ in primes]
        n = math.prod(p ** e for p, e in zip(primes, exps))
        s = math.prod(p ** (e // 2) for p, e in zip(primes, exps))
        f = math.prod(p ** (e % 2) for p, e in zip(primes, exps))
        assert _square_free_split(n) == (s, f)


def test_square_free_split_stops_at_2_to_the_22():
    below, above = 4194301, 4194319  # the primes next to 2^22
    assert _square_free_split(below * below) == (below, 1)
    # one factor below 2^22 leaves a prime cofactor, however large
    assert _square_free_split(below * above) == (1, below * above)
    assert _square_free_split(2 ** 101 * 3 ** 4) == (2 ** 50 * 9, 2)
    with pytest.raises(ValueError, match=f"radicand {above * above} "):
        _square_free_split(above * above)


def test_prime_test_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
    assert [n for n in range(20000) if _strong_probable_prime(n) != trial(n)] == []
    # strong pseudoprimes to the bases 2; 2..5; 2..23 and 2..37, all
    # below the bound where bases 2..41 decide
    for n in (561, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert n < _PRIME_PROOF_BOUND
        assert not _strong_probable_prime(n)
    for n in (10 ** 9 + 7, 10 ** 20 + 39, 2 ** 89 - 1):
        assert _strong_probable_prime(n)


def test_repr_keeps_the_radicand_unsplit():
    # repr and messages print the view as it stands, so a radicand that
    # trial division cannot split still prints; format_exact splits
    big = 10 ** 18 + 3
    assert repr(surd(0, 1, big)) == f"(0+1*sqrt({big}))/1"
    assert repr(surd(1, 1, 8, 3)) == "(1+1*sqrt(8))/3"
    assert format_exact(surd(1, 1, 8, 3)) == "(1+2*sqrt(2))/3"
    with pytest.raises(ValueError, match="cannot split"):
        format_exact(surd(0, 1, big))


def test_values_agree_across_square_factors_of_the_radicand():
    root8, root2 = surd(0, 1, 8), surd(0, 1, 2)
    assert root8 + root2 == surd(0, 3, 2) == root2 + root8
    assert root8 - root2 == root2
    assert root8 * root2 == 4 == root2 * root8
    assert root8 / root2 == 2 and root2 / root8 == Fraction(1, 2)
    assert root8 * surd(1, 1, 2) == surd(4, 2, 2)
    two_root2 = surd(0, 2, 2)
    assert root8 == two_root2 and hash(root8) == hash(two_root2)
    assert two_root2 in {root8} and {root8: 1}[two_root2] == 1
    assert len({root8, two_root2, surd(0, 1, 32) / 2}) == 1
    assert root8 != root2 and root8 != Fraction(3)
    assert format_exact(surd(2, 1, 8, 2)) == "(1+1*sqrt(2))/1"
    assert format_exact(surd(0, 1, 8)) == format_exact(two_root2) == "(0+2*sqrt(2))/1"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50).filter(bool), st.integers(1, 60),
       st.sampled_from((2, 3, 5, 6, 7, 10, 11, 13, 15, 30, 105, 1155)), st.integers(1, 50))
def test_square_factors_of_the_radicand_move_into_b(a, b, s, f, c):
    x, y = surd(a, b, s * s * f, c), surd(a, b * s, f, c)
    assert x == y and hash(x) == hash(y)
    assert format_exact(x) == format_exact(y)
    assert parse_exact(format_exact(x)) == x


def test_normalization_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        x = random_surd(rng)
        again = surd(x.a, x.b, x.d, x.c)
        assert again == x


def test_arithmetic_examples():
    root2 = surd(0, 1, 2)
    assert root2 - 1 == surd(-1, 1, 2)
    assert Fraction(2) / root2 == root2                # rationalised
    assert surd(-3, 1, 29, 2) + surd(3, 1, 29, 2) == surd(0, 1, 29)


def test_surd_arith_dispatch():
    # each operator, with a rational on either side, dispatches to one exact
    # formula and normalises its result
    root2 = surd(0, 1, 2)
    assert root2 - Fraction(1) == surd(-1, 1, 2) == root2 - 1
    assert Fraction(2) / root2 == root2 == 2 / root2
    assert surd(-3, 1, 29, 2) + surd(3, 1, 29, 2) == surd(0, 1, 29)
    assert root2 * root2 == Fraction(2)
    assert type(root2 * root2) is Fraction


_OPERATORS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
              "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def test_mixed_radicands_rejected():
    x, y = surd(0, 1, 2), surd(1, 1, 5)
    for op in _OPERATORS.values():
        for u, v in ((x, y), (y, x)):
            with pytest.raises(MixedRadicands):
                op(u, v)
    with pytest.raises(MixedRadicands):
        x.__rsub__(y)
    with pytest.raises(MixedRadicands):
        x.__rtruediv__(y)


def test_mixed_radicands_message_prints_any_radicand():
    # past 4300 digits str() of an int raises on Python 3.11+; the message
    # prints both radicands whole
    big = 10 ** 5000 + 1  # no square, and 2*big is none either
    with pytest.raises(MixedRadicands) as info:
        surd(0, 1, 2) + surd(0, 1, big)
    assert str(info.value) == f"sqrt(2) vs sqrt(1{'0' * 4999}1)"


def test_division_by_zero():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            surd(0, 1, 2) / zero
    assert Fraction(0) / surd(0, 1, 2) == 0 == 0 / surd(0, 1, 2)
    for other in (1.5, "1"):
        for op in _OPERATORS.values():
            with pytest.raises(TypeError):
                op(surd(0, 1, 2), other)
            with pytest.raises(TypeError):
                op(other, surd(0, 1, 2))


def _q2(x, d):
    # x as (r0, r1) in Q^2 with x = r0 + r1*sqrt(d)
    if isinstance(x, Surd):
        assert x.d == d
        return Fraction(x.a, x.c), Fraction(x.b, x.c)
    return Fraction(x), Fraction(0)


def _q2_reference(op, x, y, d):
    # the field operations of Q(sqrt(d)) on pairs, with Fraction arithmetic only
    (x0, x1), (y0, y1) = x, y
    if op == "/":
        norm = y0 * y0 - y1 * y1 * d
        op, y0, y1 = "*", y0 / norm, -y1 / norm
    if op == "+":
        return x0 + y0, x1 + y1
    if op == "-":
        return x0 - y0, x1 - y1
    return x0 * y0 + x1 * y1 * d, x0 * y1 + x1 * y0


def test_field_laws_same_radicand():
    rng = random.Random(3)
    for _ in range(200):
        d = rng.choice((2, 3, 7, 13))
        def gen():
            v = surd(rng.randint(-9, 9), rng.randint(-9, 9), d, rng.randint(1, 9))
            return v
        x, y, z = gen(), gen(), gen()
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if isinstance(y, Surd):
            assert (x / y) * y == x
    # every operator, both operand orders, against the Q^2 reference
    rng = random.Random(33)
    for _ in range(1_000):
        x = random_surd(rng)
        y = rng.choice((rng.randint(-5, 5), random_fraction(rng),
                        surd(rng.randint(-30, 30), rng.randint(-30, 30), x.d,
                             rng.randint(1, 30))))
        for u, v in ((x, y), (y, x)):
            for name, op in _OPERATORS.items():
                if name == "/" and v == 0:
                    continue
                got = op(u, v)
                assert isinstance(got, (Fraction, Surd))
                assert _q2(got, x.d) == _q2_reference(name, _q2(u, x.d), _q2(v, x.d), x.d)


def test_floor_examples():
    assert floor_exact(Fraction(1745, 1000)) == 1   # 99/40 - 73/100
    assert floor_exact(surd(-3, 1, 29, 2)) == 1     # sqrt(29) in (5, 6)
    assert floor_exact(Fraction(7)) == 7
    assert floor_exact(surd(0, -1, 2)) == -2        # -sqrt(2)


def test_floor_kernel_rejects_a_non_positive_denominator():
    # the nested floor floor((p + f)/e) holds only for e > 0
    for e in (0, -1):
        with pytest.raises(ValueError, match="positive denominator"):
            _floor_linear_surd(0, 1, 2, e)
    assert _floor_linear_surd(7, 0, 0, 2) == 3


def _at_most(m, q, d):
    # m <= q*sqrt(d) for integers m, q and d >= 0, by signs and squares alone
    if q >= 0:
        return m <= 0 or m * m <= q * q * d
    return m <= 0 and m * m >= q * q * d


def _is_floor(n, p, q, d, e):
    # n*e <= p + q*sqrt(d) < (n + 1)*e: n is the floor, whatever computed it
    return _at_most(n * e - p, q, d) and not _at_most((n + 1) * e - p, q, d)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(-10**3, 10**3).filter(bool),
       st.one_of(st.integers(0, 10**4).map(lambda r: r * r), st.integers(0, 10**8)),
       st.integers(1, 10**4))
def test_floor_kernel_on_any_radicand(p, q, d, e):
    # unsplit radicands reach the kernel: a cut's m*m + 4N can be a square
    assert _is_floor(_floor_linear_surd(p, q, d, e), p, q, d, e)
    assert _decimal_printer(3)(p, q, e, d) == decimal_str(surd(p, q, d, e), 3)


_BIG = 1 << 400


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.integers(-_BIG, _BIG), st.integers(-_BIG, _BIG),
       st.one_of(st.just(0), st.integers(0, _BIG).map(lambda r: r * r), st.integers(0, _BIG)),
       st.integers(1, _BIG))
@example(0, -1, 4, 1)              # -sqrt(4) = -2 exactly
@example(5, -3, 9, 2)              # (5 - 9)/2 = -2 exactly
@example(-7, -1, 0, 3)             # d = 0: floor(-7/3)
@example(0, -1, 2, 1)              # -sqrt(2) in (-2, -1)
@example(1 - (1 << 200), -1, 1 << 400, 1)  # -(2^200 - 1) - 2^200 exactly
def test_floor_kernel_is_exact_in_one_step(p, q, d, e):
    # large operands, q < 0, perfect squares and d = 0, against the
    # bracketing test above: no upward search is left to mend a wrong start
    assert _is_floor(_floor_linear_surd(p, q, d, e), p, q, d, e)


def test_floor_property():
    rng = random.Random(4)
    for _ in range(500):
        x = random_exact(rng)
        n = floor_exact(x)
        assert compare_exact(n, x) <= 0
        assert compare_exact(x, n + 1) < 0
        # 128 bits keep every integer out of the oracle's interval here
        lo, hi = approx_bounds(x, bits=128)
        assert math.floor(lo) == n == math.floor(hi)


def test_compare_examples():
    assert compare_exact(Fraction(2, 9), surd(-17, 1, 369, 10)) == 1
    assert compare_exact(surd(0, 1, 2), Fraction(141, 100)) == 1
    x = surd(5, -3, 7, 4)
    assert compare_exact(x, x) == 0


def test_compare_mixed_radicands():
    assert compare_exact(surd(0, 1, 2), surd(0, 1, 3)) == -1
    assert compare_exact(surd(1, 1, 2), surd(0, 1, 6)) == -1  # 2.414 < 2.449
    assert compare_exact(surd(0, 2, 3), surd(0, 1, 11)) == 1  # 12 > 11
    assert compare_exact(surd(-1, 1, 5), Fraction(0)) == 1


def test_compare_against_interval_oracle():
    rng = random.Random(5)
    checked = 0
    for _ in range(10_000):
        x, y = random_exact(rng), random_exact(rng)
        if rng.random() < 0.05 and isinstance(x, Surd):
            y = surd(2 * x.a, 2 * x.b, x.d, 2 * x.c)  # same value, other build
        want = interval_compare(x, y, bits=128)
        got = compare_exact(x, y)
        if want is None:
            # 128 bits separate all unequal values of this size
            assert got == 0
        else:
            assert got == want
        checked += 1
    assert checked == 10_000
    # int operands, and same-radicand neighbours x and x + 1/q
    rng = random.Random(55)
    for _ in range(2_000):
        x = random_surd(rng)
        near = x + Fraction(rng.choice((-1, 1)), rng.randint(1, 10 ** 6))
        k, f = rng.randint(-5, 5), random_exact(rng)
        for u, v in ((x, near), (x, k), (k, f), (k, rng.randint(-5, 5))):
            for y, z in ((u, v), (v, u)):
                assert compare_exact(y, z) == interval_compare(y, z, bits=128)


def test_rich_comparisons_on_surds():
    assert surd(0, 1, 2) < Fraction(3, 2) < surd(0, 1, 3)
    assert surd(0, 1, 2) <= surd(0, 1, 2)
    assert Fraction(1) < surd(0, 1, 2)


def test_solve_quadratic_shapes():
    assert solve_quadratic(0, 2, -3) == (Fraction(3, 2),)
    assert solve_quadratic(1, 0, 1) == ()
    assert solve_quadratic(1, -2, 1) == (Fraction(1),)
    roots = solve_quadratic(1, 0, -2)
    assert roots == (surd(0, -1, 2), surd(0, 1, 2))
    # a negative leading coefficient swaps which sign of sqrt(disc) is lower
    assert solve_quadratic(-1, 0, 2) == roots
    assert solve_quadratic(-2, 1, 3) == (Fraction(-1), Fraction(3, 2))  # disc = 25
    rng = random.Random(9)
    for _ in range(300):
        c2, c1, c0 = (rng.randint(-20, 20) for _ in range(3))
        roots = solve_quadratic(c2, c1, c0) if c2 or c1 else ()
        assert all(compare_exact(r, s) < 0 for r, s in zip(roots, roots[1:]))
        assert all(c2 * r * r + c1 * r + c0 == 0 for r in roots)
    with pytest.raises(DegenerateEquation):
        solve_quadratic(0, 0, 5)


def test_fixed_point_of_constant_digit_words():
    # x = N/(N-2+x) on (1, 2) for N = 2..9
    for n in range(2, 10):
        root = solve_mobius_fixed_point((0, n, 1, n - 2), 0,
                                        lo=Fraction(1), hi=Fraction(2))
        assert root == surd(-(n - 2), 1, n * n + 4, 2)
        # substitute back: root = N/(N-2+root) exactly
        assert Fraction(n) / (n - 2 + root) == root


def test_fixed_point_single_branch():
    # N/x - d = x has the positive solution (-d + sqrt(d^2+4N))/2
    for n, d in [(6, 1), (8, 2), (9, 3), (12, 4)]:
        root = solve_mobius_fixed_point((0, n, 1, d), 0, lo=Fraction(0), hi=None)
        assert root == surd(-d, 1, d * d + 4 * n, 2)
    assert solve_mobius_fixed_point((0, 6, 1, 1), 0, lo=Fraction(0), hi=None) == 2


def test_cylinder_boundary_root():
    # product of branches 8, 1, 2 for N=2 is [[2, 8], [10, 36]]
    root = solve_mobius_fixed_point((2, 8, 10, 36), 0, lo=Fraction(0), hi=None)
    assert root == surd(-17, 1, 369, 10)


def test_fixed_point_shift_substitution():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(2, 9)
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(1, 4)):
            d = rng.randint(1, 6)
            a, b, c, e = m
            m = (b, b * d + a * n, e, e * d + c * n)  # right-multiply branch
        shift = rng.choice((0, 1))
        try:
            y = solve_mobius_fixed_point(m, shift, lo=Fraction(0), hi=None)
        except NoRootInRange:
            continue
        a, b, c, e = m
        assert (a * y + b) / (c * y + e) == y + shift


def test_no_root_in_range():
    with pytest.raises(NoRootInRange):
        solve_mobius_fixed_point((0, 2, 1, 0), 0, lo=Fraction(10), hi=Fraction(11))


def _fixed_point_or_none(m, shift):
    try:
        return solve_mobius_fixed_point(m, shift, lo=Fraction(0), hi=None)
    except NoRootInRange:
        return None


def _root_or_none(c2, c1, c0):
    # the kernel's view as a value
    view = _root_view(c2, c1, c0)
    return None if view is None else surd(view[0], view[1], view[3], view[2])


@settings(derandomize=True, max_examples=3000, deadline=None)
@given(st.tuples(*[st.integers(-50, 50)] * 4), st.sampled_from((0, 1)))
@example((3, 7, 0, 3), 0)    # c2 = c1 = 0
@example((1, 4, 0, 2), 0)    # linear: x - 4
@example((0, 2, 1, 1), 0)    # x^2 + x - 2: the perfect-square root 1
def test_root_view_agrees_with_the_fixed_point_solver(m, shift):
    # the sign rule picks the root solve_mobius_fixed_point(m, s, lo=0)
    # picks, as the same normalized value, and None where it finds none or two
    a, b, c, d = m
    equation = (c, d + shift * c - a, shift * d - b)
    try:
        want = _fixed_point_or_none(m, shift)
    except DegenerateEquation:
        with pytest.raises(DegenerateEquation):
            _root_view(*equation)
        return
    got = _root_or_none(*equation)
    assert (got is None) == (want is None)
    if want is not None:
        assert type(got) is type(want) and _surd_parts(got) == _surd_parts(want)


def test_root_view_cases():
    cases = {
        (1, -2, 1): Fraction(1),            # zero discriminant, root 1
        (-1, 2, -1): Fraction(1),           # the same, c2 < 0
        (1, 2, 1): None,                    # zero discriminant, root -1
        (1, 0, 0): Fraction(0),             # the double root 0
        (1, 3, 0): Fraction(0),             # c0 = 0: roots 0 and -3
        (1, -3, 0): None,                   # c0 = 0: roots 0 and 3
        (-1, 0, 2): surd(0, 1, 8, 2),       # c2 < 0: roots -sqrt(2), sqrt(2)
        (-1, -3, -2): None,                 # c2 < 0: roots -2, -1
        (1, -3, 2): None,                   # two positive roots 1, 2
        (1, 1, 1): None,                    # no real root
        (1, -1, -2): Fraction(2),           # disc 9: roots -1, 2
        (0, 2, -3): Fraction(3, 2),         # linear
        (0, -2, -3): None,                  # linear, root -3/2
        (0, 5, 0): Fraction(0),             # linear, root 0
    }
    for (c2, c1, c0), want in cases.items():
        # (c2, c1, c0) is the fixed-point equation of (0, -c0, c2, c1) at shift 0
        assert _fixed_point_or_none((0, -c0, c2, c1), 0) == want
        got = _root_or_none(c2, c1, c0)
        assert got == want and type(got) is type(want), (c2, c1, c0)
    # a perfect-square discriminant is kept in the view and collapses in surd()
    assert _root_view(1, -1, -2) == (1, 1, 2, 9)
    with pytest.raises(DegenerateEquation):
        _root_view(0, 0, 5)


def test_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        x = random_exact(rng)
        assert parse_exact(format_exact(x)) == x
    assert parse_exact("7") == Fraction(7)
    assert parse_exact("-3/7") == Fraction(-3, 7)
    assert parse_exact("(0+1*sqrt(2))/1") == surd(0, 1, 2)
    assert parse_exact("(-17+3*sqrt(41))/10") == surd(-17, 1, 369, 10)
    assert parse_exact("sqrt(8)") == surd(0, 2, 2)


def test_parse_rejects_decimals_and_noise():
    for bad in ("0.73", "1e3", "sqrt(-2)", "1/0", "(1+sqrt(2))/2", ""):
        with pytest.raises(ValueError):
            parse_exact(bad)


def test_decimal_str():
    assert decimal_str(surd(-1, 1, 5), 6) == "1.236068"   # sqrt(5) - 1
    assert decimal_str(Fraction(1, 3), 4) == "0.3333"
    assert decimal_str(Fraction(-1, 3), 4) == "-0.3333"
    assert decimal_str(Fraction(2), 0) == "2"
    assert decimal_str(surd(0, 1, 2), 2) == "1.41"
    assert decimal_str(Fraction(1, 8), 2) == "0.13"      # half-way rounds up
    assert decimal_str(Fraction(-1, 8), 2) == "-0.12"
    assert decimal_str(surd(0, -1, 2), 2) == "-1.41"


def _rounded_half_up(a, b, c, d, k):
    """floor(x*10^k + 1/2) of x = (a + b*sqrt(d))/c: Fraction for a rational
    x, sympy for a surd."""
    r = math.isqrt(d)
    if b == 0 or r * r == d:
        return math.floor(Fraction(a + b * r, c) * 10 ** k + Fraction(1, 2))
    sympy = pytest.importorskip("sympy")
    x = (a + b * sympy.sqrt(d)) / c
    return int(sympy.floor(x * 10 ** k + sympy.Rational(1, 2)))


def _assert_decimal_text(text, k, want):
    # k places after the point (none at k = 0), and the digits read as want
    whole, point, places = text.partition(".")
    assert len(places) == k and bool(point) == (k > 0), text
    assert whole.lstrip("-") == str(int(whole.lstrip("-"))), text
    assert int(whole + places) == want and (want < 0) == text.startswith("-"), text


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 3, 10 ** 3),
       st.integers(1, 10 ** 4), st.integers(0, 10 ** 4), st.integers(0, 12))
@example(1, 0, 8, 0, 2)           # 0.125: half-way, up
@example(-1, 0, 8, 0, 2)          # -0.125: half-way, up to -0.12
@example(-1, 0, 2000, 0, 3)       # -0.0005: half-way, up to 0.000
@example(3, 0, 2, 0, 0)           # 1.5 at k = 0
@example(-3, 0, 2, 0, 0)          # -1.5 at k = 0
@example(0, -1, 1, 2, 12)         # -sqrt(2)
@example(2, 3, 4, 36, 5)          # a square radicand
def test_decimal_str_rounds_half_up(a, b, c, d, k):
    want = _rounded_half_up(a, b, c, d, k)
    _assert_decimal_text(_decimal_printer(k)(a, b, c, d), k, want)
    _assert_decimal_text(decimal_str(surd(a, b, d, c), k), k, want)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(0, 12))
def test_decimal_str_rounds_exact_halves_up(m, k):
    # (2m+1)/(2*10^k) lies half-way between two k-place decimals
    x = Fraction(2 * m + 1, 2 * 10 ** k)
    want = m + 1
    _assert_decimal_text(decimal_str(x, k), k, want)
    _assert_decimal_text(_decimal_printer(k)(x.numerator, 0, x.denominator, 0), k, want)


def test_rational_between():
    rng = random.Random(8)
    for _ in range(200):
        a, b = random_exact(rng), random_exact(rng)
        c = compare_exact(a, b)
        if c == 0:
            continue
        if c > 0:
            a, b = b, a
        q = rational_between(a, b)
        assert compare_exact(a, q) < 0 < compare_exact(b, q)
        # floor(lo*k) + 1 over the first k = 2^i that fits
        k = 1
        while not a < Fraction(floor_exact(a * k) + 1, k) < b:
            k *= 2
        assert q == Fraction(floor_exact(a * k) + 1, k)


def test_rational_between_rejects_empty_intervals():
    for lo, hi in ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 3)),
                   (surd(-1, 1, 2), surd(-1, 1, 2)), (surd(1, 1, 3), Fraction(1))):
        with pytest.raises(ValueError):
            rational_between(lo, hi)
    # narrower than 2**-64 is still nonempty and still answered
    lo = Fraction(1, 3)
    q = rational_between(lo, lo + Fraction(1, 2 ** 70))
    assert lo < q < lo + Fraction(1, 2 ** 70)


def test_no_decision_path_splits_a_radicand(monkeypatch):
    # only the text of a surd needs its square-free form
    from nacf import exact, paramspace
    from nacf.expansion import Params
    from nacf.matching import matching_interval, verify_theorem_intervals
    from nacf.orbits import orbit_quadratic

    def decide():
        paramspace.kset.cache_clear()
        return (verify_theorem_intervals(["i", "ii", "iv"], range(0, 4)),
                matching_interval(Fraction(2, 9), 2),
                paramspace.kset(5, Fraction(1, 10)),
                orbit_quadratic(surd(1, 1, 8, 2), Params(5, Fraction(6, 5)), 50))

    want = decide()

    def split(n):
        raise AssertionError(f"sqrt({n}) was split on a decision path")

    monkeypatch.setattr(exact, "_square_free_split", split)
    got = decide()
    assert got == want
    assert all(check.ok for check in got[0]) and len(got[2]) > 1
    assert got[3].points[0].d == 8


_RATIONAL = st.tuples(st.integers(-_BIG, _BIG), st.integers(1, _BIG))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_RATIONAL, st.one_of(_RATIONAL, st.none()))
@example((-3, 4), (-6, 8))      # equal values, neither view reduced
@example((0, 5), (0, 1))
@example((-1, 1), (1, _BIG))
def test_two_rational_views_compare_by_one_cross_product(x, y):
    # y = None compares x with a scaled copy of itself
    if y is None:
        y = (3 * x[0], 3 * x[1])
    xv, yv = (x[0], 0, x[1], 0), (y[0], 0, y[1], 0)
    fx, fy = Fraction(*x), Fraction(*y)
    want = (fx > fy) - (fx < fy)
    assert _compare_views(xv, yv) == want
    # the general formula, which the rational case no longer reaches
    assert _sign3(x[0] * y[1] - y[0] * x[1], 0, 0, 0, 0) == want


def test_mixed_views_still_compare_exactly():
    rng = random.Random(28)
    for _ in range(2000):
        x, y = random_exact(rng), random_exact(rng)
        xv, yv = _surd_parts(x), _surd_parts(y)
        got = _compare_views(xv, yv)
        assert got == compare_exact(x, y)
        assert got == _sign3(xv[0] * yv[2] - yv[0] * xv[2], xv[1] * yv[2], xv[3],
                             -yv[1] * xv[2], yv[3])
        oracle = interval_compare(x, y)
        assert oracle is None or got == oracle, (x, y)
