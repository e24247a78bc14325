import decimal
import json
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (random_params, random_rational_in, random_surd_in,
                      step_by_definition)
from nacf.exact import compare_exact, floor_exact, format_exact, surd
from nacf import orbits
from nacf.expansion import IDENTITY, OutOfDomain, Params, branch_product, expand, step, xi
from nacf.orbits import (NO_PERIOD, PERIODIC, REACHED_ONE, InvariantViolation,
                         OrbitTrace, discriminant_check, divisibility_diagnostics,
                         nonperiodicity_certificate, orbit_quadratic,
                         orbit_rational, quad_coefficients, reaches_one)


def test_worked_orbit_pre_period_and_period():
    trace = orbit_rational(Fraction(40, 33), Params(3, Fraction(73, 100)), 200)
    v = trace.verdict
    assert v.kind == PERIODIC
    assert (v.pre_period, v.period) == (25, 38)
    assert v.first_repeat == 63  # repetition-free head of length 63
    assert trace.states[63].value == trace.states[25].value
    assert len({st.value for st in trace.states[:63]}) == 63


def test_orbit_digits_match_expansion():
    p = Params(3, Fraction(73, 100))
    trace = orbit_rational(Fraction(40, 33), p, 200)
    n = len(trace.digits)
    assert expand(Fraction(40, 33), p, n).prefix == trace.digits


def test_fixed_point_one():
    trace = orbit_rational(Fraction(1), Params(5, Fraction(1, 2)), 5)
    assert trace.verdict.kind == REACHED_ONE
    assert (trace.verdict.pre_period, trace.verdict.period) == (0, 1)
    assert trace.digits == (4,)
    assert trace.one_at == 0 and reaches_one(Fraction(1), Params(5, Fraction(1, 2)), 5)


def test_no_period_within_budget():
    trace = orbit_rational(Fraction(6, 5), Params(5, Fraction(11, 10)), 300)
    assert trace.verdict.kind == NO_PERIOD
    assert len(trace.states) == 301


def test_orbit_rejects_bad_inputs():
    with pytest.raises(OutOfDomain):
        orbit_rational(Fraction(5), Params(5, Fraction(11, 10)), 10)
    with pytest.raises(TypeError):
        orbit_rational(surd(0, 1, 2), Params(2, surd(-1, 1, 2)), 10)
    with pytest.raises(ValueError):
        orbit_rational(Fraction(6, 5), Params(5, Fraction(11, 10)), 0)


def test_raw_state_recurrence():
    rng = random.Random(20)
    cases = []
    for _ in range(40):
        p = random_params(rng)
        cases.append((random_rational_in(p, rng), p))
    # composite N, where the gcd read from t mod N takes several values
    for n in (4, 6, 12, 18):
        for _ in range(10):
            p = random_params(rng, n)
            cases.append((random_rational_in(p, rng), p))
    divided = Counter()
    for x, p in cases:
        trace = orbit_rational(x, p, 40)
        cof = 1  # raw pair = cof * reduced pair, each step scaling cof by gcd(N, t)
        assert (trace.states[0].t, trace.states[0].s) == (x.numerator, x.denominator)
        for i, d in enumerate(trace.digits):
            cur, nxt = trace.states[i], trace.states[i + 1]
            assert nxt.t == p.N * cur.s - d * cur.t
            assert nxt.s == cur.t
            assert Fraction(nxt.t, nxt.s) == nxt.value
            nxt_cof = nxt.s // nxt.value.denominator
            assert (nxt.t, nxt.s) == (nxt_cof * nxt.value.numerator,
                                      nxt_cof * nxt.value.denominator)
            g = math.gcd(p.N, cur.value.numerator)
            assert nxt_cof == cof * g
            divided[p.N, g] += g > 1
            cof = nxt_cof
    for n in (4, 6, 12, 18):  # every divisor g > 1 of N, N itself (t = 0 mod N) included
        assert all(divided[n, g] for g in range(2, n + 1) if n % g == 0), divided


def _doubled_from_two():
    # the true gcd until it first reads 2, twice the true gcd from there on
    on = False

    def gcd(a, b):
        nonlocal on
        g = math.gcd(a, b)
        on = on or g == 2
        return 2 * g if on else g
    return gcd


def test_rational_check_catches_a_lost_factor(monkeypatch):
    cases = [
        # a step that divides by 2 where gcd(N, t) is 1 loses a factor of the
        # reduced pair: here N*s - d*t = 5*5 - 2*7 = 11 is odd at the first step
        (5, Fraction(6, 5), Fraction(7, 5), lambda *args: 2),
        # a step that really divides by gcd(12, t) = 2 is made to divide by 4,
        # and t = 2 mod 4 there, so t // 4 leaves a remainder
        (12, Fraction(2), Fraction(19, 7), _doubled_from_two()),
    ]
    for n, alpha, x, gcd in cases:
        p = Params(n, alpha)
        assert orbit_rational(x, p, 40).digits[0] == 2
        monkeypatch.setattr(orbits, "math", SimpleNamespace(gcd=gcd))
        with pytest.raises(InvariantViolation, match="raw pair is not cof times the reduced value"):
            orbit_rational(x, p, 40)
        monkeypatch.undo()


def test_raw_numerators_increase_above_one():
    rng = random.Random(21)
    done = 0
    while done < 25:
        p = random_params(rng)
        if compare_exact(p.alpha, 1) <= 0:
            continue
        x = random_rational_in(p, rng)
        trace = orbit_rational(x, p, 60)
        ts = [st.t for st in trace.states]
        assert all(u < v for u, v in zip(ts, ts[1:]))
        done += 1


def test_denominator_descent_below_threshold():
    # alpha <= xi(N) - 1: reduced denominators drop within one step on
    # [alpha, 1) and within two steps on (1, alpha+1), until the orbit sits at 1
    rng = random.Random(22)
    for n in (2, 3, 5, 8):
        p = Params(n, xi(n) - 1)
        for _ in range(15):
            x = random_rational_in(p, rng, den_max=50)
            trace = orbit_rational(x, p, 400)
            vals = [st.value for st in trace.states]
            dens = [v.denominator for v in vals]
            for i, v in enumerate(vals[:-2]):
                if v == 1:
                    break
                if v < 1:
                    assert dens[i + 1] < dens[i]
                else:
                    assert dens[i + 2] < dens[i]


def test_quadratic_orbit_coefficients():
    root2 = surd(0, 1, 2)
    trace = orbit_quadratic(root2, Params(2, root2 - 1), 10)
    st0, st1 = trace.states[0], trace.states[1]
    assert (st0.A, st0.B, st0.C) == (1, 0, -2)
    assert (st1.A, st1.B, st1.C) == (-2, -4, 2)
    assert trace.digits[0] == 1
    assert st1.value == root2 - 1
    assert discriminant_check(trace)
    assert trace.verdict.kind == PERIODIC


def test_quadratic_orbit_rejects_rationals():
    with pytest.raises(ValueError):
        orbit_quadratic(Fraction(2), Params(9, Fraction(3, 2)), 5)


def test_threshold_point_maps_to_left_end():
    x3 = xi(3)
    p = Params(3, x3 - 1)
    trace = orbit_quadratic(x3, p, 5)
    assert trace.digits[0] == 2  # N - 1
    assert trace.states[1].value == p.alpha


def test_quadratic_states_track_the_point():
    rng = random.Random(23)
    for _ in range(25):
        p = random_params(rng)
        x = random_surd_in(p, rng)
        trace = orbit_quadratic(x, p, 20)
        assert discriminant_check(trace)
        for st in trace.states:
            v = st.value
            assert st.A * v * v + st.B * v + st.C == 0
            centre = Fraction(-st.B, 2 * st.A)
            want = compare_exact(v, centre) * (1 if st.A > 0 else -1)
            assert st.root_sign == want
            # rebuild the selected root from the triple alone
            disc = st.B * st.B - 4 * st.A * st.C
            assert surd(-st.B, st.root_sign, disc, 2 * st.A) == v


def test_quadratic_orbit_follows_the_map_by_definition():
    # the norm-form kernel (rational alpha) and the floor kernel (surd alpha)
    # against Surd arithmetic and compare_exact alone.  A small alpha widens
    # the digit range to hundreds of digits, so the kernel's binary search
    # takes several probes; 150 steps take the operands to hundreds of bits.
    rng = random.Random(41)
    cases = [(random_surd_in(p, rng), p)
             for p in (Params(5, Fraction(6, 5)), Params(7, Fraction(8, 5)))]
    for n in range(2, 10):
        p = Params(n, Fraction(1, rng.randint(20, 60)))
        cases.append((random_surd_in(p, rng), p))
        r = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        p = Params(n, surd(-math.isqrt(r), 1, r, rng.randint(10, 40)))
        cases.append((p.alpha + Fraction(rng.randint(1, 9), 10), p))  # alpha's field
        other = rng.choice([d for d in (2, 3, 5, 7) if d != r])
        cases.append((Fraction(floor_exact(p.alpha * 10) + 6, 10)
                      - surd(-math.isqrt(other), 1, other, 10), p))  # another radicand
    bits, probes, full = 0, 0, 0
    for x, p in cases:
        assert p.contains(x)
        trace = orbit_quadratic(x, p, 150)
        y = x
        for k, d in enumerate(trace.digits):
            assert (d, trace.value_at(k + 1)) == step_by_definition(y, p), (x, p, k)
            y = trace.value_at(k + 1)
        bits = max(bits, y.a.bit_length(), y.b.bit_length(), y.c.bit_length())
        probes = max(probes, len(p.digit_range).bit_length())
        full += len(trace.digits) == 150
    assert bits >= 200 and probes >= 8 and full >= 20


def test_discriminant_ratio_follows_powers():
    rng = random.Random(24)
    p = Params(3, Fraction(7, 10))
    x = random_surd_in(p, rng)
    trace = orbit_quadratic(x, p, 20)
    disc0 = trace.states[0].B ** 2 - 4 * trace.states[0].A * trace.states[0].C
    for st in trace.states:
        disc = st.B ** 2 - 4 * st.A * st.C
        assert disc == 3 ** (2 * st.index) * disc0


def test_reaches_one():
    p = Params(2, Fraction(1, 3))
    for s in range(1, 13):
        for t in range(s, 3 * s):
            if math.gcd(t, s) != 1 or not p.contains(Fraction(t, s)):
                continue
            assert reaches_one(Fraction(t, s), p, 200)
    assert reaches_one(Fraction(7, 5), Params(4, Fraction(2, 5)), 200)
    assert not reaches_one(Fraction(6, 5), Params(5, Fraction(11, 10)), 300)


def test_divisibility_diagnostics_coprime_region():
    p = Params(5, Fraction(11, 10))
    trace = orbit_rational(Fraction(6, 5), p, 100)
    report = divisibility_diagnostics(trace, 5)
    assert not report.common_prime_found
    assert report.t_strictly_increasing
    assert all(r != 0 for r in report.raw_t_residues)


def test_divisibility_diagnostics_fixed_point():
    trace = orbit_rational(Fraction(1), Params(2, Fraction(1, 3)), 10)
    assert all(st.t == 1 and st.s == 1 for st in trace.states)


def test_divisibility_diagnostics_factor_persists():
    # 7 divides t0 = 7: the raw numerators keep the factor, while the
    # reduced numerators shed it after the first step and never regain it
    p = Params(7, Fraction(11, 10))
    trace = orbit_rational(Fraction(7, 6), p, 100)
    report = divisibility_diagnostics(trace, 7)
    assert all(r == 0 for r in report.raw_t_residues)
    assert all(r != 0 for r in report.reduced_t_residues[1:])
    assert report.t_strictly_increasing


def test_nonperiodicity_certificates():
    cert = nonperiodicity_certificate(Fraction(6, 5), Params(5, Fraction(11, 10)))
    assert cert.certified and cert.reason == "rational-in-K"
    cert = nonperiodicity_certificate(surd(1, 1, 2), Params(9, Fraction(19, 10)))
    assert cert.certified and cert.reason == "quadratic-in-K"
    assert quad_coefficients(surd(1, 1, 2)) == (1, -2, -1)
    # 1 is a fixed point: never certified
    assert not nonperiodicity_certificate(Fraction(1), Params(2, Fraction(1, 3))).certified
    # digits {2,3,4} share a factor with 9, and the named root falls outside
    # [3/2, 5/2] anyway: not certified
    assert not nonperiodicity_certificate(surd(5, 1, 13, 6), Params(9, Fraction(3, 2))).certified
    # even N declines the quadratic branch
    assert not nonperiodicity_certificate(surd(0, 1, 2), Params(2, surd(-1, 1, 2))).certified


def test_certificates_match_observed_behaviour():
    rng = random.Random(25)
    p = Params(5, Fraction(11, 10))
    for _ in range(10):
        x = random_rational_in(p, rng, den_max=30)
        assert nonperiodicity_certificate(x, p).certified
        assert orbit_rational(x, p, 250).verdict.kind == NO_PERIOD


def test_orbit_fast_path_matches_generic_digits_for_surd_alpha():
    # orbit_rational uses an integer-only floor for surd parameters; it must
    # agree with the generic exact digit path step by step
    rng = random.Random(27)
    from nacf.expansion import alpha_max
    params = [Params(n, xi(n) - 1) for n in (3, 5, 8)]
    params += [Params(n, alpha_max(n)) for n in (2, 3, 7)]
    for p in params:
        for _ in range(6):
            x = random_rational_in(p, rng, den_max=40)
            trace = orbit_rational(x, p, 30)
            assert expand(x, p, len(trace.digits)).prefix == trace.digits


def test_orbit_through_left_endpoint_adjustment():
    # at (5, 1) the quotient 5/1 - 1 = 4 is integral, so the digit at the
    # left endpoint drops to 3 and the orbit passes through alpha + 1 = 2
    p = Params(5, Fraction(1))
    trace = orbit_rational(Fraction(1), p, 50)
    assert trace.digits[0] == 3
    assert trace.states[1].value == Fraction(2)
    assert expand(Fraction(1), p, len(trace.digits)).prefix == trace.digits
    # every rational cut point: an integer alpha dividing N, alpha <= sqrt(N) - 1
    cuts = [(n, a) for n in range(2, 41) for a in range(1, n) if n % a == 0 and (a + 1) ** 2 <= n]
    assert len(cuts) == 66
    for n, a in cuts:
        p = Params(n, Fraction(a))
        assert p.left_end_quotient == n // a - a
        for x in (p.alpha, p.upper):
            trace = orbit_rational(x, p, 50)
            assert expand(x, p, len(trace.digits)).prefix == trace.digits
        trace = orbit_rational(p.alpha, p, 50)
        assert trace.digits[0] == n // a - a - 1
        assert trace.states[1].value == p.upper


def test_cycle_detection_is_sound():
    rng = random.Random(26)
    cases = [(Fraction(40, 33), Params(3, Fraction(73, 100)))]
    p2 = Params(2, Fraction(1, 3))
    cases += [(random_rational_in(p2, rng, den_max=30), p2) for _ in range(10)]
    for x, p in cases:
        trace = orbit_rational(x, p, 300)
        v = trace.verdict
        assert v.is_periodic
        start = trace.states[v.pre_period].value
        rerun = orbit_rational(start, p, v.period + 1)
        cycle = trace.digits[v.pre_period:v.pre_period + v.period]
        assert rerun.digits[:v.period] == cycle
        assert rerun.states[v.period].value == start


def test_lasso_reads_follow_the_map():
    # past the first repeat the trace is read modulo its cycle; a trace
    # that found no cycle ends at its budget.  Every stored value is the
    # canonical Fraction that Fraction(num, den) builds.
    rng = random.Random(66)
    cases = []
    for _ in range(300):
        p = random_params(rng, rng.randint(2, 12))
        cases.append((random_rational_in(p, rng), p, rng.randint(1, 40)))
    cases.append((Fraction(6, 5), Params(5, Fraction(11, 10)), 300))  # coprime region
    periodic = 0
    for x, p, budget in cases:
        trace = orbit_rational(x, p, budget)
        for st in trace.states:
            num, den = st.value.numerator, st.value.denominator
            assert den > 0 and math.gcd(num, den) == 1
            assert st.value == Fraction(num, den)
            assert hash(st.value) == hash(Fraction(num, den))
        v = trace.verdict
        periodic += v.is_periodic
        last = 3 * v.first_repeat + 2 if v.is_periodic else budget
        for k in range(last + 1):
            assert trace.value_at(k) == x
            if v.is_periodic or k < budget:
                d, x = step(x, p)
                assert trace.digit_at(k) == d
        if not v.is_periodic:
            with pytest.raises(IndexError):
                trace.value_at(budget + 1)
            with pytest.raises(IndexError):
                trace.digit_at(budget)
        with pytest.raises(IndexError):
            trace.value_at(-1)
    assert 50 <= periodic <= 250


def test_quadratic_trace_matrices_are_branch_products_of_its_heads():
    # a quadratic trace reads its heads and prefix matrices along the lasso
    # as a rational one does; past the budget of a trace that found no
    # cycle both raise IndexError
    rng = random.Random(12)
    cases = [(surd(0, 1, 2), Params(2, surd(-1, 1, 2)), 6),      # periodic
             (surd(1, 1, 2), Params(9, Fraction(19, 10)), 8)]    # no period at 8
    for _ in range(30):
        p = random_params(rng, rng.randint(2, 7))
        cases.append((random_surd_in(p, rng), p, rng.randint(1, 12)))
    periodic = 0
    for x, p, budget in cases:
        trace = orbit_quadratic(x, p, budget)
        v = trace.verdict
        periodic += v.is_periodic
        reach = 3 * v.first_repeat + 2 if v.is_periodic else budget
        assert trace.matrix(0) == IDENTITY and trace.head(0) == ()
        for k in range(reach + 1):
            head = trace.head(k)
            assert head == tuple(map(trace.digit_at, range(k)))
            assert trace.matrix(k) == branch_product(p.N, head)
        if not v.is_periodic:
            with pytest.raises(IndexError):
                trace.head(reach + 1)
            with pytest.raises(IndexError):
                trace.matrix(reach + 1)
    assert periodic >= 1


def test_trace_json_lines():
    # the bytes of json.dumps(fields, sort_keys=True); the last state has no digit
    trace = orbit_rational(Fraction(1), Params(5, Fraction(1, 2)), 5)
    assert list(trace.json_lines()) == [
        '{"digit": 4, "n": 0, "s": 1, "t": 1, "value": "1"}',
        '{"digit": null, "n": 1, "s": 1, "t": 1, "value": "1"}']
    # the raw pair (2, 2) reduces to the value 1
    trace = orbit_rational(Fraction(2, 3), Params(2, Fraction(1, 3)), 5)
    assert list(trace.json_lines()) == [
        '{"digit": 2, "n": 0, "s": 3, "t": 2, "value": "2/3"}',
        '{"digit": 1, "n": 1, "s": 2, "t": 2, "value": "1"}',
        '{"digit": null, "n": 2, "s": 2, "t": 2, "value": "1"}']
    qtrace = orbit_quadratic(surd(0, 1, 2), Params(2, surd(-1, 1, 2)), 3)
    assert list(qtrace.json_lines()) == [
        '{"A": 1, "B": 0, "C": -2, "digit": 1, "n": 0, "value": "(0+1*sqrt(2))/1"}',
        '{"A": -2, "B": -4, "C": 2, "digit": 4, "n": 1, "value": "(-1+1*sqrt(2))/1"}',
        '{"A": 2, "B": 8, "C": -8, "digit": 2, "n": 2, "value": "(-2+2*sqrt(2))/1"}',
        '{"A": -8, "B": -16, "C": 8, "digit": null, "n": 3, "value": "(-1+1*sqrt(2))/1"}']


@pytest.mark.parametrize("moved", [
    lambda x: x + 1,                       # breaks 2*A*a + B*c = 0
    lambda x: surd(x.a, 2 * x.b, x.d, x.c),  # keeps it, breaks the rational part
], ids=["shifted", "surd-part-doubled"])
def test_quadratic_check_catches_a_lost_point(monkeypatch, moved):
    # random_params draws a rational alpha, so the orbit steps on the norm form
    real_step = orbits._surd_step

    def lost_step(p, x, *norm_form):
        d, nxt = real_step(p, x, *norm_form)
        return d, moved(nxt)

    monkeypatch.setattr(orbits, "_surd_step", lost_step)
    rng = random.Random(31)
    for _ in range(5):
        p = random_params(rng)
        with pytest.raises(InvariantViolation, match="coefficient triple lost the orbit point"):
            orbit_quadratic(random_surd_in(p, rng), p, 1)


def _state_line(trace, st) -> str:
    # the fields of one state, rendered by json.dumps from the state objects
    i = st.index
    fields = {"n": i, "digit": trace.digits[i] if i < len(trace.digits) else None,
              "value": format_exact(st.value)}
    if trace.kind == "rational":
        fields.update(t=st.t, s=st.s)
    else:
        fields.update(A=st.A, B=st.B, C=st.C)
    return json.dumps(fields, sort_keys=True)


def test_json_lines_are_sorted_json_of_the_states():
    rng = random.Random(67)
    cases = [(Fraction(7, 6), Params(7, Fraction(11, 10)), 300),    # cof 7 throughout
             (Fraction(2, 3), Params(2, Fraction(1, 3)), 5),         # raw (2, 2) is 1
             (Fraction(6, 5), Params(5, Fraction(11, 10)), 600),     # cof 1 throughout
             (Fraction(19, 7), Params(12, Fraction(2)), 600),        # cof moves at most steps
             (Fraction(31, 20), Params(4, Fraction(3, 4)), 200)]     # reaches 1 with cof 2^32
    for _ in range(150):
        p = random_params(rng, rng.randint(2, 12))
        cases.append((random_rational_in(p, rng), p, rng.randint(1, 120)))
    for _ in range(30):
        p = random_params(rng, rng.randint(2, 12))
        cases.append((random_surd_in(p, rng), p, rng.randint(1, 40)))
    seen = Counter()
    for x, p, budget in cases:
        trace = (orbit_rational if isinstance(x, Fraction) else orbit_quadratic)(x, p, budget)
        assert list(trace.json_lines()) == [_state_line(trace, st) for st in trace.states]
        seen[trace.kind, trace.verdict.kind] += 1
        reduced = [(st.value.numerator, st.value.denominator) != (st.t, st.s)
                   for st in trace.states] if trace.kind == "rational" else []
        seen["reduced differs"] += any(reduced)
    assert seen["reduced differs"] >= 10
    # the two orbits that keep reducing cover what their comments say
    keep = orbit_rational(Fraction(19, 7), Params(12, Fraction(2)), 600)
    assert keep.params.left_end_quotient is not None
    assert sum(a != b for a, b in zip(keep.cofs, keep.cofs[1:])) == 457
    one = orbit_rational(Fraction(31, 20), Params(4, Fraction(3, 4)), 200)
    assert one.one_at == 77 and one.cofs[77] == 2 ** 32
    for kind in (PERIODIC, REACHED_ONE, NO_PERIOD):
        assert seen["rational", kind] >= 5, seen
    assert seen["quadratic", PERIODIC] >= 1 and seen["quadratic", NO_PERIOD] >= 5, seen


@pytest.mark.parametrize("x, p, budget", [
    (Fraction(6, 5), Params(5, Fraction(11, 10)), 300),
    (Fraction(7, 6), Params(7, Fraction(11, 10)), 40),
    (surd(1, 1, 2), Params(9, Fraction(19, 10)), 30),
], ids=["coprime", "cof-7", "quadratic"])
def test_json_lines_check_the_shadow_against_the_orbit(x, p, budget):
    # the printed integers come from the digits column; a digit that the
    # integer orbit did not take shows at the end check, wherever it sits
    trace = (orbit_rational if isinstance(x, Fraction) else orbit_quadratic)(x, p, budget)
    for k in (0, len(trace.digits) // 2, len(trace.digits) - 1):
        digits = list(trace.digits)
        digits[k] += 1
        altered = OrbitTrace(trace.kind, trace.params, tuple(digits), trace.verdict,
                             trace.points, trace.cofs, trace.coeffs)
        with pytest.raises(InvariantViolation, match="decimal shadow disagrees"):
            list(altered.json_lines())


def test_json_lines_leave_the_decimal_context_alone():
    # every operation names the exact context, so the caller's context is
    # the current one between lines and after the last, and does not
    # change the lines either, not even at a precision of 3 digits
    ctx = decimal.getcontext()
    saved = (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps))
    for trace in (orbit_rational(Fraction(6, 5), Params(5, Fraction(11, 10)), 600),
                  orbit_rational(Fraction(7, 6), Params(7, Fraction(11, 10)), 40),
                  orbit_quadratic(surd(1, 1, 2), Params(9, Fraction(19, 10)), 300)):
        lines = []
        for line in trace.json_lines():
            now = decimal.getcontext()
            assert now is ctx
            assert (now.prec, now.Emax, now.Emin, now.rounding, dict(now.traps)) == saved
            lines.append(line)
        assert decimal.getcontext() is ctx
        assert (ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps)) == saved
        with decimal.localcontext(prec=3, traps=[decimal.Inexact, decimal.Rounded]):
            assert list(trace.json_lines()) == lines


def test_columns_hold_the_states():
    # the raw pair is cof times the reduced pair, and a quadratic state is
    # its coefficient row and its point
    p = Params(7, Fraction(11, 10))
    trace = orbit_rational(Fraction(7, 6), p, 20)
    assert trace.cofs == (1,) + (7,) * 20
    for st, (t, s), cof in zip(trace.states, trace.points, trace.cofs):
        assert (st.t, st.s, st.value) == (cof * t, cof * s, Fraction(t, s))
    assert trace.values() == [st.value for st in trace.states]
    qtrace = orbit_quadratic(surd(1, 1, 2), Params(9, Fraction(19, 10)), 10)
    for st, row, x in zip(qtrace.states, qtrace.coeffs, qtrace.points):
        assert (st.A, st.B, st.C, st.value) == (*row, x)
    # the diagnostics read the columns and agree with the states' fields
    rng = random.Random(68)
    for _ in range(40):
        p = random_params(rng, rng.randint(2, 12))
        trace = orbit_rational(random_rational_in(p, rng), p, 60)
        report = divisibility_diagnostics(trace, p.N)
        ts = [st.t for st in trace.states]
        assert report.raw_t_residues == tuple(t % p.N for t in ts)
        assert report.reduced_t_residues == tuple(st.value.numerator % p.N
                                                  for st in trace.states)
        assert report.t_strictly_increasing == all(u < v for u, v in zip(ts, ts[1:]))
        common = False
        for st in trace.states[1:]:
            g = math.gcd(st.t, st.s)
            while math.gcd(g, p.N) > 1:
                g //= math.gcd(g, p.N)
            common = common or g > 1
        assert report.common_prime_found == common
