import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import nacf.exact
import nacf.matching
from conftest import random_params, random_rational_in
from nacf.cli import main
from nacf.exact import (NoRootInRange, compare_exact, floor_exact,
                        rational_between, solve_mobius_fixed_point, surd)
from nacf.expansion import (ADD_ONE, IDENTITY, Mobius, Params, all_digits_coprime,
                            alpha_max, branch_product, convergents, expand,
                            projective_equiv, step, _running_products)
from nacf.matching import (STABLE, UNSTABLE, UNKNOWN, BadRational,
                           EmptyInterval, MatchReport, NoMatchWithinBudget,
                           ParamInterval, PrerequisiteNotMet,
                           bad_rational_certificate, cylinder_interval,
                           detect_matching, equivalence_scan,
                           matching_interval, no_matching_obstruction,
                           stability_check, verify_family,
                           verify_theorem_intervals, _EndpointOrbits, _Orbit)
from nacf.orbits import (PERIODIC, InvariantViolation, OrbitTrace, nonperiodicity_certificate,
                         orbit_rational)


def iterate(x, p, count):
    for _ in range(count):
        _, x = step(x, p)
    return x


def test_detect_matching_examples():
    rep = detect_matching(Fraction(2, 9), 2)
    assert isinstance(rep, MatchReport)
    assert (rep.K, rep.L) == (1, 5)
    assert rep.matched_value == 1
    assert rep.index == -4

    rep = detect_matching(Fraction(1, 8), 2)
    assert (rep.K, rep.L) == (1, 4)

    # K + L orders the pairs first: (2, 182) matches too, with a smaller K
    rep = detect_matching(Fraction(36, 55), 3)
    assert (rep.K, rep.L, rep.matched_value, rep.stable) == (3, 3, Fraction(23, 17), STABLE)

    miss = detect_matching(Fraction(6, 5), 5, budget=300)
    assert isinstance(miss, NoMatchWithinBudget)
    assert miss.obstruction is not None and miss.obstruction.holds

    # the certified path checks its inputs as the orbit scan does
    with pytest.raises(ValueError, match="budget must be >= 1"):
        detect_matching(Fraction(6, 5), 5, 0)
    with pytest.raises(ValueError, match="rational parameters"):
        detect_matching(surd(0, 1, 2), 5, 0)
    with pytest.raises(ValueError, match="alpha must lie"):
        detect_matching(Fraction(5), 5, 0)


def test_detected_pairs_really_match():
    rng = random.Random(30)
    for _ in range(20):
        den = rng.randint(5, 80)
        num = rng.randint(1, max(1, 41 * den // 100))  # keeps alpha below sqrt(2)-1
        alpha = Fraction(num, den)
        if not 0 < alpha <= Fraction(41, 100):
            continue
        rep = detect_matching(alpha, 2, budget=400)
        assert isinstance(rep, MatchReport)
        p = Params(2, alpha)
        assert iterate(alpha, p, rep.K) == iterate(alpha + 1, p, rep.L)


def test_stability_examples():
    assert stability_check(Fraction(2, 9), 2, 3, 5) == STABLE
    p = Params(2, Fraction(2, 9))
    rm = ADD_ONE @ branch_product(2, expand(p.alpha, p, 3).prefix)
    m5 = branch_product(2, expand(p.upper, p, 5).prefix)
    assert rm == Mobius(12, 32, 10, 26)
    assert m5 == Mobius(24, 64, 20, 52)

    assert stability_check(Fraction(8, 43), 2, 5, 5) == STABLE

    # every matched pair of the bad rational 1/8 is unstable
    p = Params(2, Fraction(1, 8))
    for k in range(1, 12):
        for l in range(4, 12):
            if iterate(Fraction(1, 8), p, k) == iterate(Fraction(9, 8), p, l):
                assert stability_check(Fraction(1, 8), 2, k, l) == UNSTABLE


def test_stability_prerequisite():
    with pytest.raises(PrerequisiteNotMet):
        stability_check(Fraction(2, 9), 2, 1, 1)
    for k, l in ((-1, 5), (3, -1), (-1, -1)):
        with pytest.raises(ValueError, match=f"stability_check needs K, L >= 0, got {k}, {l}"):
            stability_check(Fraction(2, 9), 2, k, l)


def test_stability_above_two_never_unstable():
    # the backward direction of the matrix criterion is two-only; a failed
    # equivalence for larger N stays inconclusive
    for alpha in (Fraction(29, 100), Fraction(1, 4)):
        rep = detect_matching(alpha, 3, budget=400)
        assert isinstance(rep, MatchReport)
        assert rep.stable in (STABLE, UNKNOWN)


def test_cylinder_interval_examples():
    iv = cylinder_interval("alpha", (8, 1, 1), 2)
    assert iv.lo == surd(-17, 1, 369, 10)
    assert iv.hi == surd(-2, 1, 6, 2)

    iv2 = cylinder_interval("alpha_plus_one", (1, 2, 1, 2, 2), 2)
    assert iv2.lo == surd(-17, 1, 369, 10)
    assert iv2.hi == surd(-6, 1, 51, 5)

    # single-digit cylinders: boundaries solve a(d+1+a) = N and a(d+a) = N
    for d in (5, 6, 9):
        iv3 = cylinder_interval("alpha", (d,), 2)
        assert iv3.lo == surd(-(d + 1), 1, (d + 1) ** 2 + 8, 2)
        assert iv3.hi == surd(-d, 1, d * d + 8, 2)


def test_cylinder_boundaries_satisfy_their_equations():
    iv = cylinder_interval("alpha", (8, 1, 1), 2)
    bumped = Mobius.branch(2, 8) @ Mobius.branch(2, 1) @ Mobius.branch(2, 2)
    assert bumped.apply(iv.lo) == iv.lo
    short = Mobius.branch(2, 8) @ Mobius.branch(2, 1)
    assert short.apply(iv.hi + 1) == iv.hi

    iv2 = cylinder_interval("alpha_plus_one", (1, 2, 1, 2, 2), 2)
    bumped2 = (Mobius.branch(2, 1) @ Mobius.branch(2, 2) @ Mobius.branch(2, 1)
               @ Mobius.branch(2, 2) @ Mobius.branch(2, 3))
    assert bumped2.apply(iv2.lo) == iv2.lo + 1


def test_cylinder_empty_and_clamped():
    with pytest.raises(EmptyInterval):
        cylinder_interval("alpha", (2,), 2)  # first digit 2 never occurs
    iv = cylinder_interval("alpha", (4,), 2)  # right end clamped to the edge
    assert iv.hi == surd(-1, 1, 2) and not iv.hi_open


def test_cylinder_membership_sampling():
    rng = random.Random(31)
    from nacf.expansion import expand
    for _ in range(8):
        alpha_hat = Fraction(rng.randint(40, 400), 1000)
        if compare_exact(alpha_hat, surd(-1, 1, 2)) >= 0:
            continue
        p_hat = Params(2, alpha_hat)
        length = rng.randint(1, 4)
        kind = rng.choice(("alpha", "alpha_plus_one"))
        x0 = alpha_hat + 1 if kind == "alpha_plus_one" else alpha_hat
        digits = expand(x0, p_hat, length).prefix
        iv = cylinder_interval(kind, digits, 2)
        assert iv.contains(alpha_hat)
        for sample in (iv.sample(), rational_between(iv.lo, iv.sample())):
            p = Params(2, sample)
            probe = sample + 1 if kind == "alpha_plus_one" else sample
            assert expand(probe, p, length).prefix == digits


def test_param_interval_operations():
    a = ParamInterval(Fraction(0), Fraction(1))
    b = ParamInterval(Fraction(1, 2), Fraction(3, 2), lo_open=False)
    c = a.intersect(b)
    assert (c.lo, c.hi, c.lo_open, c.hi_open) == (Fraction(1, 2), Fraction(1), False, True)
    assert c.contains(Fraction(1, 2)) and not c.contains(Fraction(1))
    with pytest.raises(EmptyInterval):
        ParamInterval(Fraction(1), Fraction(1))
    with pytest.raises(EmptyInterval):
        a.intersect(ParamInterval(Fraction(2), Fraction(3)))
    point = ParamInterval(Fraction(1, 3), Fraction(1, 3), False, False)
    assert point.contains(Fraction(1, 3))
    with pytest.raises(EmptyInterval):
        point.sample()  # no interior; must not loop


def test_matching_interval_examples():
    mi = matching_interval(Fraction(2, 9), 2)
    assert (mi.K, mi.L) == (3, 5)
    assert mi.interval.lo == surd(-17, 1, 369, 10)
    assert mi.interval.hi == surd(-2, 1, 6, 2)

    mi = matching_interval(Fraction(13, 72), 2)
    assert (mi.K, mi.L) == (6, 6)
    assert mi.interval.lo == surd(-133, 1, 24033, 122)
    assert mi.interval.hi == surd(-273, 1, 13 * 7061, 166)

    with pytest.raises(BadRational):
        matching_interval(Fraction(1, 8), 2)


def test_matching_persists_inside_interval():
    mi = matching_interval(Fraction(2, 9), 2)
    for eps in (Fraction(1, 10 ** 9), Fraction(1, 10 ** 12)):
        for alpha in (Fraction(2, 9) - eps, Fraction(2, 9) + eps):
            assert mi.interval.contains(alpha)
            p = Params(2, alpha)
            assert iterate(alpha, p, mi.K) == iterate(alpha + 1, p, mi.L)


def test_bad_rational_certificates(monkeypatch):
    cert = bad_rational_certificate(3)
    assert cert.valid
    assert cert.rm == Mobius(1, 17, 1, 15)
    assert cert.m4 == Mobius(16, 56, 14, 50)
    assert cert.point_exponents == (1, 4)

    cert4 = bad_rational_certificate(4)
    assert cert4.valid and cert4.rm == Mobius(1, 33, 1, 31)

    for n in (3, 4, 5):
        assert bad_rational_certificate(n).valid
        assert equivalence_scan(Fraction(1, 2 ** n), 2, 30, 30) == []

    with pytest.raises(ValueError):
        bad_rational_certificate(2)

    # alpha = 2/9 is family i at k = 0: its pairs (3, 5) and (4, 6)
    assert equivalence_scan(Fraction(2, 9), 2, 6, 6) == [(3, 5), (4, 6)]

    # an empty range of exponents holds no pair, and builds no orbit
    monkeypatch.setattr(nacf.matching, "orbit_rational", None)
    for max_k, max_l in ((0, 0), (0, 30), (30, 0), (-1, 5)):
        assert equivalence_scan(Fraction(1, 8), 2, max_k, max_l) == []


def test_obstruction_examples():
    assert no_matching_obstruction(Fraction(6, 5), 5).holds
    assert no_matching_obstruction(Fraction(7, 6), 7).holds  # 7 | t0 case
    assert not no_matching_obstruction(Fraction(1, 8), 2).holds
    assert no_matching_obstruction(Fraction(15, 8), 9).holds
    assert not no_matching_obstruction(Fraction(9, 8), 9).holds  # 9 | t0, composite
    # a prime square is composite; its one factor sits at isqrt(N)
    for n, q in ((25, 7), (49, 9), (121, 13), (169, 15)):
        assert str(no_matching_obstruction(Fraction(n, q), n)) == (
            "HypothesesFail: N divides t0 and N is composite")
    # every digit is coprime with N, but T(alpha) = alpha + 1 (alpha = 1, a
    # cut point) or T(alpha + 1) = alpha (3 = alpha + 1 shares 3 with N = 9,
    # 5 shares 5 with N = 25), a match in one step
    assert "cut point" in no_matching_obstruction(Fraction(1), 5).reason
    for alpha, n in ((2, 9), (4, 25)):
        obs = no_matching_obstruction(Fraction(alpha), n)
        assert (obs.holds, obs.reason) == (False, "the endpoint orbits meet before they turn coprime")
    # 5 | 7 + 3*6: alpha = 7/6 has the coprime preimage 6/5 = 5/(alpha + 3),
    # but the walk back from alpha stops before it could reach alpha + 1
    assert no_matching_obstruction(Fraction(7, 6), 5).holds
    # 5 | 10: T(10/9) = 3/2 = T(2), and 2 is coprime with 5, so the orbit of
    # alpha + 1 could reach 3/2 through 2; the certificate declines
    assert str(no_matching_obstruction(Fraction(10, 9), 5)) == (
        "HypothesesFail: congruence escape at step 0")


def test_obstruction_at_a_large_prime_n():
    # N = 10^9 + 7 divides t0, so N is tested for compositeness; trial
    # division up to sqrt(N) answers in well under the timeout, up to N not
    src = os.path.dirname(os.path.dirname(nacf.matching.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nacf.cli", "--format", "json", "match",
         "--N", "1000000007", "--alpha", "1000000007/31624"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (3, "")
    certificate = {"holds": True, "reason": "digits coprime with N; early N-divisible steps cleared"}
    assert json.loads(proc.stdout)["certificates"] == [certificate]


def test_obstruction_at_a_prime_n_past_trial_division():
    # N = 10^20 + 39 divides t0: trial division up to sqrt(N) ran past 20 s
    src = os.path.dirname(os.path.dirname(nacf.matching.__file__))
    n = "100000000000000000039"
    proc = subprocess.run(
        [sys.executable, "-m", "nacf.cli", "--format", "json", "match",
         "--N", n, "--alpha", f"{n}/100000000000"],
        capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (3, "")
    certificate = {"holds": True, "reason": "digits coprime with N; early N-divisible steps cleared"}
    assert json.loads(proc.stdout)["certificates"] == [certificate]


def test_match_at_a_large_prime_n_ends_in_time():
    # at N = 10^20 + 39 the digits of alpha = 10 (about 9*10^17 of them) and
    # of 1/2 (more than N) were checked for coprimality one gcd each
    src = os.path.dirname(os.path.dirname(nacf.matching.__file__))
    for alpha, code in (("10", 3), ("1/2", 0)):
        proc = subprocess.run(
            [sys.executable, "-m", "nacf.cli", "match", "--N", "100000000000000000039",
             "--alpha", alpha, "--budget", "10"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stderr) == (code, ""), alpha


def test_obstruction_declines_where_coprimality_stays_undecided():
    # N is a product of two primes near 2^30 that the first 2^20 of the
    # about 10^16 digits of alpha = 10 miss
    n = 1073741827 * 1073741831
    assert all_digits_coprime(Params(n, Fraction(10))) is None
    assert str(no_matching_obstruction(Fraction(10), n)) == (
        "HypothesesFail: cannot decide whether every digit is coprime with N")
    assert str(nonperiodicity_certificate(Fraction(21, 2), Params(n, Fraction(10)))) == (
        "NotCertified")


def test_obstruction_declines_where_the_prime_test_proves_nothing():
    # a strong pseudoprime to the bases 2..37 (its least factor is about
    # 4*10^11, above every digit) is composite; the prime 2^89 - 1 lies
    # past the bound where the bases 2..41 prove primality
    n = 318665857834031151167461
    assert str(no_matching_obstruction(Fraction(n, 10 ** 12), n)) == (
        "HypothesesFail: N divides t0 and N is composite")
    n = 2 ** 89 - 1
    assert str(no_matching_obstruction(Fraction(n, 10 ** 14), n)) == (
        "HypothesesFail: N divides t0 and is past the proven range of the prime test")


def test_obstruction_steps_each_endpoint_to_its_first_coprime_value(monkeypatch):
    # the certificate steps alpha and alpha + 1 only until each turns coprime
    # with N, or until a value has a coprime preimage (an escape at step i
    # after i + 1 steps), and builds no orbit trace
    cases = {(Fraction(159, 56), 15): "holds", (Fraction(193, 56), 21): "holds",
             (Fraction(6, 5), 5): "holds", (Fraction(10, 9), 5): 0,
             (Fraction(40, 39), 5): 2, (Fraction(65, 59), 5): 2, (Fraction(99, 58), 11): 1}
    expected = {}
    for (alpha, n), escape in cases.items():
        if escape == "holds":
            p = Params(n, alpha)
            expected[alpha, n] = (None, sum(
                next(i for i, v in enumerate(orbit_rational(x, p, 64).values())
                     if math.gcd(v.numerator, n) == 1) for x in (alpha, alpha + 1)))
        else:
            expected[alpha, n] = (f"congruence escape at step {escape}", escape + 1)
    steps = Counter()
    real_step = nacf.matching.step

    def counted(x, p):
        steps["calls"] += 1
        return real_step(x, p)

    monkeypatch.setattr(nacf.matching, "orbit_rational", None)
    monkeypatch.setattr(nacf.matching, "step", counted)
    for (alpha, n), (reason, count) in expected.items():
        steps.clear()
        obs = no_matching_obstruction(alpha, n)
        assert obs.holds == (reason is None)
        assert (reason is None or obs.reason == reason) and steps["calls"] == count


@st.composite
def _rational_params(draw):
    """(alpha, N) with N in 3..40 and alpha = p/q in (0, sqrt(N)-1], q <= 200."""
    n = draw(st.integers(3, 40))
    q = draw(st.integers(1, 200))
    p_max = math.isqrt(n * q * q) - q  # p + q <= q sqrt(N)
    assume(p_max >= 1)
    return Fraction(draw(st.integers(1, p_max)), q), n


# about one draw in five is certified; the rest are filtered out
@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(_rational_params())
@example((Fraction(1), 5))
@example((Fraction(2), 9))
@example((Fraction(7, 6), 5))
@example((Fraction(15, 8), 9))
def test_obstruction_means_no_match(params):
    # detect_matching answers from the certificate without iterating, so the
    # certificate must never hold where the orbit scan finds a match
    alpha, n = params
    obs = no_matching_obstruction(alpha, n)
    assume(obs.holds)
    assert _EndpointOrbits(alpha, n, 400).first_match is None
    assert detect_matching(alpha, n, 400) == NoMatchWithinBudget(alpha, n, 400, obs)


def test_family_iii_closed_forms_break_at_four():
    # the first digit of 13/(72+26k) is 10+4k only while 13/(72+26k) > 1/13,
    # i.e. for k <= 3; from k = 4 on the actual expansion starts with 11+4k
    # and the verifier flags every dependent component instead of reconciling
    for k in range(0, 4):
        alpha = Fraction(13, 72 + 26 * k)
        assert expand(alpha, Params(2, alpha), 1).prefix == (10 + 4 * k,)
    for k in range(4, 11):
        alpha = Fraction(13, 72 + 26 * k)
        assert expand(alpha, Params(2, alpha), 1).prefix == (11 + 4 * k,)
    checks = verify_theorem_intervals(["iii"], range(0, 11))
    assert [c.k for c in checks if c.ok] == [0, 1, 2, 3]
    for c in checks:
        if c.k >= 4:
            assert "expansion of alpha" in c.failures
    # the other three families hold over the whole range
    others = verify_theorem_intervals(["i", "ii", "iv"], range(0, 11))
    assert all(c.ok for c in others)


def test_cylinder_nesting_binds_before_the_innermost_equations():
    # 13/176 starts with digit 27, so it sits below every (26, ...) cylinder,
    # and the prefix (26, 1, 2, 5) is realised by no parameter at all: its
    # innermost boundary pair lies entirely below the level-1 cylinder.
    # Parameters just above the level-1 boundary continue (26, 1, 2, 6, ...).
    alpha = Fraction(13, 176)
    assert expand(alpha, Params(2, alpha), 2).prefix == (27, 25)
    level1 = cylinder_interval("alpha", (26,), 2)
    assert not level1.contains(alpha)
    with pytest.raises(EmptyInterval):
        cylinder_interval("alpha", (26, 1, 2, 5), 2)
    truncated = cylinder_interval("alpha", (26, 1, 2), 2)
    assert truncated.lo == level1.lo  # the shallow boundary binds
    sample = truncated.sample()
    assert expand(sample, Params(2, sample), 3).prefix == (26, 1, 2)
    deeper = cylinder_interval("alpha", (26, 1, 2, 6), 2)
    sample = deeper.sample()
    assert expand(sample, Params(2, sample), 4).prefix == (26, 1, 2, 6)


def _reference_cylinder(kind, digits, n):
    # the cylinder built level by level from explicit branch products
    s = 1 if kind == "alpha_plus_one" else 0
    edge, interval, prefix = alpha_max(n), None, Mobius(1, 0, 0, 1)

    def boundary(m):
        try:
            return solve_mobius_fixed_point(m, s, lo=Fraction(0), hi=None)
        except NoRootInRange:
            return None

    for depth, d in enumerate(digits, 1):
        a1 = boundary(prefix @ Mobius.branch(n, d + 1))
        if d > 1:
            a2 = boundary(prefix @ Mobius.branch(n, d))
        else:
            a2 = boundary(prefix @ ADD_ONE) if depth >= 2 else None
        lo, hi = (a1, a2) if depth % 2 == 1 else (a2, a1)
        if lo is None or compare_exact(lo, edge) >= 0:
            raise EmptyInterval("reference level is empty")
        if hi is None or compare_exact(hi, edge) > 0:
            level = ParamInterval(lo, edge, True, False)
        else:
            level = ParamInterval(lo, hi, True, True)
        interval = level if interval is None else interval.intersect(level)
        prefix = prefix @ Mobius.branch(n, d)
    return interval


def test_cylinder_interval_matches_explicit_branch_products():
    # every prefix of length <= 6 of both endpoint expansions of each p/q in
    # the parameter space, and the same prefixes with the last digit moved by
    # one, which reach the empty cylinders: q <= 30 for N = 2, q <= 15 above
    counts = {}
    for n, q_max in ((2, 30), (3, 15), (4, 15), (5, 15)):
        alphas = sorted({Fraction(p, q) for q in range(1, q_max + 1) for p in range(1, 2 * q)
                         if compare_exact(Fraction(p, q), alpha_max(n)) <= 0})
        checked = empty = 0
        for alpha in alphas:
            pa = Params(n, alpha)
            for kind, x0 in (("alpha", pa.alpha), ("alpha_plus_one", pa.upper)):
                expansion = expand(x0, pa, 6).prefix
                for length, bump in itertools.product(range(1, 7), (0, 1, -1)):
                    word = expansion[:length - 1] + (expansion[length - 1] + bump,)
                    if word[-1] < 1:
                        continue
                    try:
                        want = _reference_cylinder(kind, word, n)
                    except EmptyInterval:
                        with pytest.raises(EmptyInterval):
                            cylinder_interval(kind, word, n)
                        empty += 1
                    else:
                        assert cylinder_interval(kind, word, n) == want
                        # for N >= 3 a word's own bound can be attained and
                        # is still printed open (5/14 at N = 3), so the
                        # containment is checked for N = 2 only
                        assert bump or n > 2 or want.contains(alpha)
                    checked += 1
        counts[n] = len(alphas), checked, empty
    assert counts == {2: (115, 3332, 272), 3: (52, 1787, 284), 4: (72, 2466, 351),
                      5: (89, 3079, 386)}


def test_matching_interval_reads_the_orbits_products(monkeypatch):
    # the interval's boundary equations read the prefix matrices the endpoint
    # orbits already hold, and multiply no prefix product again
    cases = []
    for alpha in _scan_alphas():
        orbits = _EndpointOrbits(alpha, 2, 40)
        orbits.a, orbits.b  # each orbit starts its product generator here
        try:
            mi = matching_interval(alpha, 2, budget=40)
        except BadRational:
            cases.append((orbits, None))
            continue
        want = cylinder_interval("alpha", orbits.a.head(mi.K), 2).intersect(
            cylinder_interval("alpha_plus_one", orbits.b.head(mi.L), 2))
        cases.append((orbits, (mi.K, mi.L, want)))

    def fail(*args):
        raise AssertionError("a prefix product was multiplied again")

    monkeypatch.setattr(nacf.matching, "_running_products", fail)
    assert len(cases) == 203 and sum(want is None for _, want in cases) == 161
    for orbits, want in cases:
        if want is None:
            with pytest.raises(BadRational):
                orbits.interval(40)
        else:
            mi = orbits.interval(40)
            assert (mi.K, mi.L, mi.interval) == want


def test_cylinder_builds_surds_only_for_its_final_bounds(monkeypatch):
    # every root is solved and compared as an integer view: a cylinder makes
    # one surd for its lower bound and one for its upper root, if it has one
    built = []

    def counting_surd(*args):
        built.append(args)
        return surd(*args)

    monkeypatch.setattr(nacf.matching, "surd", counting_surd)
    monkeypatch.setattr(nacf.exact, "surd", counting_surd)
    for kind, word, n, count in (("alpha", (26, 1, 2, 6), 2, 2),
                                 ("alpha_plus_one", (1, 2, 5, 2), 3, 2),
                                 ("alpha_plus_one", (1,), 5, 1)):
        built.clear()
        cylinder_interval(kind, word, n)
        assert len(built) == count, (kind, word, n)
    built.clear()
    matching_interval(Fraction(2, 9), 2)
    assert len(built) == 2


def test_orbit_matrices_equal_branch_products_and_convergents():
    rng = random.Random(41)
    for n in range(2, 8):
        edge = alpha_max(n)
        for _ in range(3):
            den = rng.randint(2, 60)
            alpha = Fraction(rng.randint(1, max(1, floor_exact(edge * den))), den)
            if compare_exact(alpha, edge) > 0:
                continue
            orbits = _EndpointOrbits(alpha, n, 40)
            for orbit in (orbits.a, orbits.b):
                assert orbit.matrix(0) == Mobius(1, 0, 0, 1) == branch_product(n, ())
                for k in range(1, 41):
                    head = orbit.head(k)
                    assert orbit.matrix(k) == branch_product(n, head)
                    assert orbit.matrix(k) == convergents(head, n)[-1][2]


def test_verify_families_closed_forms():
    checks = verify_theorem_intervals(["i"], range(0, 6))
    assert all(c.ok for c in checks)

    check = verify_theorem_intervals("ii", range(0, 1))[0]
    assert check.ok and check.alpha == Fraction(8, 43)
    assert check.exponents == (5, 5)
    p = Params(2, Fraction(8, 43))
    rm = ADD_ONE @ branch_product(2, expand(p.alpha, p, 5).prefix)
    assert rm == Mobius(128, 280, 108, 236)

    check = verify_theorem_intervals("iv", range(0, 1))[0]
    assert check.ok and check.alpha == Fraction(30, 191)
    assert check.exponents == (7, 7)

    assert all(c.ok for c in verify_theorem_intervals(["iii"], range(0, 3)))
    with pytest.raises(ValueError):
        verify_theorem_intervals("v", range(0, 1))


def _scan_alphas():
    """The 203 rationals p/q with q <= 40 in (0, sqrt(2)-1]."""
    edge = surd(-1, 1, 2)
    return sorted({Fraction(p, q) for q in range(2, 41) for p in range(1, q)
                   if compare_exact(Fraction(p, q), edge) <= 0})


def _reference_stable_pair(alpha, budget):
    # Brute force: orbits by repeated steps, every matched pair tested with
    # fresh branch products, the first stable one in (K+L, K) order.
    p = Params(2, alpha)
    orbits = []
    for x in (alpha, alpha + 1):
        values, digits = [x], []
        for _ in range(budget):
            d, x = step(x, p)
            digits.append(d)
            values.append(x)
        orbits.append((values, digits))
    (va, da), (vb, db) = orbits
    pairs = sorted((k + l, k, l) for k in range(1, budget + 1)
                   for l in range(1, budget + 1) if va[k] == vb[l])
    for _, k, l in pairs:
        if projective_equiv(ADD_ONE @ branch_product(2, da[:k]), branch_product(2, db[:l])):
            interval = cylinder_interval("alpha", da[:k], 2).intersect(
                cylinder_interval("alpha_plus_one", db[:l], 2))
            return k, l, interval
    return None


def test_scan_intervals_are_disjoint_and_hold_their_alphas():
    alphas = _scan_alphas()
    assert len(alphas) == 203
    found, bad = {}, 0
    for alpha in alphas:
        try:
            mi = matching_interval(alpha, 2, budget=40)
        except BadRational:
            bad += 1
            continue
        found.setdefault(mi.interval, []).append(alpha)
    assert bad == 161
    assert len(found) == 22
    for interval, members in found.items():
        assert all(interval.contains(alpha) for alpha in members)
    intervals = list(found)
    for i, first in enumerate(intervals):
        for second in intervals[i + 1:]:
            with pytest.raises(EmptyInterval):
                first.intersect(second)


def test_scan_matches_brute_force_reference():
    # at budget 5 some endpoint orbits reach 1 exactly at the budget, where
    # their trace has no periodic verdict yet
    for budget in (3, 5, 12):
        for alpha in _scan_alphas():
            want = _reference_stable_pair(alpha, budget)
            try:
                mi = matching_interval(alpha, 2, budget=budget)
            except BadRational:
                assert want is None, (alpha, budget)
            else:
                assert (mi.K, mi.L, mi.interval) == want, (alpha, budget)


def _count_calls(monkeypatch):
    calls = Counter()
    equiv, orbit = nacf.matching.projective_equiv, nacf.matching.orbit_rational

    def counted_equiv(m1, m2):
        calls["projective_equiv"] += 1
        return equiv(m1, m2)

    def counted_orbit(x, p, budget=1000):
        calls[x] += 1
        return orbit(x, p, budget)

    monkeypatch.setattr(nacf.matching, "projective_equiv", counted_equiv)
    monkeypatch.setattr(nacf.matching, "orbit_rational", counted_orbit)
    return calls


def test_stability_is_decided_once_per_diagonal(monkeypatch):
    # 1/8 matches on every diagonal and is stable on none; one check per
    # diagonal K - L bounds the work by 2 * budget + 1 checks
    calls = _count_calls(monkeypatch)
    with pytest.raises(BadRational):
        matching_interval(Fraction(1, 8), 2, budget=40)
    assert 0 < calls["projective_equiv"] <= 81


def test_stable_diagonals_are_decided_in_closed_form(monkeypatch):
    # both N = 2 endpoint orbits end at 1, so at most two diagonal heads
    # need a check, whatever the budget
    calls = _count_calls(monkeypatch)
    for budget in (40, 2000, 10 ** 6):
        calls.clear()
        with pytest.raises(BadRational):
            matching_interval(Fraction(1, 8), 2, budget=budget)
        assert calls["projective_equiv"] <= 2


def test_bad_rationals_are_proved():
    for n in range(3, 13):
        with pytest.raises(BadRational) as info:
            matching_interval(Fraction(1, 2 ** n), 2)
        assert info.value.proved is bad_rational_certificate(n).valid is True
    # family iii at k = 4 has no stable pair at any K and L
    with pytest.raises(BadRational) as info:
        matching_interval(Fraction(13, 176), 2)
    assert info.value.proved
    # 2/9's stable pair (3, 5) lies past the budget, and alpha + 1 has not
    # reached 1 within it
    with pytest.raises(BadRational) as info:
        matching_interval(Fraction(2, 9), 2, budget=3)
    assert not info.value.proved
    mi = matching_interval(Fraction(2, 9), 2, budget=5)
    assert (mi.K, mi.L) == (3, 5)
    # both orbits of 3/31 reach 1 within four steps; the stable pair (2, 6)
    # still lies past budget 5
    with pytest.raises(BadRational) as info:
        matching_interval(Fraction(3, 31), 2, budget=5)
    assert not info.value.proved
    mi = matching_interval(Fraction(3, 31), 2, budget=6)
    assert (mi.K, mi.L) == (2, 6)


def _proved_bad(alpha, budget):
    try:
        matching_interval(alpha, 2, budget=budget)
    except BadRational as exc:
        return exc.proved
    return False


def test_proved_bad_rationals_hold_no_stable_pair_far_out():
    # all 161 bad rationals of the scan are proved at budget 12; every
    # matched pair up to K, L = 40 is checked directly
    proved = [alpha for alpha in _scan_alphas() if _proved_bad(alpha, 12)]
    assert len(proved) == 161
    for alpha in proved:
        p = Params(2, alpha)
        va, vb = [alpha], [alpha + 1]
        for _ in range(40):
            va.append(step(va[-1], p)[1])
            vb.append(step(vb[-1], p)[1])
        assert not [(k, l) for k, l in equivalence_scan(alpha, 2, 40, 40)
                    if va[k] == vb[l]], alpha


def test_an_n2_orbit_cycling_away_from_one_is_an_internal_error(monkeypatch, capsys):
    # the closed form rests on the paper's period-1 theorem; a trace that
    # contradicts it must not be read as a bad rational
    orbit = nacf.matching.orbit_rational

    def relabelled(x, p, budget=1000):
        trace = orbit(x, p, budget)
        return OrbitTrace(trace.kind, trace.params, trace.digits,
                          trace.verdict._replace(kind=PERIODIC), trace.points, trace.cofs)

    monkeypatch.setattr(nacf.matching, "orbit_rational", relabelled)
    with pytest.raises(InvariantViolation):
        matching_interval(Fraction(1, 8), 2)
    assert main(["interval", "--alpha", "1/8"]) == 4
    assert "cycles away from 1" in capsys.readouterr().err


def test_family_check_computes_each_endpoint_orbit_once(monkeypatch):
    calls = _count_calls(monkeypatch)
    check = verify_family("i", 0)
    assert check.ok
    alpha = Fraction(2, 9)
    assert calls[alpha] == 1 and calls[alpha + 1] == 1
    # one decision for the closed-form matrices, one for the minimal match
    assert calls["projective_equiv"] == 2


def test_match_cost_does_not_grow_with_the_budget(monkeypatch, capsys):
    # both endpoint orbits of 1/3 close after a few steps; nothing past the
    # first repeat is stored, so a huge budget costs what a small one does
    traces = []
    orbit = nacf.matching.orbit_rational

    def recorded(x, p, budget=1000):
        traces.append(orbit(x, p, budget))
        return traces[-1]

    monkeypatch.setattr(nacf.matching, "orbit_rational", recorded)
    alpha = Fraction(1, 3)
    small = detect_matching(alpha, 2, 1000)
    tracemalloc.start()
    try:
        assert detect_matching(alpha, 2, 10 ** 6) == small
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
    assert len(traces) == 4
    for trace in traces:
        assert trace.verdict.is_periodic
        assert len(trace.states) <= trace.verdict.first_repeat + 1

    outputs = []  # the CLI takes a match budget up to 20000
    for budget in ("1000", "20000"):
        code = main(["--format", "json", "match", "--alpha", "1/3", "--N", "2",
                     "--budget", budget])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5)), st.integers(0, 10 ** 6), st.integers(1, 40))
@example(5, 0, 40)
def test_lasso_digits_read_as_digit_at(n, seed, budget):
    # the orbit heads and running products read the trace as one lasso;
    # digit_at, index by index, is the reference.  Seed 0 stands for the
    # orbit of 6/5 at N = 5, alpha = 11/10, in the coprime region: it never
    # cycles, so its lasso ends at the budget
    rng = random.Random(seed)
    if seed == 0:
        p, x = Params(5, Fraction(11, 10)), Fraction(6, 5)
    else:
        p = random_params(rng, n)
        x = random_rational_in(p, rng)
    orbit = _Orbit(x, p, budget)
    trace = orbit.trace
    stored = len(trace.digits)
    reach = 3 * stored + 2 if trace.verdict.is_periodic else stored
    want = tuple(map(trace.digit_at, range(reach)))
    assert tuple(itertools.islice(trace.lasso_digits(), reach)) == want
    assert orbit.head(reach) == want
    products = [IDENTITY, *_running_products(p.N, want)]
    assert [orbit.matrix(k) for k in range(reach + 1)] == products
    if not trace.verdict.is_periodic:
        with pytest.raises(IndexError):
            trace.digit_at(reach)
        with pytest.raises(IndexError, match="beyond the orbit's budget"):
            tuple(itertools.islice(trace.lasso_digits(), reach + 1))
        with pytest.raises(IndexError):
            orbit.head(reach + 1)
        with pytest.raises(IndexError):
            _Orbit(x, p, budget).matrix(reach + 1)


def _fraction_keyed_match(trace_a, trace_b):
    # the minimal match found on Fraction values, as before the traces
    # were keyed by their reduced pairs
    first = {}
    for i, v in enumerate(trace_a.values()):
        first.setdefault(v, i)
    return min(((i + j, i, j) for j, v in enumerate(trace_b.values())
                if (i := first.get(v)) is not None), default=None)


def test_matches_on_reduced_pairs_equal_a_fraction_keyed_scan():
    for n in (2, 3, 4, 5):
        for q in range(1, 41):
            for p in range(1, q * n):
                alpha = Fraction(p, q)
                if alpha.denominator != q or (alpha + 1) ** 2 > n:
                    continue
                orbits = _EndpointOrbits(alpha, n, 60)
                ta, tb = orbits.a.trace, orbits.b.trace
                want = _fraction_keyed_match(ta, tb)
                got = orbits.first_match
                assert (got and got[:2]) == (want and want[1:]), (alpha, n)
                for trace in (ta, tb):
                    assert trace.one_at == next(
                        (i for i, v in enumerate(trace.values()) if v == 1), None), (alpha, n)
