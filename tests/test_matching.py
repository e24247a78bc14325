import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import nacf.matching
from nacf.cli import main
from nacf.exact import compare_exact, rational_between, surd
from nacf.expansion import (ADD_ONE, Mobius, Params, branch_product, expand,
                            mobius_apply, projective_equiv, step)
from nacf.matching import (STABLE, UNSTABLE, UNKNOWN, BadRational,
                           EmptyInterval, MatchReport, NoMatchWithinBudget,
                           ParamInterval, PrerequisiteNotMet,
                           bad_rational_certificate, cylinder_interval,
                           detect_matching, equivalence_scan,
                           matching_interval, no_matching_obstruction,
                           stability_check, verify_family,
                           verify_theorem_intervals)


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

    miss = detect_matching(Fraction(6, 5), 5, budget=300)
    assert isinstance(miss, NoMatchWithinBudget)
    assert miss.obstruction is not None and miss.obstruction.holds


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
    assert mobius_apply(bumped, iv.lo) == iv.lo
    short = Mobius.branch(2, 8) @ Mobius.branch(2, 1)
    assert mobius_apply(short, iv.hi + 1) == iv.hi

    iv2 = cylinder_interval("alpha_plus_one", (1, 2, 1, 2, 2), 2)
    bumped2 = (Mobius.branch(2, 1) @ Mobius.branch(2, 2) @ Mobius.branch(2, 1)
               @ Mobius.branch(2, 2) @ Mobius.branch(2, 3))
    assert mobius_apply(bumped2, iv2.lo) == iv2.lo + 1


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


def test_bad_rational_certificates():
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


def test_obstruction_examples():
    assert no_matching_obstruction(Fraction(6, 5), 5).holds
    assert no_matching_obstruction(Fraction(7, 6), 7).holds  # 7 | t0 case
    assert not no_matching_obstruction(Fraction(1, 8), 2).holds
    assert no_matching_obstruction(Fraction(15, 8), 9).holds
    assert not no_matching_obstruction(Fraction(9, 8), 9).holds  # 9 | t0, composite


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
    others = verify_theorem_intervals(["i", "ii", "iv"], range(0, 11), strict=True)
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

    verify_theorem_intervals(["iii"], range(0, 3), strict=True)
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
    for alpha in _scan_alphas():
        want = _reference_stable_pair(alpha, 12)
        try:
            mi = matching_interval(alpha, 2, budget=12)
        except BadRational:
            assert want is None, alpha
        else:
            assert (mi.K, mi.L, mi.interval) == want, alpha


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


def test_family_check_computes_each_endpoint_orbit_once(monkeypatch):
    calls = _count_calls(monkeypatch)
    check = verify_family("i", 0)
    assert check.ok
    alpha = Fraction(2, 9)
    assert calls[alpha] == 1 and calls[alpha + 1] == 1


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

    outputs = []
    for budget in ("1000", "100000000"):
        code = main(["--format", "json", "match", "--alpha", "1/3", "--N", "2",
                     "--budget", budget])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
