import contextlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import nacf.cli
from conftest import random_params, random_rational_in, random_surd_in
from nacf.cli import FORMATS, main
from nacf.exact import format_exact, parse_exact, surd
from nacf.expansion import Params
from nacf.orbits import orbit_quadratic, orbit_rational
from nacf.paramspace import emit_kset_plot_data


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand_examples(capsys):
    code, out, _ = run(capsys, "expand", "--x", "2/9", "--N", "2", "--alpha", "2/9", "--n", "4")
    assert code == 0 and out.strip() == "[0; 8, 1, 1, 1]"
    code, out, _ = run(capsys, "expand", "--x", "1", "--N", "5", "--alpha", "1/2", "--n", "3")
    assert code == 0 and out.strip() == "[0; 4, 4, 4]"
    code, out, _ = run(capsys, "expand", "--x", "3/2", "--N", "9", "--alpha", "149/100", "--n", "4")
    assert code == 0 and out.strip() == "[0; 4, 3, 4, 3]"


def test_expand_bounds_n(capsys):
    code, out, _ = run(capsys, "expand", "--x", "1/3", "--N", "2", "--alpha", "1/3",
                       "--n", "50000")
    assert code == 0 and out.startswith("[0; ")
    for n in ("50001", "100000000"):
        code, out, err = run(capsys, "expand", "--x", "1/3", "--N", "2", "--alpha", "1/3",
                             "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: expand needs n <= 50000, got {n}\n"
    # a negative n is a domain error that names n, not an itertools message
    for n in ("-1", "-3"):
        code, out, err = run(capsys, "expand", "--x", "1/3", "--N", "2", "--alpha", "1/3",
                             "--n", n)
        assert (code, out, err) == (2, "", f"error: expand needs n >= 0, got {n}\n")
    assert run(capsys, "expand", "--x", "1/3", "--N", "2", "--alpha", "1/3",
               "--n", "0") == (0, "[0;]\n", "")


def test_expand_bounds_n_for_a_surd(capsys):
    # a surd's expansion outgrows its output as a quadratic orbit does, so it
    # has that orbit's bound; the period-1 point (-2+sqrt(40))/2 runs at it
    expand = ("expand", "--x", "(-2+1*sqrt(40))/2", "--N", "9", "--alpha", "19/10")
    code, out, err = run(capsys, *expand, "--n", "2500")
    assert (code, err) == (0, "") and out.startswith("[0; 2, 2, ")
    for n in ("2501", "50000"):
        code, out, err = run(capsys, *expand, "--n", n)
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: expand of a surd needs n <= 2500, got {n}"]
    # past the rational bound the rational message stands, whatever the point
    assert run(capsys, *expand, "--n", "50001") == (
        2, "", "error: expand needs n <= 50000, got 50001\n")


def test_orbit_bounds_the_budget(tmp_path, capsys):
    # an orbit that closes early runs at the bound; past it nothing runs,
    # whether a flag or the config file sets the budget
    orbit = ("orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9")
    code, out, err = run(capsys, *orbit, "--budget", "20000")
    assert (code, err) == (0, "") and out.endswith("Periodic pre=1 period=1 first-repeat=2\n")
    cfg = tmp_path / "nacf.conf"
    for budget in ("20001", "1000000000"):
        cfg.write_text(f"budget = {budget}\n")
        message = f"error: orbit needs budget <= 20000, got {budget}\n"
        assert run(capsys, *orbit, "--budget", budget) == (2, "", message)
        assert run(capsys, "--config", str(cfg), *orbit) == (2, "", message)


def test_match_bounds_the_budget(tmp_path, capsys):
    # the congruence certificate answers 6/5 at N = 5 at once, at the bound;
    # past it nothing runs, whether a flag or the config file sets the budget
    match = ("match", "--alpha", "6/5", "--N", "5")
    code, out, err = run(capsys, *match, "--budget", "20000")
    assert (code, err) == (3, "") and "budget: 20000\n" in out
    cfg = tmp_path / "nacf.conf"
    for budget in ("20001", "100000000"):
        cfg.write_text(f"budget = {budget}\n")
        message = f"error: match needs budget <= 20000, got {budget}\n"
        assert run(capsys, *match, "--budget", budget) == (2, "", message)
        assert run(capsys, "--config", str(cfg), *match) == (2, "", message)
        # an obstructed match that held its orbits ran past 30 s at 10^8
        assert run(capsys, "match", "--N", "6", "--alpha", "7/5", "--budget", budget) == (
            2, "", message)


def test_orbit_bounds_the_quadratic_budget(tmp_path, capsys):
    # a quadratic orbit's surds outgrow its output, so its bound is lower; the
    # period-1 point (-2+sqrt(40))/2 closes at once and runs at the bound
    orbit = ("orbit", "--x", "(-2+1*sqrt(40))/2", "--N", "9", "--alpha", "19/10")
    code, out, err = run(capsys, *orbit, "--budget", "2500")
    assert (code, err) == (0, "") and out.endswith("Periodic pre=0 period=1 first-repeat=1\n")
    cfg = tmp_path / "nacf.conf"
    for budget in ("2501", "20000"):
        cfg.write_text(f"budget = {budget}\n")
        message = f"error: a quadratic orbit needs budget <= 2500, got {budget}\n"
        for argv in ((*orbit, "--budget", budget), ("--config", str(cfg), *orbit),
                     ("--config", str(cfg), *orbit, "--quadratic")):
            assert run(capsys, *argv) == (2, "", message)
    # past the rational bound the rational message stands, whatever the point
    message = "error: orbit needs budget <= 20000, got 20001\n"
    assert run(capsys, *orbit, "--budget", "20001") == (2, "", message)
    # a rational point keeps the rational bound
    code, _, err = run(capsys, "orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9",
                       "--budget", "2501")
    assert (code, err) == (0, "")


def test_expand_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "expand",
                       "--x", "2/9", "--N", "2", "--alpha", "2/9", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"prefix": [8, 1], "period": None}


def test_orbit_summaries(capsys):
    code, out, _ = run(capsys, "orbit", "--x", "40/33", "--N", "3", "--alpha", "73/100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "Periodic pre=25 period=38 first-repeat=63"
    first = json.loads(lines[0])
    assert first == {"n": 0, "digit": 1, "value": "40/33", "t": 40, "s": 33}

    code, out, _ = run(capsys, "orbit", "--x", "1", "--N", "2", "--alpha", "1/3")
    assert code == 0 and out.strip().splitlines()[-1] == "Periodic pre=0 period=1 first-repeat=1"


def test_orbit_quadratic_trace(capsys):
    code, out, _ = run(capsys, "orbit", "--x", "(0+1*sqrt(2))/1", "--quadratic",
                       "--N", "2", "--alpha", "(-1+1*sqrt(2))/1", "--budget", "10")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert rows[0]["A"] == 1 and rows[0]["C"] == -2
    assert (rows[1]["A"], rows[1]["B"], rows[1]["C"]) == (-2, -4, 2)


def test_orbit_lines_are_sorted_json_of_the_trace(capsys):
    rng = random.Random(43)
    for _ in range(40):
        p = random_params(rng, rng.randint(2, 12))
        quadratic = rng.random() < 0.5
        x = random_surd_in(p, rng) if quadratic else random_rational_in(p, rng)
        budget = rng.randint(1, 80)
        trace = (orbit_quadratic if quadratic else orbit_rational)(x, p, budget)
        code, out, err = run(capsys, "orbit", "--x", format_exact(x), "--N", str(p.N),
                             "--alpha", format_exact(p.alpha), "--budget", str(budget))
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert len(lines) == len(trace.states) + 1 and lines[-1] == str(trace.verdict)
        for i, (line, st) in enumerate(zip(lines, trace.states)):
            row = json.loads(line)
            assert line == json.dumps(row, sort_keys=True)
            assert row["n"] == st.index == i
            assert row["digit"] == (trace.digits[i] if i < len(trace.digits) else None)
            assert parse_exact(row["value"]) == st.value
            if quadratic:
                assert (row["A"], row["B"], row["C"]) == (st.A, st.B, st.C)
            else:
                assert (row["t"], row["s"]) == (st.t, st.s)


def test_orbit_prints_integers_past_the_str_digit_limit(capsys):
    # raw numerators pass 4300 digits, where str() of an int stops on 3.11+
    args = ("--x", "1999/2", "--N", "1000003", "--alpha", "999", "--budget", "1500")
    code, out, err = run(capsys, "orbit", *args)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    trace = orbit_rational(Fraction(1999, 2), Params(1000003, Fraction(999)), 1500)
    assert len(lines) == len(trace.states) + 1 == 1502
    assert lines[-1] == "NoPeriodWithinBudget"
    t_text = lines[-2].split('"t": ', 1)[1].split(",", 1)[0]
    assert len(t_text) > 4300
    assert Decimal(t_text) == Decimal(trace.states[-1].t)


def test_orbit_reads_integers_past_the_str_digit_limit(capsys):
    # int() refuses decimal strings past 4300 digits on 3.11+
    num, den = "1" + "0" * 4399, "9" * 4399           # x = 1 + 1/(10^4399 - 1)
    code, out, err = run(capsys, "orbit", "--x", f"{num}/{den}",
                         "--N", "2", "--alpha", "1/3", "--budget", "3")
    assert (code, err) == (0, "")
    x = Fraction(int(Decimal(num)), int(Decimal(den)))
    trace = orbit_rational(x, Params(2, Fraction(1, 3)), 3)
    assert out.splitlines() == [*trace.json_lines(), str(trace.verdict)]
    assert f'"t": {num},' in out.splitlines()[0]


def test_match_builds_the_endpoint_orbits_once(capsys, monkeypatch):
    # an N = 2 match builds each endpoint orbit once and decides its minimal
    # match's stability once, at any budget; where the congruence
    # certificate answers, no orbit is built at all
    import nacf.matching as matching
    starts, equivalences = [], []
    projective_equiv = matching.projective_equiv

    def counted(x, p, budget=1000):
        starts.append(x)
        return orbit_rational(x, p, budget)

    def counted_equiv(m1, m2):
        equivalences.append((m1, m2))
        return projective_equiv(m1, m2)

    monkeypatch.setattr(matching, "orbit_rational", counted)
    monkeypatch.setattr(matching, "projective_equiv", counted_equiv)
    for budget in ((), ("--budget", "40")):
        starts.clear()
        equivalences.clear()
        code, out, _ = run(capsys, "--format", "json", "match", "--alpha", "2/9", "--N", "2",
                           *budget)
        assert code == 0 and json.loads(out)["stable_exponents"] == [3, 5]
        assert starts == [Fraction(2, 9), Fraction(11, 9)] and len(equivalences) == 1
    starts.clear()
    code, out, _ = run(capsys, "--format", "json", "match", "--alpha", "6/5", "--N", "5")
    assert code == 3 and json.loads(out)["certificates"][0]["holds"]
    assert starts == []


def test_match_reports_stable_exponents(capsys):
    code, out, _ = run(capsys, "--format", "json", "match", "--alpha", "2/9", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["K"], data["L"]) == (1, 5)
    assert data["stable_exponents"] == [3, 5]
    assert parse_exact(data["interval"]["lo"]) == surd(-17, 1, 369, 10)


def test_match_negative_exit(capsys):
    code, out, _ = run(capsys, "--format", "json", "match",
                       "--alpha", "6/5", "--N", "5", "--budget", "300")
    assert code == 3
    data = json.loads(out)
    assert data["match"] is None and data["obstruction"]["holds"]
    # a miss within the budget where the certificate does not apply
    code, out, _ = run(capsys, "--format", "json", "match",
                       "--alpha", "7/5", "--N", "6", "--budget", "50")
    assert (code, out) == (3, '{"N": 6, "alpha": "7/5", "budget": 50, "certificates": [], '
                              '"match": null, "obstruction": null}\n')


def test_match_above_two_reports_the_match(capsys):
    # a found match for N != 2 has no obstruction to report and no interval;
    # 1 (N = 5) and 2 (N = 9) are cut points of the coprime region that
    # match in one step
    for alpha, n, want in (("73/100", "3", (3, 3, "stable")),
                           ("1/1", "5", (1, 0, "unknown-for-this-N")),
                           ("2/1", "9", (0, 1, "unknown-for-this-N"))):
        code, out, _ = run(capsys, "--format", "json", "match", "--alpha", alpha, "--N", n)
        assert code == 0
        data = json.loads(out)
        assert (data["K"], data["L"], data["stable"]) == want
        assert data["certificates"] == []
        assert "interval" not in data


def test_interval_and_bad_rational(capsys):
    code, out, _ = run(capsys, "--format", "json", "interval", "--alpha", "2/9", "--N", "2")
    assert code == 0
    data = json.loads(out)
    assert (data["K"], data["L"]) == (3, 5)

    code, out, _ = run(capsys, "--format", "json", "interval", "--alpha", "1/8", "--N", "2")
    assert code == 3
    data = json.loads(out)
    assert data["bad_rational_candidate"] and data["certificate"]["valid"]
    assert data["proved"] is True
    code, out, _ = run(capsys, "--format", "json", "interval", "--alpha", "2/9", "--budget", "3")
    assert code == 3 and json.loads(out)["proved"] is False


def test_interval_rejects_surd_alpha(capsys):
    code, out, err = run(capsys, "interval", "--alpha", "(-1+1*sqrt(2))/2", "--N", "2")
    assert code == 2 and out == "" and "rational" in err


def test_orbit_across_two_radicands(capsys):
    # x in Q(sqrt 3), alpha in Q(sqrt 2): only the digit floor mixes them
    args = ("--x", "(-1+1*sqrt(3))/1", "--N", "3", "--alpha", "(-1+1*sqrt(2))/1")
    code, out, _ = run(capsys, "orbit", *args)
    assert code == 0
    assert out.strip().splitlines()[-1] == "Periodic pre=0 period=2 first-repeat=2"
    code, out, _ = run(capsys, "expand", *args, "--n", "6")
    assert code == 0 and out.strip() == "[0; 3, 2, 3, 2, 3, 2]"


def test_orbit_text_does_not_depend_on_how_the_radicand_is_written(capsys):
    tail = ("--N", "5", "--alpha", "6/5", "--budget", "50")
    code, out, err = run(capsys, "orbit", "--x", "(1+1*sqrt(8))/2", *tail)
    assert code == 0 and '"value": "(1+2*sqrt(2))/2"' in out
    assert run(capsys, "orbit", "--x", "(1+2*sqrt(2))/2", *tail) == (code, out, err)


_HUGE_SURD = "(0+1*sqrt(1000000000000000003))/1000000000"  # a prime radicand


def test_a_radicand_too_large_to_print_exits_two(capsys):
    for argv in (("orbit", "--x", _HUGE_SURD, "--N", "2", "--alpha", "1/3"),
                 ("nomatch-regions", "--N", "1000000000000000000000000000001")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot split the radicand ") and err.count("\n") == 1
    # expand prints digits only, so it answers
    code, out, _ = run(capsys, "expand", "--x", _HUGE_SURD, "--N", "2", "--alpha", "1/3",
                       "--n", "5")
    assert (code, out) == (0, "[0; 1, 1, 1, 1, 1]\n")


def test_badrat_text(capsys):
    code, out, _ = run(capsys, "badrat", "--n", "3")
    assert code == 0
    assert "(1, 17, 1, 15)" in out and "(16, 56, 14, 50)" in out
    assert "certificate valid: True" in out


def test_kset_csv_and_json(capsys):
    code, out, _ = run(capsys, "--precision", "6", "kset", "--N", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,lo,hi,in_K,digit_lo,digit_hi"
    assert "5,1.000000,1.192582,True,1,3" in lines

    code, out, _ = run(capsys, "--format", "json", "--precision", "6",
                       "kset", "--N", "5")
    assert code == 0
    rows = json.loads(out)
    assert {"N": 5, "lo": "1.000000", "hi": "1.192582", "in_K": True,
            "digit_lo": 1, "digit_hi": 3} in rows


def test_kset_alpha_min_outside_the_parameter_space_exits_two(capsys):
    # nothing reaches stdout: the CSV header and the JSON "[" go out with the first row
    for fmt in FORMATS:
        for bad in ("0", "-1/3", "3", "(-1+1*sqrt(5))/1"):
            code, out, err = run(capsys, "--format", fmt, "kset", "--N", "5", f"--alpha-min={bad}")
            assert code == 2 and out == "" and "alpha_min" in err, (fmt, bad)
        assert run(capsys, "--format", fmt, "kset", "--n-max", "1") == (
            2, "", "error: N must run over 2 <= n_min <= n_max\n"), fmt


def test_kset_streams_the_plot_rows(capsys):
    # rows are written one at a time; the bytes equal those of the whole
    # list (--precision starts at 1; the rows' own test covers 0 places)
    for select, n_min, n_max in ((("--N", "7"), 7, 7), (("--n-max", "6"), 2, 6)):
        for places in (1, 6, 10):
            rows = emit_kset_plot_data(n_max, places, Fraction(1, 100), n_min=n_min)
            csv = "".join(",".join(str(v) for v in r) + "\n" for r in rows)
            keys = ("N", "lo", "hi", "in_K", "digit_lo", "digit_hi")
            json_text = json.dumps([dict(zip(keys, r)) for r in rows]) + "\n"
            for fmt, want in (("csv", "N,lo,hi,in_K,digit_lo,digit_hi\n" + csv),
                              ("text", "N,lo,hi,in_K,digit_lo,digit_hi\n" + csv),
                              ("json", json_text)):
                got = run(capsys, "--format", fmt, "--precision", str(places), "kset", *select)
                assert got == (0, want, ""), (select, places, fmt)


def test_kset_memory_stays_flat():
    # about 40 000 cells; the rows are never all held at once
    class Sink:
        def write(self, text):
            return len(text)

        def flush(self):
            pass

    argv = ["kset", "--N", "2", "--alpha-min", "1/20000"]
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(Sink()):
                code = main(["--format", fmt, *argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 20, (fmt, peak)


def test_kset_needs_exactly_one_of_n_and_n_max(capsys):
    assert run(capsys, "kset")[0] == 1
    assert run(capsys, "kset", "--N", "5", "--n-max", "2")[0] == 1


def test_nomatch_regions(capsys):
    code, out, _ = run(capsys, "--format", "json", "nomatch-regions", "--N", "9")
    assert code == 0
    (region,) = json.loads(out)
    assert parse_exact(region["lo"]) == surd(-3, 1, 45, 2)
    code, _, err = run(capsys, "nomatch-regions", "--N", "6")
    assert code == 2 and "odd" in err


def test_verify_families(capsys):
    code, out, _ = run(capsys, "verify", "--family", "i", "--k", "0..3")
    assert code == 0 and "family i: 4/4 pass" in out
    code, out, _ = run(capsys, "verify", "--table", "--family", "all", "--k", "0..1")
    assert code == 0
    for fam in ("i", "ii", "iii", "iv"):
        assert f"family {fam}: 2/2 pass" in out
    # family iii has no stable match at k = 4 within its search bound
    code, out, _ = run(capsys, "verify", "--family", "iii", "--k", "3..4")
    assert code == 4
    lines = out.splitlines()
    assert "family iii: 1/2 pass" in lines
    assert any(line.startswith("  k=4: MISMATCH in expansion of alpha, ") for line in lines)


def test_parse_errors_exit_one(capsys):
    assert run(capsys, "expand", "--x", "0.73", "--N", "2", "--alpha", "1/3", "--n", "2")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "expand", "--x", "1/2")[0] == 1


def test_verify_rejects_an_empty_k_range(capsys):
    code, out, err = run(capsys, "verify", "--k", "5..2")
    assert code == 1 and out == ""
    assert err.startswith("usage: nacf verify")
    # text that is no integer and no lo..hi range is named as such
    for text in ("a", "1..b", "1..2..3"):
        code, out, err = run(capsys, "verify", "--k", text)
        assert code == 1 and out == "" and err.startswith("usage: nacf verify")
        assert err.splitlines()[-1] == f"nacf verify: error: argument --k: not a k range: '{text}'"


def test_parse_errors_say_which_argument_is_wrong(capsys):
    code, _, err = run(capsys, "verify", "--k", "5..2")
    assert code == 1
    assert err.splitlines()[-1] == "nacf verify: error: argument --k: empty k range: '5..2'"
    code, _, err = run(capsys, "expand", "--x", "0.73", "--N", "2", "--alpha", "1/3", "--n", "2")
    assert code == 1 and "argument --x: not an exact number: '0.73'" in err
    code, _, err = run(capsys, "match", "--alpha", "1/3", "--N", "2", "--no-such-option")
    assert code == 1 and "unrecognized arguments: --no-such-option" in err


def test_badrat_bounds_n(capsys):
    code, out, err = run(capsys, "--format", "json", "badrat", "--n", "10000")
    assert code == 0 and json.loads(out)["valid"]
    for n in ("10001", "100000"):
        code, out, err = run(capsys, "badrat", "--n", n)
        assert code == 2 and out == ""
        assert err == f"error: badrat needs n <= 10000, got {n}\n"


_LONG_N = "1" + "0" * 4401  # 4402 digits: past int()'s limit on Python 3.11+
_NINES = "9" * 5000


def test_integer_options_of_any_length(capsys):
    # int() refuses a digit string this long on 3.11+; the options read it
    # through exact._int, and each cap prints it in full
    code, out, err = run(capsys, "orbit", "--x", "2", "--N", "5", "--alpha", "6/5",
                         "--budget", _NINES)
    assert (code, out, err) == (2, "", f"error: orbit needs budget <= 20000, got {_NINES}\n")
    for argv, cap in ((("match", "--alpha", "1/3", "--N", "2", "--budget", _NINES),
                       "match needs budget <= 20000"),
                      (("expand", "--x", "1/3", "--N", "2", "--alpha", "1/3", "--n", _NINES),
                       "expand needs n <= 50000"),
                      (("badrat", "--n", _NINES), "badrat needs n <= 10000")):
        assert run(capsys, *argv) == (2, "", f"error: {cap}, got {_NINES}\n")
    assert run(capsys, "nomatch-regions", "--N", _LONG_N) == (
        2, "", "error: established only for odd N >= 5\n")
    # interval has no budget cap: N = 2 orbits end at 1 whatever the budget
    code, out, _ = run(capsys, "interval", "--alpha", "1/3", "--budget", _NINES)
    assert code == 3 and "proved: True" in out
    assert nacf.cli._whole("+" + _NINES) == int(Decimal(_NINES)) == -nacf.cli._whole("-" + _NINES)
    assert nacf.cli._whole(" 1_000 ") == 1000  # whatever int() reads, it reads


def test_a_long_N_prints_a_whole_record_or_none(capsys):
    # str() and json.dumps of an int stop past 4300 digits on 3.11+; text
    # prints the value in full, and JSON exits 2 before writing any of it
    n = "1" + "0" * 4400 + "1"
    match = ("match", "--alpha", "1/3", "--N", n, "--budget", "5")
    expand = ("expand", "--x", "1/3", "--N", n, "--alpha", "1/3", "--n", "5")
    code, out, err = run(capsys, *match)
    assert code in (0, 3) and err == ""
    assert out.splitlines()[:2] == ["alpha: 1/3", f"N: {n}"]
    code, out, err = run(capsys, *expand)
    assert (code, err) == (0, "")
    assert out.startswith(f"[0; {Decimal(3 * int(Decimal(n)) - 1)}, ") and out.endswith("]\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 0: no limit
        for argv in (match, expand):
            assert run(capsys, "--format", "json", *argv) == (
                2, "", f"error: an integer in the JSON output has more than {limit} "
                "digits; use --format text\n")
        sys.set_int_max_str_digits(0)
    try:
        # with no limit, as on Python 3.10, JSON prints the whole record
        code, out, err = run(capsys, "--format", "json", *match)
        assert code in (0, 3) and err == "" and json.loads(out)["N"] == int(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_orbit_at_a_long_N_prints_the_whole_orbit_or_nothing(capsys):
    # each line prints its digit with int's str; where that is limited
    # (3.11+) a digit past the limit refuses the run before any output
    n = "1" + "0" * 4400 + "1"
    argv = ("orbit", "--x", "1/3", "--N", n, "--alpha", "1/3", "--budget", "3")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # 0: no limit
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "set_int_max_str_digits" not in err
        sys.set_int_max_str_digits(0)
    try:
        # with no limit, as on Python 3.10, the whole orbit prints
        code, out, err = run(capsys, *argv)
        trace = orbit_rational(Fraction(1, 3), Params(int(n), Fraction(1, 3)), 3)
        assert (code, err) == (0, "")
        assert out.splitlines() == [*trace.json_lines(), str(trace.verdict)]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_malformed_integer_options_keep_argparses_message(capsys):
    for text in ("1x", "1.5", "0x10", "", _NINES + "x", "1_" + _NINES):
        code, out, err = run(capsys, "orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9",
                             f"--budget={text}")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == \
            f"nacf orbit: error: argument --budget: invalid int value: {text!r}"


def test_kset_bounds_n(capsys):
    # the first row waits on one gcd per residue of N, so N is capped; a
    # range given by --n-max streams from N = 2 and is not
    for n in ("10000001", "100000000000000000000", _LONG_N):
        for fmt in FORMATS:
            assert run(capsys, "--format", fmt, "kset", "--N", n) == (
                2, "", f"error: kset needs N <= 10000000, got {n}\n")


def test_verify_bounds_the_k_range(capsys):
    code, out, err = run(capsys, "verify", "--k", "0..100000")
    assert code == 2 and out == ""
    assert err == "error: verify takes at most 1000 k values, got 100001\n"
    code, out, _ = run(capsys, "verify", "--table", "--family", "i", "--k", "1..1000")
    assert code == 0 and out == "family i: 1000/1000 pass\n"


def test_verify_bounds_the_size_of_k(capsys):
    # the closed-form families are defined for k >= 0: a negative k is a
    # domain error, not an internal one and not a closed-form mismatch
    for k, message in (("10001", "|k| <= 10000, got 10001"),
                       ("9990..10001", "|k| <= 10000, got 10001"),
                       ("-1", "k >= 0, got -1"), ("-20000", "k >= 0, got -20000"),
                       ("-3..2", "k >= 0, got -3")):
        for family in ("all", "i", "ii", "iii", "iv"):
            assert run(capsys, "verify", "--family", family, f"--k={k}") == (
                2, "", f"error: verify needs {message}\n"), (k, family)
    code, out, _ = run(capsys, "verify", "--table", "--family", "i", "--k", "10000")
    assert code == 0 and out == "family i: 1/1 pass\n"


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, "expand", "--x", "5/1", "--N", "2", "--alpha", "1/3", "--n", "2")
    assert code == 2 and "outside" in err
    code, _, err = run(capsys, "expand", "--x", "1/2", "--N", "2", "--alpha", "1/2", "--n", "2")
    assert code == 2
    # the message prints x unsplit: trial division cannot split this radicand
    x = "(0+1*sqrt(1000000000000000003))/1"
    for argv in (("orbit",), ("expand", "--n", "3")):
        assert run(capsys, *argv, "--x", x, "--N", "2", "--alpha", "1/3") == (
            2, "", f"error: {x} outside [alpha, alpha+1]\n"), argv
    # match answers from the obstruction certificate for 6/5, N = 5, after
    # the same input checks as an orbit scan
    for alpha, n, budget, message in (
            ("6/5", "5", "-5", "error: budget must be >= 1\n"),
            ("(0+1*sqrt(2))/1", "5", "300", "error: matching detection works on rational parameters\n"),
            ("5/1", "5", "-5", "error: alpha must lie in (0, sqrt(N)-1]\n")):
        code, out, err = run(capsys, "match", "--alpha", alpha, "--N", n, "--budget", budget)
        assert (code, out, err) == (2, "", message)


def test_domain_errors_print_x_of_any_size(capsys):
    # past 4300 digits str() of an int raises on Python 3.11+; the message
    # still names x, rational or surd, for an orbit and an expansion alike
    ones = "1" * 5000  # no multiple of 3, so x/3 is in lowest terms
    for x in (f"{ones}/3", f"({ones}+1*sqrt(2))/3"):
        for argv in (("orbit",), ("expand", "--n", "3")):
            assert run(capsys, *argv, "--x", x, "--N", "2", "--alpha", "1/3") == (
                2, "", f"error: {x} outside [alpha, alpha+1]\n"), (argv, x[-12:])


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "nacf.conf"
    cfg.write_text("precision = 4\nformat = json\nbudget = 50\n")
    code, out, _ = run(capsys, "--config", str(cfg), "kset", "--N", "5")
    assert code == 0
    rows = json.loads(out)
    assert any(r["lo"] == "1.0000" for r in rows)
    # flags override the file
    code, out, _ = run(capsys, "--config", str(cfg), "--format", "text", "kset", "--N", "5")
    assert code == 0 and out.startswith("N,lo,hi")


def test_settings_flag_over_file_over_default(tmp_path, capsys, monkeypatch):
    # the file comes from --config or $NACF_CONFIG; a commented line is skipped
    cfg = tmp_path / "nacf.conf"
    cfg.write_text("# budget = 7\nbudget = 1\nprecision = 4\nalpha_min = 1/3\n")
    orbit = ("orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9")
    assert run(capsys, *orbit)[1].endswith("Periodic pre=1 period=1 first-repeat=2\n")
    assert run(capsys, "--config", str(cfg), *orbit)[1].endswith("NoPeriodWithinBudget\n")
    monkeypatch.setenv("NACF_CONFIG", str(cfg))
    assert run(capsys, *orbit)[1].endswith("NoPeriodWithinBudget\n")
    assert run(capsys, *orbit, "--budget", "2")[1].endswith("first-repeat=2\n")
    _, out, _ = run(capsys, "kset", "--N", "5")
    assert out.splitlines()[1] == "5,0.3333,0.3485,False,3,14"
    _, out, _ = run(capsys, "--precision", "2", "kset", "--N", "5", "--alpha-min", "1/2")
    assert out.splitlines()[1] == "5,0.50,0.52,False,2,9"
    # interval keeps its own default budget of 40; the file's does not reach it
    code, out, _ = run(capsys, "interval", "--alpha", "2/9")
    assert code == 0 and "interval_text: ((-17+3*sqrt(41))/10 ~ 0.2209, " in out


def test_settings_exit_two_whatever_sets_them(tmp_path, capsys, monkeypatch):
    # one error line and exit 2, whether a flag or the config file set the value
    missing, folder = tmp_path / "missing.conf", tmp_path
    orbit = ("orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9")
    cases = [(("--config", str(missing), *orbit),
              f"cannot read config file {missing}: No such file or directory"),
             (("--config", str(folder), *orbit),
              f"cannot read config file {folder}: Is a directory")]
    for precision in ("-1", "0", "201"):
        message = f"precision must be in [1, 200], got {precision}"
        cfg = tmp_path / f"precision{precision}.conf"
        cfg.write_text(f"precision = {precision}\n")
        cases += [(("--precision", precision, "interval", "--alpha", "2/9"), message),
                  (("--config", str(cfg), "interval", "--alpha", "2/9"), message)]
    cfg = tmp_path / "xml.conf"
    cfg.write_text("format = xml\n")
    cases.append((("--config", str(cfg), *orbit),
                  "format must be one of text, json, csv, got 'xml'"))
    for budget in ("0", "-1"):
        cases += [((*orbit, "--budget", budget), "budget must be >= 1"),
                  (("match", "--alpha", "2/9", "--N", "2", "--budget", budget),
                   "budget must be >= 1"),
                  (("interval", "--alpha", "2/9", "--budget", budget), "budget must be >= 1")]
    for argv, message in cases:
        assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv
    monkeypatch.setenv("NACF_CONFIG", str(missing))
    assert run(capsys, *orbit) == (
        2, "", f"error: cannot read config file {missing}: No such file or directory\n")


def test_config_file_mistakes_exit_two_and_name_the_file(tmp_path, capsys):
    cfg = tmp_path / "nacf.conf"
    keys = "budget, format, precision, alpha_min"
    cases = [("precison = 3\n", f"line 1: expected key = value with a key in {keys}, "
                                 "got 'precison = 3'"),
             ("\n# note\nbudget 5\n", f"line 3: expected key = value with a key in {keys}, "
                                       "got 'budget 5'"),
             ("budget = x\n", "bad budget value 'x'"),
             ("precision = 4.5\n", "bad precision value '4.5'"),
             ("alpha_min = 0.1\n", "bad alpha_min value '0.1'")]
    for text, message in cases:
        cfg.write_text(text)
        sep = "," if message.startswith("line") else ":"
        assert run(capsys, "--config", str(cfg), "kset", "--N", "5") == (
            2, "", f"error: config file {cfg}{sep} {message}\n"), text


def test_closed_stdout_ends_quietly():
    # about 0.8 MB of rows, more than any pipe buffer, so the write after
    # the reader leaves fails whether or not stdout is buffered
    src = os.path.dirname(os.path.dirname(nacf.cli.__file__))
    with subprocess.Popen(
            [sys.executable, "-m", "nacf.cli", "kset", "--N", "2", "--alpha-min", "1/10000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.readline() == b"N,lo,hi,in_K,digit_lo,digit_hi\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""


def test_startup_imports_neither_dataclasses_nor_inspect():
    # a CLI run is one short process, and importing dataclasses (with
    # inspect, ast, dis and tokenize behind it) and building its classes
    # once took about 25 ms of each start
    src = os.path.dirname(os.path.dirname(nacf.cli.__file__))
    code = ("import sys, nacf.cli; nacf.cli.build_parser(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_outputs_reparse_to_exact_values(capsys):
    _, out, _ = run(capsys, "--format", "json", "interval", "--alpha", "13/72", "--N", "2")
    data = json.loads(out)
    assert parse_exact(data["interval"]["lo"]) == surd(-133, 1, 24033, 122)
    assert parse_exact(data["interval"]["hi"]) == surd(-273, 1, 91793, 166)


def test_determinism(capsys):
    a = run(capsys, "--format", "json", "match", "--alpha", "8/43", "--N", "2")
    b = run(capsys, "--format", "json", "match", "--alpha", "8/43", "--N", "2")
    assert a == b


SUBCOMMANDS = ("expand", "orbit", "match", "interval", "badrat", "kset",
               "nomatch-regions", "verify")


def test_main_builds_the_parser_only_for_help_and_errors(capsys, monkeypatch):
    built = []

    class Counted(nacf.cli._Parser):
        def __init__(self, **kwargs):
            built.append(kwargs["prog"])
            super().__init__(**kwargs)

    monkeypatch.setattr(nacf.cli, "_Parser", Counted)
    nacf.cli.build_parser()
    full = ["nacf"] + [f"nacf {name}" for name in SUBCOMMANDS]
    assert built == full
    built.clear()
    assert run(capsys, "expand", "--x", "2/9", "--N", "2", "--alpha", "2/9", "--n", "4") == (
        0, "[0; 8, 1, 1, 1]\n", "")
    assert built == []
    for argv in [["-h"], ["bogus"]] + [[name, "-h"] for name in SUBCOMMANDS]:
        built.clear()
        assert run(capsys, *argv)[0] in (0, 1)
        assert built == full, argv


# argv that _parse leaves to argparse: help, usage, errors and the forms only
# argparse reads (verify alone is well-formed, so it is in CANONICAL)
PARSE_CASES = [["-h"], []] + [[name, "-h"] for name in SUBCOMMANDS] \
    + [[name] for name in SUBCOMMANDS if name != "verify"] + [
        ["bogus"], ["interv", "--alpha", "2/9"], ["--bogus", "interval", "--alpha", "2/9"],
        ["match", "--alpha", "1/3", "--N", "2", "--no-such-option"],
        ["expand", "--x", "1/2"], ["badrat", "--n", "3", "extra"],
        ["badrat", "--n", "x"], ["orbit", "--x", "0.5", "--N", "2", "--alpha", "1/3"],
        ["verify", "--family", "v"], ["--format", "xml", "badrat", "--n", "3"],
        ["kset", "--N", "5", "--n-max", "3"], ["--config", "kset"],
        ["--form", "json", "badrat", "--n", "3"], ["verify", "--theorem", "--table"],
        ["kset", "--n-max", "3", "--N", "5"], ["kset", "--N", "5", "--N", "6"],
        ["--precision", "-1", "interval", "--alpha", "2/9"], ["--format=json", "kset", "--N", "5"],
        ["expand", "--x", "1/3", "--N", "2", "--alpha", "1/3", "--n", "-1"]]

# one well-formed argv per subcommand, in the canonical form that _parse reads
CANONICAL = [
    ["expand", "--x", "2/9", "--N", "2", "--alpha", "2/9", "--n", "4"],
    ["orbit", "--x", "2/9", "--N", "2", "--alpha", "2/9", "--budget", "50"],
    ["orbit", "--x", "(-2+1*sqrt(40))/2", "--N", "9", "--alpha", "19/10", "--quadratic"],
    ["match", "--alpha", "8/43", "--N", "2", "--budget", "100"],
    ["interval", "--alpha", "2/9"], ["badrat", "--n", "3"],
    ["kset", "--N", "5"], ["kset", "--alpha-min", "1/10", "--n-max", "4"],
    ["nomatch-regions", "--N", "5"],
    ["verify"], ["verify", "--family", "i", "--k", "0..2"], ["verify", "--table", "--k", "3"]]
CANONICAL += [["--format", "json", "--precision", "4", *argv] for argv in CANONICAL]


def test_direct_parse_writes_the_full_parsers_bytes(capsys, monkeypatch):
    # exit code, stdout and stderr of main equal those of main when argparse
    # parses every argv; argparse alone parses an argv that is not canonical
    for argv in PARSE_CASES:
        assert nacf.cli._parse(argv) is None, argv
    cases = PARSE_CASES + CANONICAL
    direct = [run(capsys, *argv) for argv in cases]
    monkeypatch.setattr(nacf.cli, "_parse", lambda argv: None)
    for argv, got in zip(cases, direct):
        assert got == run(capsys, *argv), argv


def test_canonical_argv_parses_directly():
    for argv in CANONICAL:
        args = nacf.cli._parse(argv)
        assert args is not None, argv
        full = nacf.cli.build_parser().parse_args(argv)
        assert list(vars(args).items()) == list(vars(full).items()), argv


_FLAGS = ["--config", "--format", "--precision", "--x", "--N", "--alpha", "--n",
          "--budget", "--quadratic", "--n-max", "--alpha-min", "--theorem", "--table",
          "--family", "--k",
          # prefixes, help, --opt=value and other near misses
          "--conf", "--form", "--prec", "--alp", "--bud", "--quad", "--n-m", "--alpha-m",
          "--the", "--tab", "--fam", "-h", "--help", "--N=2", "--alpha=1/3", "--format=json",
          "--k=0..2", "--", "-", "-n", "--X", "--bogus", "interval", "kset"]
_EXACT = ["1/3", "2/9", "7/5", "1", "(1+1*sqrt(2))/1"]
_GOOD = {"--config": ["nacf.conf", "kset"], "--format": ["json", "csv"],
         "--precision": ["4", "0"], "--x": _EXACT, "--alpha": _EXACT, "--alpha-min": _EXACT,
         "--N": ["2", "5"], "--n": ["3"], "--budget": ["40"], "--n-max": ["4"],
         "--family": ["i", "all"], "--k": ["0..2", "3"]}
_VALUES = ["2", "1/3", "0..2", "5..2", "json", "xml", "i", "v", "0.5", "x", "", " 4",
           "-1", "-3", "-1/3", "1e3", "1_0", "interval"]
_COMMANDS = list(SUBCOMMANDS) + ["interv", "Match", "nomatch", "kset2", "--N", "-h"]


def _draw_options(data, flags):
    """(flag, value or None) pairs: flags in any order, now and then one or
    two dropped, each mostly with a good value, and now and then a stray flag
    of any kind."""
    pairs, drop = [], data.draw(st.sampled_from([0, 0, 1, 1, 2]))
    for flag in data.draw(st.permutations(flags))[drop:]:
        good = data.draw(st.integers(0, 9)) > 0
        pairs.append((flag, data.draw(st.sampled_from(
            _GOOD.get(flag, [None]) if good else _VALUES + [None]))))
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        stray = (data.draw(st.sampled_from(_FLAGS)), data.draw(st.sampled_from(_VALUES + [None])))
        pairs.insert(data.draw(st.integers(0, len(pairs))), stray)
    return pairs


@settings(derandomize=True, max_examples=800, deadline=None)
@given(st.data())
def test_direct_parse_agrees_with_argparse(data):
    # an argv that _parse reads gives the Namespace that argparse gives
    command = data.draw(st.sampled_from(_COMMANDS))
    pairs = _draw_options(data, ["--config", "--format", "--precision"]) + [(command, None)] \
        + _draw_options(data, list(nacf.cli._COMMAND_INDEX.get(command, ["--bogus"])))
    argv = [token for pair in pairs for token in pair if token is not None]
    args = nacf.cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(nacf.cli.build_parser().parse_args(argv)), argv


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    # the path of the nacf console script, which calls main() bare
    for argv in (["interval", "--alpha", "2/9"], ["badrat", "-h"], ["bogus"],
                 ["--format", "json", "kset", "--N", "5"]):
        expected = run(capsys, *argv)
        monkeypatch.setattr(sys, "argv", ["nacf", *argv])
        code = main()
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected, argv
