import json

from nacf.cli import main
from nacf.exact import parse_exact, surd


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


def test_match_above_two_reports_the_match(capsys):
    # a found match for N != 2 has no obstruction to report and no interval
    code, out, _ = run(capsys, "--format", "json", "match", "--alpha", "73/100", "--N", "3")
    assert code == 0
    data = json.loads(out)
    assert (data["K"], data["L"], data["stable"]) == (3, 3, "stable")
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
    for bad in ("0", "-1/3", "3", "(-1+1*sqrt(5))/1"):
        code, out, err = run(capsys, "kset", "--N", "5", f"--alpha-min={bad}")
        assert code == 2 and out == "" and "alpha_min" in err


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


def test_parse_errors_exit_one(capsys):
    assert run(capsys, "expand", "--x", "0.73", "--N", "2", "--alpha", "1/3", "--n", "2")[0] == 1
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys, "expand", "--x", "1/2")[0] == 1


def test_verify_rejects_an_empty_k_range(capsys):
    code, out, err = run(capsys, "verify", "--k", "5..2")
    assert code == 1 and out == ""
    assert err.startswith("usage: nacf verify")


def test_domain_errors_exit_two(capsys):
    code, _, err = run(capsys, "expand", "--x", "5/1", "--N", "2", "--alpha", "1/3", "--n", "2")
    assert code == 2 and "outside" in err
    code, _, err = run(capsys, "expand", "--x", "1/2", "--N", "2", "--alpha", "1/2", "--n", "2")
    assert code == 2


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


def test_outputs_reparse_to_exact_values(capsys):
    _, out, _ = run(capsys, "--format", "json", "interval", "--alpha", "13/72", "--N", "2")
    data = json.loads(out)
    assert parse_exact(data["interval"]["lo"]) == surd(-133, 1, 24033, 122)
    assert parse_exact(data["interval"]["hi"]) == surd(-273, 1, 91793, 166)


def test_determinism(capsys):
    a = run(capsys, "--format", "json", "match", "--alpha", "8/43", "--N", "2")
    b = run(capsys, "--format", "json", "match", "--alpha", "8/43", "--N", "2")
    assert a == b
