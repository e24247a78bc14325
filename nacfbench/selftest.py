#!/usr/bin/env python3
"""The benchmark's own tests, at the smoke sizes of spec.json.

    python3 nacfbench/selftest.py

1. The oracle reproduces values documented for the paper's examples.
2. A crash with an item's documented defect is a known failure; any other
   crash, and a check that cannot read the output, make the item wrong.
3. Each workload passes its checks at smoke size, untraced and traced, and
   two traced runs with the same seed report identical counts.
4. In a directory holding only BENCHMARK.json and nacfbench/, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import oracle as O
from run import Runner
from workloads import MATCH_N3_DEFECT, Item, rationals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_oracle():
    _, _, _, verdict = O.rational_orbit(3, Fraction(73, 100), Fraction(40, 33), 1000)
    assert verdict == ("periodic", 25, 38), verdict
    (_, digits), _ = O.endpoint_orbits(2, Fraction(2, 9), 4)
    assert digits == [8, 1, 1, 1], digits
    assert O.minimal_match(2, Fraction(2, 9), 40)[:2] == (1, 5)
    pair, da, db, _ = O.stable_pair(2, Fraction(2, 9), 40)
    assert pair == (3, 5), pair
    interval = {"lo": "(-17+3*sqrt(41))/10", "hi": "(-2+1*sqrt(6))/2",
                "lo_open": True, "hi_open": True}
    assert not O.interval_problems(2, Fraction(2, 9), da, db, 3, 5, interval, None)
    interval["lo"] = "(-16+3*sqrt(41))/10"
    assert O.interval_problems(2, Fraction(2, 9), da, db, 3, 5, interval, None)
    assert O.stable_pair(2, Fraction(1, 8), 40)[0] is None
    scan = rationals(40, Fraction(0), 2, offset=1)
    assert len(scan) == 203 and sum(O.stable_pair(2, a, 40)[0] is None for a in scan) == 161
    rows = O.kset_rows(5, Fraction(1, 100))
    assert rows[-1][2] == "1.2360679775" and rows[-1][3] is True, rows[-1]
    assert all(r1[2] == r2[1] for r1, r2 in zip(rows, rows[1:]))
    text, coprime = O.nomatch_region(9)
    assert coprime and text.startswith("((-3+3*sqrt(5))/2 ~ 1.8541019662, 2 ~ 2.0000000000]"), text
    x0 = O.quad(0, 1, 3)
    assert O.certified_nonperiodic_quad(5, Fraction(11, 10), x0)
    lines, verdict = O.quad_orbit_lines(5, Fraction(11, 10), x0, 40)
    assert verdict == "NoPeriodWithinBudget" and lines[0]["A"] == 1 and lines[0]["C"] == -3
    print("oracle: ok")


def check_outcomes():
    class Cli:
        @staticmethod
        def main(argv):
            if argv[0] == "defect":
                raise AttributeError("'MatchReport' object has no attribute 'obstruction'")
            if argv[0] == "crash":
                raise ValueError("unexpected")
            print('{"interval": null}')
            return 0

    def unreadable(code, out):
        return json.loads(out)["interval"]["lo"]

    items = [Item("n3", ("defect",), lambda code, out: None, MATCH_N3_DEFECT),
             Item("n3", ("crash",), lambda code, out: None, MATCH_N3_DEFECT),
             Item("k", ("defect",), lambda code, out: None),
             Item("k", ("out",), unreadable),
             Item("k", ("out",), lambda code, out: None)]
    runner = Runner(Cli, [], items, 1.0)
    statuses = [runner.run_item(i)[2] for i in range(len(items))]
    assert statuses == ["known", "wrong", "wrong", "wrong", "ok"], statuses
    assert (runner.known, runner.wrong) == (1, 3)
    print("outcomes: ok")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("nacfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout, proc.stderr


def check_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for trace in ("0", "1", "1"):
            code, out, err = bench("--workload", name, "--seed", "7", "--seconds", "1",
                                   "--trace", trace, "--smoke")
            assert code == 0, err
            result = json.loads(out.splitlines()[-1])
            assert result["correct"], err
            kind = "end_to_end" if trace == "0" else "per_layer"
            assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[kind])
            runs.append(result)
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if not k.endswith("self_s") and k != "trace_overhead"} for r in runs[1:]]
        assert counts[0] == counts[1], "traced counts differ between two runs"
        print(f"{name}: ok ({runs[0]['attempted']} items, {runs[0]['failed']} known failures)")


def check_isolated():
    scratch = os.path.join(HERE, "out", "isolated")
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(scratch, "nacfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    code, out, _ = bench("--workload", "cells", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=scratch)
    shutil.rmtree(scratch)
    assert code != 0 and '"correct"' not in out, (code, out)
    print("isolated checkout: exits", code, "without a result")


if __name__ == "__main__":
    check_oracle()
    check_outcomes()
    check_workloads()
    check_isolated()
