"""Shape of the committed benchmark records, BENCH_*.json at the repository root.

Each record compares a parent commit with a change on every workload that
BENCHMARK.json declares, for every end-to-end metric it names.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
METRICS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def _summary_ok(summary) -> bool:
    q = [summary.get(k) for k in ("q1", "median", "q3")]
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in q) \
        and q[0] <= q[1] <= q[2]


def test_bench_records_have_the_benchmarks_shape():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no BENCH_*.json at the repository root"
    for path in files:
        data = json.loads(path.read_text())
        assert data["records"], f"{path.name}: no records"
        for record in data["records"]:
            where = f"{path.name} {record.get('change')!r}"
            assert record["parent"] and record["change"], where
            assert record["seeds"] and all(isinstance(s, int) for s in record["seeds"]), where
            assert record["python"].count(".") == 2, where
            assert set(record["workloads"]) >= set(WORKLOADS), where
            for name in WORKLOADS:
                metrics = record["workloads"][name]["metrics"]
                for metric, unit in METRICS.items():
                    entry = metrics[metric]
                    assert entry["unit"] == unit, (where, name, metric)
                    for side in ("parent", "change"):
                        assert _summary_ok(entry[side]), (where, name, metric, side)
        for past in data.get("history", []):
            assert past["commit"] and past["metric"] in METRICS, (path.name, past)
            assert past["workload"] in WORKLOADS, (path.name, past)
            assert past["parent"] > 0 and past["change"] > 0, (path.name, past)
