#!/usr/bin/env python3
"""Benchmark of the nacf command line, three seeded workloads run in-process.

    python3 nacfbench/run.py --workload cells|scan|deep --seed N \\
        --seconds S --trace 0|1 [--smoke]

Run from the repository root; nacf is imported from ./src.  One closed-loop
client runs the workload's fixed item list through ``nacf.cli.main(argv)``,
one item at a time with stdout captured, and repeats the list until
`--seconds` have passed (at least MIN_PASSES times).  Before each item every
functools cache in nacf is cleared, so each item starts as a fresh process
would.  Each item is bracketed by the machine-speed reference chunk, and
its time is scaled to normalised seconds (see reference.py).  Outputs are
checked against the standard-library oracle outside the timed region.
An item that crashes with its workload's documented defect is a known
failure; any other crash, and any output the oracle rejects, is wrong and
makes the run incorrect.

``--trace 0`` prints the end-to-end metrics: wall_s (the sum of the items'
median normalised times over passes), item_p50_ms and item_tail_ms (over
the same per-item medians), setup_s (fresh interpreter + import + build_parser, median
of SETUP_STARTS starts), peak_rss_mb and ok_ratio.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
tracing.py plus trace_overhead.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
diagnostics, which are also written with the spans under nacfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import platform
import statistics
import subprocess
import sys
import time
import traceback

import reference
import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_PASSES = 3
MAX_MEASURE_S = 120.0                 # stop adding passes past this, to end within 180 s
SETUP_STARTS = 21
TAIL_PERCENTILES = (99, 95, 90, 80, 75, 70, 50)
SETUP_CODE = "import nacf.cli; nacf.cli.build_parser()"


def load_nacf():
    """Import nacf from the checkout's src directory and list its modules."""
    sys.path.insert(0, SRC)
    try:
        nacf = importlib.import_module("nacf")
        cli = importlib.import_module("nacf.cli")
    except ImportError as exc:
        raise SystemExit(f"nacfbench: cannot import nacf from {SRC}: {exc}")
    if not os.path.abspath(nacf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"nacfbench: nacf was imported from {nacf.__file__}, not {SRC}")
    modules = [importlib.import_module(f"nacf.{m.name}")
               for m in pkgutil.iter_modules(nacf.__path__)]
    return cli, modules


def nacf_caches(modules) -> list:
    found = {}
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and \
                    getattr(obj, "__module__", "").startswith("nacf"):
                found[id(obj)] = obj
    return list(found.values())


class Runner:
    """Runs items in-process, times them against the reference loop, and
    checks each distinct output once."""

    def __init__(self, cli, modules, items, share: float):
        self.cli = cli                # main is looked up per call, so tracing can wrap it
        self.share = share            # of item time that slows as the reference chunk does
        self.caches = nacf_caches(modules)
        self.items = items
        self.verdicts = {}            # (item, exit code, error, output digest) -> problem
        self.attempted = self.wrong = self.known = 0
        self.problems = []
        self.log = []                 # (item, raw seconds, reference before, after)

    def run_item(self, index: int, tracer=None):
        """(normalised seconds, output bytes, status) of one execution."""
        item = self.items[index]
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        ref_before = reference.measure()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(item.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:      # a crash is a failed item; the run goes on
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            error = (f"{type(exc).__name__}: {exc} "
                     f"(at {os.path.basename(frame.filename)}:{frame.lineno})")
        elapsed = time.perf_counter() - start
        ref_after = reference.measure()
        scale = 1 / reference.slowdown(ref_before, ref_after, self.share)
        self.log.append((index, elapsed, ref_before, ref_after))
        if tracer is not None:
            tracer.end_item(scale)
        text = out.getvalue()
        data = text.encode()
        status = self._verdict(index, code, error, text, data)
        return elapsed * scale, len(data), status

    def _verdict(self, index, code, error, text, data) -> str:
        self.attempted += 1
        item = self.items[index]
        known = error is not None and item.known_defect is not None \
            and error.startswith(item.known_defect)
        key = (index, code, error, hashlib.blake2b(data, digest_size=16).digest())
        if key not in self.verdicts:
            problem = error
            if error is None:
                try:
                    problem = item.check(code, text)
                except Exception as exc:   # malformed output the check could not read
                    problem = f"check raised {type(exc).__name__}: {exc}"
            self.verdicts[key] = problem
            if problem:
                label = "known defect" if known else "wrong"
                self.problems.append(f"{' '.join(item.argv)}: {label}: {problem}")
        if known:
            self.known += 1
            return "known"
        if self.verdicts[key]:
            self.wrong += 1
            return "wrong"
        return "ok"

    def run_pass(self, tracer=None) -> dict:
        times, out_bytes, failed = [], 0, 0
        for index in range(len(self.items)):
            if tracer is not None:
                tracer.item = index
            seconds, size, status = self.run_item(index, tracer)
            times.append(seconds)
            out_bytes += size
            failed += status != "ok"
        return {"times": times, "wall": sum(times), "out_bytes": out_bytes, "failed": failed}


def measure_setup(starts: int) -> list[float]:
    """Normalised seconds for a fresh interpreter to import nacf and build
    the CLI parser; one unmeasured start first writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", SETUP_CODE]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(starts):
        ref_before = reference.measure()
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        elapsed = time.perf_counter() - start
        ref_after = reference.measure()
        times.append(elapsed / reference.slowdown(ref_before, ref_after, 1.0))
    return times


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of all order statistics.  Unlike a single order
    statistic it does not jump with the noise of one item."""
    ordered, n = sorted(values), len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    steps = 100 * n                   # midpoint rule, 100 points per order statistic
    for k in range(steps):
        t = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(log_norm + (a - 1) * math.log(t)
                                            + (b - 1) * math.log1p(-t))
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def measure_peak_rss(items) -> float:
    """Peak resident MB of a fresh process running the item list once."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "memory.py")], cwd=ROOT,
                          input=json.dumps([list(item.argv) for item in items]),
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def tail_percentile(n: int) -> int:
    """The highest listed percentile with at least ten of n items beyond it."""
    return next(p for p in TAIL_PERCENTILES
                if n - math.ceil(n * p / 100) >= 10 or p == TAIL_PERCENTILES[-1])


def end_to_end(runner: Runner, passes: list[dict], setup: list[float],
               peak_rss_mb: float) -> tuple[dict, dict]:
    per_item = [statistics.median(run["times"][i] for run in passes)
                for i in range(len(runner.items))]
    percentile = tail_percentile(len(per_item))
    values = {
        "wall_s": sum(per_item),
        "item_p50_ms": harrell_davis(per_item, 0.5) * 1000,
        "item_tail_ms": harrell_davis(per_item, percentile / 100) * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (runner.attempted - runner.wrong - runner.known) / runner.attempted,
    }
    kinds = {}
    for item, seconds in zip(runner.items, per_item):
        kinds[item.kind] = kinds.get(item.kind, 0.0) + seconds
    diagnostics = {"tail_percentile": percentile, "tail_samples": len(per_item),
                   "kind_s": kinds,
                   "passes": len(passes), "pass_walls_s": [run["wall"] for run in passes],
                   "setup_starts_s": setup}
    return values, diagnostics


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    values = dict(traced[0]["layers"])
    for key in values:
        if key.endswith(".self_s"):
            values[key] = statistics.median(run["layers"][key] for run in traced)
    values["cli.output_bytes"] = traced[0]["out_bytes"]
    values["cli.failed"] = traced[0]["failed"]
    values["trace_overhead"] = statistics.median(run["wall"] for run in traced) / \
        statistics.median(run["wall"] for run in plain)
    return values


def measure(runner: Runner, seconds: float, min_passes: int, tracer=None) -> tuple[list, list]:
    """Passes until `seconds` have elapsed: plain passes, or plain and traced
    passes in turn when a tracer is given.  Spans come from the first
    traced pass, so its counts are those of exactly one pass."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        if tracer is not None:
            tracer.reset()
            tracer.record = not traced
            tracer.install()
            try:
                run = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            run["layers"] = tracer.metrics()
            traced.append(run)
        elapsed = time.perf_counter() - start
        enough = len(plain) >= min_passes or tracer is not None
        if (enough and elapsed >= seconds) or elapsed >= MAX_MEASURE_S:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="the spec's smoke sizes, one pass, no set-up timing")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})     # the reference loop and the items share one core
    cli, modules = load_nacf()

    size = spec["sizes"]["smoke" if args.smoke else "full"][args.workload]
    items = workloads.build(args.workload, args.seed, size)
    runner = Runner(cli, modules, items, workloads.REFERENCE_SHARE[args.workload])
    tracer = Tracer(modules) if args.trace else None
    setup = measure_setup(1 if args.smoke else SETUP_STARTS) if not args.trace else []
    if args.smoke:
        plain, traced = measure(runner, 0, 1, tracer)
    else:
        plain, traced = measure(runner, args.seconds, MIN_PASSES, tracer)

    diagnostics = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "items": len(items), "cpu": cpu, "python": platform.python_version(),
                   "reference_chunks_per_s": 1 / statistics.median(
                       ref for *_, before, after in runner.log for ref in (before, after)),
                   "problems": runner.problems[:20]}
    if args.trace:
        values = per_layer(plain, traced)
        metrics = bench["per_layer"]
        os.makedirs(OUT, exist_ok=True)
        diagnostics["spans"] = tracer.write_spans(
            os.path.join(OUT, f"{args.workload}-seed{args.seed}"))
        diagnostics["layers"] = values
    else:
        values, extra = end_to_end(runner, plain, setup, measure_peak_rss(items))
        diagnostics.update(extra)
        metrics = bench["end_to_end"]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"nacfbench: metrics not measured: {missing}")
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.wrong + runner.known,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in metrics}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"result": result, "diagnostics": diagnostics, "executions": runner.log}, fh)
    for problem in runner.problems:
        print(f"nacfbench: {problem}", file=sys.stderr)
    print(json.dumps({"diagnostics": {k: v for k, v in diagnostics.items() if k != "layers"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
