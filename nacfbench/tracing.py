"""Outside-in tracing of nacf's layers, from the benchmark's own files.

:class:`Tracer` wraps every public function of nacf's modules, in every
module namespace that holds it (so ``from .exact import compare_exact``
copies are traced too, and calls between layers become spans).  A span is
(name, start, end, parent, item); spans live in flat arrays and are written
out at the end of the run.  A span's self time is its duration minus the
time its child spans cover, accumulated as the spans close.

Besides calls and self time per function, the wrappers count the measures
an optimisation of one layer is expected to move: digits multiplied in
branch products, orbit steps and operand bits, cycle and interval
outcomes, kset cells and cache reuse, and orbits computed per matching
entry call.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
import types
from array import array
from collections import Counter, OrderedDict, defaultdict

MAX_SPANS = 4_000_000


def _public_functions(modules):
    """(module, attribute, function, span name) for every public function
    defined in one of `modules`, in each of their namespaces."""
    own = {m.__name__ for m in modules}
    found = []
    for module in modules:
        for attr, obj in vars(module).items():
            defined_in = getattr(obj, "__module__", None)
            if attr.startswith("_") or defined_in not in own or inspect.isclass(obj):
                continue
            if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
                continue
            if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
                continue      # a span would time only the generator's creation
            name = f"{defined_in.rsplit('.', 1)[-1]}.{obj.__name__}"
            found.append((module, attr, obj, name))
    return found


def _int_bits(state) -> int:
    fields = [getattr(state, f, 0) for f in ("t", "s", "A", "B", "C")]
    value = getattr(state, "value", 0)
    fields += [getattr(value, f, 0) for f in ("numerator", "denominator", "a", "b", "c")]
    return max(abs(v).bit_length() for v in fields if isinstance(v, int))


class Tracer:
    def __init__(self, modules):
        self.targets = _public_functions(modules)
        self.names = sorted({name for *_, name in self.targets})
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.wrappers = {}
        for _, _, fn, name in self.targets:
            if id(fn) not in self.wrappers:
                self.wrappers[id(fn)] = self._wrap(fn, name)
        kset = next((fn for _, _, fn, name in self.targets if name == "paramspace.kset"), None)
        self.kset_maxsize = kset.cache_info().maxsize if hasattr(kset, "cache_info") else 0
        self.record = False
        self.item = -1
        self.stack = []
        self.starts, self.ends = array("d"), array("d")
        self.name_ids, self.parents, self.items = array("i"), array("i"), array("i")
        self.dropped = 0
        self.reset()

    def reset(self):
        """Start a new traced pass: zero every counter, keep recorded spans."""
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.item_self = defaultdict(float)
        self.count = Counter()
        self.max_bits = Counter()
        self.matching_active = 0
        self.kset_lru = OrderedDict()

    # -- installation ----------------------------------------------------

    def install(self):
        for module, attr, fn, _ in self.targets:
            setattr(module, attr, self.wrappers[id(fn)])

    def uninstall(self):
        for module, attr, fn, _ in self.targets:
            setattr(module, attr, fn)

    # -- spans -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        name_id = self.ids[name]
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            entry = layer == "matching" and (parent is None or parent[2] != "matching")
            if entry:
                tracer.count["matching.entries"] += 1
                tracer.matching_active += 1
            index = -1
            if tracer.record:
                if len(tracer.starts) < MAX_SPANS:
                    index = len(tracer.starts)
                    tracer.name_ids.append(name_id)
                    tracer.parents.append(parent[1] if parent else -1)
                    tracer.items.append(tracer.item)
                    tracer.starts.append(0.0)
                    tracer.ends.append(0.0)
                else:
                    tracer.dropped += 1
            frame = [0.0, index, layer]
            stack.append(frame)
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.item_self[name] += end - start - frame[0]
                if index >= 0:
                    tracer.starts[index], tracer.ends[index] = start, end
                if entry:
                    tracer.matching_active -= 1
                tracer._measure(name, args, kwargs, result, ok)
                if parent is not None:
                    # bookkeeping time counts as a child, so no parent's self time holds it
                    parent[0] += time.perf_counter() - start

        return traced

    def _measure(self, name, args, kwargs, result, ok):
        count = self.count
        if name == "expansion.branch_product":
            digits = kwargs.get("digits", args[1] if len(args) > 1 else ())
            count["expansion.branch_product.digits"] += len(digits)
        elif name in ("orbits.orbit_rational", "orbits.orbit_quadratic") and ok:
            count[name + ".steps"] += len(result.digits)
            bits = max(_int_bits(st) for st in result.states)
            self.max_bits[name] = max(self.max_bits[name], bits)
            count["orbits.orbits"] += 1
            count["orbits.cycles"] += bool(getattr(result.verdict, "is_periodic", False))
            if name == "orbits.orbit_rational" and self.matching_active:
                count["matching.orbits_in_entries"] += 1
        elif name == "matching.matching_interval":
            count["matching.intervals_found"] += ok
        elif name == "paramspace.kset" and ok:
            count["paramspace.kset.cells"] += len(result)
            self._replay_kset_cache(args, kwargs)

    def _replay_kset_cache(self, args, kwargs):
        """Replay kset's arguments through an LRU of kset's own cache size
        that lives for the whole pass.  The runner clears nacf's caches before
        each item, as a fresh process would, and one CLI call asks for each
        (N, alpha_min) at most once, so the real cache never hits.  The replay
        counts the hits the cache would get in a process that ran the pass."""
        key = (args, tuple(sorted(kwargs.items())))
        lru = self.kset_lru
        if key in lru:
            lru.move_to_end(key)
            self.count["paramspace.kset.hits"] += 1
            return
        self.count["paramspace.kset.misses"] += 1
        if self.kset_maxsize == 0:
            return
        lru[key] = None
        if self.kset_maxsize is not None and len(lru) > self.kset_maxsize:
            lru.popitem(last=False)

    def end_item(self, scale: float):
        """Close an item: scale its self times to normalised seconds."""
        for name, raw in self.item_self.items():
            self.self_s[name] += raw * scale
        self.item_self.clear()

    # -- results ---------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer measure of the current pass, by metric name."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.count
        out["expansion.branch_product.digits"] = c["expansion.branch_product.digits"]
        for name in ("orbits.orbit_rational", "orbits.orbit_quadratic"):
            out[f"{name}.steps"] = c[f"{name}.steps"]
            out[f"{name}.max_bits"] = self.max_bits[name]
        out["orbits.cycle_ratio"] = _ratio(c["orbits.cycles"], c["orbits.orbits"])
        out["matching.orbits_per_entry"] = _ratio(c["matching.orbits_in_entries"],
                                                  c["matching.entries"])
        out["matching.interval_found_ratio"] = _ratio(
            c["matching.intervals_found"], self.calls["matching.matching_interval"])
        out["paramspace.kset.cells"] = c["paramspace.kset.cells"]
        out["paramspace.kset.cache_hit_ratio"] = _ratio(
            c["paramspace.kset.hits"], c["paramspace.kset.hits"] + c["paramspace.kset.misses"])
        return out

    def write_spans(self, path_stem: str) -> dict:
        """Spans as a gzip of five arrays in native byte order (start and end
        in seconds as float64; name id, parent span and item as int32), plus
        a JSON header naming the layout."""
        arrays = [("start", self.starts), ("end", self.ends), ("name", self.name_ids),
                  ("parent", self.parents), ("item", self.items)]
        with gzip.open(path_stem + ".spans.gz", "wb", compresslevel=1) as fh:
            for _, arr in arrays:
                fh.write(arr.tobytes())
        header = {"spans": len(self.starts), "dropped": self.dropped, "names": self.names,
                  "byteorder": sys.byteorder,
                  "layout": [[key, arr.typecode, arr.itemsize] for key, arr in arrays]}
        with open(path_stem + ".spans.json", "w") as fh:
            json.dump(header, fh)
        return header


def _ratio(num, den) -> float:
    return num / den if den else 0.0
