"""Machine-speed reference loop.  Standard library only; never imports nacf.

The benchmark's host changes speed by tens of percent within a second.
Each item is therefore bracketed by runs of one reference chunk:
interpreter-bound Fraction arithmetic on small numbers, with tuples, dicts,
integer growth and formatting, the kind of work most of nacf does.  The
chunk's slowdown is its mean time around the item over NOMINAL_S.  A
workload sets the share of its time that slows as the chunk does (see
workloads.REFERENCE_SHARE); the item's slowdown blends the chunk's with
none, and its normalised time is its raw time over that slowdown.  A
normalised second is a second at the speed where one chunk takes NOMINAL_S.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

NOMINAL_S = 0.0025


def chunk() -> int:
    x, alpha = Fraction(40, 33), Fraction(73, 100)
    t, s = 40, 33
    seen = {}
    acc = 0
    for i in range(120):
        d = math.floor(3 / x - alpha)
        x = 3 / x - d if alpha <= 3 / x - d <= alpha + 1 else Fraction(t % 97 + 50, 97)
        t, s = 5 * s - (d + 1) * t, t
        seen[(x.numerator % 1000003, i)] = d
        acc += len(str(t)) + d
    n = 1
    for i in range(1, 120):
        n = n * (2 * i + 1) + i
        acc += math.isqrt(n) & 7
    return acc + len(json.dumps({"k": [str(n), acc, len(seen)]}))


def measure() -> float:
    """Seconds per chunk, timed over two chunks."""
    start = time.perf_counter()
    chunk()
    chunk()
    return (time.perf_counter() - start) / 2


def slowdown(before: float, after: float, share: float) -> float:
    """Machine slowdown around one measurement, relative to NOMINAL_S, for
    work of which `share` slows as the chunk does and the rest not at all."""
    return 1 - share + share * (before + after) / (2 * NOMINAL_S)
