"""Peak memory of one nacf CLI process that runs a workload's item list.

    python3 nacfbench/memory.py < argv-lists.json

Reads a JSON list of argument vectors and runs each through
``nacf.cli.main`` in this process, discarding the output as a CLI writing
to a pipe would, with nacf's functools caches cleared and garbage
collected between items.  Prints the process's peak resident memory in MB.
The harness (oracle, item list, timings) stays in the parent, so the figure
is the footprint of the CLI work alone.

The peak is VmHWM from /proc/self/status, the high-water mark of this
process's own address space.  getrusage's ru_maxrss would not do: Linux
carries the forking parent's peak over into the child across exec.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys

from run import load_nacf, nacf_caches


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def main():
    argvs = json.load(sys.stdin)
    cli, modules = load_nacf()
    caches = nacf_caches(modules)
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(_Discard()):
        for argv in argvs:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            try:
                cli.main(argv)
            except (Exception, SystemExit):   # failures are counted by the timed passes
                pass
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(peak_kb / 1024)


if __name__ == "__main__":
    main()
