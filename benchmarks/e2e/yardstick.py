"""A fixed pure-Python kernel that measures how fast the host runs now.

The host's speed is not steady: it runs Python 20-60% slower for
stretches of seconds to minutes while the process keeps its CPU.  So
``run.py`` times this kernel between consecutive timed ops (and
set-ups) and divides each op's time by the mean of the kernel's times
just before and just after it.  The kernel does the kind of work the
simulator does -- attribute access on slotted objects, list and dict
indexing, masked integer arithmetic, a small set-associative lookup --
so a slow stretch slows both alike.

The kernel lives with the benchmark and never changes with the
simulator, so a faster simulator reads faster.  Its garbage collection
is held off while it runs: a collection then would scan the simulator's
heap and charge it to the kernel.
"""

from __future__ import annotations

import gc
import time

#: Loop iterations of one kernel run: 12-16 ms on the reference host.
ITERATIONS = 20_000

#: About the kernel's median time between ops on the reference host (2
#: vCPU Intel Xeon, Python 3.11.7).  Times are reported in reference
#: seconds, ``elapsed / kernel time * REFERENCE_S``: roughly the wall
#: seconds of that host at its usual speed.
REFERENCE_S = 0.013


class _Way:
    __slots__ = ("tag", "age")

    def __init__(self):
        self.tag = -1
        self.age = 0


def kernel(iterations: int = ITERATIONS) -> int:
    """A toy register machine with a 64-set, 4-way cache in front of a
    dict memory; returns the cache hits."""
    regs = [0] * 32
    memory = {}
    sets = [[_Way() for _ in range(4)] for _ in range(64)]
    x = 1
    hits = 0
    for i in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        rd = x & 31
        rs = (x >> 5) & 31
        kind = (x >> 10) & 3
        if kind == 0:
            regs[rd] = (regs[rs] + x) & 0xFFFFFFFF
        elif kind == 1:
            addr = (regs[rs] + (x >> 12)) & 0xFFFF
            line = addr >> 4
            ways = sets[line & 63]
            for way in ways:
                if way.tag == line:
                    way.age = i
                    hits += 1
                    break
            else:
                victim = min(ways, key=lambda w: w.age)
                victim.tag = line
                victim.age = i
            regs[rd] = memory.get(addr, 0)
        elif kind == 2:
            memory[(regs[rs] + i) & 0xFFFF] = regs[rd]
        else:
            regs[rd] = regs[rs] ^ (regs[rd] << 1) & 0xFFFFFFFF
    return hits


def reference_seconds(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` wall seconds in reference seconds, given the kernel's
    times just before and just after them."""
    return elapsed / ((before + after) / 2) * REFERENCE_S


def measure() -> float:
    """Seconds one kernel run takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
