"""A fixed piece of work that tells how fast the host is right now.

The benchmark's host shares its cores: the same code runs 1.0x to 1.8x
slower for seconds to minutes at a time (CPU time grows with wall time,
steal stays 0), which is more than any regression bound.  The routine
below runs none of the program's code, never changes, and is timed
after every set-up and every repetition of an invocation;
``median(samples) / QUIET_S`` is the invocation's *slowdown*, and the
host-time metrics are divided by it (``perf/README.md``, "Steadiness").

Two halves, because the program is slowed by both: a bytecode loop on
integers, and the heap / dict / small-object churn of an event
simulator.  Its working set is small, so peak RSS stays the program's,
and the collector is off while it runs, so the program's live heap does
not count in it.  Larger working sets (random reads in 30 MB, pointer
chasing in 8 MB) were tried and over-react: they slow down three times
as much as the program does.

Never edit the routine or the constant: corrected metrics of two
commits are comparable only through them.
"""

from __future__ import annotations

import gc
import heapq
import time

#: What :func:`sample_s` reads on this host (2 vCPUs, CPython 3.11) in
#: a quiet phase.  It only fixes the scale: corrected seconds are "as on
#: a quiet host of this kind".
QUIET_S = 0.42


def sample_s() -> float:
    """Host seconds the fixed work takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        x = 0
        for i in range(3_000_000):
            x += i * i & 7
        heap: list = []
        state: dict = {}
        for i in range(120_000):
            heapq.heappush(heap, ((i * 7919) % 10007, i, ("msg", i, (i, i + 1))))
            if len(heap) > 4000:
                t, j, m = heapq.heappop(heap)
                state[j % 5000] = {"k": m, "v": [t, j], "c": dict(a=t, b=j)}
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
