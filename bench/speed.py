"""Host-speed scaling of the benchmark's timings.

The benchmark runs on a shared host whose CPU speed moves with its
neighbours' load, by up to 1.8x within a minute, for every core at once.
A run therefore times a short fixed loop (`reference`) between every two
timed calls. A call's CPU time is divided by the mean of the two loop times
around it and multiplied by the loop's nominal time REFERENCE_S; the rest
of its wall time, spent waiting (on the LLM stub's hold, say), is kept as
measured. The sum is the call's wall time at a fixed host speed. A change
to the program does not change the loop, so it moves this time as it moves
the wall time.
"""

from __future__ import annotations

import gc
import json
import resource
import time

#: The reference loop's wall time taken as the fixed host speed (about its
#: median on the machine of bench/README.md's figures).
REFERENCE_S = 0.0025


def reference() -> float:
    """Wall time of fixed pure-Python work of the kinds the package does:
    integer arithmetic, then float arithmetic on small dicts and a small
    JSON round trip. The garbage collector is held off meanwhile, so that
    the time does not depend on how many objects the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        s = 0
        for i in range(15000):
            s += i * i % 7
        state = {"g": 0.5, "c": 0.4, "m": 0.3}
        rows = []
        for i in range(150):
            g, c, m = state["g"], state["c"], state["m"]
            k = 0.5 * g - 0.1 * c * m + 0.01 * i
            state = {"g": g + 0.001 * k, "c": c * 0.999 + 0.0001, "m": m + 0.0002 * k}
            rows.append(dict(state, t=i))
        json.loads(json.dumps(rows))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _cpu() -> float:
    """CPU seconds of this process's threads and of the children it has
    waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Clock:
    """Times calls with a reference loop between each two, so that every
    call has a loop just before and just after it."""

    def __init__(self):
        self._last = reference()

    def timed(self, fn, *args, **kwargs):
        """Call fn. Returns (result, wall seconds of the call, the call's
        seconds at the fixed host speed)."""
        cpu0 = _cpu()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        cpu = min(_cpu() - cpu0, wall)
        before, self._last = self._last, reference()
        return result, wall, wall - cpu + cpu * REFERENCE_S / ((before + self._last) / 2.0)
