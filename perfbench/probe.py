"""Host-speed probe: divides a shared host's slow spells out of request times.

On a shared host the same request can take a third longer or shorter
from one second to the next while nothing in the program changes, and
whole runs drift by as much.  Such spells slow any code on the core,
so a fixed task that uses none of the program's code slows with them.
The worker runs that task between requests, at most every
``INTERVAL_S`` of wall clock, and reports each request's time scaled by
``REFERENCE_S / probe``, where ``probe`` is the mean of the samples
taken just before and just after it; set-up time is scaled by samples
taken before and after set-up.  The end-to-end times are thus in
seconds of a host on which the probe takes ``REFERENCE_S``.  A
change to the program moves them exactly as it moves the wall time;
the raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

#: A typical probe sample on the shared 2-vCPU Linux guest (CPython 3)
#: the benchmark was tuned on, where samples ranged 0.6 to 1.1 ms.
REFERENCE_S = 1.0e-3
#: Least wall clock between two samples.
INTERVAL_S = 0.1
#: Probe runs per sample; the sample is their median.
REPEATS = 3

_DATA = [random.Random(1).random() for _ in range(3000)]


def _task() -> int:
    """Interpreter dispatch, hashing, formatting and sorting, as in the
    program.  It makes almost no containers, so it never sets off the
    cyclic collector, whose cost would follow the program's heap."""
    table = {}
    for i, x in enumerate(_DATA):
        table[str(i)] = x * 1.5
    return len(table) + len(sorted(_DATA))


class HostProbe:
    """Probe samples of one timed phase, keyed by the request they precede."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []
        self.cpu_s = 0.0
        self._last = float("-inf")

    def maybe_sample(self, before_request: int, *, force: bool = False) -> None:
        if not force and time.perf_counter() - self._last < INTERVAL_S:
            return
        cpu = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _task()
            runs.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self.cpu_s += time.process_time() - cpu
        self.samples.append((before_request, statistics.median(runs)))
        self._last = time.perf_counter()

    def scales(self, requests: int) -> list[float]:
        """``REFERENCE_S / probe`` for each request ``0 .. requests-1``, the
        probe being the mean of the nearest samples before and after it."""
        out = []
        k = 0
        for i in range(requests):
            while k + 1 < len(self.samples) and self.samples[k + 1][0] <= i:
                k += 1
            after = k + 1 if k + 1 < len(self.samples) else k
            probe = (self.samples[k][1] + self.samples[after][1]) / 2
            out.append(REFERENCE_S / probe)
        return out
