"""Host speed, measured by a fixed pure-Python calibration loop.

On a shared machine the speed of one core changes by up to 2x within
seconds, as other tenants come and go; the drift moves wall time and
CPU time alike.  The benchmark therefore runs a short calibration loop
around every timed unit (one point, one job) and scales the unit's host
seconds by ``REFERENCE_S / measured``: every timing is reported in
seconds *at the reference host speed*.  The loop does the kind of work
the simulator does (heap pushes and pops, dict and tuple traffic, small
string allocations), independent of the program, so a change to the
program moves the scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from time import perf_counter
from typing import List

__all__ = ["REFERENCE_S", "probe", "probe_all", "scale"]

#: Seconds one :func:`_loop` takes at the reference speed (an idle core
#: of a 2-vCPU x86-64 cloud container, CPython 3.11).
REFERENCE_S = 0.0008

_ITERATIONS = 1000
_REPEATS = 3


def _loop() -> int:
    heap: List[tuple] = []
    table: dict = {}
    acc = 0
    for i in range(_ITERATIONS):
        heappush(heap, (i * 7919 % 1009, i))
        table[i & 255] = (i, str(i))
        if len(heap) > 64:
            acc += heappop(heap)[1]
        acc ^= len(table.get((i * 7) & 255, (0, ""))[1])
    return acc


def probe() -> float:
    """Seconds one calibration loop takes now (median of a few)."""
    times = []
    for _ in range(_REPEATS):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return sorted(times)[_REPEATS // 2]


def probe_all(cores: int) -> float:
    """Seconds the calibration loop takes now when ``cores`` copies run at
    once, one in this process and the rest in forked children: the
    slowest copy, i.e. the host speed a job with ``cores`` busy processes
    sees.  A single-copy probe misses another tenant holding one core."""
    children = []
    for _ in range(cores - 1):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                os.write(write_fd, repr(probe()).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        children.append((pid, read_fd))
    times = [probe()]
    for pid, read_fd in children:
        with os.fdopen(read_fd) as pipe:
            times.append(float(pipe.read()))
        os.waitpid(pid, 0)
    return max(times)


def scale(before: float, after: float) -> float:
    """Factor turning host seconds measured between two probes into
    seconds at the reference speed."""
    return 2 * REFERENCE_S / (before + after)
