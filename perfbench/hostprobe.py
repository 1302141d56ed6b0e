"""Host-speed probe: a fixed piece of pure-Python bitset work, timed between
requests, that puts the benchmark's times on the scale of one reference speed.

The benchmark runs on shared machines whose speed moves by up to 1.7x from
one minute to the next, as other tenants' work comes and goes; one request,
repeated, took 63 ms in one second and 110 ms a few seconds later on the same
2-core VM, while its time over this probe's stayed within 5%.  The probe is the
benchmark's own code and calls nothing in minorlab, so a change to the library
moves the request times and not the probe.  It allocates no container, so it
never triggers the garbage collector and cannot be slowed by the library's
garbage.

``scale(probes)`` is ``REFERENCE_SECONDS / median(probes)``: a wall time times
the scale is the time the same work takes on a host where the probe takes
``REFERENCE_SECONDS``.
"""

from __future__ import annotations

import random
import statistics
import time

#: Median probe time on the 2-core x86-64 VM the benchmark was written on,
#: taken in one of its fast minutes.  Only the scale of the reported times
#: depends on it, not their ratios between runs.
REFERENCE_SECONDS = 1.0e-3

_N = 64


def _graph() -> tuple[int, ...]:
    rng = random.Random(20040)
    adj = [0] * _N
    for _ in range(3 * _N):
        u, v = rng.randrange(_N), rng.randrange(_N)
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


_ADJ = _graph()


def _work() -> int:
    """Breadth-first search over bitmasks from every vertex."""
    total = 0
    for source in range(_N):
        seen = front = 1 << source
        while front:
            reached = 0
            rest = front
            while rest:
                low = rest & -rest
                reached |= _ADJ[low.bit_length() - 1]
                rest ^= low
            front = reached & ~seen
            seen |= reached
        total += seen.bit_count()
    return total


def probe_seconds() -> float:
    """Wall time of one probe."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    return REFERENCE_SECONDS / statistics.median(probes)
