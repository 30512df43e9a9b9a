"""Host-speed reference for scaling the benchmark's times.

A shared host's speed drifts by ±25% within tens of seconds.  The
benchmark therefore scales each time by REFERENCE_MS over the time of this
fixed computation, measured next to it: the oracle's integer DP for
(P^1)^8 with four divisors.  It takes about 0.9 ms on a 2-vCPU sandbox
with CPython 3.11.  Run as a script, this file prints one measurement
taken in a fresh process.
"""

import gc
import statistics
from time import perf_counter

import oracle

REFERENCE_MS = 0.9
_CASE = ((1,) * 8, ((1,) * 8,) * 4, (1,) * 4 + (0,) * 4, (0,) * 4 + (1,) * 4)


def reference_ms():
    """Median of three timed runs after an untimed one that refills caches.

    The cyclic garbage collector is off, so the size of the caller's heap
    does not count.
    """
    gc.disable()
    try:
        oracle.kappa_product(*_CASE)
        times = []
        for _ in range(3):
            t0 = perf_counter()
            oracle.kappa_product(*_CASE)
            times.append((perf_counter() - t0) * 1e3)
    finally:
        gc.enable()
    return statistics.median(times)


if __name__ == "__main__":
    print(reference_ms())
