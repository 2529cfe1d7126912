"""A fixed pure-Python reference loop that measures the host's current speed.

On a shared host the speed of a CPU changes for seconds to minutes at a
time.  The same pass of ``alpha-search`` took from 0.7 to 1.3 times its
median on the 2-core host the benchmark was tuned on, and a run of 30 s
often sits in one such state.  So the worker runs the reference loop right
after set-up and after every operation, and the supervisor rescales each
measured time t by the loop's time c around it:

    t_ref = t * (REFERENCE_S / c) ** e

``e`` is how strongly the work follows the speed of the Python
interpreter: 1 for pure-Python searches, less for work that spends much
of its time in numpy or in loading modules (``SPEED_EXPONENT`` in
workloads.py, ``SETUP_SPEED_EXPONENT`` in run.py).  Each exponent was the
one that gave the smallest spread between runs on the tuning host.  The
raw seconds stay in every run's detail line.

The loop does the kind of work the package does: list comprehensions of
sums over index tuples, zipped comparisons, frozensets, dicts and a small
recursion.  It never calls the package, and it runs with the garbage
collector off, so the objects the package leaves behind do not change
its time.
"""

from __future__ import annotations

import gc
import time

# median time of one reference_loop on the tuning host (2 vCPUs of an
# Intel Xeon at 2.1 GHz); it only sets the scale of the rescaled times
REFERENCE_S = 0.0137

_SUPPORTS = tuple(tuple(range(i, i + 5)) for i in range(0, 30, 3))


def _depth(a, idx: int, left: int) -> int:
    if idx == 6 or left == 0:
        return 1
    n = 0
    for e in range(min(left, 2) + 1):
        a[idx] = e
        n += _depth(a, idx + 1, left - e)
    a[idx] = 0
    return n


def _work() -> int:
    a = [1] * 40
    seen: dict[frozenset, int] = {}
    total = 0
    for r in range(500):
        a[r % 40] = r % 3
        needs = [3 - sum(a[i] for i in s) for s in _SUPPORTS]
        for need, s in zip(needs, _SUPPORTS):
            if need > len(s):
                total += 1
        for s in _SUPPORTS:
            key = frozenset(x for x in s if a[x])
            seen[key] = seen.get(key, 0) + 1
        if r % 25 == 0:
            total += _depth([0] * 6, 0, 5)
    return total + len(seen)


def reference_loop() -> float:
    """Seconds taken by one fixed amount of pure-Python work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(seconds: float, ref: float, exponent: float) -> float:
    """``seconds`` measured while the loop took ``ref``, at the reference speed."""
    return seconds * (REFERENCE_S / ref) ** exponent
