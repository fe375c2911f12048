"""Machine-speed calibration for the benchmark's end-to-end times.

On a shared host the same op can take anywhere from one to two times its
usual wall time as other tenants come and go, on a time scale of seconds to
minutes, and CPU time moves with wall time. The benchmark therefore runs a
fixed piece of reference work between ops and scales each op's wall time by
``REFERENCE_S`` over the reference work's time around it: the times it
reports are seconds at the speed at which the reference work takes
``REFERENCE_S``. The reference work mixes what the library's ops do (tuple
hashing and dict lookups, small dense solves, an interpreter-bound loop)
but never calls the library, so a change to the library cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Reference-work time on a 2-core x86-64 host with Python 3.11 and numpy 2.4
# at its usual speed; it fixes the scale of every reported time.
REFERENCE_S = 0.007

_KEYS = [tuple((7 * i + 13 * j) % 53 for j in range(12)) for i in range(400)]
_MATRIX = np.eye(12) * 12.0 + np.linspace(0.0, 1.0, 144).reshape(12, 12)
_VECTOR = np.ones(12)


def _reference_work() -> float:
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}
    total = 0.0
    for _ in range(10):
        for key in _KEYS:
            hit = cache.get(key)
            if hit is None:
                hit = cache[key] = tuple(sorted(set(key)))
            total += len(hit)
    for _ in range(200):
        total += float(np.linalg.solve(_MATRIX, _VECTOR)[0])
    for i in range(70000):
        total += i * 0.5
    return total


def measure() -> float:
    """Wall seconds the reference work takes now."""
    began = time.perf_counter()
    _reference_work()
    return time.perf_counter() - began
