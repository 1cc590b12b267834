"""Host-speed gauge: a fixed loop that uses no majlat code.

The machine the benchmark was built on, a VM on a shared host, runs the
same code up to twice as slowly for minutes at a time.  The gauge
measures that: a short fixed mix of interpreter work, small numpy calls and
JSON, timed between ops.  Every time the benchmark reports is scaled by
``REF_MS / g``, where ``g`` is the gauge's median time around the moment
measured, so times read as on a host where the gauge takes ``REF_MS``.  A
change to majlat moves the op times and leaves the gauge alone, so it shows
in full; a slower host moves both and cancels.
"""

from __future__ import annotations

import json
import time

import numpy as np

REF_MS = 0.5  # gauge time of the reference host (the reported time scale)
EVERY_NS = 20_000_000  # a gauge sample after the first op that ends this long after the last one
WINDOW_NS = 1_000_000_000  # half-width of the window whose median gauge time scales an op

_ARR = np.linspace(1.0, 2.0, 64)
_LIST = [float(x) for x in _ARR]


def gauge_ns() -> int:
    """Wall time of one run of the fixed loop, in ns (about 0.5 ms)."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(600):
        acc += i * i % 7
    counts: dict = {}
    for i in range(200):
        counts[i % 37] = counts.get(i % 37, 0) + i
    for _ in range(12):
        acc += float(np.sort(np.cumsum(_ARR[::-1]) - _ARR).min())
    acc += len(json.loads(json.dumps(_LIST)))
    return time.perf_counter_ns() - start


def samples(count: int) -> list[int]:
    return [gauge_ns() for _ in range(count)]


def local_scale(times_ns, gauge_at_ns, gauge_took_ns) -> np.ndarray:
    """``REF_MS / g`` for each moment in ``times_ns``.

    ``g`` is the median of the gauge samples taken within ``WINDOW_NS`` of the
    first gauge sample at or after that moment (the last one, for moments
    after it).
    """
    at = np.asarray(gauge_at_ns, dtype=np.int64)
    took = np.asarray(gauge_took_ns, dtype=np.float64) / 1e6
    lo = np.searchsorted(at, at - WINDOW_NS)
    hi = np.searchsorted(at, at + WINDOW_NS, side="right")
    rolling = np.array([np.median(took[a:b]) for a, b in zip(lo, hi)])
    following = np.clip(np.searchsorted(at, np.asarray(times_ns, dtype=np.int64)), 0, len(at) - 1)
    return REF_MS / rolling[following]
