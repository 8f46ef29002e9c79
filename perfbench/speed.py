"""Machine-speed probe.

The host this benchmark was written on changes speed by up to 25% over
tens of seconds and by 1.6x between runs of identical work, and medians
over passes cannot remove drift that lasts a whole run.  So every timing
is also taken against a probe: a fixed pure-Python routine that never
calls the package, run between ops whenever PROBE_EVERY_S has passed.  A
scaled time is the measured time multiplied by REF_S over the median of
the probe just before the op and its two neighbours: the time the work
would take on a machine where the probe takes REF_S.  A change to the
package cannot move the probe.
"""
from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter

PROBE_EVERY_S = 0.05
# Median probe time on the machine the benchmark was calibrated on (2 vCPU
# at 2.1 GHz, CPython 3.11.7); it only sets the unit of scaled times.
REF_S = 0.004


class _Pair:
    __slots__ = ("key", "n")

    def __init__(self, key, n):
        self.key = key
        self.n = n


def probe() -> float:
    """Seconds taken by one run of the probe routine.

    The garbage collector is off meanwhile, so that how often the probe
    runs does not move the collections that land inside the ops."""
    gc.disable()
    try:
        return _probe()
    finally:
        gc.enable()


def _probe() -> float:
    t0 = perf_counter()
    counts: dict[str, int] = {}
    items = []
    for i in range(2500):
        key = "v%d" % ((i * 7919) % 1009)
        counts[key] = counts.get(key, 0) + 1
        pair = _Pair(key, i)
        items.append((pair.key, pair.n))
    items.sort()
    json.dumps(counts)
    return perf_counter() - t0


def median_probe(runs: int = 7) -> float:
    return statistics.median(probe() for _ in range(runs))


class Scaler:
    """Probes between ops, at most every PROBE_EVERY_S, and scales the ops'
    times by the median of the probe before each op and its neighbours."""

    def __init__(self):
        self.times: list[float] = []
        self.last_at = None

    def mark(self) -> int:
        """Probe if the latest probe is stale; the latest probe's index."""
        if self.last_at is None or perf_counter() - self.last_at >= PROBE_EVERY_S:
            self.close()
        return len(self.times) - 1

    def close(self) -> None:
        """Probe now, so that the last op of a pass has a probe after it."""
        self.times.append(probe())
        self.last_at = perf_counter()

    def factor(self, mark: int) -> float:
        return REF_S / statistics.median(self.times[max(0, mark - 1):mark + 2])
