"""The machine's speed, measured alongside the program.

The benchmark runs on shared machines whose speed drifts by a third and
more over minutes: the same round of the same seed can take 1.0 s in one
minute and 1.6 s in the next, with CPU time following wall time.  No run
length averages that away.  So the benchmark times a fixed piece of
pure-Python work, a *unit*, interleaved with the operations it measures,
and scales every time it reports by how fast the machine ran the units
nearest to it: a time measured while a unit took twice its reference time
counts half.  The reported times are thus times on a machine that runs a
unit in :data:`REFERENCE_UNIT_S`, close to the machine's usual speed.

A unit does what the library's hot loops do (dictionary and set lookups,
list appends, small integers, one function call per step): breadth-first
search over a fixed graph that no seed and no library code changes.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import Dict, List, Set

#: Seconds one unit takes on the reference machine; a 2-core VM runs a
#: unit in about this time when it is neither slowed nor sped up.
REFERENCE_UNIT_S = 0.0012
#: Units on each side of a timed span that its scale takes in.
NEAREST = 10

_rng = random.Random("perfbench-calibration")
_ORDER = 400
GRAPH: Dict[int, Set[int]] = {v: set() for v in range(_ORDER)}
for _v in range(_ORDER):
    for _u in _rng.sample(range(_ORDER), 3):
        if _u != _v:
            GRAPH[_v].add(_u)
            GRAPH[_u].add(_v)
SOURCES = (0, 100, 200, 300)


def _distances(source: int) -> Dict[int, int]:
    dist = {source: 0}
    frontier: List[int] = [source]
    while frontier:
        reached: List[int] = []
        for x in frontier:
            d = dist[x] + 1
            for y in GRAPH[x]:
                if y not in dist:
                    dist[y] = d
                    reached.append(y)
        frontier = reached
    return dist


def unit() -> int:
    return sum(sum(_distances(source).values()) for source in SOURCES)


class Calibration:
    """The units run so far: when each ended and how long it took."""

    def __init__(self, share: float = 0.0) -> None:
        #: Calibration time kept up with, as a share of the measured time.
        self.share = share
        self.seconds = 0.0
        self.ends: List[float] = []
        self.durations: List[float] = []

    def run(self, units: int = 1) -> None:
        # A unit frees all it allocates by reference counting; with the
        # cycle collector on, its allocations would now and then trigger a
        # collection of the heap the measured operations left behind.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                start = time.perf_counter()
                unit()
                end = time.perf_counter()
                self.ends.append(end)
                self.durations.append(end - start)
                self.seconds += end - start
        finally:
            if enabled:
                gc.enable()

    def keep_up(self, measured_s: float) -> None:
        """Run units until they have taken ``share`` of ``measured_s``."""
        while self.seconds < self.share * measured_s:
            self.run()

    def scale(self, start: float, end: float, nearest: int = NEAREST) -> float:
        """The reference time of a unit over the mean time of the units run
        between ``start`` and ``end`` and of the ``nearest`` units run just
        before and just after."""
        first = max(0, bisect.bisect_left(self.ends, start) - nearest)
        last = bisect.bisect_right(self.ends, end) + nearest
        durations = self.durations[first:last]
        return REFERENCE_UNIT_S * len(durations) / sum(durations)
