"""Helpers shared by the workloads: quantiles, memory, machine speed, set-up timing."""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3

#: The :class:`SpeedProbe` reading that counts as the reference speed:
#: its typical reading on the 2-core machine the bounds were set on.
REFERENCE_PROBE_S = 0.008

#: How strongly the program's times follow the probe's.  Across runs on
#: the reference machine, per-cell wall times went as the probe reading
#: to the power 0.57 (CMC 1500, global-1k) to 0.93 (ART 1000, k): the
#: probe's tight loops gain more from a fast phase than the program's
#: larger working set does.  0.7 lies between.
SPEED_EXPONENT = 0.7


def median(values: list[float]) -> float:
    """Median, or 0.0 for no samples (the run then also counts a failure)."""
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in 0..1) of the samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class SpeedProbe:
    """How fast the machine runs right now, read from fixed reference work.

    A reading times two small pieces of work that never touch the
    program: an interpreter loop over a dict, tuples and a list, and
    NumPy gathers and arithmetic over a 32 MB array into preallocated
    buffers.  Each piece is timed best of three, and the reading is the
    geometric mean of the two.  The garbage collector is off during a
    reading and the NumPy piece allocates nothing, so a large heap left
    by the program cannot slow the probe down.

    The machine's speed drifts by 20% and more over seconds to minutes.
    A call's wall time divided by the readings taken just before and
    just after it drifts far less (README.md, "Noise"), so every
    end-to-end timing is reported at the reference speed:
    ``wall seconds x (REFERENCE_PROBE_S / mean(readings around the call))
    ** SPEED_EXPONENT``.
    """

    def __init__(self) -> None:
        rng = numpy.random.default_rng(0)
        self._array = rng.random(4_000_000)
        self._index = rng.integers(0, self._array.size, 400_000)
        self._gathered = numpy.empty(self._index.size)
        self._scaled = numpy.empty(1_000_000)
        self._times: list[float] = []  #: midpoint of each reading
        self._readings: list[float] = []

    def _interpreter(self) -> float:
        table: dict[int, float] = {}
        items: list[tuple[int, int]] = []
        total = 0.0
        for i in range(30_000):
            key = i & 511
            table[key] = table.get(key, 0.0) + i * 0.5
            items.append((key, i))
            if len(items) > 64:
                total += max(items)[1]
                items.clear()
        return total

    def _numpy(self) -> float:
        numpy.take(self._array, self._index, out=self._gathered)
        numpy.multiply(self._array[: self._scaled.size], 1.5, out=self._scaled)
        return float(self._gathered.sum() + self._scaled.sum())

    def read(self) -> float:
        """Take a reading now; returns it in seconds."""
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = []
            for work in (self._interpreter, self._numpy):
                times = []
                for _ in range(3):
                    began = time.perf_counter()
                    work()
                    times.append(time.perf_counter() - began)
                best.append(min(times))
        finally:
            if enabled:
                gc.enable()
        reading = statistics.geometric_mean(best)
        self._times.append((start + time.perf_counter()) / 2)
        self._readings.append(reading)
        return reading

    def read_every(self, interval_s: float) -> None:
        """Take a reading if the last one is ``interval_s`` old or older."""
        if not self._times or time.perf_counter() - self._times[-1] >= interval_s:
            self.read()

    def scaled(self, start: float, elapsed: float) -> float:
        """``elapsed`` wall seconds from ``start`` on, at the reference speed.

        Uses the last reading before ``start`` and the first after the
        end, whichever exist; take a reading after the timed work before
        asking.
        """
        before = bisect.bisect_right(self._times, start) - 1
        after = bisect.bisect_left(self._times, start + elapsed)
        around = [self._readings[i] for i in (before, after) if 0 <= i < len(self._readings)]
        return elapsed * (REFERENCE_PROBE_S / statistics.fmean(around)) ** SPEED_EXPONENT

    def typical(self) -> float:
        """Median reading so far, for the report."""
        return statistics.median(self._readings)


def timed_setup(build: Callable[[], Any], probe: SpeedProbe) -> tuple[Any, float]:
    """Run ``build`` :data:`SETUP_REPEATS` times; last result, median
    seconds at the reference speed."""
    seconds = []
    result = None
    probe.read()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = build()
        elapsed = time.perf_counter() - start
        probe.read()
        seconds.append(probe.scaled(start, elapsed))
    return result, statistics.median(seconds)


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: dict[str, tuple[float, str]]  #: name -> (value, unit)
    attempted: int
    failed: int
    backend: str  #: resolved execution backend seen in the results
    problems: list[str] = field(default_factory=list)  #: failed checks
    tables: list[str] = field(default_factory=list)  #: human-readable lines

    @property
    def correct(self) -> bool:
        """All outputs passed their checks."""
        return self.failed == 0 and not self.problems
