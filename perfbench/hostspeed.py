"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a few vCPUs of a shared machine, and their speed
follows what the neighbours run.  On a 2-vCPU Xeon guest the rate of a
fixed pure-Python loop rose from about 360 to 610 calls per CPU second
within 100 seconds, and the same 50-node trial's raw CPU time moved by
up to 40 % between repeats.  No statistic of one run's raw times removes
a drift that slow.

So every pass measures the host while it runs.  Every
:data:`INTERVAL_S` of wall time a ``SIGALRM`` handler runs the
:class:`Yardstick` loop once and records its rate.  A timed interval's raw
seconds, less what the handler spent inside it, are multiplied by the mean
rate of the samples taken during the interval (widened to the
:data:`MIN_SAMPLES` nearest when it is short) over :data:`REFERENCE_RATE`:
the seconds the interval would have taken on a host running the yardstick
at the reference rate.  Repeating one trial for a minute or more, this cut
the spread between repeats from 0.15 to 0.025 of the median on a 50-node
trial and from 0.18 to 0.03 on a 5 000-node one.

The yardstick uses only the standard library and the benchmark never
changes it, so a change to the program moves the program's time and not
the yardstick.  The traced pass reads its spans from :meth:`HostSpeed.clock`,
which skips the handler's time, and scales their sums by the pass's mean
speed.

The correction is not exact: code that waits on memory slows less than the
yardstick when the host slows, so a run on a slow host still reads a
little fast (``perfbench/README.md`` has the measurements).
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import signal
import statistics
import time
from typing import List

#: Wall seconds between two samples of the host's speed.
INTERVAL_S = 0.02

#: Yardstick loops per CPU second that normalised times are expressed
#: against; about what an uncontended vCPU of the 2-vCPU Xeon guest
#: reaches.  Changing it rescales every normalised time.
REFERENCE_RATE = 1000.0

#: Samples a short interval's speed is averaged over.
MIN_SAMPLES = 20

#: Ints in the yardstick's list and dict (about 25 MB together).
TABLE_SIZE = 1 << 18


class Yardstick:
    """The fixed loop the host's speed is measured with (about 1 ms).

    Its first half is interpreter work on a small dict and heap, like the
    simulator's event loop.  Its second half reads a list and a dict of
    :data:`TABLE_SIZE` ints at random, like the per-node state of a large
    network.  The first half alone left a 0.07 to 0.16 spread between
    repeated 5 000-node trials, the second alone up to 0.05 between 50-node
    ones, and the two together about 0.03 on both.
    """

    #: Iterations of each half.
    STEPS = 1000

    def __init__(self) -> None:
        self.values = list(range(TABLE_SIZE))
        self.table = dict(zip(self.values, self.values))
        self.state = 1

    def __call__(self) -> float:
        counts: dict = {}
        heap: list = []
        total = 0.0
        for i in range(self.STEPS):
            key = i & 127
            counts[key] = counts.get(key, 0) + i
            heapq.heappush(heap, (i * 7919) % 1009)
            if len(heap) > 64:
                heapq.heappop(heap)
            total += i * 0.5
        values, table, state = self.values, self.table, self.state
        mask = TABLE_SIZE - 1
        for _ in range(self.STEPS):
            state = (state * 1103515245 + 12345) & mask
            total += values[state] + table[state ^ 1]
        self.state = state
        return total


@dataclasses.dataclass(frozen=True)
class Mark:
    wall: float
    cpu: float
    handler_wall: float
    handler_cpu: float


@dataclasses.dataclass(frozen=True)
class Interval:
    """A timed stretch: its wall-clock ends, and raw seconds net of sampling."""

    start: float
    end: float
    cpu_s: float
    wall_s: float


class HostSpeed:
    """Samples the host's speed while active, and normalises intervals by it.

    Use as a context manager around the timed work.
    """

    def __init__(self) -> None:
        self.yardstick = Yardstick()
        self.times: List[float] = []
        self.rates: List[float] = []
        self.handled = 0
        self.handler_wall = 0.0
        self.handler_cpu = 0.0
        self._previous = None

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the alarm interrupts (SQLite, file I/O).
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.yardstick()
        loop_cpu = time.process_time() - cpu
        if loop_cpu > 0:
            self.times.append(time.perf_counter())
            self.rates.append(1.0 / loop_cpu)
        self.handled += 1
        self.handler_cpu += time.process_time() - cpu
        self.handler_wall += time.perf_counter() - wall

    def clock(self) -> float:
        """Wall seconds that leave out the time spent sampling."""
        return time.perf_counter() - self.handler_wall

    def mark(self) -> Mark:
        while True:
            handled = self.handled
            mark = Mark(time.perf_counter(), time.process_time(), self.handler_wall, self.handler_cpu)
            if self.handled == handled:  # no sample landed between the reads
                return mark

    def since(self, mark: Mark) -> Interval:
        now = self.mark()
        return Interval(
            start=mark.wall,
            end=now.wall,
            cpu_s=(now.cpu - mark.cpu) - (now.handler_cpu - mark.handler_cpu),
            wall_s=(now.wall - mark.wall) - (now.handler_wall - mark.handler_wall),
        )

    def scale(self, interval: Interval) -> float:
        """Host speed during ``interval`` over the reference speed."""
        if not self.rates:
            return self.mean_scale()
        lo = bisect.bisect_left(self.times, interval.start)
        hi = bisect.bisect_right(self.times, interval.end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return statistics.fmean(self.rates[lo:hi]) / REFERENCE_RATE

    def cpu_s(self, interval: Interval) -> float:
        return interval.cpu_s * self.scale(interval)

    def wall_s(self, interval: Interval) -> float:
        return interval.wall_s * self.scale(interval)

    def mean_scale(self) -> float:
        """Mean host speed over the whole pass, relative to the reference."""
        return statistics.fmean(self.rates) / REFERENCE_RATE if self.rates else 1.0
