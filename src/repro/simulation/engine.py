"""Discrete-event simulation engine.

This module is the reproduction's substitute for OMNeT++ [11 in the paper]:
a deterministic event-driven kernel with a simulated clock, a priority event
queue, and named processes (see :mod:`repro.simulation.process`).

Design choices
--------------
* **Determinism.**  Events are ordered by ``(time, priority, sequence)``;
  the sequence counter makes insertion order the final tie-breaker, so a
  simulation with the same seed replays identically.  The heap stores plain
  ``(time, priority, seq, event)`` tuples: the unique sequence number means
  comparisons never fall through to the :class:`Event` object, so ordering
  is resolved entirely by C-level tuple comparison.
* **Lazy cancellation with compaction.**  Cancelled events remain on the
  heap and are skipped when popped; this keeps :meth:`Simulator.cancel`
  O(1).  Unlike a purely lazy scheme (which leaks one heap entry per
  cancelled event for the whole run), the engine counts cancelled entries
  and compacts the heap in place once they dominate it, so the queue size
  stays proportional to the number of *live* events.
* **Cached head time.**  The earliest scheduled time is tracked as a cheap
  lower bound, making :meth:`run_until` O(1) when nothing is due before the
  boundary -- the common case for the experiment runner's per-epoch drains.
* **Epoch-driven operation.**  The experiment runner advances the network one
  *epoch* at a time (the paper's sampling period).  Within an epoch, protocol
  messages are exchanged as ordinary events at fractional times; the runner
  calls :meth:`Simulator.run_until` with the next epoch boundary to drain
  them.  This hybrid keeps 20 000-epoch runs tractable in pure Python while
  preserving event-level message ordering.

Determinism contract
--------------------
The engine itself owns **no randomness**: every stochastic component draws
from a named stream of the trial's :class:`~repro.simulation.rng.
RandomStreams`, which is seeded from the experiment config alone (the batch
layer re-derives it per trial, see :mod:`repro.experiments.batch`).  Given
the same config, the event sequence -- and therefore every measurement --
replays bit-identically regardless of wall clock, worker count, or how many
sibling simulations share the process.  Optimisations to this module must
preserve the *observable* pop order ``(time, priority, sequence)`` exactly;
the compaction and fast paths above are safe because they never reorder
live events, only skip or drop cancelled ones.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from .clock import SimClock
from .events import Event, EventHandle, EventPriority


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (scheduling in the past, etc.)."""


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
    start_time:
        Initial simulated time (defaults to 0.0).
    instrumentation:
        Optional :class:`~repro.obs.instrumentation.Instrumentation`
        bundling tracer + metrics + phase timer behind one handle; when
        omitted every instrument is off.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(1.0, lambda: fired.append("a"))
    >>> _ = sim.schedule_at(0.5, lambda: fired.append("b"))
    >>> sim.run()
    2
    >>> fired
    ['b', 'a']
    """

    #: Compaction threshold: the heap is rebuilt (dropping cancelled
    #: entries) once at least this many cancelled events are queued *and*
    #: they make up at least half of the heap.  The invariant is therefore
    #: ``queue_size < 2 * pending + COMPACT_MIN_CANCELLED``.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self, start_time: float = 0.0, instrumentation=None):
        self.clock = SimClock(start_time)
        # Imported lazily: repro.simulation/__init__ eagerly imports this
        # module, and repro.obs.instrumentation imports simulation.trace,
        # so a module-level import here would cycle during package init.
        from ..obs.instrumentation import NULL_INSTRUMENTATION

        if instrumentation is None:
            instrumentation = NULL_INSTRUMENTATION
        self.instrumentation = instrumentation
        self.tracer = instrumentation.tracer
        self._heap: list = []
        self._seq = 0
        self._executed = 0
        self._running = False
        #: Cancelled events still sitting in the heap.
        self._cancelled_in_heap = 0
        #: Lifetime totals harvested into metrics at trial end: the hot
        #: loop pays one int increment, never a registry call.
        self._cancelled_total = 0
        self._compactions = 0
        #: Lower bound on the next pending event time (exact when the head
        #: entry is live; conservative -- never *above* the true head --
        #: when the head was cancelled).  ``None`` iff the heap is empty.
        self._head_time: Optional[float] = None

    # -- inspection --------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def queue_size(self) -> int:
        """Heap entries currently held, including cancelled ones."""
        return len(self._heap)

    @property
    def cancelled_in_queue(self) -> int:
        """Cancelled events awaiting compaction or pop-time discard."""
        return self._cancelled_in_heap

    @property
    def executed(self) -> int:
        """Total number of events executed so far."""
        return self._executed

    @property
    def cancelled_total(self) -> int:
        """Events ever cancelled (lifetime count, survives compaction)."""
        return self._cancelled_total

    @property
    def compactions(self) -> int:
        """Heap compaction passes performed so far."""
        return self._compactions

    # -- scheduling --------------------------------------------------------

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], Any],
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        Raises
        ------
        SimulationError
            If ``time`` is before the current simulated time.
        """
        time = float(time)
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time "
                f"t={self.clock.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(
            time=time,
            priority=int(priority),
            seq=seq,
            callback=callback,
            label=label,
        )
        heapq.heappush(self._heap, (time, event.priority, seq, event))
        head = self._head_time
        if head is None or time < head:
            self._head_time = time
        return EventHandle(event, self)

    def schedule_after(
        self,
        delay: float,
        callback: Callable[[], Any],
        priority: int = EventPriority.DEFAULT,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.schedule_at(self.clock.now + delay, callback, priority, label)

    @staticmethod
    def cancel(handle: EventHandle) -> bool:
        """Cancel a previously scheduled event.  Returns ``True`` if pending."""
        return handle.cancel()

    # -- execution ---------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns ``True`` if an event was executed, ``False`` if the queue was
        empty.
        """
        self._discard_cancelled_head()
        if not self._heap:
            return False
        time, _, _, event = heapq.heappop(self._heap)
        self._head_time = self._heap[0][0] if self._heap else None
        self.clock._advance(time)
        self._executed += 1
        event.executed = True
        event.callback()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the event queue is exhausted.

        Parameters
        ----------
        max_events:
            Optional safety bound on the number of events to execute; useful
            in tests to catch runaway event storms.

        Returns
        -------
        int
            Number of events executed by this call.
        """
        return self._run_loop(until=None, max_events=max_events)

    def run_until(self, until: float, max_events: Optional[int] = None) -> int:
        """Run all events scheduled at times ``<= until``.

        The clock is left at ``until`` (or later if an executed event pushed
        it exactly there), so subsequent :meth:`schedule_after` calls are
        relative to the epoch boundary even if no event fired at it.

        When nothing is due at or before ``until`` this is O(1): the cached
        head time lets the call skip the event loop entirely and just
        advance the clock (the experiment runner's epoch fast path).
        """
        head = self._head_time
        if head is None or head > until:
            if self._running:
                raise SimulationError("Simulator.run is not reentrant")
            if self.clock.now < until:
                self.clock._advance(until)
            return 0
        executed = self._run_loop(until=until, max_events=max_events)
        if self.clock.now < until:
            self.clock._advance(until)
        return executed

    # -- internals ---------------------------------------------------------

    def _discard_cancelled_head(self) -> None:
        heap = self._heap
        removed = 0
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            removed += 1
        if removed:
            self._cancelled_in_heap -= removed
        self._head_time = heap[0][0] if heap else None

    def _note_cancelled(self, event: Event) -> None:
        """Bookkeeping hook invoked by :meth:`EventHandle.cancel`.

        Keeps :attr:`pending` exact without scanning the heap and triggers
        in-place compaction once cancelled entries dominate the queue.
        """
        self._cancelled_in_heap += 1
        self._cancelled_total += 1
        cancelled = self._cancelled_in_heap
        if (
            cancelled >= self.COMPACT_MIN_CANCELLED
            and 2 * cancelled >= len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (in place, O(n))."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled_in_heap = 0
        self._compactions += 1
        self._head_time = heap[0][0] if heap else None

    def _run_loop(self, until: Optional[float], max_events: Optional[int]) -> int:
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        # The heap list object is stable: _compact rewrites it in place, so
        # this local alias stays valid even if a callback triggers compaction.
        heap = self._heap
        heappop = heapq.heappop
        clock = self.clock
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                if not heap:
                    break
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                heappop(heap)
                event = entry[3]
                clock._advance(entry[0])
                self._executed += 1
                executed += 1
                event.executed = True
                event.callback()
        finally:
            self._running = False
            self._head_time = heap[0][0] if heap else None
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6g}, pending={self.pending}, "
            f"executed={self._executed})"
        )
