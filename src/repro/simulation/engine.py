"""Discrete-event simulation engine.

This module is the reproduction's substitute for OMNeT++ [11 in the paper]:
a deterministic event-driven kernel made of a priority event queue and the
simulated time, :attr:`Simulator.now`, which only the event loop and
:meth:`Simulator.run_until` move.  Time is a ``float`` in *epoch* units:
the paper samples every sensor once per epoch, so one epoch is 1.0, and
sub-epoch activity (a MAC frame, a query hop) runs at fractional times.

Design choices
--------------
* **Determinism.**  Events are ordered by ``(time, priority, sequence)``;
  the sequence counter makes insertion order the final tie-breaker, so a
  simulation with the same seed replays identically.  (A frame delivery
  breaks its ties by its transmission's key instead, see
  :data:`~repro.simulation.events.EventPriority.MAC`.)  The heap stores
  plain ``(time, priority, seq, event)`` tuples: the unique sequence
  number, which a transmission key holds too, means comparisons never
  fall through to the :class:`Event` object, so ordering is resolved
  entirely by C-level tuple comparison.
* **Lazy cancellation with compaction.**  Cancelled events remain on the
  heap and are skipped when popped; this keeps :meth:`Event.cancel` O(1).
  Unlike a purely lazy scheme (which leaks one heap entry per cancelled
  event for the whole run), the engine counts cancelled entries and
  compacts the heap in place once they dominate it, so the queue size
  stays proportional to the number of *live* events.
* **One object per event.**  :meth:`Simulator.schedule_at` allocates the
  :class:`Event` and returns it; the event is its own cancellation handle.
* **Epoch-driven operation.**  The experiment runner advances the network one
  *epoch* at a time (the paper's sampling period).  Within an epoch, protocol
  messages are exchanged as ordinary events at fractional times; the runner
  calls :meth:`Simulator.run_until` with each *checkpoint* in turn -- the
  epoch boundary ``float(epoch)``, then ``epoch + SAMPLE_DRAIN`` after the
  sampling pass and ``epoch + QUERY_DRAIN`` after each query injection --
  and between two checkpoints changes liveness and links and reads the
  ledger.  This hybrid keeps 20 000-epoch runs tractable in pure Python
  while preserving event-level message ordering.
* **Runner windows.**  The events one ``run_until`` call executes form a
  *window*.  Two instants share a window when no checkpoint ``b``
  satisfies ``start <= b < end`` (:func:`same_window`); an effect may move
  between two such instants without anything outside the events seeing
  it.  The channel's one-event frames and LMAC's beacon fast path both
  rest on this one predicate.

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
import math
from typing import Any, Callable, Optional

from .events import Event, EventPriority

#: Offsets of the experiment runner's in-epoch checkpoints: it drains the
#: queue to ``epoch + SAMPLE_DRAIN`` after the sampling pass and to
#: ``epoch + QUERY_DRAIN`` after each query injection (besides every epoch
#: boundary, ``float(epoch)``).
SAMPLE_DRAIN = 0.5
QUERY_DRAIN = 0.95


def same_window(start: float, end: float) -> bool:
    """Whether the instants ``start <= end`` fall in one runner window.

    True when no checkpoint ``b`` satisfies ``start <= b < end``.  The
    checkpoints are the very floats the runner passes to
    :meth:`Simulator.run_until` (``float(epoch)``, ``epoch + SAMPLE_DRAIN``,
    ``epoch + QUERY_DRAIN``), so an event at ``end`` runs in the same
    ``run_until`` call as one at ``start``, with no runner work between
    them.  ``end - start`` must be below the shortest gap between two
    checkpoints (``1 - QUERY_DRAIN``): only the first checkpoint at or
    after ``start`` is checked.
    """
    epoch = int(start)
    if start <= epoch:
        return end <= start
    checkpoint = epoch + SAMPLE_DRAIN
    if start <= checkpoint:
        return end <= checkpoint
    checkpoint = epoch + QUERY_DRAIN
    if start <= checkpoint:
        return end <= checkpoint
    return end <= float(epoch + 1)


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (scheduling in the past, etc.)."""


class Simulator:
    """Deterministic discrete-event scheduler.

    Parameters
    ----------
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

    def __init__(self, instrumentation=None):
        #: Current simulated time.  Only the event loop and
        #: :meth:`run_until` set it, and neither moves it backwards.
        self.now = 0.0
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

    # -- inspection --------------------------------------------------------

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
        """Total number of events executed so far (counted when a run returns)."""
        return self._executed

    def next_time(self) -> float:
        """Time of the queue's head entry; ``inf`` when the queue is empty.

        The head may be a cancelled event, so this is a lower bound on the
        next event to run: no pending event is due before it.
        """
        heap = self._heap
        return heap[0][0] if heap else math.inf

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
        order: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``.

        ``order`` is the event's last tie-breaker, after ``time`` and
        ``priority``; by default a fresh sequence number (insertion
        order).  A caller that must order an event by an earlier
        decision passes its own: a sequence number it took with
        :meth:`next_seq`, or for a frame delivery the transmission's key
        (see :data:`EventPriority.MAC`).  Returns the event, which is its
        own cancellation handle.

        Raises
        ------
        SimulationError
            If ``time`` is before the current simulated time.
        """
        time = float(time)
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time "
                f"t={self.now}"
            )
        if order is None:
            order = self._seq
            self._seq = order + 1
        priority = int(priority)
        event = Event(time, priority, order, callback, label, self)
        heapq.heappush(self._heap, (time, priority, order, event))
        return event

    def next_seq(self) -> int:
        """Take the next sequence number, as :meth:`schedule_at` would.

        For a caller that decides an event's order now and schedules it
        later, or orders another event by it.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    # -- execution ---------------------------------------------------------

    def run(self) -> int:
        """Run until the event queue is exhausted.

        Returns the number of events executed by this call.
        """
        return self._run_loop(None)

    def run_until(self, until: float) -> int:
        """Run all events scheduled at times ``<= until``.

        :attr:`now` is left at ``until`` when that is later than the last
        executed event, so events scheduled next are relative to the epoch
        boundary even if no event fired at it.  Returns the number of
        events executed.

        When nothing is due at or before ``until`` this is O(1): the heap's
        head time lets the call skip the event loop entirely and just
        advance the time (the experiment runner's epoch fast path).
        """
        heap = self._heap
        if heap and heap[0][0] <= until:
            executed = self._run_loop(until)
        elif self._running:
            raise SimulationError("Simulator.run is not reentrant")
        else:
            executed = 0
        if self.now < until:
            self.now = float(until)
        return executed

    # -- internals ---------------------------------------------------------

    def _note_cancelled(self, event: Event) -> None:
        """Bookkeeping hook invoked by :meth:`Event.cancel`.

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

    def _run_loop(self, until: Optional[float]) -> int:
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        executed = 0
        limit = math.inf if until is None else until
        # The heap list object is stable: _compact rewrites it in place, so
        # this local alias stays valid even if a callback triggers compaction.
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap:
                entry = heap[0]
                event = entry[3]
                if event.cancelled:
                    heappop(heap)
                    self._cancelled_in_heap -= 1
                    continue
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                # Heap order never moves time backwards, and schedule_at
                # stored a float.
                self.now = time
                executed += 1
                event.executed = True
                event.callback()
        finally:
            self._executed += executed
            self._running = False
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6g}, pending={self.pending}, "
            f"executed={self._executed})"
        )
