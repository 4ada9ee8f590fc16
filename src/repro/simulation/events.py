"""Event primitives for the discrete-event simulation kernel.

The kernel (see :mod:`repro.simulation.engine`) is the stand-in for the
OMNeT++ discrete-event simulator the paper used.  Everything that happens in
a simulation -- a MAC frame being delivered, a node sampling its sensor, a
query being injected at the root -- is represented as an :class:`Event`
scheduled at a simulated time.

The scheduler orders events by ``(time, priority, sequence)`` -- its heap
compares those tuples, never two events -- so that simulations are fully
deterministic: two events at the same simulated time are executed in
priority order, and ties beyond that are broken by insertion order.  A
frame delivery breaks its ties by the key of its transmission instead (see
:data:`EventPriority.MAC`).
"""

from __future__ import annotations

import enum
from typing import Any, Callable


class EventPriority(enum.IntEnum):
    """Execution priority for events that share the same simulated time.

    Lower values execute first.  The bands are chosen so that, within one
    simulated instant, control-plane bookkeeping happens before the MAC
    layer delivers frames, which happens before application-level timers
    fire.  This mirrors the bottom-up processing order of a real stack and
    keeps traces easy to reason about.

    ``MAC`` is the band of frame deliveries, and its events share one key
    shape: each breaks ties by its transmission's ``(time, priority,
    sequence)`` tuple (:mod:`repro.network.channel`), never by a bare
    sequence number, which a tuple cannot be compared with.
    """

    CONTROL = 0
    MAC = 10
    NETWORK = 20
    APPLICATION = 30
    TIMER = 40
    DEFAULT = 50


class Event:
    """A single scheduled occurrence in the simulation, and its own handle.

    Parameters
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Tie-breaking priority; see :class:`EventPriority`.
    seq:
        The last tie-breaker: a monotonically increasing sequence number
        assigned by the scheduler (deterministic FIFO ordering among equal
        ``(time, priority)`` events), or for a frame delivery its
        transmission's key.
    callback:
        Zero-argument callable invoked when the event fires.  Any payload
        should be bound into the callable (e.g. via ``functools.partial`` or
        a closure).
    label:
        Human-readable description used by the tracer.

    The scheduler returns the event itself from
    :meth:`~repro.simulation.engine.Simulator.schedule_at`; :meth:`cancel`
    is the handle.  Cancellation is *lazy*: the event stays in the heap
    but is skipped when it is popped.  This is O(1) and is the standard
    approach for simulation kernels where cancelled events are a small
    fraction of the total.  An event the scheduler created carries a
    back-reference to it, so the scheduler can keep an exact pending-event
    counter and compact the heap once too many cancelled entries
    accumulate (lazy cancellation alone would leak heap entries for the
    whole run).
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "label",
        "cancelled",
        "executed",
        "_scheduler",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: Any,
        callback: Callable[[], Any],
        label: str = "",
        scheduler: Any = None,
    ):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.executed = False
        self._scheduler = scheduler

    def cancel(self) -> bool:
        """Cancel the event.

        Returns ``True`` if the event had not been cancelled before and is
        now, ``False`` if it had already been cancelled.  Cancelling an
        event that already ran marks it and changes no counter.
        """
        if self.cancelled:
            return False
        self.cancelled = True
        if self._scheduler is not None and not self.executed:
            self._scheduler._note_cancelled(self)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6g}, {self.label!r}, {state})"
