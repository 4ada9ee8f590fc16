"""Process / module abstraction on top of the event engine.

OMNeT++ structures a simulation as *modules* that exchange messages and set
timers.  :class:`SimProcess` provides the same affordances for this
reproduction: a named component bound to a :class:`~repro.simulation.engine.
Simulator` that can schedule timers on itself and receive messages delivered
by lower layers.

The protocol layers derive from this class: LMAC
(:class:`~repro.mac.lmac.LMACProtocol`) and the dissemination protocols
DirQ and flooding (through
:class:`~repro.core.protocol.DisseminationProtocol`).  The wireless channel
and the experiment runner are not processes: the channel schedules its
frames on the simulator directly, and the runner advances the simulator
with :meth:`~repro.simulation.engine.Simulator.run_until`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from .engine import Simulator
from .events import Event, EventPriority


class SimProcess:
    """A named simulation participant with timer support.

    Parameters
    ----------
    sim:
        The simulator this process is bound to.
    name:
        Human-readable name used in traces and error messages.
    """

    def __init__(self, sim: Simulator, name: str):
        if sim is None:
            raise ValueError("SimProcess requires a Simulator instance")
        self.sim = sim
        self.name = str(name)
        self._timers: Dict[str, Event] = {}
        self._timer_labels: Dict[str, str] = {}
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the process.

        Calls :meth:`on_start` exactly once; subsequent calls are ignored so
        experiment drivers can idempotently (re)start whole stacks.
        """
        if self._started:
            return
        self._started = True
        self.on_start()

    def on_start(self) -> None:
        """Hook invoked when the process starts.  Default: no-op."""

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    # -- timers ------------------------------------------------------------

    def set_timer(
        self,
        name: str,
        delay: float,
        callback: Optional[Callable[[], Any]] = None,
        priority: int = EventPriority.TIMER,
    ) -> Event:
        """Arm (or re-arm) a named timer ``delay`` time units from now.

        If a timer with the same name is already pending it is cancelled
        first, so each name refers to at most one outstanding timer.  When
        ``callback`` is omitted, :meth:`on_timer` is invoked with the timer
        name -- the usual pattern for protocol state machines.
        """
        self.cancel_timer(name)

        def fire() -> None:
            self._timers.pop(name, None)
            if callback is not None:
                callback()
            else:
                self.on_timer(name)

        # Periodic timers (beacons, protocol ticks) re-arm with the same name
        # for the whole run; cache the label string instead of rebuilding it.
        label = self._timer_labels.get(name)
        if label is None:
            label = self._timer_labels[name] = f"{self.name}.timer.{name}"
        event = self.sim.schedule_after(delay, fire, priority=priority, label=label)
        self._timers[name] = event
        return event

    def cancel_timer(self, name: str) -> bool:
        """Cancel the named timer if pending.  Returns ``True`` if cancelled."""
        event = self._timers.pop(name, None)
        if event is None:
            return False
        return event.cancel()

    def cancel_all_timers(self) -> int:
        """Cancel every pending timer; returns how many were cancelled."""
        cancelled = 0
        for name in list(self._timers):
            if self.cancel_timer(name):
                cancelled += 1
        return cancelled

    def on_timer(self, name: str) -> None:
        """Hook invoked when a named timer without explicit callback fires."""

    # -- messaging ---------------------------------------------------------

    def deliver(self, message: Any, sender: Any = None) -> None:
        """Deliver a message to this process (called by lower layers)."""
        self.on_message(message, sender)

    def on_message(self, message: Any, sender: Any = None) -> None:
        """Hook invoked for each delivered message.  Default: no-op."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
