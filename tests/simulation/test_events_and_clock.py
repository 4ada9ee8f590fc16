"""Tests for event primitives."""

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority


class TestEventOrdering:
    def test_priority_bands_are_ordered_bottom_up(self):
        assert EventPriority.CONTROL < EventPriority.MAC < EventPriority.APPLICATION
        assert EventPriority.APPLICATION < EventPriority.TIMER


class TestEventHandle:
    """An event is its own handle: the scheduler returns the event."""

    def test_handle_reports_time_and_label(self):
        sim = Simulator()
        event = sim.schedule_at(3.5, lambda: None, label="x")
        assert type(event) is Event
        assert event.time == 3.5
        assert event.label == "x"
        assert event.cancelled is False

    def test_cancel_marks_event(self):
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        assert event.cancel() is True
        assert event.cancelled is True
        assert sim.cancelled_total == 1
        assert event.cancel() is False
        assert sim.cancelled_total == 1
        # An event built outside a scheduler cancels without one.
        loose = Event(time=1.0, priority=0, seq=0, callback=lambda: None)
        assert loose.cancel() is True
        assert loose.cancel() is False
