"""Tests for event primitives and the simulated clock."""

import pytest

from repro.simulation.clock import SimClock
from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventPriority


class TestEventOrdering:
    def test_sort_key_orders_by_time_first(self):
        early = Event(time=1.0, priority=50, seq=10, callback=lambda: None)
        late = Event(time=2.0, priority=0, seq=0, callback=lambda: None)
        assert early < late

    def test_sort_key_breaks_ties_by_priority(self):
        high = Event(time=1.0, priority=EventPriority.MAC, seq=5, callback=lambda: None)
        low = Event(time=1.0, priority=EventPriority.TIMER, seq=1, callback=lambda: None)
        assert high < low

    def test_sort_key_breaks_remaining_ties_by_sequence(self):
        first = Event(time=1.0, priority=10, seq=1, callback=lambda: None)
        second = Event(time=1.0, priority=10, seq=2, callback=lambda: None)
        assert first < second

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


class TestSimClock:
    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock._advance(2.0)
        assert clock.now == 2.0

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock(1.0)
        clock._advance(1.0)
        assert clock.now == 1.0

    def test_advance_backwards_raises(self):
        clock = SimClock(3.0)
        with pytest.raises(ValueError):
            clock._advance(2.999)
