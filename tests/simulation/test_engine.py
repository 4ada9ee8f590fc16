"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import SimulationError, Simulator
from repro.simulation.events import EventPriority


class TestScheduling:
    def test_runs_events_in_time_order(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("late"))
        sim.schedule_at(1.0, lambda: fired.append("early"))
        sim.schedule_at(1.5, lambda: fired.append("middle"))
        executed = sim.run()
        assert executed == 3
        assert fired == ["early", "middle", "late"]

    def test_same_time_ordered_by_priority(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("app"), priority=EventPriority.APPLICATION)
        sim.schedule_at(1.0, lambda: fired.append("mac"), priority=EventPriority.MAC)
        sim.schedule_at(1.0, lambda: fired.append("ctrl"), priority=EventPriority.CONTROL)
        sim.run()
        assert fired == ["ctrl", "mac", "app"]

    def test_same_time_same_priority_fifo(self, sim):
        fired = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_schedule_after_is_relative_to_now(self, sim):
        times = []
        sim.schedule_at(3.0, lambda: sim.schedule_after(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [5.0]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, lambda: None)

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule_at(7.25, lambda: None)
        sim.run()
        assert sim.now == 7.25

    def test_events_scheduled_during_run_are_executed(self, sim):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sim.schedule_after(1.0, lambda: chain(n + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3]
        assert sim.now == 3.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        handle = sim.schedule_at(1.0, lambda: fired.append("a"))
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == []

    def test_double_cancel_returns_false(self, sim):
        handle = sim.schedule_at(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_pending_excludes_cancelled(self, sim):
        h1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert sim.pending == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.run_until(2.0)
        assert fired == [1, 2]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 2, 3]

    def test_run_until_advances_clock_even_without_events(self, sim):
        sim.run_until(10.0)
        assert sim.now == 10.0

    def test_run_until_does_not_execute_future_events(self, sim):
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run_until(4.99)
        assert fired == []
        assert sim.pending == 1

    def test_max_events_bound(self, sim):
        for i in range(10):
            sim.schedule_at(float(i), lambda: None)
        executed = sim.run(max_events=4)
        assert executed == 4
        assert sim.pending == 6

    def test_run_is_not_reentrant(self, sim):
        def nested():
            with pytest.raises(SimulationError):
                sim.run()

        sim.schedule_at(1.0, nested)
        sim.run()


class TestCompaction:
    """Lazy cancellation must not leak heap entries for the whole run."""

    def test_queue_size_bounded_after_mass_cancellation(self, sim):
        handles = [sim.schedule_at(float(i + 1), lambda: None) for i in range(5000)]
        keep = handles[::1000]
        for handle in handles:
            if handle not in keep:
                handle.cancel()
        assert sim.pending == len(keep)
        # Documented invariant: cancelled entries never dominate the heap
        # beyond the compaction slack.
        assert sim.queue_size <= 2 * sim.pending + Simulator.COMPACT_MIN_CANCELLED

    def test_timer_rearm_pattern_stays_compacted(self, sim):
        # The LMAC beacon pattern: every re-arm cancels the previous timer.
        handle = sim.schedule_at(1e6, lambda: None)
        for i in range(10_000):
            handle.cancel()
            handle = sim.schedule_at(1e6 + i, lambda: None)
        assert sim.pending == 1
        assert sim.queue_size <= 2 * sim.pending + Simulator.COMPACT_MIN_CANCELLED

    def test_compaction_preserves_execution_order(self, sim):
        fired = []
        handles = [
            sim.schedule_at(float(i), lambda i=i: fired.append(i)) for i in range(500)
        ]
        for i, handle in enumerate(handles):
            if i % 2 == 0:
                handle.cancel()
        sim.run()
        assert fired == [i for i in range(500) if i % 2 == 1]

    def test_cancelled_counter_tracks_discards(self, sim):
        h1 = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        h1.cancel()
        assert sim.cancelled_in_queue == 1
        sim.run()
        assert sim.cancelled_in_queue == 0
        assert sim.executed == 1

    def test_cancel_after_execution_does_not_corrupt_pending(self, sim):
        handle = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(max_events=1)
        # Cancelling an already-fired event keeps the old True-return
        # contract but must not decrement the pending counter.
        assert handle.cancel() is True
        assert sim.pending == 1

    def test_compaction_during_run_is_safe(self, sim):
        fired = []
        late = [sim.schedule_at(100.0 + i, lambda: fired.append("late")) for i in range(300)]

        def cancel_all():
            fired.append("cancel")
            for handle in late:
                handle.cancel()

        sim.schedule_at(1.0, cancel_all)
        sim.schedule_at(2.0, lambda: fired.append("after"))
        sim.run()
        assert fired == ["cancel", "after"]
        assert sim.pending == 0


class TestRunUntilFastPath:
    """run_until with nothing due must be O(1) and semantically unchanged."""

    def test_fast_path_advances_clock(self, sim):
        sim.schedule_at(50.0, lambda: None)
        assert sim.run_until(10.0) == 0
        assert sim.now == 10.0
        assert sim.pending == 1

    def test_boundary_event_still_runs(self, sim):
        fired = []
        sim.schedule_at(10.0, lambda: fired.append(1))
        sim.run_until(10.0)
        assert fired == [1]

    def test_cancelled_head_does_not_break_fast_path(self, sim):
        h = sim.schedule_at(5.0, lambda: None)
        sim.schedule_at(50.0, lambda: None)
        h.cancel()
        assert sim.run_until(10.0) == 0
        assert sim.now == 10.0
        assert sim.pending == 1

    def test_many_empty_drains_execute_no_events(self, sim):
        sim.schedule_at(1e6, lambda: None)
        for epoch in range(1000):
            assert sim.run_until(float(epoch)) == 0
        assert sim.executed == 0
        assert sim.now == 999.0


class TestIntrospection:
    def test_executed_counter_accumulates(self, sim):
        for i in range(3):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        assert sim.executed == 4

    def test_step_executes_single_event(self, sim):
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False
