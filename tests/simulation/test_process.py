"""Tests for the SimProcess module/timer abstraction."""

import pytest

from repro.simulation.process import SimProcess


class Recorder(SimProcess):
    def __init__(self, sim, name="recorder"):
        super().__init__(sim, name)
        self.started_count = 0
        self.timer_fires = []
        self.messages = []

    def on_start(self):
        self.started_count += 1

    def on_timer(self, name):
        self.timer_fires.append((name, self.now))

    def on_message(self, message, sender=None):
        self.messages.append((sender, message))


class TestLifecycle:
    def test_start_invokes_on_start_once(self, sim):
        proc = Recorder(sim)
        proc.start()
        proc.start()
        assert proc.started_count == 1

    def test_requires_simulator(self):
        with pytest.raises(ValueError):
            Recorder(None)


class TestTimers:
    def test_named_timer_fires_on_timer_hook(self, sim):
        proc = Recorder(sim)
        proc.set_timer("tick", 2.0)
        sim.run()
        assert proc.timer_fires == [("tick", 2.0)]

    def test_timer_with_explicit_callback(self, sim):
        proc = Recorder(sim)
        fired = []
        proc.set_timer("tick", 1.0, callback=lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.0]
        assert proc.timer_fires == []

    def test_rearming_replaces_previous_timer(self, sim):
        proc = Recorder(sim)
        proc.set_timer("tick", 1.0)
        proc.set_timer("tick", 5.0)
        sim.run()
        assert proc.timer_fires == [("tick", 5.0)]

    def test_cancel_timer(self, sim):
        proc = Recorder(sim)
        proc.set_timer("tick", 1.0)
        assert proc.cancel_timer("tick") is True
        assert proc.cancel_timer("tick") is False
        sim.run()
        assert proc.timer_fires == []

    def test_cancel_all_timers(self, sim):
        proc = Recorder(sim)
        proc.set_timer("a", 1.0)
        proc.set_timer("b", 2.0)
        assert proc.cancel_all_timers() == 2
        sim.run()
        assert proc.timer_fires == []

    def test_periodic_rearm_pattern(self, sim):
        proc = Recorder(sim)

        def tick():
            proc.timer_fires.append(("periodic", sim.now))
            if sim.now < 3.0:
                proc.set_timer("periodic", 1.0, callback=tick)

        proc.set_timer("periodic", 1.0, callback=tick)
        sim.run()
        assert [t for _, t in proc.timer_fires] == [1.0, 2.0, 3.0]


class TestMessaging:
    def test_deliver_invokes_on_message(self, sim):
        proc = Recorder(sim)
        proc.deliver({"hello": 1}, sender=7)
        assert proc.messages == [(7, {"hello": 1})]
