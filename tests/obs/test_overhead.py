"""The performance half of the observability contract: metrics cost ~0.

The design keeps metric accounting *out* of the hot loops: components
carry plain int counters that the runner harvests once per trial, and the
only per-event registry call is the guarded ``channel.fanout`` histogram.
These tests pin that design by counting registry calls, not by timing
them, so they cannot flake on a loaded host:

* on a chain of events that each schedule the next, a metrics-enabled
  :class:`Simulator` executes the same events and makes no registry call
  inside ``run()``;
* on a real ATC trial, the run makes exactly one ``channel.fanout``
  observation per broadcast before the harvest, and no other call.
"""

from collections import Counter

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.scenarios.registry import build_config
from repro.simulation.engine import Simulator

NUM_EVENTS = 30_000


@pytest.fixture
def registry_calls(monkeypatch) -> Counter:
    """Every ``MetricsRegistry`` recording call, keyed by (method, name)."""
    calls: Counter = Counter()
    for method in ("inc", "gauge_set", "observe"):
        real = getattr(MetricsRegistry, method)

        def counted(self, name, *args, _method=method, _real=real):
            calls[(_method, name)] += 1
            return _real(self, name, *args)

        monkeypatch.setattr(MetricsRegistry, method, counted)
    return calls


def chained_events(instrumentation) -> Simulator:
    """A chain of ``NUM_EVENTS`` events: each one schedules the next."""
    sim = Simulator(instrumentation=instrumentation)
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < NUM_EVENTS:
            sim.schedule_at(sim.now + 0.001, tick)

    sim.schedule_at(0.0, tick)
    sim.run()
    assert count == NUM_EVENTS
    return sim


def test_metrics_enabled_engine_makes_no_registry_call(registry_calls):
    plain = chained_events(None)
    metered = chained_events(
        Instrumentation(metrics=MetricsRegistry(enabled=True))
    )
    assert metered.executed == plain.executed == NUM_EVENTS
    assert registry_calls == Counter()


def test_trial_observes_fanout_once_per_broadcast_before_harvest(
    registry_calls, monkeypatch
):
    before_harvest = {}
    real_harvest = ExperimentRunner._harvest_metrics

    def harvest(self, world, **counts):
        before_harvest.update(registry_calls)
        before_harvest["broadcasts"] = world.channel.stats.broadcasts
        return real_harvest(self, world, **counts)

    monkeypatch.setattr(ExperimentRunner, "_harvest_metrics", harvest)
    config = build_config("static-paper", 300, 1).with_atc()
    ExperimentRunner(config.replace(instrument="metrics")).run()
    broadcasts = before_harvest.pop("broadcasts")
    assert broadcasts > 0
    assert before_harvest == {("observe", "channel.fanout"): broadcasts}
