"""Determinism guard for the hot-loop fast path (PR 2).

The scheduler rewrite, the batched channel fan-out and the runner's epoch
fast path are pure optimisations: a sweep must produce bit-identical
fingerprints whether deliveries are batched (the fast path) or scheduled
one event per receiver (the reference formulation, kept as a test oracle
in ``tests/differential/reference.py``), and repeated runs must reproduce
exactly.
"""

import pytest

import repro.experiments.runner as runner_module
from repro.experiments.batch import BatchRunner
from repro.scenarios.static import smoke_sweep

from ..differential.reference import PerReceiverChannel


def _serial_runner() -> BatchRunner:
    # Serial + in-process so monkeypatching the runner module is effective.
    return BatchRunner(max_workers=1)


@pytest.fixture(scope="module")
def fast_fingerprints():
    specs = smoke_sweep(num_nodes=10, num_epochs=100)
    results = _serial_runner().run(specs)
    return [r.fingerprint() for r in results]


class TestFastPathDeterminism:
    def test_batched_and_unbatched_delivery_bit_identical(
        self, monkeypatch, fast_fingerprints
    ):
        """The one-event-per-receiver path and the batched path must agree
        bit-for-bit on the whole smoke sweep."""
        monkeypatch.setattr(runner_module, "WirelessChannel", PerReceiverChannel)
        receptions = []
        receive_one = PerReceiverChannel._receive_one

        def counted(channel, *args):
            receptions.append(args)
            return receive_one(channel, *args)

        monkeypatch.setattr(PerReceiverChannel, "_receive_one", counted)
        specs = smoke_sweep(num_nodes=10, num_epochs=100)
        reference = [r.fingerprint() for r in _serial_runner().run(specs)]
        # The oracle ran: receptions took events of their own.
        assert receptions
        assert reference == fast_fingerprints

    def test_fast_path_reproducible_across_runs(self, fast_fingerprints):
        specs = smoke_sweep(num_nodes=10, num_epochs=100)
        again = [r.fingerprint() for r in _serial_runner().run(specs)]
        assert again == fast_fingerprints

    def test_lossy_trial_bit_identical_across_delivery_modes(self, monkeypatch):
        """Loss draws are vectorised per transmission; the stream must match
        the per-receiver formulation draw for draw."""
        from repro.experiments.runner import ExperimentRunner
        from repro.scenarios.static import small_network

        cfg = small_network(num_nodes=12, num_epochs=150).replace(channel_loss=0.2)
        fast_runner = ExperimentRunner(cfg)
        fast = fast_runner.run()
        monkeypatch.setattr(runner_module, "WirelessChannel", PerReceiverChannel)
        runner = ExperimentRunner(cfg)
        reference = runner.run()
        assert isinstance(runner.world.channel, PerReceiverChannel)
        # The oracle ran: one event per reception on top of one per frame.
        stats = runner.world.channel.stats
        assert stats == fast_runner.world.channel.stats
        assert stats.deliveries > 0
        assert (
            runner.world.sim.executed
            == fast_runner.world.sim.executed + stats.deliveries
        )
        assert (
            reference.ledger.breakdown_by_kind() == fast.ledger.breakdown_by_kind()
        )
        assert reference.per_query_costs == fast.per_query_costs
        assert reference.mean_accuracy == fast.mean_accuracy
        assert reference.mean_overshoot_percent == fast.mean_overshoot_percent
