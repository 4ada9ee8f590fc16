"""Edge-case tests for scripted :class:`TopologyEvent` handling.

Covers the corners of the kill/activate path: killing the root's only
child (the tree degenerates to the root alone), activating a node that is
already alive (a no-op that must not perturb any measurement), and the
ordering semantics of a kill and an activation of the same node scheduled
for the same epoch (events apply in declaration order).
"""

import pytest

from repro.experiments.config import ExperimentConfig, TopologyEvent
from repro.experiments.runner import run_experiment
from repro.scenarios.static import small_network


def two_node_config(num_epochs: int = 120, **overrides) -> ExperimentConfig:
    """Root plus exactly one child (comm_range covers the whole field)."""
    return ExperimentConfig(
        num_nodes=2,
        comm_range=160.0,
        area_size=100.0,
        num_epochs=num_epochs,
        query_period=20,
        query_sensor_type="temperature",
        seed=3,
        **overrides,
    )


def measurements(result):
    """The deterministic payload compared for run-equivalence."""
    return (
        result.num_queries,
        result.per_query_costs,
        sorted(result.alive_at_end),
        sorted(result.ledger.breakdown_by_kind().items()),
        [
            (r.query_id, sorted(r.received), sorted(r.should_receive))
            for r in result.audit.records
        ],
    )


class TestKillRootsOnlyChild:
    def test_run_survives_and_root_ends_alone(self):
        cfg = two_node_config(
            topology_events=[
                TopologyEvent(epoch=50, kind=TopologyEvent.KILL, node_id=1)
            ]
        )
        result = run_experiment(cfg)
        assert result.alive_at_end == {0}
        assert result.tree.node_ids == [0]
        # Queries keep being injected and audited after the network empties.
        post = [r for r in result.audit.records if r.injection_epoch > 50]
        assert post
        assert all(r.received == set() for r in post)

    def test_killed_child_can_come_back(self):
        cfg = two_node_config(
            topology_events=[
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=1),
                TopologyEvent(epoch=80, kind=TopologyEvent.ACTIVATE, node_id=1),
            ]
        )
        result = run_experiment(cfg)
        assert result.alive_at_end == {0, 1}
        assert result.tree.parent_of(1) == 0

    def test_killing_the_root_is_rejected(self):
        with pytest.raises(ValueError, match="root"):
            two_node_config(
                topology_events=[
                    TopologyEvent(epoch=10, kind=TopologyEvent.KILL, node_id=0)
                ]
            )


class TestActivateAlreadyAlive:
    def test_is_a_measurement_noop(self):
        base = small_network(num_nodes=10, num_epochs=100, seed=7)
        noop = base.replace(
            topology_events=[
                TopologyEvent(epoch=30, kind=TopologyEvent.ACTIVATE, node_id=4)
            ]
        )
        assert measurements(run_experiment(base)) == measurements(
            run_experiment(noop)
        )


class TestSameEpochOrdering:
    def test_kill_then_activate_leaves_node_alive(self):
        cfg = small_network(num_nodes=10, num_epochs=100, seed=7).replace(
            topology_events=[
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=5),
                TopologyEvent(epoch=40, kind=TopologyEvent.ACTIVATE, node_id=5),
            ]
        )
        result = run_experiment(cfg)
        assert 5 in result.alive_at_end
        assert 5 in result.tree

    def test_activate_then_kill_leaves_node_dead(self):
        cfg = small_network(num_nodes=10, num_epochs=100, seed=7).replace(
            topology_events=[
                TopologyEvent(epoch=40, kind=TopologyEvent.ACTIVATE, node_id=5),
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=5),
            ]
        )
        result = run_experiment(cfg)
        assert 5 not in result.alive_at_end
        assert 5 not in result.tree

    def test_double_kill_matches_single_kill(self):
        base = small_network(num_nodes=10, num_epochs=100, seed=7)
        single = base.replace(
            topology_events=[
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=5)
            ]
        )
        double = base.replace(
            topology_events=[
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=5),
                TopologyEvent(epoch=40, kind=TopologyEvent.KILL, node_id=5),
            ]
        )
        assert measurements(run_experiment(single)) == measurements(
            run_experiment(double)
        )
