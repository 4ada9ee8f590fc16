"""Micro-benchmarks of the substrates (engine, channel, phenomena, routing).

These are conventional pytest-benchmark timings (many rounds) rather than
figure reproductions: they guard the simulator's performance envelope so the
paper-scale experiments stay tractable.
"""

import numpy as np

from repro.core.messages import RangeQuery
from repro.core.range_table import RangeTable
from repro.network.channel import WirelessChannel
from repro.network.topology import random_geometric_topology
from repro.sensors.dataset import SensorDataset
from repro.simulation.engine import Simulator


def test_engine_event_throughput(benchmark):
    """Schedule + execute 10k chained events."""

    def run():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule_after(0.001, tick)

        sim.schedule_at(0.0, tick)
        sim.run()
        return count

    assert benchmark(run) == 10_000


def test_channel_broadcast_throughput(benchmark):
    """1 000 broadcasts over a 50-node unit-disk network."""
    rng = np.random.default_rng(0)
    topo = random_geometric_topology(50, comm_range=30.0, rng=rng)

    def run():
        sim = Simulator()
        channel = WirelessChannel(sim, topo)
        for nid in topo.node_ids:
            channel.register(nid, lambda s, f: None)
        for i in range(1_000):
            channel.broadcast(i % 50, "payload", kind="query")
        sim.run()
        return channel.stats.deliveries

    assert benchmark(run) > 0


def test_phenomena_generation_paper_scale(benchmark):
    """Generating the paper's dataset: 4 types x 50 nodes x 20 000 epochs."""
    rng = np.random.default_rng(1)
    topo = random_geometric_topology(50, comm_range=30.0, rng=rng)
    positions = topo.position_array()

    def run():
        return SensorDataset.generate(
            node_ids=topo.node_ids,
            positions=positions,
            num_epochs=20_000,
            rng=np.random.default_rng(2),
        )

    dataset = benchmark(run)
    assert dataset.num_epochs == 20_000


def test_range_table_update_throughput(benchmark):
    """100k reading observations against one Range Table."""
    rng = np.random.default_rng(3)
    readings = rng.normal(20.0, 2.0, size=100_000)

    def run():
        table = RangeTable(0, "temperature")
        delta = 0.5
        updates = 0
        for reading in readings:
            table.observe_reading(float(reading), delta)
            if table.pending_update(delta) is not None:
                table.mark_transmitted(table.aggregate())
                updates += 1
        return updates

    assert benchmark(run) > 0


def test_query_overlap_checks(benchmark):
    """A million routing predicate evaluations."""
    query = RangeQuery(0, "temperature", 20.0, 25.0)
    rng = np.random.default_rng(4)
    ranges = rng.uniform(0, 50, size=(100_000, 2))
    ranges.sort(axis=1)

    def run():
        hits = 0
        for lo, hi in ranges:
            if query.overlaps(lo, hi):
                hits += 1
        return hits

    assert 0 < benchmark(run) < 100_000
