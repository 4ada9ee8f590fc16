"""Query calibration against the ground-truth walk it replaced.

:class:`~repro.workload.generator.QueryWorkloadGenerator` prices each
bisection candidate by OR-ing per-tree root-path bitsets.
:func:`tests.differential.reference.coverage_for` prices the same
candidate through :func:`~tests.differential.reference.involvement_fraction`:
a ``RangeQuery``, the source and should-receive sets, and a tree walk per
source.  Every candidate a trial's generator evaluates must get the same
coverage from both, bit for bit, so the bisection takes the same steps.
The reference counts only the trial's alive nodes as sources, while the
generator has no alive set: a dead node is outside its tree.  The
scenarios cover a static tree, bursty traffic, kills and revivals (the
alive set changes under the generator), and mobility re-links (the tree
changes under it), at 50 and at 500 nodes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.experiments.runner import ExperimentRunner
from repro.network.spanning_tree import build_bfs_tree
from repro.network.topology import random_geometric_topology
from repro.scenarios.registry import build_config
from repro.sensors.dataset import SensorDataset
from repro.workload.generator import QueryWorkloadGenerator

from . import reference

#: (scenario, epochs): the 500-node cell is slow under the reference.
CELLS = (
    ("static-paper", 400),
    ("bursty-20", 400),
    ("churn-revive", 400),
    ("mobile-40", 400),
    ("scale-500-mobile", 60),
)


@pytest.mark.parametrize("scenario,epochs", CELLS, ids=str)
def test_every_candidate_coverage_matches_the_reference(scenario, epochs):
    pairs: List[Tuple[float, float]] = []
    production = QueryWorkloadGenerator._coverage_for
    runner = ExperimentRunner(build_config(scenario, epochs, 1))

    def checked(generator, sensor_type, epoch, centre):
        coverage_for = production(generator, sensor_type, epoch, centre)

        def both(half_width):
            got = coverage_for(half_width)
            expected = reference.coverage_for(
                generator, sensor_type, epoch, centre, half_width,
                runner.world.alive,
            )
            pairs.append((got, expected))
            return got

        return both

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(QueryWorkloadGenerator, "_coverage_for", checked)
        runner.run()
    # The oracle ran: every query evaluates at least the full range and
    # the chosen width.
    assert len(pairs) >= 2 * (epochs // 20 - 1) > 0
    mismatched = [(got, want) for got, want in pairs if got.hex() != want.hex()]
    assert not mismatched, f"{len(mismatched)} of {len(pairs)}: {mismatched[:5]}"


def test_candidates_leave_out_dead_nodes_and_nodes_without_the_type():
    """The tree spans the alive nodes, as a trial's does, and a third of
    the nodes carry no sensor, so only the eligibility mask can leave
    those out."""
    rng = np.random.default_rng(5)
    topology = random_geometric_topology(30, 35.0, rng=rng)
    node_ids = topology.node_ids
    dataset = SensorDataset.generate(
        node_ids, topology.position_array(node_ids), 4, rng
    )
    owners = {
        stype: {nid for nid in node_ids if nid % 3} for stype in dataset.sensor_types
    }
    alive = set(node_ids) - {4, 7, 11, 20}
    generator = QueryWorkloadGenerator(
        dataset,
        build_bfs_tree(topology, alive=alive, partial=True),
        rng,
        sensor_owners=owners,
    )
    evaluated = 0
    for stype in dataset.sensor_types:
        for epoch in range(dataset.num_epochs):
            values = dataset.epoch_slice(stype, epoch)
            span = float(values.max() - values.min())
            for centre in values[:6].tolist():
                coverage_for = generator._coverage_for(stype, epoch, centre)
                for half_width in np.linspace(0.0, span, 9).tolist():
                    expected = reference.coverage_for(
                        generator, stype, epoch, centre, half_width, alive
                    )
                    assert coverage_for(half_width).hex() == expected.hex()
                    evaluated += expected > 0
    assert evaluated > 0
