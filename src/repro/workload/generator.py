"""Range-query workload generation.

The paper's simulations inject "random queries which covered 20%, 40% and
60% of the nodes ... every 20 epochs" (§7).  Coverage there means the
fraction of nodes *involved* in answering the query -- the sources plus the
intermediate forwarders on the communication tree -- which depends on both
the queried value interval and where the matching nodes happen to sit in the
tree.

:class:`QueryWorkloadGenerator` therefore calibrates each query against the
ground truth: it picks a random centre value from the current readings of
the queried sensor type and then searches for the interval half-width whose
involvement fraction is closest to the requested coverage.  The search is a
bisection over the half-width (involvement is monotone non-decreasing in the
half-width), so generation is deterministic given the RNG stream.

A bisection evaluates about 22 candidate intervals per query on a tree that
rarely changes, so the generator keeps one *root-path bitset* per dataset
column for its current tree: the nodes on the column's root path, root left
out, as bits of a Python int (0 for a node outside the tree).  A candidate's
involved set is then the OR of the bitsets of the columns whose reading lies
in the interval and whose node carries the type, and its size is that OR's
popcount -- the integer that
:func:`~repro.workload.ground_truth.evaluate_query`'s should-receive set
would count.  :meth:`QueryWorkloadGenerator.set_tree` drops the bitsets.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Set

import numpy as np

from ..core.messages import RangeQuery
from ..network.addresses import NodeId
from ..network.spanning_tree import SpanningTree
from ..sensors.dataset import SensorDataset


@dataclasses.dataclass(frozen=True)
class GeneratedQuery:
    """A calibrated query plus the ground truth known at generation time."""

    query: RangeQuery
    target_coverage: float
    achieved_coverage: float


class QueryWorkloadGenerator:
    """Generates one-shot range queries with a target node involvement.

    Parameters
    ----------
    dataset:
        Ground-truth readings used for calibration.
    tree:
        Communication tree used to count forwarding nodes.
    rng:
        Random stream (centre-value selection and sensor-type choice).
    sensor_types:
        Types to draw queries over; defaults to every type in the dataset.
    sensor_owners:
        Mapping sensor type -> nodes that carry it (heterogeneous networks).
    max_bisection_steps:
        Iterations of the half-width bisection; 20 gives sub-0.1 % width
        resolution over the full value range.
    """

    def __init__(
        self,
        dataset: SensorDataset,
        tree: SpanningTree,
        rng: np.random.Generator,
        sensor_types: Optional[Sequence[str]] = None,
        sensor_owners: Optional[Dict[str, Set[NodeId]]] = None,
        max_bisection_steps: int = 20,
    ):
        self.dataset = dataset
        self.tree = tree
        self.rng = rng
        self.sensor_types = (
            list(sensor_types) if sensor_types is not None else dataset.sensor_types
        )
        unknown = [t for t in self.sensor_types if not dataset.has_type(t)]
        if unknown:
            raise KeyError(f"dataset lacks sensor types {unknown}")
        self.sensor_owners = sensor_owners
        self.max_bisection_steps = int(max_bisection_steps)
        self._next_query_id = 0
        #: Root-path bitset per dataset column for ``tree``; built on first
        #: use, dropped by :meth:`set_tree`.
        self._paths: Optional[List[int]] = None

    # -- configuration hooks ----------------------------------------------------

    def set_tree(self, tree: SpanningTree) -> None:
        """Follow topology repairs so coverage stays calibrated."""
        self.tree = tree
        self._paths = None

    # -- generation --------------------------------------------------------------

    def next_query_id(self) -> int:
        qid = self._next_query_id
        self._next_query_id += 1
        return qid

    def generate(
        self,
        epoch: int,
        target_coverage: float,
        sensor_type: Optional[str] = None,
    ) -> GeneratedQuery:
        """Generate one query whose involvement is close to ``target_coverage``.

        Parameters
        ----------
        epoch:
            Injection epoch (calibration uses the readings of this epoch).
        target_coverage:
            Desired fraction of non-root nodes involved (0, 1].
        sensor_type:
            Fix the queried type; a uniform random choice when omitted.
        """
        if not (0.0 < target_coverage <= 1.0):
            raise ValueError("target_coverage must be in (0, 1]")
        if sensor_type is None:
            sensor_type = self.sensor_types[
                int(self.rng.integers(0, len(self.sensor_types)))
            ]
        elif sensor_type not in self.sensor_types:
            raise KeyError(f"unknown sensor type {sensor_type!r}")

        values = self.dataset.epoch_slice(sensor_type, epoch)
        lo_all, hi_all = float(values.min()), float(values.max())
        span = max(hi_all - lo_all, 1e-9)

        # Centre the interval on the reading of a randomly chosen node so
        # queries land in populated regions of the value space.
        centre = float(values[int(self.rng.integers(0, len(values)))])
        coverage_for = self._coverage_for(sensor_type, epoch, centre)

        # Bisection over the half-width.  Involvement is monotone in the
        # half-width, from the coverage of the singleton interval up to the
        # coverage of the full value range.
        low_hw, high_hw = 0.0, span
        if coverage_for(high_hw) < target_coverage:
            best_hw = high_hw
        else:
            best_hw = high_hw
            for _ in range(self.max_bisection_steps):
                mid = (low_hw + high_hw) / 2.0
                if coverage_for(mid) >= target_coverage:
                    best_hw = mid
                    high_hw = mid
                else:
                    low_hw = mid

        achieved = coverage_for(best_hw)
        query = RangeQuery(
            query_id=self.next_query_id(),
            sensor_type=sensor_type,
            low=centre - best_hw,
            high=centre + best_hw,
            epoch=epoch,
        )
        return GeneratedQuery(
            query=query,
            target_coverage=float(target_coverage),
            achieved_coverage=float(achieved),
        )

    # -- calibration ---------------------------------------------------------------

    def _coverage_for(
        self, sensor_type: str, epoch: int, centre: float
    ) -> Callable[[float], float]:
        """Involvement of ``[centre - hw, centre + hw]``, as a function of ``hw``.

        Equals :func:`~repro.workload.ground_truth.evaluate_query`'s
        should-receive count over ``max(1, tree.num_nodes - 1)``: the range
        test is :meth:`SensorDataset.matching_nodes`' expression, and the
        eligibility mask keeps the sources that carry the type.  A node
        outside the tree -- a dead one, in a trial -- has root-path bitset
        0, so it involves no node.
        """
        values = self.dataset.epoch_slice(sensor_type, epoch)
        paths = self._root_paths()
        owners = (
            self.sensor_owners.get(sensor_type, set())
            if self.sensor_owners is not None
            else None
        )
        eligible = np.array(
            [owners is None or nid in owners for nid in self.dataset.node_ids],
            dtype=bool,
        )
        denominator = max(1, self.tree.num_nodes - 1)

        def coverage_for(half_width: float) -> float:
            low = centre - half_width
            high = centre + half_width
            mask = (values >= low) & (values <= high) & eligible
            involved = 0
            for column in np.flatnonzero(mask).tolist():
                involved |= paths[column]
            return involved.bit_count() / denominator

        return coverage_for

    def _root_paths(self) -> List[int]:
        """The tree's root-path bitset of every dataset column (memoised)."""
        paths = self._paths
        if paths is None:
            parent = self.tree.parent
            bit = {node: 1 << i for i, node in enumerate(parent)}
            # Each node's path is its own bit plus its parent's path.
            memo: Dict[NodeId, int] = {self.tree.root: 0}
            for node in parent:
                chain = []
                cur = node
                while cur not in memo:
                    chain.append(cur)
                    cur = parent[cur]
                path = memo[cur]
                for cur in reversed(chain):
                    path |= bit[cur]
                    memo[cur] = path
            paths = self._paths = [memo.get(nid, 0) for nid in self.dataset.node_ids]
        return paths
