"""DirQ root (sink) behaviour.

The root is an ordinary DirQ node (it maintains Range Tables fed by its
children's Update Messages and may carry sensors of its own) with three
extra responsibilities taken from §3, §4 and §6 of the paper:

* **Query injection.**  The server attached to the root submits one-shot
  range queries; the root consults its Range Tables and forwards each query
  only to the children whose advertised ranges overlap the queried interval.
* **Hourly EHr estimates.**  Once per hour the root predicts the number of
  queries expected over the next hour (using the workload predictor, which
  mirrors the web-server access prediction techniques the paper cites) and
  disseminates an :class:`~repro.core.messages.EstimateMessage` down the
  tree.
* **Update budgeting (ATC, root half).**  In adaptive mode the root turns
  the predicted load into a per-node update budget via
  :class:`~repro.core.atc.RootBudgetPlanner` and piggybacks it on the
  estimate message, so each node can autonomously steer its threshold.
"""

from __future__ import annotations

from typing import Optional

from ..mac.lmac import LMACProtocol
from ..network.node import SensorNode
from ..simulation.engine import Simulator
from .atc import RootBudgetPlanner
from .config import DirQConfig
from .dirq_node import DirQNode
from .messages import EstimateMessage, RangeQuery


class DirQRoot(DirQNode):
    """DirQ instance on the root/sink node.

    Parameters
    ----------
    sim, node, mac, config, audit:
        As for :class:`~repro.core.dirq_node.DirQNode`.
    predictor:
        Object with a ``predict()`` method returning the expected number of
        queries in the next hour and a ``record(count)`` method fed with the
        realised per-hour counts (see
        :class:`~repro.workload.predictor.QueryRatePredictor`).  Optional:
        without it the root assumes the most recent hour repeats.
    """

    def __init__(
        self,
        sim: Simulator,
        node: SensorNode,
        mac: LMACProtocol,
        config: DirQConfig,
        audit=None,
        predictor=None,
    ):
        if not node.is_root:
            raise ValueError("DirQRoot must run on the node marked is_root=True")
        super().__init__(sim, node, mac, config, audit)
        self.predictor = predictor
        self.planner = RootBudgetPlanner(config)
        self.hour_index = -1
        self._queries_this_hour = 0
        self._network_size = 1
        self._flooding_cost_per_query: Optional[float] = None

    # ------------------------------------------------------------------
    # Deployment-time calibration hooks (set by the experiment runner)
    # ------------------------------------------------------------------

    def set_network_size(self, num_alive_nodes: int) -> None:
        """Tell the root how many nodes are currently alive.

        In a deployment this comes from the node registry the sink keeps
        anyway (every node registered at deployment time, minus death
        notifications propagated up the tree).
        """
        if num_alive_nodes < 1:
            raise ValueError("network must contain at least the root")
        self._network_size = int(num_alive_nodes)

    def set_flooding_cost(self, cost_per_query: float) -> None:
        """Install the flooding-cost reference C_F used by the budget planner.

        The experiment runner supplies the measured ``N + 2 x links`` value
        (eq. 3); a deployment would use the analytical estimate for its
        commissioning topology.
        """
        if cost_per_query <= 0:
            raise ValueError("flooding cost must be positive")
        self._flooding_cost_per_query = float(cost_per_query)

    def observe_query_cost(self, cost: float) -> None:
        """Feed the measured dissemination cost of a completed query to ATC."""
        self.planner.observe_query_cost(cost)

    @property
    def flooding_cost_per_query(self) -> Optional[float]:
        return self._flooding_cost_per_query

    # ------------------------------------------------------------------
    # Query injection
    # ------------------------------------------------------------------

    def inject_query(self, query: RangeQuery) -> int:
        """Inject a one-shot range query at the root.

        Returns the number of children the query was forwarded to.  The root
        itself evaluates the query against its own sensors (it can be a
        source) but is not counted as "receiving" the query for accuracy
        purposes -- the injected query necessarily exists at the root.
        """
        if not self.alive:
            raise RuntimeError("cannot inject a query at a dead root")
        self._queries_this_hour += 1
        if self.tables.table(query.sensor_type) is None:
            # No node in the network (as far as the root knows) carries this
            # sensor type; the query dies at the root.
            self.sim.tracer.record(
                self.sim.now,
                "dirq.query_unroutable",
                self.node_id,
                query_id=query.query_id,
            )
            return 0
        forwarded = self._evaluate_and_forward(query)
        self.sim.tracer.record(
            self.sim.now,
            "dirq.query_injected",
            self.node_id,
            query_id=query.query_id,
            forwarded=forwarded,
        )
        return forwarded

    # ------------------------------------------------------------------
    # Hourly estimate broadcast (EHr) and ATC budgeting
    # ------------------------------------------------------------------

    def start_new_hour(self) -> EstimateMessage:
        """Begin a new hour: predict the load and disseminate the estimate."""
        self.hour_index += 1
        if self.predictor is not None:
            if self.hour_index > 0:
                # The very first "hour" starts at epoch 0 before any query
                # has been injected; recording a zero there would poison the
                # forecast, so only completed hours feed the predictor.
                self.predictor.record(self._queries_this_hour)
            expected = float(self.predictor.predict())
        else:
            expected = float(self._queries_this_hour)
        self._queries_this_hour = 0

        node_budget: Optional[float] = None
        if self.config.adaptive and self._flooding_cost_per_query is not None:
            plan = self.planner.plan(
                hour_index=self.hour_index,
                expected_queries=expected,
                flooding_cost_per_query=self._flooding_cost_per_query,
                network_size=self._network_size,
            )
            node_budget = plan.node_update_budget

        message = EstimateMessage(
            expected_queries=expected,
            hour_index=self.hour_index,
            network_size=self._network_size,
            node_update_budget=node_budget,
        )
        # The root participates in ATC like everyone else.
        if self.atc is not None:
            self.atc.on_estimate(node_budget)
        self._last_estimate_hour = self.hour_index
        self._relay_estimate(message)
        self.sim.tracer.record(
            self.sim.now,
            "dirq.estimate",
            self.node_id,
            hour=self.hour_index,
            expected_queries=expected,
            node_budget=node_budget,
        )
        return message
