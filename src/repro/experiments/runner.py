"""Experiment runner: builds the full stack and drives the epoch loop.

The runner is the reproduction's equivalent of the paper's OMNeT++
simulation campaign driver.  Given an :class:`~repro.experiments.config.
ExperimentConfig` it

1. builds the world -- topology, wireless channel with unit-cost ledger,
   synthetic spatio-temporally correlated dataset, sensors, LMAC instance
   per node, spanning tree, and a DirQ or flooding protocol instance per
   node;
2. drives the epoch loop -- per-epoch sensor sampling and range
   maintenance, hourly EHr estimates, query generation/injection on the
   paper's schedule, scripted topology events, and windowed metric
   collection;
3. returns an :class:`ExperimentResult` containing the audit (ground truth
   vs deliveries), the energy ledger, the Fig. 6 update series, and
   summary statistics, from which every reproduced figure is computed.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.analytical import flooding_cost_general
from ..core.dirq_node import DirQNode
from ..core.dirq_root import DirQRoot
from ..core.flooding import FloodingNode, FloodingRoot
from ..core.messages import QUERY_KIND
from ..energy.battery import Battery
from ..energy.ledger import NetworkLedger
from ..mac.lmac import LMACProtocol
from ..metrics.accuracy import mean_accuracy, mean_overshoot
from ..metrics.audit import QueryAudit
from ..metrics.cost import CostBreakdown, cost_breakdown
from ..metrics.series import UpdateRateRecorder, WindowPoint
from ..network.addresses import NodeId
from ..network.channel import WirelessChannel
from ..network.node import SensorNode
from ..network.spanning_tree import SpanningTree, build_bfs_tree
from ..network.topology import Topology, random_geometric_topology
from ..obs.instrumentation import build_instrumentation
from ..scenarios.models import (
    ChurnModel,
    EnergyProfile,
    MobilityModel,
    TrafficProfile,
    rebuild_spanning_tree,
)
from ..sensors.dataset import SensorDataset
from ..sensors.sensor import SamplingCounter, Sensor
from ..sensors.types import DEFAULT_SENSOR_TYPES, default_type_specs
from ..simulation.engine import QUERY_DRAIN, SAMPLE_DRAIN, Simulator
from ..simulation.rng import RandomStreams
from ..workload.generator import QueryWorkloadGenerator
from ..workload.ground_truth import evaluate_query
from ..workload.injection import periodic_schedule
from ..workload.predictor import QueryRatePredictor
from .columnar import ColumnarTick
from .config import ExperimentConfig, ProtocolName, TopologyEvent


class HeadlineSummaries:
    """The headline summaries of one trial's record.

    Shared by :class:`ExperimentResult` and
    :class:`~repro.experiments.batch.TrialResult`, which both carry
    ``audit``, ``breakdown``, ``config``, ``flooding_cost_per_query``,
    ``num_queries`` and ``update_series``.
    """

    @property
    def mean_overshoot_percent(self) -> float:
        return mean_overshoot(self.audit.records)

    @property
    def mean_accuracy(self) -> float:
        return mean_accuracy(self.audit.records)

    @property
    def total_dirq_cost(self) -> float:
        return self.breakdown.total_dirq_cost

    @property
    def total_flooding_cost(self) -> float:
        """Flooding cost of the same query load (measured for flooding runs,
        the eq. 3 reference otherwise)."""
        if self.config.protocol == ProtocolName.FLOODING:
            return self.breakdown.flood_cost
        return self.flooding_cost_per_query * self.num_queries

    @property
    def cost_ratio(self) -> float:
        """DirQ total cost as a fraction of flooding the same workload."""
        flooding = self.total_flooding_cost
        if flooding <= 0:
            return float("inf")
        return self.total_dirq_cost / flooding

    def updates_per_window(self) -> List[float]:
        return [p.value for p in self.update_series]


@dataclasses.dataclass
class ExperimentResult(HeadlineSummaries):
    """Everything measured during one simulation run."""

    config: ExperimentConfig
    audit: QueryAudit
    ledger: NetworkLedger
    tree: SpanningTree
    num_queries: int
    flooding_cost_per_query: float
    update_series: List[WindowPoint]
    breakdown: CostBreakdown
    per_query_costs: List[float]
    atc_delta_history: Dict[int, List[float]]
    alive_at_end: Set[NodeId]
    num_nodes: int
    #: Effective dynamic-scenario events (churn kills/revivals, battery
    #: deaths) as ``(epoch, kind, node_id)`` tuples, and the number of
    #: mobility re-link rounds; both stay empty/zero for static runs.
    scenario_events: List[tuple] = dataclasses.field(default_factory=list)
    num_relinks: int = 0
    #: Observability payload (metric snapshots / phase profile / trace
    #: summary), present only when the config's ``instrument`` asked for
    #: it.  Never hashed, never fingerprinted, never cached.
    telemetry: Optional[dict] = None


class SimulationWorld:
    """All live objects of one simulation (built by :class:`ExperimentRunner`)."""

    def __init__(self) -> None:
        self.sim: Simulator
        self.topology: Topology
        self.channel: WirelessChannel
        self.ledger: NetworkLedger
        self.dataset: SensorDataset
        self.tree: SpanningTree
        self.nodes: Dict[NodeId, SensorNode] = {}
        self.macs: Dict[NodeId, LMACProtocol] = {}
        self.protocols: Dict[NodeId, object] = {}
        self.audit = QueryAudit()
        self.sampling = SamplingCounter()
        self.sensor_owners: Dict[str, Set[NodeId]] = {}
        #: The channel's alive set itself (``WirelessChannel.alive``).
        self.alive: Set[NodeId]
        #: Scenario-assigned finite batteries (empty for static runs).
        self.batteries: Dict[NodeId, Battery] = {}


class ExperimentRunner:
    """Builds and runs one experiment."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.world: Optional[SimulationWorld] = None

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------

    def build(self) -> SimulationWorld:
        """Construct the full simulation world (idempotent)."""
        if self.world is not None:
            return self.world
        cfg = self.config
        world = SimulationWorld()
        instrumentation = build_instrumentation(cfg)
        world.sim = Simulator(instrumentation=instrumentation)
        tracer = instrumentation.tracer

        # Topology and channel -------------------------------------------------
        world.topology = random_geometric_topology(
            num_nodes=cfg.num_nodes,
            comm_range=cfg.comm_range,
            area_size=cfg.area_size,
            rng=self.streams.get("topology"),
            root_id=cfg.root_id,
        )
        world.ledger = NetworkLedger()
        world.channel = WirelessChannel(
            sim=world.sim,
            topology=world.topology,
            ledger=world.ledger,
            loss_probability=cfg.channel_loss,
            rng=self.streams.get("channel"),
            tracer=tracer,
            metrics=instrumentation.metrics,
        )
        world.alive = world.channel.alive
        # Nodes dead from the start leave the alive set before the tree is
        # built, in sorted order: two equal sets can iterate differently.
        for nid in sorted(cfg.initially_dead):
            world.channel.set_alive(nid, False)

        # Dataset and sensors ---------------------------------------------------
        specs = dict(default_type_specs())
        if cfg.phenomena_specs:
            specs.update(cfg.phenomena_specs)
        wanted_types = list(cfg.sensor_types) if cfg.sensor_types else list(
            DEFAULT_SENSOR_TYPES
        )
        specs = {t: specs[t] for t in wanted_types}
        node_ids = world.topology.node_ids
        world.dataset = SensorDataset.generate(
            node_ids=node_ids,
            positions=world.topology.position_array(node_ids),
            num_epochs=cfg.num_epochs,
            rng=self.streams.get("phenomena"),
            specs=specs,
            epochs_per_day=cfg.epochs_per_day,
            spatial_method=cfg.phenomena_method or "exact",
        )

        # DirQ expresses δ in percent of the sensor type's full-scale range.
        # The nominal range from the type spec is preferred (so "δ = 3 %"
        # means the same thing regardless of run length); types without a
        # nominal range fall back to the empirical range of the generated
        # dataset.  The trial's DirQ config is a copy that carries them:
        # the runner never writes to its config.
        full_scale = dict(cfg.dirq.full_scale)
        for stype in world.dataset.sensor_types:
            spec = specs.get(stype)
            if spec is not None and spec.full_scale is not None:
                full_scale[stype] = float(spec.full_scale)
            else:
                lo, hi = world.dataset.value_range(stype)
                full_scale[stype] = max(1e-9, hi - lo)
        dirq = cfg.dirq.replace(full_scale=full_scale)

        sensor_assignment = self._assign_sensors(node_ids, wanted_types)
        world.sensor_owners = {
            stype: {nid for nid, types in sensor_assignment.items() if stype in types}
            for stype in wanted_types
        }

        # Nodes, MAC, tree, protocols -----------------------------------------------
        world.tree = build_bfs_tree(
            world.topology, root=cfg.root_id, alive=world.alive
        )
        mac_rng = self.streams.get("mac")
        for nid in node_ids:
            node = SensorNode(
                nid, world.topology.position(nid), is_root=(nid == cfg.root_id)
            )
            for stype in sensor_assignment[nid]:
                node.attach_sensor(
                    Sensor(nid, stype, world.dataset, counter=world.sampling)
                )
            world.nodes[nid] = node
            world.macs[nid] = LMACProtocol(
                sim=world.sim,
                channel=world.channel,
                node_id=nid,
                # Seeded from the "mac" stream, so per-node generators stay
                # a pure function of the experiment seed.
                rng=np.random.default_rng(  # reprolint: disable=RL104
                    mac_rng.integers(0, 2**63)
                ),
                beacon_interval=cfg.mac_beacon_interval,
                death_threshold=cfg.mac_death_threshold,
            )

        for nid in node_ids:
            node, mac = world.nodes[nid], world.macs[nid]
            if cfg.protocol == ProtocolName.DIRQ:
                if nid == cfg.root_id:
                    proto = DirQRoot(
                        world.sim,
                        node,
                        mac,
                        dirq,
                        audit=world.audit,
                        predictor=QueryRatePredictor(
                            initial_estimate=dirq.epochs_per_hour / cfg.query_period
                        ),
                    )
                else:
                    proto = DirQNode(world.sim, node, mac, dirq, audit=world.audit)
            else:
                if nid == cfg.root_id:
                    proto = FloodingRoot(world.sim, node, mac, audit=world.audit)
                else:
                    proto = FloodingNode(world.sim, node, mac, audit=world.audit)
            world.protocols[nid] = proto

        self._install_tree_links(world, world.tree)

        # Heterogeneous energy budgets (scenario-driven).  Capacities come
        # from the dedicated "scenario-energy" stream, so assigning them
        # perturbs no draw of the static components.
        if cfg.scenario is not None and cfg.scenario.energy is not None:
            world.batteries = EnergyProfile(cfg.scenario.energy).batteries(
                node_ids, cfg.root_id, self.streams.get("scenario-energy")
            )

        # Start the MAC layer.
        for nid in node_ids:
            if nid in world.alive:
                world.macs[nid].start()

        self.world = world
        return world

    # -- helpers -------------------------------------------------------------------

    def _assign_sensors(
        self, node_ids: List[NodeId], types: List[str]
    ) -> Dict[NodeId, List[str]]:
        # ExperimentConfig checked the spec and the mapping's types.
        cfg = self.config
        spec = cfg.sensors_per_node
        if spec is None:
            return {nid: list(types) for nid in node_ids}
        if isinstance(spec, dict):
            return {nid: list(spec.get(nid, types)) for nid in node_ids}
        rng = self.streams.get("sensor-assignment")
        assignment: Dict[NodeId, List[str]] = {}
        for nid in node_ids:
            chosen = rng.choice(len(types), size=spec, replace=False)
            assignment[nid] = sorted(types[i] for i in chosen)
        # The root keeps every type so queries of any type remain routable
        # through its tables once children advertise them.
        assignment[cfg.root_id] = list(types)
        return assignment

    def _install_tree_links(self, world: SimulationWorld, tree: SpanningTree) -> None:
        for nid, proto in world.protocols.items():
            if nid in tree:
                proto.set_tree_links(tree.parent_of(nid), tree.children(nid))
            else:
                proto.set_tree_links(None, [])

    def _maintain_tree(self, world: SimulationWorld) -> None:
        """Carry the tree over a kill, revival or re-link (paper §4.2).

        Every node keeps its parent while that parent is an alive radio
        neighbour one BFS level up (:func:`build_bfs_tree`'s rule); alive
        nodes the root cannot reach drop out of the tree until a later
        change reconnects them.  Parents forget their ex-children as the
        links are installed, and every node whose parent changed or that
        joined the tree re-advertises its ranges to its new parent.
        """
        old_tree = world.tree
        world.tree = rebuild_spanning_tree(
            world.topology, world.alive, self.config.root_id, previous=old_tree
        )
        self._install_tree_links(world, world.tree)
        for nid in world.tree.node_ids:
            if nid == self.config.root_id:
                continue
            if nid not in old_tree or old_tree.parent_of(nid) != world.tree.parent_of(nid):
                proto = world.protocols[nid]
                if hasattr(proto, "readvertise"):
                    proto.readvertise()

    def _apply_kill(self, world: SimulationWorld, node_id: NodeId) -> bool:
        """Kill an alive node; whether it was alive."""
        # Never the root: ExperimentConfig rejects a scripted root kill,
        # and churn and batteries spare it.
        if node_id not in world.alive:
            return False
        world.channel.set_alive(node_id, False)
        world.macs[node_id].shutdown()
        self._maintain_tree(world)
        return True

    def _apply_activation(self, world: SimulationWorld, node_id: NodeId) -> bool:
        """Revive a dead node; whether it was dead."""
        if node_id in world.alive:
            return False
        # Reactivation models a battery swap / reboot: a node whose finite
        # budget was exhausted comes back with a fresh one, which owes only
        # what the node spends from now on, otherwise the energy check
        # would kill it again at the very next period.
        battery = world.batteries.get(node_id)
        if battery is not None:
            battery.recharge(world.ledger.node(node_id).total_cost())
        world.channel.set_alive(node_id, True)
        # A node dead from the start has never started its MAC: start()
        # arms its first beacon, and wake() replaces it with one an access
        # delay from now.
        world.macs[node_id].start()
        world.macs[node_id].wake()
        self._maintain_tree(world)
        return True

    def _apply_relink(self, world: SimulationWorld, mobility: MobilityModel) -> None:
        """Advance mobile nodes one re-link period and repair the overlay.

        Positions move, unit-disk connectivity is re-derived, and the
        spanning tree is carried over to the new links.
        """
        moved = mobility.step()
        world.topology, _ = world.topology.with_positions_delta(moved)
        world.channel.update_topology(world.topology)
        self._maintain_tree(world)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------

    def run(self) -> ExperimentResult:
        """Run the configured experiment and return its measurements."""
        cfg = self.config
        world = self.build()
        sim = world.sim
        is_dirq = cfg.protocol == ProtocolName.DIRQ
        root = world.protocols[cfg.root_id]

        # Workload -------------------------------------------------------------------
        generator = QueryWorkloadGenerator(
            dataset=world.dataset,
            tree=world.tree,
            rng=self.streams.get("workload"),
            sensor_types=(
                [cfg.query_sensor_type] if cfg.query_sensor_type else None
            ),
            sensor_owners=world.sensor_owners,
            alive=world.alive,
        )

        # Dynamic-scenario models.  Each draws from its own named stream,
        # so a scenario perturbs no draw of the static components and a
        # scenario trial is a pure function of its config.
        scenario = cfg.scenario
        traffic: Optional[TrafficProfile] = None
        if scenario is not None and scenario.traffic is not None:
            traffic = TrafficProfile(scenario.traffic)
            schedule = traffic.schedule(
                cfg.num_epochs, cfg.epochs_per_day, self.streams.get("scenario-traffic")
            )
        else:
            schedule = periodic_schedule(cfg.num_epochs, cfg.query_period)
        injections: Dict[int, int] = {}
        for epoch in schedule:
            injections[epoch] = injections.get(epoch, 0) + 1

        # Every scheduled kill and revival, epoch -> (kind, node, recorded):
        # the scripted ones first, then churn's pre-sampled timeline.  Only
        # churn's are recorded as scenario telemetry: recording scripted
        # ones would move the fingerprint of every scripted trial.
        timeline: Dict[int, List[Tuple[str, NodeId, bool]]] = {}
        for event in cfg.topology_events:
            timeline.setdefault(event.epoch, []).append(
                (event.kind, event.node_id, False)
            )
        if scenario is not None and scenario.churn is not None:
            churn_events = ChurnModel(scenario.churn).events(
                sorted(world.alive),
                cfg.root_id,
                cfg.num_epochs,
                self.streams.get("scenario-churn"),
                # Area-failure disc membership is evaluated on the
                # deployment positions; mobility later in the run does not
                # re-draw the blast.
                positions=world.topology.positions,
            )
            for epoch, kind, nid in churn_events:
                timeline.setdefault(epoch, []).append((kind, nid, True))

        mobility: Optional[MobilityModel] = None
        if scenario is not None and scenario.mobility is not None:
            mobility = MobilityModel(scenario.mobility, cfg.area_size)
            mobility.initialise(
                world.topology.positions,
                cfg.root_id,
                self.streams.get("scenario-mobility"),
            )

        energy_cfg = scenario.energy if scenario is not None else None
        applied_events: List[tuple] = []
        num_relinks = 0

        def change(epoch: int, kind: str, node_id: NodeId, recorded: bool) -> bool:
            """Kill or revive one node; whether the alive set changed.

            A kill of a dead node or a revival of an alive one is a no-op,
            and only an effective change is recorded.
            """
            if kind == TopologyEvent.KILL:
                effective = self._apply_kill(world, node_id)
            else:
                effective = self._apply_activation(world, node_id)
            if effective and recorded:
                applied_events.append((epoch, kind, node_id))
            return effective

        # Reference costs ---------------------------------------------------------------
        flooding_per_query = flooding_cost_general(
            len(world.alive), world.channel.num_links
        )
        if is_dirq:
            root.set_network_size(len(world.alive))
            root.set_flooding_cost(flooding_per_query)

        recorder = UpdateRateRecorder(world.ledger, cfg.window_epochs)
        per_query_costs: List[float] = []
        atc_history: Dict[int, List[float]] = {}
        num_queries = 0

        # Hot-loop caches.  The alive set only changes on kills and
        # revivals, so the sorted protocol list is rebuilt there instead of
        # re-sorting (and re-indexing the protocol dict) every epoch.  The
        # boundary drains go through Simulator.run_until, whose cached head
        # time makes the no-pending-events case O(1) -- the common case for
        # epochs without protocol traffic.
        run_until = sim.run_until
        epochs_per_hour = cfg.dirq.epochs_per_hour
        window_epochs = cfg.window_epochs

        # Every DirQ trial ticks columnar: one numpy pass per sensor type
        # instead of the per-node on_epoch loop, bit-identical by
        # construction (see repro.experiments.columnar).  Flooding keeps
        # no per-epoch state, so its trials tick nothing.
        columnar: Optional[ColumnarTick] = None
        alive_protocols: List = []
        if is_dirq:
            alive_protocols = [world.protocols[nid] for nid in sorted(world.alive)]
            # The trial's DirQ config, which every DirQ node holds.
            columnar = ColumnarTick(world.dataset, root.config)
            columnar.set_protocols(alive_protocols)

        # Phase profiling ("full" instrumentation only).  ``begin`` both
        # opens a phase and closes the previous one, so the loop below
        # needs no end() calls; the ``profiling`` guard keeps the
        # uninstrumented hot loop at one bool test per section.
        phases = sim.instrumentation.phases
        profiling = phases.enabled
        begin_phase = phases.begin

        for epoch in range(cfg.num_epochs):
            if profiling:
                begin_phase("mac")
            run_until(float(epoch))

            if profiling:
                begin_phase("scenario-hooks")
            topology_changed = False

            for kind, nid, recorded in timeline.get(epoch, ()):
                if change(epoch, kind, nid, recorded):
                    topology_changed = True

            # Mobility: advance positions and re-derive links and tree.
            if (
                mobility is not None
                and epoch > 0
                and epoch % scenario.mobility.relink_period == 0
            ):
                if profiling:
                    begin_phase("tree-repair")
                self._apply_relink(world, mobility)
                num_relinks += 1
                topology_changed = True
                if profiling:
                    begin_phase("scenario-hooks")

            # Heterogeneous energy: each battery draws its node's ledger
            # spend since its checkpoint; depletion kills the node exactly
            # like a scripted failure.
            if (
                world.batteries
                and epoch > 0
                and epoch % energy_cfg.check_period == 0
            ):
                for nid in sorted(world.alive):
                    battery = world.batteries.get(nid)
                    if battery is None or nid == cfg.root_id:
                        continue
                    battery.drain_to(world.ledger.node(nid).total_cost())
                    if battery.depleted and change(
                        epoch, TopologyEvent.KILL, nid, True
                    ):
                        topology_changed = True

            if topology_changed:
                generator.set_tree(world.tree)
                if is_dirq:
                    root.set_network_size(len(world.alive))
                    # DirQ trials only: flooding trials report their
                    # deployment's value, which their pinned digests hold.
                    flooding_per_query = flooding_cost_general(
                        len(world.alive), world.channel.num_links
                    )
                    root.set_flooding_cost(flooding_per_query)
                    now_alive = [world.protocols[nid] for nid in sorted(world.alive)]
                    # The columnar rows depend only on the alive list (the
                    # tick itself detects sensor-suite and table-set
                    # changes), so a re-link, which moves nodes but kills
                    # none, keeps them.
                    if now_alive != alive_protocols:
                        alive_protocols = now_alive
                        columnar.set_protocols(alive_protocols)

            # Hourly EHr estimate (DirQ only).
            if is_dirq and epoch % epochs_per_hour == 0:
                if profiling:
                    begin_phase("protocol-tick")
                root.start_new_hour(epoch)

            # Per-epoch sensing and range maintenance.
            if profiling:
                begin_phase("sample")
            if columnar is not None:
                columnar.tick(epoch)
            if profiling:
                begin_phase("channel")
            run_until(epoch + SAMPLE_DRAIN)

            # Query injections scheduled for this epoch.
            if profiling:
                begin_phase("protocol-tick")
            for _ in range(injections.get(epoch, 0)):
                target_coverage = (
                    traffic.coverage_at(epoch, cfg.num_epochs, cfg.target_coverage)
                    if traffic is not None
                    else cfg.target_coverage
                )
                generated = generator.generate(
                    epoch, target_coverage, cfg.query_sensor_type
                )
                query = generated.query
                sources, should = evaluate_query(
                    world.dataset,
                    world.tree,
                    query,
                    epoch,
                    world.sensor_owners,
                    world.alive,
                )
                world.audit.register_query(
                    query,
                    sources,
                    should,
                    epoch,
                    population=max(1, len(world.alive) - 1),
                )
                cost_kind = QUERY_KIND if is_dirq else "flood"
                before = world.ledger.total_cost([cost_kind])
                root.inject_query(query)
                if profiling:
                    begin_phase("channel")
                run_until(epoch + QUERY_DRAIN)
                if profiling:
                    begin_phase("protocol-tick")
                after = world.ledger.total_cost([cost_kind])
                per_query_costs.append(after - before)
                if is_dirq:
                    root.observe_query_cost(after - before)
                num_queries += 1

            # ATC telemetry (sampled once per window).
            if is_dirq and (epoch + 1) % window_epochs == 0:
                for proto in alive_protocols:
                    if getattr(proto, "atc", None) is not None:
                        stype = (
                            cfg.query_sensor_type
                            or world.dataset.sensor_types[0]
                        )
                        atc_history.setdefault(proto.node_id, []).append(
                            proto.atc.delta_percent(stype)
                        )

            # Fig. 6 window bookkeeping.
            if (epoch + 1) % window_epochs == 0:
                recorder.on_window_end(epoch + 1 - window_epochs)

        if profiling:
            begin_phase("channel")
        sim.run_until(float(cfg.num_epochs))
        if columnar is not None:
            # Fold deferred suppression / sampling counters back into the
            # protocol objects before anything reads them.
            columnar.finalize()
        if profiling:
            phases.end()

        instrumentation = sim.instrumentation
        telemetry: Optional[dict] = None
        if instrumentation.enabled:
            if instrumentation.metrics.enabled:
                self._harvest_metrics(
                    world,
                    num_epochs=cfg.num_epochs,
                    num_relinks=num_relinks,
                    num_scenario_events=len(applied_events),
                    num_queries=num_queries,
                )
            telemetry = {}
            if instrumentation.metrics.enabled:
                telemetry["metrics"] = instrumentation.metrics.snapshot()
            if instrumentation.phases.enabled:
                telemetry["phases"] = instrumentation.phases.snapshot()
            if instrumentation.tracer.enabled:
                telemetry["trace"] = instrumentation.tracer.summary()

        return ExperimentResult(
            config=cfg,
            audit=world.audit,
            ledger=world.ledger,
            tree=world.tree,
            num_queries=num_queries,
            flooding_cost_per_query=flooding_per_query,
            update_series=recorder.series,
            breakdown=cost_breakdown(world.ledger),
            per_query_costs=per_query_costs,
            atc_delta_history=atc_history,
            alive_at_end=set(world.alive),
            num_nodes=cfg.num_nodes,
            scenario_events=applied_events,
            num_relinks=num_relinks,
            telemetry=telemetry,
        )

    def _harvest_metrics(
        self,
        world: SimulationWorld,
        num_epochs: int,
        num_relinks: int,
        num_scenario_events: int,
        num_queries: int,
    ) -> None:
        """Fold every component's plain counters into the metrics registry.

        The components themselves never touch the registry: they keep
        unconditional int counters (cheaper than any enabled-check in
        their hot paths) which this harvest reads once per trial.  Node
        iteration is sorted so snapshots are order-stable regardless of
        dict insertion history.
        """
        metrics = world.sim.instrumentation.metrics
        sim = world.sim
        metrics.inc("engine.events_executed", sim.executed)
        metrics.inc("engine.events_cancelled", sim.cancelled_total)
        metrics.inc("engine.compactions", sim.compactions)
        stats = world.channel.stats
        metrics.inc("channel.broadcasts", stats.broadcasts)
        metrics.inc("channel.unicasts", stats.unicasts)
        metrics.inc("channel.deliveries", stats.deliveries)
        metrics.inc("channel.drops_loss", stats.drops_loss)
        metrics.inc("channel.drops_dead_node", stats.drops_dead_node)
        metrics.inc("channel.drops_no_link", stats.drops_no_link)
        metrics.inc("channel.frames_split", stats.frames_split)
        for nid in sorted(world.macs):
            mac = world.macs[nid]
            metrics.inc("mac.beacons_sent", mac.beacons_sent)
            metrics.inc("mac.frame_beacons", mac.frame_beacons_sent)
        for nid in sorted(world.protocols):
            proto = world.protocols[nid]
            tables = getattr(proto, "tables", None)
            if tables is not None:
                metrics.observe("dirq.table_entries", tables.total_entries())
            # Unrolled rather than looped over (attr, name) pairs: RL501
            # requires metric names to be string literals at the call site.
            if getattr(proto, "updates_sent", 0):
                metrics.inc("dirq.updates_sent", proto.updates_sent)
            if getattr(proto, "updates_suppressed", 0):
                metrics.inc("dirq.updates_suppressed", proto.updates_suppressed)
            if getattr(proto, "queries_received", 0):
                metrics.inc("dirq.queries_received", proto.queries_received)
            if getattr(proto, "queries_forwarded", 0):
                metrics.inc("dirq.queries_forwarded", proto.queries_forwarded)
        metrics.inc("runner.epochs", num_epochs)
        metrics.inc("runner.relinks", num_relinks)
        metrics.inc("runner.scenario_events", num_scenario_events)
        metrics.inc("runner.queries_injected", num_queries)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Convenience wrapper: build and run one experiment."""
    return ExperimentRunner(config).run()
