"""Experiment configuration.

One :class:`ExperimentConfig` describes a complete simulation campaign: the
deployment (topology, sensors), the workload (query coverage, injection
period), the protocol under test (DirQ with fixed δ or ATC, or flooding),
and any scripted topology dynamics.  The defaults reproduce the paper's §7
setup: 50 nodes including one root, 4 correlated sensor types, a query
every 20 epochs, 20 000 epochs (scaled down for the benchmark harness).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set

from ..core.config import DirQConfig, ThresholdMode
from ..network.addresses import NodeId
from ..scenarios.spec import ScenarioConfig
from ..sensors.types import DEFAULT_SENSOR_TYPES


class ProtocolName:
    """Which dissemination protocol an experiment runs."""

    DIRQ = "dirq"
    FLOODING = "flooding"

    ALL = (DIRQ, FLOODING)


@dataclasses.dataclass
class TopologyEvent:
    """A scripted topology change applied at a given epoch."""

    epoch: int
    kind: str  # "kill" or "activate"
    node_id: NodeId

    KILL = "kill"
    ACTIVATE = "activate"

    def __post_init__(self) -> None:
        if self.kind not in (self.KILL, self.ACTIVATE):
            raise ValueError(f"unknown topology event kind {self.kind!r}")
        if self.epoch < 0:
            raise ValueError("event epoch must be non-negative")


@dataclasses.dataclass
class ExperimentConfig:
    """Full description of one simulation run.

    Attributes
    ----------
    num_nodes:
        Total nodes including the root (the paper uses 50).  The node ids
        are ``range(num_nodes)``, and ``root_id``, ``initially_dead``,
        ``topology_events`` and a ``sensors_per_node`` mapping may name
        no other.
    comm_range, area_size:
        Unit-disk deployment parameters.
    seed:
        Master seed; all random streams derive from it.
    num_epochs:
        Length of the run (the paper uses 20 000; benchmarks scale this
        down).
    query_period:
        Epochs between query injections (paper: 20).
    target_coverage:
        Desired fraction of nodes involved per query (paper: 0.2/0.4/0.6).
    query_sensor_type:
        Restrict queries to a single sensor type; ``None`` draws uniformly.
    protocol:
        ``"dirq"`` or ``"flooding"``.
    dirq:
        DirQ protocol configuration (ignored for flooding).
    sensor_types:
        Sensor types to generate; defaults to the standard four.
    sensors_per_node:
        ``None`` mounts every type on every node (the paper's setting);
        an integer ``k`` mounts a random subset of ``k`` types per node
        (heterogeneous networks, Fig. 4); an explicit mapping node -> list
        of the trial's types gives full control (an unlisted node mounts
        every type).  Anything else fails at construction.
    phenomena_specs:
        Optional overrides of the synthetic phenomena
        (:class:`~repro.sensors.types.SensorTypeSpec` per type name); the
        calibrated defaults of :func:`~repro.sensors.types.default_type_specs`
        are used otherwise.
    window_epochs:
        Metrics window (Fig. 6/7 use 100 epochs).
    epochs_per_day:
        Length of the diurnal cycle in the synthetic phenomena.
    channel_loss:
        Per-reception loss probability (0 = the paper's ideal channel;
        1 = the "all receptions fail" ablation).
    mac_beacon_interval, mac_death_threshold:
        LMAC parameters: epochs between beacons, and missed beacon periods
        before a neighbour is declared dead.  LMAC's TDMA slots are not
        modelled (slot access is a constant delay), so there is no frame
        length to configure.
    topology_events:
        Scripted node deaths / activations.  None may kill the root.
    scenario:
        Optional dynamic-scenario bundle (churn, mobility, time-varying
        traffic, heterogeneous energy budgets); ``None`` reproduces the
        paper's static behaviour exactly.  When set, its parameters are
        part of the config hash; when unset the field is omitted from the
        hash payload so pre-scenario cache keys stay valid.
    initially_dead:
        Nodes present in the dataset and topology but switched off at t=0.
        A ``TopologyEvent.ACTIVATE`` switches one on: that is how a trial
        models a post-deployment join, since the node set never changes.
    instrument:
        Observability level (see :mod:`repro.obs`): ``None`` (off),
        ``"metrics"`` (counters/histograms harvested into the trial's
        ``telemetry`` payload), or ``"full"`` (metrics + phase profiler +
        tracer).  **Hash-exempt**: flipping it never changes a
        ``config_hash``, cache key, or fingerprint -- instrumentation
        observes a trial, it never defines one.
    """

    #: Fields that postdate the original hash scheme: each is omitted from
    #: the canonical hash payload while ``None`` (see
    #: ``repro.experiments.batch._canonical``), so pre-existing configs
    #: keep their cache keys.  ``phenomena_method`` selects a strategy
    #: whose default is the production path, but a config that pins one
    #: explicitly must hash differently so the two never alias in the
    #: result cache.  A config that sets a deleted strategy field raises
    #: ``TypeError`` (see docs/scaling.md).
    HASH_OMIT_WHEN_UNSET = (
        "scenario",
        "phenomena_method",
    )

    #: Fields *always* excluded from the canonical hash payload, whatever
    #: their value (contrast HASH_OMIT_WHEN_UNSET, which only elides the
    #: ``None`` default).  ``instrument`` selects how much the obs layer
    #: records about a trial; the trial itself is bit-identical either
    #: way, so instrumented and uninstrumented runs must share cache keys
    #: and fingerprints.  Each entry needs a matching
    #: ``ClassName.field`` line in ``repro.experiments.batch.HASH_EXEMPT``
    #: (reprolint RL210 / RL505 enforce the pairing).
    HASH_EXCLUDE = ("instrument",)

    #: Deleted fields the canonical hash payload still carries at the one
    #: value they ever took in a hashed config, so every cache key and
    #: fingerprint from before their removal survives.  ``send_responses``
    #: switched on query responses, which no cost figure counts;
    #: ``trace`` switched on the tracer, which ``instrument="full"`` now
    #: does.  Passing either raises ``TypeError``, like any unknown field.
    HASH_RETIRED = (("send_responses", False), ("trace", False))

    num_nodes: int = 50
    comm_range: float = 30.0
    area_size: float = 100.0
    seed: int = 1
    num_epochs: int = 2_000
    query_period: int = 20
    target_coverage: float = 0.4
    query_sensor_type: Optional[str] = None
    protocol: str = ProtocolName.DIRQ
    dirq: DirQConfig = dataclasses.field(default_factory=DirQConfig)
    sensor_types: Optional[Sequence[str]] = None
    sensors_per_node: Optional[object] = None
    phenomena_specs: Optional[Dict[str, object]] = None
    window_epochs: int = 100
    epochs_per_day: int = 2_000
    channel_loss: float = 0.0
    mac_beacon_interval: float = 10.0
    mac_death_threshold: int = 3
    topology_events: List[TopologyEvent] = dataclasses.field(default_factory=list)
    initially_dead: Set[NodeId] = dataclasses.field(default_factory=set)
    scenario: Optional[ScenarioConfig] = None
    root_id: NodeId = 0
    #: Phenomena synthesis: ``None`` (= "exact" dense-Cholesky Gaussian
    #: field) or "lowrank" (random-Fourier-feature approximation, the only
    #: tractable option at thousands of nodes).  "lowrank" draws a
    #: *different* (approximate) field, so it is never a silent default.
    phenomena_method: Optional[str] = None
    #: Observability level: ``None`` (off), "metrics", or "full".  Listed
    #: in HASH_EXCLUDE above -- never part of hashes or fingerprints.
    instrument: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise ValueError("num_nodes must be >= 2 (a root plus at least one node)")
        # Node ids are range(num_nodes); a field naming any other node
        # would otherwise be ignored, or grow the network past num_nodes.
        mounts = self.sensors_per_node
        named = (
            ("root_id", [self.root_id]),
            ("initially_dead", self.initially_dead),
            ("topology_events", [event.node_id for event in self.topology_events]),
            ("sensors_per_node", mounts if isinstance(mounts, dict) else ()),
        )
        for field, ids in named:
            outside = sorted({nid for nid in ids if nid not in range(self.num_nodes)})
            if outside:
                raise ValueError(
                    f"{field} names nodes outside range({self.num_nodes}): {outside}"
                )
        # The trial's sensor types, as the runner resolves them; named
        # against the default names and the overridden specs, so checking
        # them builds no spec.
        types = (
            list(self.sensor_types) if self.sensor_types else list(DEFAULT_SENSOR_TYPES)
        )
        known = set(DEFAULT_SENSOR_TYPES).union(self.phenomena_specs or ())
        unknown = [stype for stype in types if stype not in known]
        if unknown:
            raise ValueError(
                f"sensor_types names types with no spec: {unknown} "
                "(neither a default type nor a phenomena_specs key)"
            )
        if isinstance(mounts, dict):
            for nid, given in mounts.items():
                outside = [stype for stype in given if stype not in types]
                if outside:
                    raise ValueError(
                        f"sensors_per_node mounts types outside {types} "
                        f"on node {nid}: {outside}"
                    )
        elif isinstance(mounts, int):
            if not 1 <= mounts <= len(types):
                raise ValueError(
                    f"sensors_per_node must be in [1, {len(types)}], got {mounts}"
                )
        elif mounts is not None:
            raise TypeError("sensors_per_node must be None, an int, or a mapping")
        if self.query_sensor_type is not None and self.query_sensor_type not in types:
            raise ValueError(
                f"query_sensor_type {self.query_sensor_type!r} is not one of "
                f"the trial's sensor types {types}"
            )
        if self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")
        if self.query_period < 1:
            raise ValueError("query_period must be >= 1")
        if not (0.0 < self.target_coverage <= 1.0):
            raise ValueError("target_coverage must be in (0, 1]")
        if self.protocol not in ProtocolName.ALL:
            raise ValueError(
                f"protocol must be one of {ProtocolName.ALL}, got {self.protocol!r}"
            )
        if self.window_epochs < 1:
            raise ValueError("window_epochs must be >= 1")
        if not (0.0 <= self.channel_loss <= 1.0):
            raise ValueError("channel_loss must be in [0, 1]")
        if self.root_id in self.initially_dead:
            raise ValueError("the root cannot start dead")
        if any(
            event.kind == TopologyEvent.KILL and event.node_id == self.root_id
            for event in self.topology_events
        ):
            raise ValueError("the root cannot be killed")
        if self.phenomena_method not in (None, "exact", "lowrank"):
            raise ValueError(
                "phenomena_method must be None, 'exact', or 'lowrank', "
                f"got {self.phenomena_method!r}"
            )
        if self.instrument not in (None, "metrics", "full"):
            raise ValueError(
                "instrument must be None, 'metrics', or 'full', "
                f"got {self.instrument!r}"
            )

    # -- convenience constructors ------------------------------------------------

    def with_fixed_delta(self, delta_percent: float) -> "ExperimentConfig":
        """Copy of this config running DirQ with a fixed threshold."""
        return dataclasses.replace(
            self,
            protocol=ProtocolName.DIRQ,
            dirq=self.dirq.replace(
                threshold_mode=ThresholdMode.FIXED, delta_percent=delta_percent
            ),
        )

    def with_atc(self, target_cost_ratio: Optional[float] = None) -> "ExperimentConfig":
        """Copy of this config running DirQ with Adaptive Threshold Control."""
        changes = {"threshold_mode": ThresholdMode.ADAPTIVE}
        if target_cost_ratio is not None:
            changes["atc_target_cost_ratio"] = target_cost_ratio
        return dataclasses.replace(
            self, protocol=ProtocolName.DIRQ, dirq=self.dirq.replace(**changes)
        )

    def with_flooding(self) -> "ExperimentConfig":
        """Copy of this config running the flooding baseline."""
        return dataclasses.replace(self, protocol=ProtocolName.FLOODING)

    def with_scenario(self, scenario: Optional[ScenarioConfig]) -> "ExperimentConfig":
        """Copy of this config with the given dynamic scenario (or none)."""
        return dataclasses.replace(self, scenario=scenario)

    def replace(self, **changes) -> "ExperimentConfig":
        return dataclasses.replace(self, **changes)
