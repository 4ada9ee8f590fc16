"""Reference implementations kept as test oracles.

Each mechanism has one production path in ``src/``.  The formulations it
replaced survive here, or are selected from here, where tests compare the
production path against them:

* **Epoch tick, beacons and frames.**  :func:`reference_tick` runs a
  whole trial on the readable references that stay in ``src/``: the
  per-node :meth:`DirQNode.on_epoch` loop (through :class:`PerNodeTick`)
  instead of the columnar tick, a frame beacon
  (:meth:`LMACProtocol._emit_beacon`) on every beacon tick instead of the
  beacon fast path, and every frame on the split path
  (:func:`split_frames`: a transmit event, then a delivery event) instead
  of one event per frame.
* **Connectivity.**  :func:`all_pairs_graph` checks every pair with the
  shared :func:`~repro.network.links.within_range` predicate instead of
  one grid query per node; :func:`full_rebuild_delta` re-derives every
  link after a move instead of only the moved nodes'.
  :func:`brute_network` routes a whole trial through both.
* **Delivery.**  :class:`PerReceiverChannel` delivers each reception in
  its own event, with its own loss draw, instead of one event per frame.
* **Config hashing.**  :func:`canonical_walk` reads every dataclass's
  fields and hash attributes per value, where
  :func:`repro.experiments.batch._canonical` reads them once per type.
* **Campaign expansion.**  :func:`reference_trial_specs` builds every
  replicate as a ``TrialSpec(...)`` of its own deep copy, hashed with
  :func:`~repro.experiments.batch.config_hash`, where
  :meth:`CampaignSpec.trial_specs` shares one config per cell and
  canonicalises it once.
* **Query calibration.**  :func:`coverage_for` prices a candidate
  interval through :func:`involvement_fraction`: a ``RangeQuery``, the
  ground-truth source and should-receive sets, and a tree walk per
  source, where :class:`~repro.workload.generator.QueryWorkloadGenerator`
  ORs per-tree root-path bitsets.
* **Phenomena.**  :func:`lfilter_fields` generates the sensor types one
  after another, each with its own distance matrix, diurnal sine and
  ``scipy.signal.lfilter`` call, where
  :func:`repro.sensors.phenomena.generate_fields` shares them and runs one
  NumPy AR(1) loop over every type.  It imports SciPy only when called.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from functools import partial
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.messages import RangeQuery
from repro.experiments import runner as runner_module
from repro.experiments.batch import TrialSpec, config_hash
from repro.experiments.campaign import CampaignSpec, protocol_transform
from repro.mac.lmac import LMACProtocol
from repro.network import channel as channel_module
from repro.network import topology as topology_module
from repro.network.addresses import NodeId
from repro.network.channel import WirelessChannel
from repro.network.links import Position, within_range
from repro.network.spanning_tree import SpanningTree
from repro.network.topology import Adjacency, Topology
from repro.scenarios.registry import get_scenario
from repro.sensors.dataset import SensorDataset
from repro.sensors.types import SensorTypeSpec
from repro.simulation.events import EventPriority
from repro.simulation.rng import RandomStreams
from repro.workload.generator import QueryWorkloadGenerator
from repro.workload.ground_truth import evaluate_query


class PerNodeTick:
    """The runner's per-node epoch loop, in :class:`ColumnarTick`'s shape.

    Each epoch calls ``on_epoch`` on every protocol of the sorted alive
    list the runner installs; it defers nothing, so ``finalize`` has
    nothing to flush.
    """

    def __init__(self, dataset, dirq_config):
        self._protocols: List = []

    def set_protocols(self, protocols: List) -> None:
        self._protocols = list(protocols)

    def tick(self, epoch: int) -> None:
        for proto in self._protocols:
            proto.on_epoch(epoch)

    def finalize(self) -> None:
        pass


def split_frames(monkeypatch) -> None:
    """Send every frame down the split path, as if a checkpoint split it.

    A payload frame then runs its transmit half in a transmit event at
    its transmit time and its delivery half in a delivery event, and a
    frame beacon transmits inline at its tick, which is how every frame
    ran before frames took one event.  Patches the channel's window
    predicate for the rest of the test (or ``MonkeyPatch`` context); the
    beacon fast path keeps its own.
    """
    monkeypatch.setattr(channel_module, "same_window", lambda start, end: False)


def reference_tick(monkeypatch) -> None:
    """Run every trial on the per-node tick, frame beacons and split frames.

    Patches the runner's :class:`ColumnarTick` to :class:`PerNodeTick`,
    makes every :meth:`LMACProtocol._try_fast_beacon` decline and applies
    :func:`split_frames`, for the rest of the test (or ``MonkeyPatch``
    context).
    """
    monkeypatch.setattr(runner_module, "ColumnarTick", PerNodeTick)
    monkeypatch.setattr(LMACProtocol, "_try_fast_beacon", lambda mac: False)
    split_frames(monkeypatch)


def involvement_fraction(
    dataset: SensorDataset,
    tree: SpanningTree,
    query: RangeQuery,
    epoch: int,
    sensor_owners: Optional[Dict[str, Set[NodeId]]] = None,
    alive: Optional[Iterable[NodeId]] = None,
) -> float:
    """Fraction of (non-root) nodes involved in answering the query.

    This is the quantity the workload generator calibrates to hit the
    paper's 20 % / 40 % / 60 % "percentage of relevant nodes" targets.
    """
    _, should = evaluate_query(dataset, tree, query, epoch, sensor_owners, alive)
    denominator = max(1, tree.num_nodes - 1)
    return len(should) / denominator


def coverage_for(
    generator: QueryWorkloadGenerator,
    sensor_type: str,
    epoch: int,
    centre: float,
    half_width: float,
    alive: Optional[Iterable[NodeId]] = None,
) -> float:
    """The involvement of one bisection candidate of ``generator``'s query,
    counting only ``alive`` sources (``None``: every node)."""
    candidate = RangeQuery(
        query_id=-1,
        sensor_type=sensor_type,
        low=centre - half_width,
        high=centre + half_width,
        epoch=epoch,
    )
    return involvement_fraction(
        generator.dataset,
        generator.tree,
        candidate,
        epoch,
        generator.sensor_owners,
        alive,
    )


def brute_edges(
    positions: Dict[NodeId, Position], comm_range: float
) -> List[Tuple[NodeId, NodeId]]:
    """Every unit-disk edge, found by checking all pairs in ascending order."""
    ids = sorted(positions)
    return [
        (a, b)
        for i, a in enumerate(ids)
        for b in ids[i + 1 :]
        if within_range(positions[a], positions[b], comm_range)
    ]


def all_pairs_graph(positions: Dict[NodeId, Position], comm_range: float) -> Adjacency:
    """The unit-disk adjacency map the grid query must reproduce.

    Keyed in ascending id, like the production map.  Lex-sorted edges
    reach every node's neighbours in ascending order, so each neighbour
    dict ascends without a sort.
    """
    adjacency: Adjacency = {nid: {} for nid in sorted(positions)}
    for a, b in brute_edges(positions, comm_range):
        adjacency[a][b] = None
        adjacency[b][a] = None
    return adjacency


def full_rebuild_delta(
    topology: Topology, updates: Dict[NodeId, Position]
) -> Tuple[Topology, Set[NodeId]]:
    """:meth:`Topology.with_positions_delta` by rebuilding every link.

    ``dirty`` is derived independently: the moved nodes whose neighbour
    set changed, plus every neighbour they gained or lost.
    """
    if not updates:
        return topology, set()
    if topology.comm_range is None:
        raise ValueError("with_positions requires a comm_range to re-derive links")
    positions = dict(topology.positions)
    for nid, (x, y) in updates.items():
        positions[nid] = (float(x), float(y))
    adjacency = all_pairs_graph(positions, topology.comm_range)
    dirty: Set[NodeId] = set()
    for nid in updates:
        changed = set(topology.adjacency[nid]) ^ set(adjacency[nid])
        if changed:
            dirty.add(nid)
            dirty.update(changed)
    return (
        Topology(
            adjacency=adjacency, positions=positions, comm_range=topology.comm_range
        ),
        dirty,
    )


def brute_network(monkeypatch) -> Counter:
    """Build and re-link every topology through the all-pairs oracles.

    Patches the unit-disk adjacency construction and
    :meth:`Topology.with_positions_delta` for the rest of the test (or
    ``MonkeyPatch`` context), so a whole trial can run a brute arm.
    Returns call counts per oracle, so a caller can check the patch was
    exercised.
    """
    calls: Counter = Counter()

    def adjacency(positions, comm_range):
        calls["graph"] += 1
        return all_pairs_graph(positions, comm_range)

    def delta(topology, updates):
        calls["delta"] += 1
        return full_rebuild_delta(topology, updates)

    monkeypatch.setattr(topology_module, "_unit_disk_adjacency", adjacency)
    monkeypatch.setattr(Topology, "with_positions_delta", delta)
    return calls


class PerReceiverChannel(WirelessChannel):
    """A channel that delivers each reception as its own event.

    Every frame's delivery half goes through ``_deliver``, the one- and
    the two-event frame alike; this one draws each target's loss with its
    own scalar draw and hands each surviving reception to an event of its
    own, at the delivery instant in the ``CONTROL`` band, so the
    receptions run next, in target order, ahead of any other delivery then
    due.  Batched delivery must be indistinguishable from this: the same
    receivers in the same order, the same loss draws, and the same ledger.
    """

    def _deliver(self, sender, targets, frame, kind):
        loss = self.loss_probability
        sim = self.sim
        for target in targets:
            if loss > 0.0 and self.rng.random() < loss:
                self.stats.drops_loss += 1
                continue
            sim.schedule_at(
                sim.now,
                partial(self._receive_one, sender, target, frame, kind),
                EventPriority.CONTROL,
                f"deliver[{kind}] {sender}->{target}",
            )

    def _receive_one(self, sender, target, frame, kind):
        if target not in self._alive:
            self.stats.drops_dead_node += 1
            return
        self.ledger.node(target).charge_rx(kind)
        receiver = self._receivers.get(target)
        if receiver is None:
            return
        self.stats.deliveries += 1
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "channel.rx", target, sender=sender, kind=kind
            )
        receiver(sender, frame)


def canonical_walk(obj: object) -> object:
    """The canonical hash payload of ``obj``, one reflective walk per value."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        omit = getattr(type(obj), "HASH_OMIT_WHEN_UNSET", ())
        exclude = getattr(type(obj), "HASH_EXCLUDE", ())
        payload = {
            f.name: canonical_walk(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in exclude
            and not (f.name in omit and getattr(obj, f.name) is None)
        }
        # Deleted fields keep their one value in the payload.
        payload.update(getattr(type(obj), "HASH_RETIRED", ()))
        return payload
    if isinstance(obj, dict):
        return {
            str(k): canonical_walk(v)
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical_walk(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [canonical_walk(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def reference_trial_specs(campaign: CampaignSpec) -> List[TrialSpec]:
    """``campaign``'s expansion, one ``TrialSpec(...)`` per replicate.

    Each replicate deep-copies its config and hashes it on its own, and
    every cell's ``base_key`` is the :func:`config_hash` of the cell's
    config.
    """
    specs: List[TrialSpec] = []
    for scenario in campaign.scenarios:
        definition = get_scenario(scenario)
        for proto in campaign.protocols:
            transform = protocol_transform(proto)
            for point in campaign.sweep_points():
                num_epochs = int(point.get("num_epochs", campaign.num_epochs))
                config = transform(definition.factory(num_epochs, campaign.seed))
                rest = {k: v for k, v in point.items() if k != "num_epochs"}
                if rest:
                    config = config.replace(**rest)
                label = f"{scenario}/{proto}"
                if point:
                    label += " " + " ".join(f"{k}={v}" for k, v in point.items())
                base_key = config_hash(config)
                for i in range(campaign.replicates):
                    seed = (
                        config.seed
                        if i == 0
                        else RandomStreams.derive_seed(config.seed, f"rep-{i}")
                    )
                    specs.append(
                        TrialSpec(
                            label=label if i == 0 else f"{label} rep={i}",
                            config=config.replace(seed=seed),
                            group="campaign",
                            tags={
                                "campaign": campaign.campaign_id,
                                "scenario": scenario,
                                "scenario_kind": definition.kind,
                                "protocol": proto,
                                "sweep": dict(point),
                                "replicate": i,
                                "base_key": base_key,
                                "base_label": label,
                            },
                        )
                    )
    return specs


def lfilter_fields(
    specs: Dict[str, SensorTypeSpec],
    positions: np.ndarray,
    num_epochs: int,
    rng_for: Optional[Dict[str, np.random.Generator]] = None,
    rng: Optional[np.random.Generator] = None,
    epochs_per_day: int = 2000,
    spatial_method: str = "exact",
    num_features: int = 256,
) -> Dict[str, np.ndarray]:
    """:func:`~repro.sensors.phenomena.generate_fields`, one type at a time.

    Each type builds its own covariance from the ``(n, n, 2)`` difference
    array, draws, filters its innovations with ``scipy.signal.lfilter``
    and sums its reading, before the next type draws anything.
    """
    from scipy.signal import lfilter

    positions = np.asarray(positions, dtype=float)
    n, t = positions.shape[0], int(num_epochs)
    node_phase = (
        2.0
        * np.pi
        * (positions[:, 0] + positions[:, 1])
        / (np.ptp(positions) + 1e-9)
        * 0.05
    )
    out: Dict[str, np.ndarray] = {}
    for name, spec in specs.items():
        gen = rng_for[name] if rng_for is not None else rng
        if spatial_method == "exact":
            diffs = positions[:, None, :] - positions[None, :, :]
            sq_dist = (diffs**2).sum(axis=-1)
            cov = np.exp(-sq_dist / (2.0 * spec.spatial_scale**2))
            cov[np.diag_indices_from(cov)] += 1e-9
            colour = np.linalg.cholesky(cov).T
        else:
            m = int(num_features)
            omega = gen.standard_normal(size=(m, 2)) / spec.spatial_scale
            phase = gen.uniform(0.0, 2.0 * np.pi, size=m)
            features = np.sqrt(2.0 / m) * np.cos(positions @ omega.T + phase[None, :])
            colour = features.T
        spatial = gen.standard_normal(size=(t, colour.shape[0])) @ colour
        rho = float(np.exp(-1.0 / spec.temporal_scale))
        innovations = spatial * spec.amplitude * np.sqrt(1.0 - rho**2)
        stochastic = lfilter([1.0], [1.0, -rho], innovations, axis=0)
        initial = (gen.standard_normal(size=colour.shape[0]) @ colour) * spec.amplitude
        decay = rho ** np.arange(1, t + 1)[:, None]
        stochastic = stochastic + decay * initial[None, :]
        epochs = np.arange(t)[:, None]
        diurnal = spec.diurnal_amplitude * np.sin(
            2.0 * np.pi * epochs / int(epochs_per_day) + node_phase[None, :]
        )
        noise = (
            gen.standard_normal(size=(t, n)) * spec.noise_std
            if spec.noise_std > 0
            else 0.0
        )
        out[name] = spec.base_value + diurnal + stochastic + noise
    return out
