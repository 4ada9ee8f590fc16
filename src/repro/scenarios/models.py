"""Runtime scenario models: churn, mobility, traffic, and energy budgets.

These are the executable counterparts of the :mod:`repro.scenarios.spec`
dataclasses.  The experiment runner builds one model per configured
dimension and drives it from the epoch loop; every model draws exclusively
from its own named :class:`~repro.simulation.rng.RandomStreams` stream
(``scenario-churn``, ``scenario-mobility``, ...), so

* adding a scenario never perturbs the draws seen by the static components
  (topology, phenomena, workload, MAC), and
* a scenario trial is a pure function of its config -- bit-identical across
  worker counts, cache states, and repeated runs.

This module must not import from :mod:`repro.experiments` (the runner
imports it); churn therefore emits plain :data:`ScenarioEvent` tuples which
the runner converts into its own ``TopologyEvent`` bookkeeping.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from ..energy.battery import Battery
from ..network.addresses import NodeId
from ..network.spanning_tree import SpanningTree, build_bfs_tree
from ..network.topology import Position, Topology
from ..workload.injection import burst_schedule, diurnal_schedule
from .spec import (
    EVENT_ACTIVATE,
    EVENT_KILL,
    ChurnConfig,
    EnergyConfig,
    MobilityConfig,
    ScenarioEvent,
    TrafficConfig,
)


class ChurnModel:
    """Pre-samples a deterministic node-death/reactivation timeline.

    The whole event list is drawn up front from the ``scenario-churn``
    stream: per-epoch death counts are one vectorised Poisson draw, victims
    are chosen uniformly among the nodes scheduled to be alive at that
    epoch (never the root), and optional revivals are scheduled
    ``revive_after`` epochs later.  Within an epoch, revivals generated by
    earlier deaths precede that epoch's new deaths, so a revived node is
    immediately eligible to die again -- the runner applies events in list
    order.

    Correlated area failures (the ``area_*`` fields of
    :class:`~repro.scenarios.spec.ChurnConfig`) are resolved first: the
    blast centre (an explicit ``area_center`` or the position of a node
    drawn uniformly from the same stream), then the victim set -- every
    non-root node within ``area_radius`` of the centre on the deployment
    ``positions``.  At ``area_epoch`` all victims die at once, after that
    epoch's scheduled revivals and before its Poisson deaths; staggered
    revivals follow ``area_revive_after + k * area_revive_stagger``.
    Stream compatibility: when the area fields are unset no extra draw is
    consumed, so legacy churn timelines are byte-identical.
    """

    def __init__(self, config: ChurnConfig):
        self.config = config

    def area_victims(
        self,
        alive: Iterable[NodeId],
        positions: Dict[NodeId, Position],
        rng: np.random.Generator,
    ) -> List[NodeId]:
        """The blast's victim set (sorted), resolving a sampled centre.

        Draws at most one value from ``rng`` (the centre node when
        ``area_center`` is unset); membership itself is a pure function of
        the centre, the radius, and the deployment positions.
        """
        cfg = self.config
        candidates = sorted(alive)
        if cfg.area_center is not None:
            cx, cy = cfg.area_center
        else:
            centre_node = int(rng.choice(candidates))
            cx, cy = positions[centre_node]
        return [
            nid
            for nid in candidates
            if math.hypot(positions[nid][0] - cx, positions[nid][1] - cy)
            <= cfg.area_radius
        ]

    def events(
        self,
        node_ids: Iterable[NodeId],
        root_id: NodeId,
        num_epochs: int,
        rng: np.random.Generator,
        positions: Optional[Dict[NodeId, Position]] = None,
    ) -> List[ScenarioEvent]:
        cfg = self.config
        alive: Set[NodeId] = {n for n in node_ids if n != root_id}
        start = min(cfg.start_epoch, num_epochs)
        end = num_epochs if cfg.end_epoch is None else min(cfg.end_epoch, num_epochs)
        poisson_active = end > start and cfg.death_rate > 0.0 and bool(alive)

        area_epoch: Optional[int] = None
        area_victims: List[NodeId] = []
        if cfg.area_epoch is not None and cfg.area_epoch < num_epochs and alive:
            if positions is None:
                raise ValueError("area failures require node positions")
            # The centre draw happens before the Poisson counts, so the
            # blast is independent of the Poisson window parameters.
            area_victims = self.area_victims(alive, positions, rng)
            area_epoch = cfg.area_epoch

        if not poisson_active and area_epoch is None:
            return []

        by_epoch: Dict[int, List[ScenarioEvent]] = {}
        revivals: Dict[int, List[NodeId]] = {}
        counts = (
            rng.poisson(cfg.death_rate, size=end - start) if poisson_active else None
        )
        deaths = 0
        for epoch in range(num_epochs):
            for nid in revivals.pop(epoch, []):
                alive.add(nid)
                by_epoch.setdefault(epoch, []).append(
                    (epoch, EVENT_ACTIVATE, int(nid))
                )
            if epoch == area_epoch:
                stagger = cfg.area_revive_stagger or 0
                struck = [nid for nid in area_victims if nid in alive]
                for k, nid in enumerate(struck):
                    alive.discard(nid)
                    by_epoch.setdefault(epoch, []).append(
                        (epoch, EVENT_KILL, int(nid))
                    )
                    if cfg.area_revive_after is not None:
                        back = epoch + cfg.area_revive_after + k * stagger
                        if back < num_epochs:
                            revivals.setdefault(back, []).append(int(nid))
            if counts is None or not (start <= epoch < end):
                continue
            kills = int(counts[epoch - start])
            if cfg.max_deaths is not None:
                kills = min(kills, cfg.max_deaths - deaths)
            kills = min(kills, len(alive))
            if kills <= 0:
                continue
            victims = rng.choice(sorted(alive), size=kills, replace=False)
            for nid in sorted(int(v) for v in victims):
                alive.discard(nid)
                deaths += 1
                by_epoch.setdefault(epoch, []).append((epoch, EVENT_KILL, nid))
                if cfg.revive_after is not None:
                    back = epoch + cfg.revive_after
                    if back < num_epochs:
                        revivals.setdefault(back, []).append(nid)
        return [event for epoch in sorted(by_epoch) for event in by_epoch[epoch]]


class TrafficProfile:
    """Builds the injection schedule and per-epoch coverage of a traffic mode."""

    def __init__(self, config: TrafficConfig):
        self.config = config

    def schedule(
        self,
        num_epochs: int,
        epochs_per_day: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Injection epochs for the whole run (sorted, duplicates = bursts)."""
        cfg = self.config
        if cfg.mode == "bursty":
            bursts = list(range(cfg.burst_every, num_epochs, cfg.burst_every))
            return burst_schedule(
                num_epochs,
                bursts,
                cfg.queries_per_burst,
                background_period=cfg.background_period,
            )
        if cfg.mode == "diurnal":
            return diurnal_schedule(
                num_epochs,
                cfg.mean_rate,
                epochs_per_day,
                rng,
                peak_to_trough=cfg.peak_to_trough,
            )
        # "ramp": deterministic arrivals whose period interpolates linearly
        # across the run.
        out: List[int] = []
        epoch = cfg.period_start
        while epoch < num_epochs:
            out.append(int(epoch))
            frac = epoch / max(1, num_epochs - 1)
            period = cfg.period_start + (cfg.period_end - cfg.period_start) * frac
            epoch += max(1, int(round(period)))
        return out

    def coverage_at(self, epoch: int, num_epochs: int, base: float) -> float:
        """Target coverage for a query injected at ``epoch``."""
        cfg = self.config
        if cfg.coverage_start is None:
            return base
        frac = epoch / max(1, num_epochs - 1)
        cov = cfg.coverage_start + (cfg.coverage_end - cfg.coverage_start) * frac
        return min(1.0, max(1e-6, cov))


class EnergyProfile:
    """Assigns heterogeneous battery capacities, deterministically per seed."""

    def __init__(self, config: EnergyConfig):
        self.config = config

    def capacities(
        self,
        node_ids: Iterable[NodeId],
        root_id: NodeId,
        rng: np.random.Generator,
    ) -> Dict[NodeId, float]:
        """Capacity per node; the root gets the paper's infinite budget."""
        cfg = self.config
        others = sorted(n for n in node_ids if n != root_id)
        caps: Dict[NodeId, float] = {root_id: float("inf")}
        if not others:
            return caps
        if cfg.distribution == "uniform":
            draws = rng.uniform(cfg.capacity_low, cfg.capacity_high, len(others))
        elif cfg.distribution == "two_tier":
            coins = rng.random(len(others))
            draws = np.where(
                coins < cfg.fraction_low, cfg.capacity_low, cfg.capacity_high
            )
        else:  # lognormal
            draws = cfg.median_capacity * rng.lognormal(0.0, cfg.sigma, len(others))
        for nid, cap in zip(others, draws):
            caps[nid] = float(max(cap, 1e-9))
        return caps

    def batteries(
        self,
        node_ids: Iterable[NodeId],
        root_id: NodeId,
        rng: np.random.Generator,
    ) -> Dict[NodeId, Battery]:
        return {
            nid: Battery(capacity=cap)
            for nid, cap in self.capacities(node_ids, root_id, rng).items()
        }


class MobilityModel:
    """Mobility advanced at re-link boundaries (waypoint or group mode).

    Positions are held internally and advanced in ``relink_period``-epoch
    steps.  In waypoint mode every mobile node moves straight towards its
    waypoint at its per-node speed, drawing a fresh uniform waypoint on
    arrival.  In group mode (reference-point group mobility) the sorted
    mobile set splits into ``num_groups`` contiguous clusters; only each
    cluster's *head* (its lowest node id) moves waypoint-style, and every
    member re-positions uniformly within ``group_jitter`` metres of its
    head at each step, clamped to the deployment area (clamping never
    increases the distance to an in-area head, so the jitter-radius
    invariant survives the boundary).  All draws (mobile-node selection,
    speeds, waypoints, member jitter) come from the single stream passed
    to :meth:`initialise` and are consumed in sorted-node order, so the
    trajectory is a pure function of the seed.
    """

    def __init__(self, config: MobilityConfig, area_size: float):
        if area_size <= 0:
            raise ValueError("area_size must be positive")
        self.config = config
        self.mode = config.mode or "waypoint"
        self.area_size = float(area_size)
        self.positions: Dict[NodeId, Position] = {}
        self.mobile: List[NodeId] = []
        self.heads: List[NodeId] = []
        self.head_of: Dict[NodeId, NodeId] = {}
        self._speeds: Dict[NodeId, float] = {}
        self._waypoints: Dict[NodeId, Position] = {}
        self._rng: Optional[np.random.Generator] = None

    def initialise(
        self,
        positions: Dict[NodeId, Position],
        root_id: NodeId,
        rng: np.random.Generator,
    ) -> None:
        """Select the mobile set and draw initial speeds and waypoints.

        Re-initialising an instance starts from scratch: all derived state
        (heads, groups, speeds, waypoints) is rebuilt for the new set.
        """
        self.positions = {nid: (float(x), float(y)) for nid, (x, y) in positions.items()}
        self.mobile = []
        self.heads = []
        self.head_of = {}
        self._speeds = {}
        self._waypoints = {}
        self._rng = rng
        candidates = sorted(n for n in positions if n != root_id)
        count = max(1, int(round(self.config.mobile_fraction * len(candidates))))
        count = min(count, len(candidates))
        if count == len(candidates):
            chosen = candidates
        else:
            picks = rng.choice(candidates, size=count, replace=False)
            chosen = sorted(int(p) for p in picks)
        self.mobile = list(chosen)
        if self.mode == "group":
            # Contiguous chunks of the sorted mobile set; the head is the
            # first node of each chunk.  Deterministic, no draw consumed.
            k = min(int(self.config.num_groups), len(self.mobile))
            size, extra = divmod(len(self.mobile), k)
            cursor = 0
            for g in range(k):
                chunk = self.mobile[cursor : cursor + size + (1 if g < extra else 0)]
                cursor += len(chunk)
                head = chunk[0]
                self.heads.append(head)
                for nid in chunk:
                    self.head_of[nid] = head
            movers = self.heads
        else:
            movers = self.mobile
        for nid in movers:
            self._speeds[nid] = float(
                rng.uniform(self.config.speed_min, self.config.speed_max)
            )
            self._waypoints[nid] = self._draw_waypoint()

    def _draw_waypoint(self) -> Position:
        assert self._rng is not None
        x, y = self._rng.uniform(0.0, self.area_size, size=2)
        return (float(x), float(y))

    def _advance_towards_waypoint(self, nid: NodeId, budget_epochs: int) -> Position:
        """Move ``nid`` waypoint-style for one re-link period's budget."""
        x, y = self.positions[nid]
        budget = self._speeds[nid] * budget_epochs
        while budget > 1e-12:
            wx, wy = self._waypoints[nid]
            dx, dy = wx - x, wy - y
            dist = math.hypot(dx, dy)
            if dist <= budget:
                x, y = wx, wy
                budget -= dist
                self._waypoints[nid] = self._draw_waypoint()
            else:
                x += dx / dist * budget
                y += dy / dist * budget
                budget = 0.0
        self.positions[nid] = (x, y)
        return (x, y)

    def _clamp(self, v: float) -> float:
        return min(self.area_size, max(0.0, v))

    def step(self) -> Dict[NodeId, Position]:
        """Advance every mobile node by one re-link period; returns new positions."""
        if self._rng is None:
            raise RuntimeError("MobilityModel.initialise must be called first")
        budget_epochs = self.config.relink_period
        moved: Dict[NodeId, Position] = {}
        if self.mode == "group":
            for head in self.heads:
                moved[head] = self._advance_towards_waypoint(head, budget_epochs)
            jitter = float(self.config.group_jitter)
            for nid in self.mobile:
                if nid in self.head_of and self.head_of[nid] != nid:
                    hx, hy = self.positions[self.head_of[nid]]
                    # Uniform draw in the jitter disc (sqrt for area
                    # uniformity), consumed in sorted-node order.
                    radius = jitter * math.sqrt(float(self._rng.random()))
                    angle = 2.0 * math.pi * float(self._rng.random())
                    x = self._clamp(hx + radius * math.cos(angle))
                    y = self._clamp(hy + radius * math.sin(angle))
                    self.positions[nid] = (x, y)
                    moved[nid] = (x, y)
            return moved
        for nid in self.mobile:
            moved[nid] = self._advance_towards_waypoint(nid, budget_epochs)
        return moved


def rebuild_spanning_tree(
    topology: Topology,
    alive: Set[NodeId],
    root: NodeId,
    previous: Optional[SpanningTree] = None,
) -> SpanningTree:
    """Spanning tree over the alive nodes reachable from the root.

    A partition-tolerant :func:`~repro.network.spanning_tree.build_bfs_tree`:
    alive nodes with no alive path to the root are simply left out of the
    tree (their protocols get ``set_tree_links(None, [])`` and rejoin at
    the next change that reconnects them).  With ``previous`` (the tree
    before a kill, revival or re-link, rooted at ``root``) the tree is
    carried over by :meth:`SpanningTree.repair`, so every node whose parent
    is still an alive neighbour one level up keeps it.
    """
    if previous is None:
        return build_bfs_tree(topology, root=root, alive=alive, partial=True)
    return previous.repair(topology, alive)


__all__ = [
    "ChurnModel",
    "EnergyProfile",
    "MobilityModel",
    "TrafficProfile",
    "rebuild_spanning_tree",
]
