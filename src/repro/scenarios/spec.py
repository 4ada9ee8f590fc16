"""Declarative scenario descriptions (pure data, no simulation imports).

A :class:`ScenarioConfig` describes the *dynamics* layered on top of an
otherwise static :class:`~repro.experiments.config.ExperimentConfig`: node
churn, node mobility, a time-varying query load, and heterogeneous per-node
energy budgets.  The paper's §7 evaluation is the degenerate case (no
scenario at all); everything here generalises the hand-written
``TopologyEvent`` lists and fixed query period of that setup into named,
composable, hash-stable configuration.

These classes deliberately contain **only data** (frozen dataclasses of
plain scalars) so that

* they canonicalise through :func:`repro.experiments.batch.config_hash`
  exactly like every other config field -- scenario parameters are part of
  a trial's cache identity, and
* this module imports nothing from the experiment layer, which keeps the
  ``repro.scenarios`` <-> ``repro.experiments`` dependency graph acyclic
  (the experiment config embeds a :class:`ScenarioConfig`; the runtime
  models in :mod:`repro.scenarios.models` are experiment-free too).

Hash-compatibility contract: ``ExperimentConfig.scenario`` defaults to
``None`` and is *omitted* from the canonical hash payload when unset, so
every pre-scenario config keeps its original cache key and fingerprint.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

#: One dynamic topology event produced by a scenario model:
#: ``(epoch, kind, node_id)`` with kind ``"kill"`` or ``"activate"``.
ScenarioEvent = Tuple[int, str, int]

EVENT_KILL = "kill"
EVENT_ACTIVATE = "activate"


@dataclasses.dataclass(frozen=True)
class ChurnConfig:
    """Poisson node deaths with optional scheduled reactivation.

    Attributes
    ----------
    death_rate:
        Expected node deaths per epoch (Poisson intensity).
    start_epoch, end_epoch:
        Half-open epoch window ``[start_epoch, end_epoch)`` in which deaths
        are drawn; ``end_epoch=None`` extends to the end of the run.
    revive_after:
        When set, every killed node is scheduled for reactivation this many
        epochs after its death (modelling battery swaps / reboots).
    max_deaths:
        Cap on the total number of *Poisson* deaths (keeps long runs from
        silently killing the whole network).  An area blast deliberately
        ignores the cap: a correlated failure takes out its whole disc.
    area_epoch, area_radius, area_center:
        Correlated area failure: at ``area_epoch`` every non-root node
        within ``area_radius`` of the blast centre dies at once (lightning
        strike, localised flooding, a stolen cluster).  ``area_center``
        fixes the centre explicitly; when ``None`` the centre is the
        position of a node sampled uniformly from the ``scenario-churn``
        stream, so the disc always hits at least one node and its
        membership is a deterministic function of the seed.  Membership is
        evaluated on the *deployment* positions (mobility later in the run
        does not re-draw the blast).
    area_revive_after, area_revive_stagger:
        Optional staggered revival of the blast victims: the k-th victim
        (in sorted node order) reactivates ``area_revive_after +
        k * area_revive_stagger`` epochs after the blast (a repair crew
        working through the area; stagger ``None`` means all at once).

    The ``area_*`` fields are listed in :data:`HASH_OMIT_WHEN_UNSET`:
    while unset they are dropped from the canonical hash payload, so every
    pre-existing churn config keeps its exact cache key and fingerprint.
    """

    HASH_OMIT_WHEN_UNSET = (
        "area_epoch",
        "area_radius",
        "area_center",
        "area_revive_after",
        "area_revive_stagger",
    )

    death_rate: float = 0.01
    start_epoch: int = 0
    end_epoch: Optional[int] = None
    revive_after: Optional[int] = None
    max_deaths: Optional[int] = None
    area_epoch: Optional[int] = None
    area_radius: Optional[float] = None
    area_center: Optional[Tuple[float, float]] = None
    area_revive_after: Optional[int] = None
    area_revive_stagger: Optional[int] = None

    def __post_init__(self) -> None:
        if self.death_rate < 0:
            raise ValueError("death_rate must be non-negative")
        if self.start_epoch < 0:
            raise ValueError("start_epoch must be non-negative")
        if self.end_epoch is not None and self.end_epoch <= self.start_epoch:
            raise ValueError("end_epoch must be greater than start_epoch")
        if self.revive_after is not None and self.revive_after < 1:
            raise ValueError("revive_after must be >= 1")
        if self.max_deaths is not None and self.max_deaths < 0:
            raise ValueError("max_deaths must be non-negative")
        if (self.area_epoch is None) != (self.area_radius is None):
            raise ValueError(
                "area_epoch and area_radius must be set together"
            )
        if self.area_epoch is not None and self.area_epoch < 0:
            raise ValueError("area_epoch must be non-negative")
        if self.area_radius is not None and self.area_radius <= 0:
            raise ValueError("area_radius must be positive")
        for name in ("area_center", "area_revive_after", "area_revive_stagger"):
            if getattr(self, name) is not None and self.area_epoch is None:
                raise ValueError(f"{name} requires area_epoch/area_radius")
        if self.area_center is not None:
            if len(self.area_center) != 2:
                raise ValueError("area_center must be an (x, y) pair")
            object.__setattr__(
                self, "area_center", tuple(float(c) for c in self.area_center)
            )
        if self.area_revive_after is not None and self.area_revive_after < 1:
            raise ValueError("area_revive_after must be >= 1")
        if self.area_revive_stagger is not None:
            if self.area_revive_after is None:
                raise ValueError("area_revive_stagger requires area_revive_after")
            if self.area_revive_stagger < 0:
                raise ValueError("area_revive_stagger must be non-negative")


@dataclasses.dataclass(frozen=True)
class MobilityConfig:
    """Position drift with epoch-granular re-linking.

    Node positions only change at re-link boundaries (every
    ``relink_period`` epochs).  Two modes:

    ``"waypoint"`` (the default, ``mode=None``)
        Random waypoint: each mobile node advances
        ``speed * relink_period`` metres towards its current waypoint,
        drawing a fresh uniform waypoint whenever one is reached.
    ``"group"``
        Reference-point group mobility: the mobile nodes split into
        ``num_groups`` clusters; each cluster's *head* moves random
        waypoint exactly as above, and every member re-positions uniformly
        within ``group_jitter`` metres of its head at each re-link (a herd,
        a patrol, vehicles in a convoy).  ``mode="group"`` requires both
        ``num_groups`` and ``group_jitter``.

    Connectivity is re-derived from the unit-disk rule after every step and
    the spanning tree is rebuilt deterministically (sorted-neighbour BFS),
    so a mobility trial is a pure function of its seed.

    The ``mode``/``num_groups``/``group_jitter`` fields are listed in
    :data:`HASH_OMIT_WHEN_UNSET`: while unset they are dropped from the
    canonical hash payload, so every pre-existing mobility config keeps
    its exact cache key and fingerprint.
    """

    MODES = ("waypoint", "group")

    HASH_OMIT_WHEN_UNSET = ("mode", "num_groups", "group_jitter")

    speed_min: float = 0.5
    speed_max: float = 1.5
    relink_period: int = 50
    mobile_fraction: float = 1.0
    mode: Optional[str] = None
    num_groups: Optional[int] = None
    group_jitter: Optional[float] = None

    def __post_init__(self) -> None:
        if self.speed_min < 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 <= speed_min <= speed_max")
        if self.relink_period < 1:
            raise ValueError("relink_period must be >= 1")
        if not (0.0 < self.mobile_fraction <= 1.0):
            raise ValueError("mobile_fraction must be in (0, 1]")
        if self.mode is not None and self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        if self.mode == "group":
            if self.num_groups is None or self.group_jitter is None:
                raise ValueError(
                    "mode='group' requires num_groups and group_jitter"
                )
        elif self.num_groups is not None or self.group_jitter is not None:
            raise ValueError(
                "num_groups/group_jitter only apply to mode='group'"
            )
        if self.num_groups is not None and self.num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if self.group_jitter is not None and self.group_jitter <= 0:
            raise ValueError("group_jitter must be positive")


@dataclasses.dataclass(frozen=True)
class TrafficConfig:
    """Time-varying query workload (replaces the fixed ``query_period``).

    Modes
    -----
    ``"bursty"``
        ``queries_per_burst`` queries every ``burst_every`` epochs over an
        optional periodic background load.
    ``"diurnal"``
        Poisson arrivals whose rate follows the config's daily cycle
        (``epochs_per_day``), peak/trough contrast ``peak_to_trough``.
    ``"ramp"``
        Deterministic injections whose period interpolates linearly from
        ``period_start`` at epoch 0 to ``period_end`` at the end of the
        run (a load ramp-up when ``period_end < period_start``).

    ``coverage_start``/``coverage_end`` optionally ramp the per-query
    target coverage linearly across the run (both must be set together).
    """

    MODES = ("bursty", "diurnal", "ramp")

    mode: str = "bursty"
    burst_every: int = 200
    queries_per_burst: int = 6
    background_period: int = 0
    mean_rate: float = 0.05
    peak_to_trough: float = 4.0
    period_start: int = 40
    period_end: int = 10
    coverage_start: Optional[float] = None
    coverage_end: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}, got {self.mode!r}")
        if self.burst_every < 1:
            raise ValueError("burst_every must be >= 1")
        if self.queries_per_burst < 1:
            raise ValueError("queries_per_burst must be >= 1")
        if self.background_period < 0:
            raise ValueError("background_period must be non-negative")
        if self.mean_rate < 0:
            raise ValueError("mean_rate must be non-negative")
        if self.peak_to_trough < 1.0:
            raise ValueError("peak_to_trough must be >= 1.0")
        if self.period_start < 1 or self.period_end < 1:
            raise ValueError("ramp periods must be >= 1")
        if (self.coverage_start is None) != (self.coverage_end is None):
            raise ValueError(
                "coverage_start and coverage_end must be set together"
            )
        for cov in (self.coverage_start, self.coverage_end):
            if cov is not None and not (0.0 < cov <= 1.0):
                raise ValueError("coverage bounds must be in (0, 1]")


@dataclasses.dataclass(frozen=True)
class EnergyConfig:
    """Heterogeneous per-node battery budgets.

    Every non-root node is assigned a finite
    :class:`~repro.energy.battery.Battery` at build time; the runner drains
    each battery by the node's ledger cost and kills the node (exactly like
    a scripted failure) once its budget is exhausted.  The root keeps the
    paper's infinite budget -- the sink is mains-powered.

    Distributions
    -------------
    ``"uniform"``
        Capacity ~ U[``capacity_low``, ``capacity_high``].
    ``"two_tier"``
        A ``fraction_low`` share of nodes gets ``capacity_low``, the rest
        ``capacity_high`` (coin-cell vs. battery-pack deployments).
    ``"lognormal"``
        Capacity ~ ``median_capacity * LogNormal(0, sigma)``.
    """

    DISTRIBUTIONS = ("uniform", "two_tier", "lognormal")

    distribution: str = "uniform"
    capacity_low: float = 200.0
    capacity_high: float = 600.0
    fraction_low: float = 0.25
    median_capacity: float = 400.0
    sigma: float = 0.5
    check_period: int = 1

    def __post_init__(self) -> None:
        if self.distribution not in self.DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {self.DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        if self.capacity_low <= 0 or self.capacity_high < self.capacity_low:
            raise ValueError("need 0 < capacity_low <= capacity_high")
        if not (0.0 <= self.fraction_low <= 1.0):
            raise ValueError("fraction_low must be in [0, 1]")
        if self.median_capacity <= 0:
            raise ValueError("median_capacity must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.check_period < 1:
            raise ValueError("check_period must be >= 1")


@dataclasses.dataclass(frozen=True)
class ScenarioConfig:
    """Composable bundle of dynamic-scenario dimensions.

    Any subset of the four dimensions may be set (at least one must be);
    unset dimensions leave the corresponding static behaviour untouched.
    ``name`` is a display label only -- it is excluded from nothing, but
    two scenarios differing only in ``name`` are different configs and
    hash differently, which is intentional: the registry stamps the
    scenario name so cache entries are self-describing.
    """

    name: str = ""
    churn: Optional[ChurnConfig] = None
    mobility: Optional[MobilityConfig] = None
    traffic: Optional[TrafficConfig] = None
    energy: Optional[EnergyConfig] = None

    def __post_init__(self) -> None:
        if (
            self.churn is None
            and self.mobility is None
            and self.traffic is None
            and self.energy is None
        ):
            raise ValueError(
                "a ScenarioConfig must set at least one of "
                "churn/mobility/traffic/energy (use scenario=None for a "
                "fully static run)"
            )
