"""The scenario registry: one vocabulary of named scenarios for everything.

Campaigns (``python -m repro run --scenarios ...``), presets, benchmarks
and CI jobs all refer to scenarios by name (``churn-heavy``, ``mobile-40``,
``diurnal-60``, ...); the registry maps each name to a factory producing a
fully-specified :class:`~repro.experiments.config.ExperimentConfig` (and,
via :func:`scenario_spec`, a cache-keyed
:class:`~repro.experiments.batch.TrialSpec`).

Every factory takes ``(num_epochs, seed)`` so the same scenario scales from
a seconds-long CI smoke run to a paper-length campaign; scenario parameters
that are naturally proportional to the run (burst spacing, churn window,
energy budgets) are derived from ``num_epochs`` inside the factory, which
keeps the *shape* of the dynamics stable across lengths.  All scenario
parameters live in the returned config, so they enter ``config_hash`` and
two different scenarios can never share a cache entry.

The static ``static-paper`` entry is the §7 network itself
(:func:`repro.scenarios.static.paper_network`), the scenario every campaign
preset runs on.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from ..experiments.batch import TrialSpec
from ..experiments.config import ExperimentConfig
from .spec import (
    ChurnConfig,
    EnergyConfig,
    MobilityConfig,
    ScenarioConfig,
    TrafficConfig,
)
from .static import paper_network, scaled_network

#: Default epochs per scenario trial of the library calls (``build_config``,
#: ``scenario_spec``, ``CampaignSpec``); the factories accept any length,
#: and the paper uses 20 000.
DEFAULT_SCENARIO_EPOCHS = 400

ScenarioFactory = Callable[[int, int], ExperimentConfig]


@dataclasses.dataclass(frozen=True)
class ScenarioDef:
    """One registered scenario: a name, its category, and a config factory."""

    name: str
    kind: str  # "static", "churn", "mobility", "traffic", "energy", "mixed"
    description: str
    factory: ScenarioFactory

    KINDS = ("static", "churn", "mobility", "traffic", "energy", "mixed")


_REGISTRY: Dict[str, ScenarioDef] = {}


def register_scenario(name: str, kind: str, description: str):
    """Decorator registering ``factory(num_epochs, seed) -> ExperimentConfig``."""
    if kind not in ScenarioDef.KINDS:
        raise ValueError(f"kind must be one of {ScenarioDef.KINDS}, got {kind!r}")

    def decorator(factory: ScenarioFactory) -> ScenarioFactory:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = ScenarioDef(
            name=name, kind=kind, description=description, factory=factory
        )
        return factory

    return decorator


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_defs() -> List[ScenarioDef]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


def get_scenario(name: str) -> ScenarioDef:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
    return _REGISTRY[name]


def build_config(
    name: str,
    num_epochs: int = DEFAULT_SCENARIO_EPOCHS,
    seed: int = 1,
) -> ExperimentConfig:
    """Instantiate the named scenario's configuration."""
    return get_scenario(name).factory(num_epochs, seed)


def scenario_spec(
    name: str,
    num_epochs: int = DEFAULT_SCENARIO_EPOCHS,
    seed: int = 1,
    label: str = "",
) -> TrialSpec:
    """A cache-keyed :class:`TrialSpec` for the named scenario."""
    definition = get_scenario(name)
    return TrialSpec(
        label=label or name,
        config=definition.factory(num_epochs, seed),
        group="scenario",
        tags={"scenario": name, "scenario_kind": definition.kind},
    )


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


@register_scenario(
    "static-paper",
    "static",
    "the paper's §7 network, unchanged: 50 nodes, query every 20 epochs",
)
def _static_paper(num_epochs: int, seed: int) -> ExperimentConfig:
    return paper_network(num_epochs=num_epochs, seed=seed)


@register_scenario(
    "churn-heavy",
    "churn",
    "aggressive Poisson node deaths (no recovery) starting after warm-up",
)
def _churn_heavy(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="churn-heavy",
            churn=ChurnConfig(
                death_rate=8.0 / max(1, num_epochs),
                start_epoch=num_epochs // 5,
                max_deaths=12,
            ),
        )
    )


@register_scenario(
    "churn-revive",
    "churn",
    "moderate churn where dead nodes reboot (battery swaps) after a delay",
)
def _churn_revive(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="churn-revive",
            churn=ChurnConfig(
                death_rate=10.0 / max(1, num_epochs),
                start_epoch=num_epochs // 5,
                revive_after=max(20, num_epochs // 8),
                max_deaths=20,
            ),
        )
    )


@register_scenario(
    "mobile-40",
    "mobility",
    "40 % of the nodes drift (random waypoint), re-linking periodically",
)
def _mobile_40(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="mobile-40",
            mobility=MobilityConfig(
                mobile_fraction=0.4,
                speed_min=0.2,
                speed_max=1.0,
                relink_period=max(10, num_epochs // 20),
            ),
        )
    )


@register_scenario(
    "mobile-all",
    "mobility",
    "every non-root node drifts slowly; stress test for tree re-linking",
)
def _mobile_all(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="mobile-all",
            mobility=MobilityConfig(
                mobile_fraction=1.0,
                speed_min=0.1,
                speed_max=0.5,
                relink_period=max(10, num_epochs // 20),
            ),
        )
    )


@register_scenario(
    "bursty-20",
    "traffic",
    "query bursts over a sparse background load, 20 % target coverage",
)
def _bursty_20(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed, target_coverage=0.2)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="bursty-20",
            traffic=TrafficConfig(
                mode="bursty",
                burst_every=max(20, num_epochs // 8),
                queries_per_burst=6,
                background_period=40,
            ),
        )
    )


@register_scenario(
    "diurnal-60",
    "traffic",
    "Poisson load following the daily cycle, 60 % target coverage",
)
def _diurnal_60(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed, target_coverage=0.6)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="diurnal-60",
            traffic=TrafficConfig(
                mode="diurnal",
                mean_rate=0.05,
                peak_to_trough=4.0,
            ),
        )
    )


@register_scenario(
    "ramp-load",
    "traffic",
    "deterministic load ramp: query period tightens from 60 to 10 epochs",
)
def _ramp_load(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="ramp-load",
            traffic=TrafficConfig(mode="ramp", period_start=60, period_end=10),
        )
    )


@register_scenario(
    "energy-tiered",
    "energy",
    "two-tier battery budgets: a quarter of the nodes run out mid-run",
)
def _energy_tiered(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="energy-tiered",
            energy=EnergyConfig(
                distribution="two_tier",
                capacity_low=0.6 * num_epochs,
                capacity_high=50.0 * num_epochs,
                fraction_low=0.25,
                check_period=5,
            ),
        )
    )


@register_scenario(
    "energy-lognormal",
    "energy",
    "lognormal battery budgets: a heavy tail of under-provisioned nodes",
)
def _energy_lognormal(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="energy-lognormal",
            energy=EnergyConfig(
                distribution="lognormal",
                median_capacity=8.0 * num_epochs,
                sigma=1.2,
                check_period=5,
            ),
        )
    )


@register_scenario(
    "area-blast",
    "churn",
    "correlated area failure: every node in a sampled disc dies at once",
)
def _area_blast(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="area-blast",
            churn=ChurnConfig(
                death_rate=0.0,
                area_epoch=max(1, num_epochs // 3),
                area_radius=30.0,
            ),
        )
    )


@register_scenario(
    "area-blast-revive",
    "churn",
    "area failure whose victims revive one by one (staggered repair crew)",
)
def _area_blast_revive(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="area-blast-revive",
            churn=ChurnConfig(
                death_rate=0.0,
                area_epoch=max(1, num_epochs // 3),
                area_radius=30.0,
                area_revive_after=max(10, num_epochs // 8),
                area_revive_stagger=max(1, num_epochs // 80),
            ),
        )
    )


@register_scenario(
    "group-mobile",
    "mobility",
    "reference-point group mobility: heads roam, members jitter around them",
)
def _group_mobile(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="group-mobile",
            mobility=MobilityConfig(
                mode="group",
                num_groups=4,
                group_jitter=8.0,
                mobile_fraction=0.8,
                speed_min=0.2,
                speed_max=1.0,
                relink_period=max(10, num_epochs // 20),
            ),
        )
    )


@register_scenario(
    "scale-500",
    "static",
    "density-preserving 500-node static network (the large-N baseline)",
)
def _scale_500(num_epochs: int, seed: int) -> ExperimentConfig:
    return scaled_network(500, num_epochs=num_epochs, seed=seed)


@register_scenario(
    "scale-500-mobile",
    "mobility",
    "500 nodes with 30 % random-waypoint drift; re-link-heavy at scale",
)
def _scale_500_mobile(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = scaled_network(500, num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="scale-500-mobile",
            mobility=MobilityConfig(
                mobile_fraction=0.3,
                speed_min=0.2,
                speed_max=1.0,
                relink_period=max(2, num_epochs // 50),
            ),
        )
    )


@register_scenario(
    "scale-500-churn",
    "churn",
    "500 nodes under Poisson churn with staggered revivals",
)
def _scale_500_churn(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = scaled_network(500, num_epochs=num_epochs, seed=seed)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="scale-500-churn",
            churn=ChurnConfig(
                death_rate=20.0 / max(1, num_epochs),
                start_epoch=num_epochs // 5,
                revive_after=max(20, num_epochs // 8),
                max_deaths=40,
            ),
        )
    )


@register_scenario(
    "scale-5000",
    "static",
    "5 000-node static network; low-rank phenomena (exact field intractable)",
)
def _scale_5000(num_epochs: int, seed: int) -> ExperimentConfig:
    return scaled_network(
        5000, num_epochs=num_epochs, seed=seed, phenomena_method="lowrank"
    )


@register_scenario(
    "harsh-grid",
    "mixed",
    "area blast + staggered revival + group mobility + bursty load",
)
def _harsh_grid(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed, target_coverage=0.2)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="harsh-grid",
            churn=ChurnConfig(
                death_rate=2.0 / max(1, num_epochs),
                start_epoch=num_epochs // 4,
                max_deaths=4,
                area_epoch=max(1, num_epochs // 2),
                area_radius=25.0,
                area_revive_after=max(10, num_epochs // 6),
                area_revive_stagger=max(1, num_epochs // 80),
            ),
            mobility=MobilityConfig(
                mode="group",
                num_groups=3,
                group_jitter=6.0,
                mobile_fraction=0.5,
                speed_min=0.1,
                speed_max=0.5,
                relink_period=max(20, num_epochs // 10),
            ),
            traffic=TrafficConfig(
                mode="bursty",
                burst_every=max(25, num_epochs // 6),
                queries_per_burst=4,
                background_period=50,
            ),
        )
    )


@register_scenario(
    "harsh-mixed",
    "mixed",
    "churn + partial mobility + bursty load + tiered energy, all at once",
)
def _harsh_mixed(num_epochs: int, seed: int) -> ExperimentConfig:
    cfg = paper_network(num_epochs=num_epochs, seed=seed, target_coverage=0.2)
    return cfg.replace(
        scenario=ScenarioConfig(
            name="harsh-mixed",
            churn=ChurnConfig(
                death_rate=4.0 / max(1, num_epochs),
                start_epoch=num_epochs // 4,
                max_deaths=6,
            ),
            mobility=MobilityConfig(
                mobile_fraction=0.3,
                speed_min=0.1,
                speed_max=0.6,
                relink_period=max(20, num_epochs // 10),
            ),
            traffic=TrafficConfig(
                mode="bursty",
                burst_every=max(25, num_epochs // 6),
                queries_per_burst=4,
                background_period=50,
            ),
            energy=EnergyConfig(
                distribution="two_tier",
                capacity_low=0.8 * num_epochs,
                capacity_high=50.0 * num_epochs,
                fraction_low=0.15,
                check_period=5,
            ),
        )
    )
