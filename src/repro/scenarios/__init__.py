"""Dynamic-scenario subsystem: named, composable experiment dynamics.

The package turns one-off experiment configs into a library of scenarios:

* :mod:`repro.scenarios.spec` -- frozen config dataclasses
  (:class:`ChurnConfig`, :class:`MobilityConfig`, :class:`TrafficConfig`,
  :class:`EnergyConfig`, bundled by :class:`ScenarioConfig`) embedded in
  :class:`~repro.experiments.config.ExperimentConfig` and hashed into the
  batch cache key;
* :mod:`repro.scenarios.models` -- the runtime models the experiment
  runner drives (Poisson churn timelines, random-waypoint mobility with
  deterministic tree re-linking, bursty/diurnal/ramp traffic profiles,
  heterogeneous battery budgets);
* :mod:`repro.scenarios.static` -- the canonical static networks (the §7
  ``paper_network`` and friends);
* :mod:`repro.scenarios.registry` -- the name -> config factory catalogue
  (``churn-heavy``, ``mobile-40``, ``diurnal-60``, ...), which campaigns
  (``python -m repro run --scenarios ...``) name their scenarios from.

Import-order contract
---------------------
``spec`` and ``models`` import nothing from :mod:`repro.experiments`, so
the experiment layer can embed scenario configs and drive scenario models
without a cycle.  ``static`` and ``registry`` *do* build on the experiment
layer and are therefore loaded lazily (module ``__getattr__``): importing
``repro.scenarios`` from within ``repro.experiments.config`` must not pull
the experiment package back in mid-initialisation.
"""

from __future__ import annotations

from .models import (
    ChurnModel,
    EnergyProfile,
    MobilityModel,
    TrafficProfile,
    rebuild_spanning_tree,
)
from .spec import (
    ChurnConfig,
    EnergyConfig,
    MobilityConfig,
    ScenarioConfig,
    ScenarioEvent,
    TrafficConfig,
)

#: Names resolved lazily from the experiment-dependent submodules.
_LAZY_EXPORTS = {
    "paper_network": "static",
    "small_network": "static",
    "smoke_sweep": "static",
    "ScenarioDef": "registry",
    "register_scenario": "registry",
    "scenario_names": "registry",
    "scenario_defs": "registry",
    "get_scenario": "registry",
    "build_config": "registry",
    "scenario_spec": "registry",
    "DEFAULT_SCENARIO_EPOCHS": "registry",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted(list(globals()) + list(_LAZY_EXPORTS))


__all__ = [
    "ChurnConfig",
    "ChurnModel",
    "EnergyConfig",
    "EnergyProfile",
    "MobilityConfig",
    "MobilityModel",
    "ScenarioConfig",
    "ScenarioEvent",
    "TrafficConfig",
    "TrafficProfile",
    "rebuild_spanning_tree",
    *sorted(_LAZY_EXPORTS),
]
