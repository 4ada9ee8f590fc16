"""Experiment harness: configuration, runners, campaigns and figure reports.

Single trials run through :func:`run_experiment`; sweeps are campaigns
(:mod:`repro.experiments.campaign`, run by ``python -m repro``) whose
:class:`TrialSpec` cells execute trial-parallel through
:class:`BatchRunner`.
"""

from .batch import (
    BatchRunner,
    BatchStats,
    TrialResult,
    TrialSpec,
    config_hash,
)
from ..metrics.stats import ReplicateGroup, ReplicateSummary, group_replicates
from .config import ExperimentConfig, ProtocolName, TopologyEvent
from .runner import ExperimentResult, ExperimentRunner, run_experiment

#: Scenario conveniences, resolved lazily from repro.scenarios.static: that
#: module imports this package's config/batch layers, so importing it here
#: eagerly would recurse into this very __init__.
_SCENARIO_EXPORTS = (
    "paper_network",
    "small_network",
    "smoke_sweep",
)


def __getattr__(name: str):
    if name in _SCENARIO_EXPORTS:
        from ..scenarios import static

        return getattr(static, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_SCENARIO_EXPORTS))

__all__ = [
    "BatchRunner",
    "BatchStats",
    "TrialResult",
    "TrialSpec",
    "config_hash",
    "ReplicateGroup",
    "ReplicateSummary",
    "group_replicates",
    "ExperimentConfig",
    "ProtocolName",
    "TopologyEvent",
    "ExperimentResult",
    "ExperimentRunner",
    "run_experiment",
    "paper_network",
    "small_network",
    "smoke_sweep",
]
