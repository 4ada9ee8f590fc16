"""DirQ: an adaptive directed query dissemination scheme for wireless sensor
networks -- a full Python reproduction of Chatterjea, De Luigi & Havinga
(ICPP Workshops 2006).

The package is organised bottom-up:

* :mod:`repro.simulation` -- deterministic discrete-event kernel (the
  OMNeT++ substitute).
* :mod:`repro.network` -- node placement, unit-disk wireless channel,
  spanning tree.
* :mod:`repro.mac` -- LMAC beacons, neighbour discovery and death detection
  with cross-layer notifications.
* :mod:`repro.energy` -- the paper's unit-cost energy accounting.
* :mod:`repro.sensors` -- spatio-temporally correlated synthetic phenomena.
* :mod:`repro.workload` -- range-query generation, injection schedules, and
  the root's query-rate predictor.
* :mod:`repro.core` -- **DirQ itself**: Range Tables, Update/Estimate
  messages, directed query routing, Adaptive Threshold Control, the flooding
  baseline, and the §5 analytical cost model.
* :mod:`repro.metrics` -- accuracy/overshoot, cost comparison, windowed
  series.
* :mod:`repro.experiments` -- the harness that reproduces every figure and
  table of the paper's evaluation.

Quickstart::

    from repro.experiments import paper_network, run_experiment

    config = paper_network(num_epochs=2_000).with_atc()
    result = run_experiment(config)
    print(f"DirQ cost / flooding cost = {result.cost_ratio:.2f}")
    print(f"mean overshoot            = {result.mean_overshoot_percent:.1f} pp")
"""

from .core import (
    AdaptiveThresholdController,
    DirQConfig,
    DirQNode,
    DirQRoot,
    EstimateMessage,
    FloodingNode,
    FloodingRoot,
    RangeQuery,
    RangeTable,
    RangeTableSet,
    ThresholdMode,
    UpdateMessage,
    f_max,
    flooding_cost,
    max_query_dissemination_cost,
    max_update_cost,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    paper_network,
    run_experiment,
    small_network,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveThresholdController",
    "DirQConfig",
    "DirQNode",
    "DirQRoot",
    "EstimateMessage",
    "FloodingNode",
    "FloodingRoot",
    "RangeQuery",
    "RangeTable",
    "RangeTableSet",
    "ThresholdMode",
    "UpdateMessage",
    "f_max",
    "flooding_cost",
    "max_query_dissemination_cost",
    "max_update_cost",
    "ExperimentConfig",
    "ExperimentResult",
    "paper_network",
    "run_experiment",
    "small_network",
    "__version__",
]
