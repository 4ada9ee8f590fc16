"""Canonical static experiment configurations (the paper's networks).

This module is the **single definition** of "the §7 network" and its
smaller test/benchmark variants; the scenario registry, the campaign
presets, benchmarks and examples all build on it.  The ``repro.experiments``
package re-exports its names lazily (``from repro.experiments import
paper_network``).

(Deliberately import-light: only the experiment config/batch layers are
touched, and only after they are fully importable -- see the package
``__init__`` for the lazy-loading contract.)
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..core.config import DirQConfig
from ..experiments.batch import TrialSpec
from ..experiments.config import ExperimentConfig


def paper_network(
    num_epochs: int = 20_000,
    target_coverage: float = 0.4,
    seed: int = 1,
    query_sensor_type: Optional[str] = "temperature",
    epochs_per_hour: int = 500,
) -> ExperimentConfig:
    """The §7 evaluation network: 50 nodes, one root, 4 sensor types.

    Queries are restricted to a single sensor type by default (as in the
    paper's per-figure experiments); pass ``query_sensor_type=None`` to
    draw the queried attribute uniformly at random instead.
    """
    return ExperimentConfig(
        num_nodes=50,
        num_epochs=num_epochs,
        query_period=20,
        target_coverage=target_coverage,
        query_sensor_type=query_sensor_type,
        seed=seed,
        dirq=DirQConfig(epochs_per_hour=epochs_per_hour),
    )


def small_network(
    num_nodes: int = 16,
    num_epochs: int = 400,
    target_coverage: float = 0.4,
    seed: int = 7,
) -> ExperimentConfig:
    """A small, fast network used by tests and the quickstart example."""
    return ExperimentConfig(
        num_nodes=num_nodes,
        num_epochs=num_epochs,
        comm_range=35.0,
        target_coverage=target_coverage,
        query_sensor_type="temperature",
        seed=seed,
        dirq=DirQConfig(epochs_per_hour=200),
    )


def scaled_network(
    num_nodes: int,
    num_epochs: int = 200,
    seed: int = 1,
    target_coverage: float = 0.2,
    phenomena_method: Optional[str] = None,
) -> ExperimentConfig:
    """A density-preserving enlargement of the paper's network.

    The deployment area grows as ``100 * sqrt(n / 50)``, keeping the
    paper's node density (average degree ~14 at ``comm_range=30``) so the
    protocol behaviour stays comparable while the network axis scales: at
    5 000 nodes the field is ~1 km on a side.  Coverage is lowered to 20 %
    so a query still names a region, not most of the network.

    Pass ``phenomena_method="lowrank"`` above ~1 000 nodes: the exact dense
    Gaussian field needs O(n^2) memory and O(n^3) setup per sensor type,
    which is the remaining scalability wall once connectivity deltas are
    incremental and tree maintenance is one BFS pass.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be >= 2")
    area = 100.0 * math.sqrt(num_nodes / 50.0)
    return ExperimentConfig(
        num_nodes=num_nodes,
        num_epochs=num_epochs,
        comm_range=30.0,
        area_size=area,
        query_period=20,
        target_coverage=target_coverage,
        query_sensor_type="temperature",
        seed=seed,
        dirq=DirQConfig(epochs_per_hour=200),
        phenomena_method=phenomena_method,
    )


def smoke_sweep(
    num_nodes: int = 12,
    num_epochs: int = 120,
    seed: int = 3,
) -> List[TrialSpec]:
    """A small mixed sweep exercising every protocol mode.

    Used by tests that need a representative multi-trial batch that
    finishes in seconds: two fixed thresholds, the ATC, and the flooding
    baseline over the same miniature network.
    """
    base = small_network(
        num_nodes=num_nodes, num_epochs=num_epochs, seed=seed
    )
    specs = [
        TrialSpec(
            label=f"smoke delta={delta:g}%",
            config=base.with_fixed_delta(delta),
            group="smoke",
            tags={"delta": delta},
        )
        for delta in (3.0, 9.0)
    ]
    specs.append(
        TrialSpec(label="smoke atc", config=base.with_atc(), group="smoke")
    )
    specs.append(
        TrialSpec(
            label="smoke flooding", config=base.with_flooding(), group="smoke"
        )
    )
    return specs
