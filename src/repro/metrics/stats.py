"""Replication statistics: mean / spread / confidence intervals over trials.

The figure reproductions were, until this layer existed, single trials: one
seed per (setting, coverage, ...) point, so a DirQ-vs-flooding gap could be
signal or seed noise.  This module turns N-replicate groups of
:class:`~repro.experiments.batch.TrialResult` records into
:class:`ReplicateSummary` objects -- mean, sample standard deviation, a
two-sided Student-t confidence interval, min/max, and the replicate count --
for every scalar metric of a trial, so every reported number can carry an
error bar.

Grouping is keyed by the **base config hash**: a replicated sweep expands
each :class:`~repro.experiments.batch.TrialSpec` via ``replicate_specs``,
which stamps every derived spec with ``tags["base_key"] = spec.key``.
Replicate 0 *is* the base configuration (same seed, same hash), so a single
trial cached by an earlier un-replicated run composes into a replicate
group without re-running -- the replication layer only pays for the
additional seeds.

Everything here is duck-typed against the ``TrialResult`` API (``spec``,
``audit``, ``cost_ratio``, ...) so the metrics package stays free of
experiment-layer imports.

Statistical definitions
-----------------------
* ``std`` is the *sample* standard deviation (``ddof=1``); it is 0 for a
  single replicate.
* The confidence interval is ``mean +/- t*(n-1) * std / sqrt(n)`` with
  ``t*`` the two-sided Student-t critical value at the requested confidence
  level (default 95 %).  Degenerate groups (``n == 1``) report **no**
  interval (``ci_halfwidth is None``) instead of a zero-width or undefined
  one.
* :func:`student_t_critical` is ``scipy.stats.t.ppf``.  The runner has
  already imported ``scipy.stats`` (:mod:`repro.sensors.phenomena` uses
  ``scipy.signal``, which loads it), so the call costs no import.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import scipy.stats

from .accuracy import delivery_completeness

#: Confidence level used when none is specified.
DEFAULT_CONFIDENCE = 0.95


@lru_cache(maxsize=None)
def student_t_critical(df: int, confidence: float = DEFAULT_CONFIDENCE) -> float:
    """Two-sided Student-t critical value ``t*`` with ``P(|T| <= t*)``.

    ``student_t_critical(4, 0.95)`` is the 2.776 of the familiar t-table.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    return float(scipy.stats.t.ppf(0.5 + confidence / 2.0, df))


# ---------------------------------------------------------------------------
# Scalar summaries
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ReplicateSummary:
    """Mean / spread / confidence interval of one metric over N replicates."""

    metric: str
    n: int
    mean: float
    std: float
    ci_halfwidth: Optional[float]
    minimum: float
    maximum: float
    confidence: float = DEFAULT_CONFIDENCE

    @classmethod
    def from_values(
        cls,
        metric: str,
        values: Sequence[float],
        confidence: float = DEFAULT_CONFIDENCE,
    ) -> "ReplicateSummary":
        """Summarise ``values`` (one per replicate; at least one required)."""
        data = [float(v) for v in values]
        if not data:
            raise ValueError(f"metric {metric!r}: need at least one value")
        n = len(data)
        mean = math.fsum(data) / n
        if n > 1 and all(math.isfinite(v) for v in data):
            variance = math.fsum((v - mean) ** 2 for v in data) / (n - 1)
            std = math.sqrt(variance)
            halfwidth: Optional[float] = (
                student_t_critical(n - 1, confidence) * std / math.sqrt(n)
            )
        else:
            # A single replicate (or a non-finite metric such as an infinite
            # cost ratio) carries no interval -- report the point estimate.
            std = 0.0
            halfwidth = None
        return cls(
            metric=metric,
            n=n,
            mean=mean,
            std=std,
            ci_halfwidth=halfwidth,
            minimum=min(data),
            maximum=max(data),
            confidence=confidence,
        )

    def format(self, float_format: str = "{:.3f}") -> str:
        """Render as a report cell: ``mean ± half-width [n=N]``."""
        mean = float_format.format(self.mean)
        if self.ci_halfwidth is None:
            return f"{mean} [n={self.n}]"
        return f"{mean} ± {float_format.format(self.ci_halfwidth)} [n={self.n}]"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable payload (the campaign exports' group cells)."""
        return {
            "metric": self.metric,
            "n": self.n,
            "mean": self.mean,
            "std": self.std,
            "ci_halfwidth": self.ci_halfwidth,
            "minimum": self.minimum,
            "maximum": self.maximum,
            "confidence": self.confidence,
        }


# ---------------------------------------------------------------------------
# Replicate groups over TrialResults
# ---------------------------------------------------------------------------

#: Scalar metrics summarised for every replicate group.  Extractors take a
#: ``TrialResult``-shaped object; insertion order is the report column order.
DEFAULT_METRICS: Dict[str, Callable[[object], float]] = {
    "num_queries": lambda r: float(r.num_queries),
    "cost_ratio": lambda r: float(r.cost_ratio),
    "mean_overshoot_pp": lambda r: float(r.mean_overshoot_percent),
    "mean_accuracy": lambda r: float(r.mean_accuracy),
    "source_completeness": lambda r: float(
        delivery_completeness(r.audit.records)
    ),
    "total_dirq_cost": lambda r: float(r.total_dirq_cost),
    "updates_per_window": lambda r: (
        math.fsum(r.updates_per_window()) / len(r.updates_per_window())
        if r.updates_per_window()
        else 0.0
    ),
}


@dataclasses.dataclass
class ReplicateGroup:
    """All replicates of one base configuration, plus their summaries.

    ``cache_hits`` / ``executed`` record where the group's results came from
    (:attr:`TrialResult.from_cache`); they are execution provenance, not
    measurements, so :meth:`to_dict` deliberately excludes them -- the JSON
    export of a replicated sweep is bit-identical whether it was computed
    fresh, served from cache, or produced by any number of workers.
    """

    label: str
    base_key: str
    group: str
    tags: Dict[str, object]
    results: List[object]
    metrics: Dict[str, ReplicateSummary]
    cache_hits: int = 0
    executed: int = 0

    @property
    def n(self) -> int:
        return len(self.results)

    def to_dict(self) -> Dict[str, object]:
        """Deterministic, JSON-serialisable payload (no provenance fields)."""
        return {
            "label": self.label,
            "base_key": self.base_key,
            "group": self.group,
            "tags": {str(k): v for k, v in sorted(self.tags.items())},
            "n": self.n,
            "metrics": {
                name: summary.to_dict() for name, summary in self.metrics.items()
            },
        }


def _base_tags(tags: Mapping[str, object]) -> Dict[str, object]:
    """Strip the replication bookkeeping tags, keeping the sweep's own."""
    return {
        k: v
        for k, v in tags.items()
        if k not in ("replicate", "base_key", "base_label")
    }


def group_replicates(
    results: Iterable[object],
    metrics: Optional[Mapping[str, Callable[[object], float]]] = None,
    confidence: float = DEFAULT_CONFIDENCE,
) -> List[ReplicateGroup]:
    """Group trial results by base config hash and summarise each metric.

    Results produced by ``replicate_specs`` carry a ``base_key`` tag
    and fold into one group per base spec; results without one are treated
    as their own (degenerate, n=1) group keyed by their config hash.  The
    base *label* is part of the bucket key too: two sweep points whose
    configs hash equally (e.g. ``loss=0`` and ``atc-target=0.5``, where 0.5
    is the default target) share cache entries but must stay separate rows
    with separate tags, not merge into one group of double-counted values.
    Group order follows first appearance in ``results`` and replicates are
    ordered by their ``replicate`` tag, so the grouping is independent of
    how many workers executed the batch.
    """
    metric_fns = dict(DEFAULT_METRICS if metrics is None else metrics)
    ordered_keys: List[tuple] = []
    buckets: Dict[tuple, List[object]] = {}
    for result in results:
        key = (
            str(result.spec.tags.get("base_key", result.spec.key)),
            str(result.spec.tags.get("base_label", result.spec.label)),
        )
        if key not in buckets:
            ordered_keys.append(key)
            buckets[key] = []
        buckets[key].append(result)

    groups: List[ReplicateGroup] = []
    for key in ordered_keys:
        base_key, label = key
        bucket = sorted(
            buckets[key], key=lambda r: int(r.spec.tags.get("replicate", 0))
        )
        first = bucket[0]
        summaries = {
            name: ReplicateSummary.from_values(
                name, [fn(r) for r in bucket], confidence=confidence
            )
            for name, fn in metric_fns.items()
        }
        groups.append(
            ReplicateGroup(
                label=label,
                base_key=base_key,
                group=first.spec.group,
                tags=_base_tags(first.spec.tags),
                results=bucket,
                metrics=summaries,
                cache_hits=sum(1 for r in bucket if getattr(r, "from_cache", False)),
                executed=sum(
                    1 for r in bucket if not getattr(r, "from_cache", False)
                ),
            )
        )
    return groups


def groups_to_jsonable(groups: Sequence[ReplicateGroup]) -> List[Dict[str, object]]:
    """The deterministic JSON payload of a list of replicate groups."""
    return [g.to_dict() for g in groups]


def mean_series(series_per_replicate: Sequence[Sequence[float]]) -> List[float]:
    """Element-wise mean of equal-length per-replicate series."""
    if not series_per_replicate:
        return []
    lengths = {len(s) for s in series_per_replicate}
    if len(lengths) != 1:
        raise ValueError(
            f"replicate series lengths differ: {sorted(lengths)} "
            "(replicates must share num_epochs and window_epochs)"
        )
    n = len(series_per_replicate)
    return [
        math.fsum(values) / n for values in zip(*series_per_replicate)
    ]
