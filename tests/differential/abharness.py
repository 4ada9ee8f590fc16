"""Production-vs-reference A/B harness.

Every trial runs the columnar epoch tick and LMAC's beacon fast path.
Both are pure implementation strategies: every observable of a trial --
the cost breakdown, the per-window update series, the query audit, the
energy ledger down to per-(kind, direction) entries, ATC's δ history,
scenario telemetry -- must be *bit-identical* to the readable references,
the per-node ``on_epoch`` loop and frame beacons.  The reference arm runs
the same config under :func:`tests.differential.reference.reference_tick`,
so both arms share one cache key and differ only in the code that ran.
This module is the single definition of "identical": it runs both arms of
a configuration and either returns the list of observables that disagree
(empty = equivalent) or asserts equivalence with a per-observable diff.

The catch-all instrument is :meth:`TrialResult.fingerprint`, key
included since both arms share it: the same digest the batch cache and
the campaign store use for bit-identity guarantees.  The granular
comparisons exist so a regression fails on the *first* observable that
diverges, with both values printed, instead of on an opaque digest.
"""

from __future__ import annotations

import copy
from typing import List, Tuple

import pytest

from repro.experiments.batch import TrialResult, TrialSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

from .reference import reference_tick


def run_arm(config: ExperimentConfig, reference: bool = False) -> TrialResult:
    """Run one arm of the A/B pair and distil it into a `TrialResult`.

    ``reference=True`` runs the trial under :func:`reference_tick`; the
    default runs the production path.  Mirrors the batch worker entry
    point: the spec snapshots the config, and the runner gets a private
    deep copy so mutations during the build (``dirq.full_scale`` filled
    from the dataset) never leak between arms.
    """
    spec = TrialSpec(
        label="reference" if reference else "production", config=config
    )
    with pytest.MonkeyPatch.context() as patch:
        if reference:
            reference_tick(patch)
        result = run_experiment(copy.deepcopy(spec.config))
    return TrialResult.from_experiment(spec, result)


#: Observable name -> extractor.  Ordered from the most diagnostic (a
#: ledger entry names the node, kind, and direction that drifted) to the
#: broadest; ``assert_bit_identical`` checks them in this order.
OBSERVABLES = (
    ("ledger.breakdown_by_kind", lambda r: r.ledger.breakdown_by_kind()),
    ("breakdown", lambda r: r.breakdown),
    ("update_series", lambda r: r.update_series),
    ("per_query_costs", lambda r: r.per_query_costs),
    ("num_queries", lambda r: r.num_queries),
    ("atc_delta_history", lambda r: r.atc_delta_history),
    ("alive_at_end", lambda r: r.alive_at_end),
    ("scenario_events", lambda r: r.scenario_events),
    ("num_relinks", lambda r: r.num_relinks),
    (
        # The per-query accuracy series: every audit record, with its
        # injection epoch, queried population, and exact receiver sets.
        "audit_records",
        lambda r: [
            (
                rec.query_id,
                rec.injection_epoch,
                rec.population,
                sorted(rec.sources),
                sorted(rec.should_receive),
                sorted(rec.received),
                sorted(rec.source_claims),
            )
            for rec in r.audit.records
        ],
    ),
)


def mismatched_observables(
    config: ExperimentConfig,
) -> Tuple[List[str], TrialResult, TrialResult]:
    """Run both arms; return the names of observables that differ."""
    reference = run_arm(config, reference=True)
    production = run_arm(config)
    bad = [
        name
        for name, extract in OBSERVABLES
        if extract(reference) != extract(production)
    ]
    if reference.fingerprint() != production.fingerprint():
        bad.append("fingerprint")
    return bad, reference, production


def assert_bit_identical(config: ExperimentConfig, context: str = "") -> None:
    """Assert production == reference on every observable, diffing the first."""
    prefix = f"{context}: " if context else ""
    bad, reference, production = mismatched_observables(config)
    if not bad:
        return
    name = bad[0]
    extract = dict(OBSERVABLES).get(name)
    detail = ""
    if extract is not None:
        detail = (
            f"\n  reference:  {extract(reference)!r}"
            f"\n  production: {extract(production)!r}"
        )
    raise AssertionError(
        f"{prefix}production path diverged from the reference on "
        f"{bad} (config={describe(config)}){detail}"
    )


def describe(config: ExperimentConfig) -> str:
    """A paste-able summary of the fields a repro needs."""
    return (
        f"ExperimentConfig(num_nodes={config.num_nodes}, "
        f"num_epochs={config.num_epochs}, seed={config.seed}, "
        f"channel_loss={config.channel_loss}, "
        f"sensors_per_node={config.sensors_per_node!r}, "
        f"threshold_mode={config.dirq.threshold_mode!r}, "
        f"delta_percent={config.dirq.delta_percent}, "
        f"scenario={config.scenario!r}, "
        f"phenomena_method={config.phenomena_method!r})"
    )


def shrink_num_epochs(config: ExperimentConfig) -> ExperimentConfig:
    """Shrink a *failing* config to the fewest epochs that still fail.

    Bisects on ``num_epochs`` (the dominant cost axis), re-running the
    A/B pair at each candidate.  Used by the randomized property tests to
    print a minimal reproduction when a seed finds a divergence, so the
    committed regression test can be small.
    """
    failing = config.num_epochs
    lo = 1
    while lo < failing:
        mid = (lo + failing) // 2
        bad, _, _ = mismatched_observables(config.replace(num_epochs=mid))
        if bad:
            failing = mid
        else:
            lo = mid + 1
    return config.replace(num_epochs=failing)
