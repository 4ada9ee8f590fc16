"""The paper's claims, checked on the figure and ablation presets.

Each test times one campaign preset (the trials of ``python -m repro run
<preset>``, uncached) at :data:`EPOCHS` epochs and one replicate, prints
its report, and asserts the shape the paper reports on its replicate
groups:

* Fig. 5 -- the RECEIVE-over-SHOULD gap grows with δ and less so at 60 %
  coverage; the sources do not depend on δ;
* Fig. 6 -- updates fall as δ rises, δ = 3 % overruns the U_max budget and
  costs more than flooding, and the ATC settles under the budget at a cost
  ratio near one half;
* Fig. 7 -- overshoot grows with δ and the ATC's stays bounded;
* headline -- DirQ (ATC) costs 35-75 % of flooding (the paper's 45-55 %
  band, widened for a short run's start-up transient) without dropping
  queries;
* ablations -- the achieved cost ratio rises with the ATC target, and
  delivery is near-complete without loss and does not improve with it.
"""

from statistics import fmean

import pytest

from repro.__main__ import render_report
from repro.experiments.batch import BatchRunner
from repro.experiments.campaign import preset
from repro.experiments.fig6_updates import umax_per_window
from repro.experiments.headline import paired_comparison
from repro.experiments.store import STORE_METRICS
from repro.metrics.accuracy import fig5_percentages
from repro.metrics.resilience import replicate_groups

from .conftest import BENCH_SEED, emit

#: Epochs per trial: long enough for the ATC to leave its start-up
#: transient, short of the paper's 20 000.
EPOCHS = 1200


def run_preset(benchmark, name):
    """Time preset ``name`` without the trial cache; its replicate groups."""
    spec = preset(name, num_epochs=EPOCHS, replicates=1, seed=BENCH_SEED)
    runner = BatchRunner(cache_dir="")
    groups = benchmark.pedantic(
        lambda: replicate_groups(runner.run(spec.trial_specs()), STORE_METRICS),
        rounds=1,
        iterations=1,
    )
    emit(f"preset {name} ({EPOCHS} epochs, seed {BENCH_SEED})",
         render_report(spec, groups))
    return groups


def means(groups, metric):
    """``{protocol: replicate mean}`` of ``metric``."""
    return {g.tags["protocol"]: g.metrics[metric].mean for g in groups}


def test_fig5_receive_gap_grows_with_delta(benchmark):
    """E1/E2 -- Fig. 5(a)/(b): stale ranges pad the receiving set."""
    points = {}
    for group in run_preset(benchmark, "fig5"):
        config = group.results[0].config
        delta, coverage = config.dirq.delta_percent, config.target_coverage
        points.setdefault(coverage, []).append(
            fig5_percentages(
                group.results[0].audit.records,
                config.num_nodes - 1,
                delta,
                coverage,
            )
        )
    gaps = {
        coverage: [p.receive_pct - p.should_receive_pct for p in row]
        for coverage, row in points.items()
    }
    # Receive >= should for every delta, and the gap grows with delta.
    assert all(g >= -1.0 for g in gaps[0.4])
    assert gaps[0.4][-1] > gaps[0.4][0]
    # Source percentage is independent of delta (ground truth property).
    sources = [p.source_pct for p in points[0.4]]
    assert max(sources) - min(sources) < 1.0
    # At 60% coverage the effect is less pronounced and saturates.
    assert gaps[0.6][-1] < gaps[0.4][-1] + 2.0
    assert all(p.receive_pct <= 100.0 for p in points[0.6])


def test_fig6_updates_and_cost_band(benchmark):
    """E3 -- Fig. 6: update rates against U_max, and their cost."""
    groups = run_preset(benchmark, "fig6")
    updates = means(groups, "updates_per_window")
    ratios = means(groups, "cost_ratio")
    umax = fmean(umax_per_window(r) for r in groups[0].results)
    # Tighter thresholds transmit more updates; delta=3% overruns the
    # budget and costs more than flooding (why the ATC exists).
    assert updates["delta=3"] > updates["delta=5"] > updates["delta=9"]
    assert updates["delta=3"] > umax
    assert ratios["delta=3"] > 1.0
    # Past its start-up transient the ATC stays under the budget, near
    # the target band, at a cost ratio near one half.
    (atc,) = [g for g in groups if g.tags["protocol"] == "atc"]
    steady = fmean(p.value for p in atc.results[0].update_series[2:])
    assert 0.2 * umax < steady < umax
    assert 0.35 <= ratios["atc"] <= 0.75


def test_fig7_overshoot_grows_with_delta(benchmark):
    """E4 -- Fig. 7: overshoot at 20% coverage, fixed delta vs ATC."""
    overshoot = means(run_preset(benchmark, "fig7"), "mean_overshoot_pp")
    assert overshoot["delta=3"] < overshoot["delta=9"]
    assert overshoot["delta=5"] <= overshoot["delta=9"] + 1.0
    assert all(value < 60.0 for value in overshoot.values())
    # The ATC never widens past its clamp, so its overshoot is of the order
    # of the widest fixed threshold's.
    assert overshoot["atc"] < 50.0
    assert overshoot["atc"] <= overshoot["delta=9"] * 2.5


def test_headline_cost_ratio(benchmark):
    """E6 -- DirQ (ATC) vs flooding on one workload."""
    groups = {g.tags["protocol"]: g for g in run_preset(benchmark, "headline")}
    dirq, flooding = groups["atc"], groups["flooding"]
    flood = flooding.results[0]
    # The flooding side is exact (eq. 3), so the ratio is meaningful.
    assert flood.breakdown.flood_cost == pytest.approx(
        flood.flooding_cost_per_query * flood.num_queries
    )
    comparison = paired_comparison(dirq, flooding)
    assert 0.35 <= comparison.ratio <= 0.75
    assert comparison.dirq_total < comparison.flooding_total
    # The savings do not come from dropping queries.
    assert dirq.metrics["source_completeness"].mean > 0.9
    assert dirq.metrics["mean_overshoot_pp"].mean < 50.0


def test_atc_target_sweep(benchmark):
    """The achieved DirQ/flooding ratio follows the configured ATC target."""
    groups = run_preset(benchmark, "atc-target")
    achieved = [g.metrics["cost_ratio"].mean for g in groups]
    updates = [g.metrics["updates_per_window"].mean for g in groups]
    assert achieved[0] < achieved[1] < achieved[2]
    assert updates[0] < updates[2]


def test_channel_loss_sensitivity(benchmark):
    """DirQ delivery degrades gracefully with packet loss."""
    completeness = {
        g.tags["sweep"]["channel_loss"]: g.metrics["source_completeness"].mean
        for g in run_preset(benchmark, "loss")
    }
    assert completeness[0.0] > 0.9
    assert completeness[0.2] <= completeness[0.0] + 0.02
