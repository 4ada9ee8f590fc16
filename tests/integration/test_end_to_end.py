"""End-to-end integration tests reproducing the paper's qualitative claims
on reduced-scale networks (fast enough for the unit-test suite; the
benchmarks run the paper-scale versions)."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.accuracy import delivery_completeness


@pytest.fixture(scope="module")
def base_config():
    return ExperimentConfig(
        num_nodes=25,
        comm_range=35.0,
        num_epochs=600,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=21,
    )


@pytest.fixture(scope="module")
def results(base_config):
    """One run per setting, shared by the assertions below."""
    return {
        "delta3": run_experiment(base_config.with_fixed_delta(3.0)),
        "delta9": run_experiment(base_config.with_fixed_delta(9.0)),
        "atc": run_experiment(base_config.with_atc()),
        "flooding": run_experiment(base_config.with_flooding()),
    }


class TestCostClaims:
    def test_smaller_delta_means_more_updates(self, results):
        """§7.1 / Fig. 6: tighter thresholds transmit more update messages."""
        updates3 = results["delta3"].breakdown.update_cost
        updates9 = results["delta9"].breakdown.update_cost
        assert updates3 > updates9

    def test_directed_dissemination_is_much_cheaper_than_flooding_per_query(
        self, results
    ):
        """§5.2: C_QD is a small fraction of C_F on a realistic topology."""
        dirq = results["delta3"]
        per_query_dissemination = dirq.breakdown.query_cost / dirq.num_queries
        assert per_query_dissemination < 0.5 * dirq.flooding_cost_per_query

    def test_atc_total_cost_lands_near_half_of_flooding(self, results):
        """Headline claim: DirQ with ATC costs ~45-55% of flooding.

        A 600-epoch, 25-node run is dominated by the start-up transient
        (the paper's figure uses 20 000 epochs), so the claim is checked on
        the steady-state second half of the run with a widened band; the
        benchmark harness reproduces the tighter band at paper scale.
        """
        atc = results["atc"]
        assert atc.cost_ratio < 1.0  # never worse than flooding overall
        half = atc.num_queries // 2
        steady_query_cost = sum(atc.per_query_costs[half:])
        windows = atc.updates_per_window()
        steady_update_cost = 2.0 * sum(windows[len(windows) // 2 :])
        steady_flooding = atc.flooding_cost_per_query * (atc.num_queries - half)
        steady_ratio = (steady_query_cost + steady_update_cost) / steady_flooding
        assert 0.30 <= steady_ratio <= 0.70

    def test_atc_cheaper_than_aggressive_fixed_threshold(self, results):
        assert results["atc"].total_dirq_cost < results["delta3"].total_dirq_cost

    def test_flooding_measured_cost_matches_formula(self, results):
        flood = results["flooding"]
        expected = flood.flooding_cost_per_query * flood.num_queries
        assert flood.breakdown.flood_cost == pytest.approx(expected)


class TestAccuracyClaims:
    def test_overshoot_grows_with_delta(self, results):
        """Fig. 5: larger δ makes range information coarser."""
        assert (
            results["delta9"].mean_overshoot_percent
            > results["delta3"].mean_overshoot_percent
        )

    def test_dirq_delivers_queries_to_nearly_all_true_sources(self, results):
        for key in ("delta3", "delta9", "atc"):
            assert delivery_completeness(results[key].audit.records) > 0.85

    def test_flooding_reaches_everything(self, results):
        flood = results["flooding"]
        for record in flood.audit.records:
            assert len(record.received) == flood.num_nodes - 1

    def test_atc_overshoot_bounded_by_its_widest_threshold(self, results):
        """ATC trades some accuracy for the cost band but stays bounded."""
        assert results["atc"].mean_overshoot_percent < 60.0


class TestCoverageEffect:
    def test_delta_effect_less_pronounced_at_higher_coverage(self, base_config):
        """§7.1: the δ-induced accuracy gap shrinks as more nodes are relevant."""
        low_cov = run_experiment(
            base_config.replace(target_coverage=0.2, num_epochs=400).with_fixed_delta(9.0)
        )
        high_cov = run_experiment(
            base_config.replace(target_coverage=0.6, num_epochs=400).with_fixed_delta(9.0)
        )
        # Overshoot head-room is what matters: with 60% of nodes already
        # relevant there are simply fewer wrong nodes to reach.
        assert high_cov.mean_overshoot_percent < low_cov.mean_overshoot_percent + 15.0

    def test_higher_coverage_costs_more_to_disseminate(self, base_config):
        low_cov = run_experiment(
            base_config.replace(target_coverage=0.2, num_epochs=400).with_fixed_delta(5.0)
        )
        high_cov = run_experiment(
            base_config.replace(target_coverage=0.6, num_epochs=400).with_fixed_delta(5.0)
        )
        assert (
            high_cov.breakdown.query_cost / high_cov.num_queries
            > low_cov.breakdown.query_cost / low_cov.num_queries
        )


class TestAdaptationOverTime:
    def test_atc_update_rate_converges_towards_budget(self, results):
        """Fig. 6: after the transient the ATC's update rate stabilises."""
        series = results["atc"].updates_per_window()
        assert len(series) >= 4
        first, last = series[0], series[-1]
        steady = series[len(series) // 2 :]
        # The steady-state mean is well below the start-up transient.
        assert sum(steady) / len(steady) < first
        # And the steady state does not collapse to zero updates.
        assert min(steady) > 0
