"""Tests for the resilience metrics (degradation + recovery time)."""

from types import SimpleNamespace

import pytest

from repro.core.messages import RangeQuery
from repro.metrics.audit import QueryRecord
from repro.metrics.resilience import (
    DegradationRow,
    degradation_rows,
    first_disruption_epoch,
    cell_degradation,
    format_degradation_table,
    recovery_epochs,
    recovery_summary,
    recovery_time,
    windowed_accuracy,
)
from repro.metrics.stats import ReplicateSummary


def record(qid: int, epoch: int, should: int, received: int) -> QueryRecord:
    query = RangeQuery(
        query_id=qid, sensor_type="temperature", low=0.0, high=1.0, epoch=epoch
    )
    return QueryRecord(
        query=query,
        sources=set(),
        should_receive=set(range(should)),
        received=set(range(received)),
        injection_epoch=epoch,
        population=20,
    )


def trial(records, kills=()):
    """A TrialResult-shaped duck for the resilience functions."""
    return SimpleNamespace(
        audit=SimpleNamespace(records=list(records)),
        scenario_events=[(epoch, "kill", nid) for epoch, nid in kills],
    )


class TestWindowedAccuracy:
    def test_groups_and_averages_by_window(self):
        records = [
            record(0, 10, 10, 10),   # acc 1.0
            record(1, 90, 10, 5),    # acc 0.5 -> window 0 mean 0.75
            record(2, 150, 10, 8),   # acc 0.8 -> window 100
        ]
        series = windowed_accuracy(records, 100)
        assert series == [(0, pytest.approx(0.75)), (100, pytest.approx(0.8))]

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            windowed_accuracy([], 0)


class TestRecovery:
    def make_records(self):
        # Healthy before the event at epoch 200, degraded for one window,
        # recovered afterwards.
        return [
            record(0, 50, 10, 10),
            record(1, 150, 10, 10),
            record(2, 250, 10, 4),   # window 200: acc 0.4 (degraded)
            record(3, 350, 10, 10),  # window 300: recovered
        ]

    def test_recovery_epoch_is_end_of_recovered_window(self):
        out = recovery_epochs(self.make_records(), event_epoch=200,
                              window_epochs=100, tolerance=0.1)
        # Window [300, 400) is the first back within tolerance; recovery is
        # counted to its end: 400 - 200.
        assert out == 200

    def test_immediate_recovery_when_accuracy_holds(self):
        records = [record(i, e, 10, 10) for i, e in enumerate((50, 250, 350))]
        assert recovery_epochs(records, 200, 100, 0.1) == 100

    def test_no_pre_event_traffic_returns_none(self):
        records = [record(0, 250, 10, 10)]
        assert recovery_epochs(records, 200, 100) is None

    def test_never_recovering_returns_none(self):
        records = [
            record(0, 50, 10, 10),
            record(1, 250, 10, 2),
            record(2, 350, 10, 2),
        ]
        assert recovery_epochs(records, 200, 100, 0.1) is None

    def test_straddling_window_cannot_pass_on_pre_event_traffic(self):
        # Healthy queries fill window [100, 200) right up to the event at
        # epoch 199; everything afterwards is permanently degraded.  The
        # straddling window must not count as a recovery.
        records = [record(i, 100 + i, 10, 10) for i in range(99)]
        records += [record(200 + i, 210 + 50 * i, 10, 2) for i in range(4)]
        assert recovery_epochs(records, 199, 100, 0.1) is None

    def test_first_disruption_epoch(self):
        assert first_disruption_epoch(trial([], kills=[(120, 3), (80, 5)])) == 80
        assert first_disruption_epoch(trial([])) is None

    def test_recovery_time_anchors_at_first_kill(self):
        t = trial(self.make_records(), kills=[(200, 7)])
        assert recovery_time(t, window_epochs=100, tolerance=0.1) == 200
        assert recovery_time(trial(self.make_records())) is None

    def test_recovery_summary_across_replicates(self):
        ts = [
            trial(self.make_records(), kills=[(200, 7)]),
            trial(self.make_records(), kills=[(200, 9)]),
            trial(self.make_records()),  # no disruption: excluded
        ]
        summary = recovery_summary(ts, window_epochs=100, tolerance=0.1)
        assert summary is not None
        assert summary.n == 2
        assert summary.mean == pytest.approx(200.0)

    def test_recovery_summary_none_when_undefined(self):
        assert recovery_summary([trial([])]) is None


class TestDegradation:
    def group(self, **means):
        return SimpleNamespace(
            metrics={
                name: ReplicateSummary.from_values(name, [value])
                for name, value in means.items()
            }
        )

    def test_rows_compare_shared_metrics(self):
        baseline = self.group(mean_accuracy=1.0, cost_ratio=0.5)
        scenario = self.group(mean_accuracy=0.8, cost_ratio=0.6)
        rows = degradation_rows(scenario, baseline)
        by_metric = {r.metric: r for r in rows}
        assert set(by_metric) == {"mean_accuracy", "cost_ratio"}
        acc = by_metric["mean_accuracy"]
        assert acc.delta == pytest.approx(-0.2)
        assert acc.delta_percent == pytest.approx(-20.0)

    def test_zero_baseline_has_no_percentage(self):
        rows = degradation_rows(
            self.group(mean_overshoot_pp=1.0),
            self.group(mean_overshoot_pp=0.0),
        )
        assert rows[0].delta_percent is None

    def test_explicit_metric_selection_preserves_order(self):
        baseline = self.group(a=1.0, b=2.0)
        scenario = self.group(a=2.0, b=1.0)
        rows = degradation_rows(scenario, baseline, metrics=["b", "a"])
        assert [r.metric for r in rows] == ["b", "a"]

    def test_format_table(self):
        rows = [
            DegradationRow("mean_accuracy", 1.0, 0.8, -0.2, -20.0),
            DegradationRow("x", 0.0, 1.0, 1.0, None),
        ]
        text = format_degradation_table([("churn", "atc", rows)], title="t")
        lines = text.splitlines()
        assert lines[0] == "t"
        accuracy = next(line for line in lines if "mean_accuracy" in line)
        assert accuracy.split() == [
            "churn/atc", "mean_accuracy", "1.000", "0.800", "-0.200", "-20.0%",
        ]
        assert next(line for line in lines if " x " in line).endswith("-")

    def test_cell_degradation_pairs_twin_cells(self):
        def cell(value):
            return self.group(mean_accuracy=value)

        cells = {
            ("static", "atc"): cell(1.0),
            ("churn", "atc"): cell(0.5),
            ("churn", "dirq"): cell(0.5),  # no static twin: skipped
        }
        ((scenario, variant, rows),) = cell_degradation(cells, "static")
        assert (scenario, variant) == ("churn", "atc")
        assert rows[0].delta_percent == pytest.approx(-50.0)

    def test_empty_rows_format(self):
        assert "no shared metrics" in format_degradation_table([])
