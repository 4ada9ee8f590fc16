"""Tests for the metrics layer: audit, accuracy, cost, series, reports."""

import copy
import dataclasses
import pickle

import pytest

from repro.core.messages import RangeQuery
from repro.energy.ledger import NetworkLedger
from repro.metrics.accuracy import (
    delivery_completeness,
    fig5_percentages,
    mean_accuracy,
    mean_overshoot,
    overshoot_series,
    query_accuracy,
)
from repro.metrics.audit import QueryAudit, QueryRecord, UnreadAudit
from repro.metrics.cost import compare_costs, cost_breakdown
from repro.metrics.report import format_key_values, format_series, format_table
from repro.metrics.series import SeriesSet, UpdateRateRecorder, WindowedCounter
from tests.helpers import class_references


def make_record(
    audit, qid, sources, should, received, epoch=0, population=10, claims=()
):
    q = RangeQuery(qid, "temperature", 0.0, 1.0, epoch=epoch)
    audit.register_query(q, sources, should, epoch, population=population)
    for nid in received:
        audit.record_receipt(qid, nid)
    for nid in claims:
        audit.record_source_claim(qid, nid)
    return audit.record(qid)


class TestAudit:
    def test_register_and_report(self):
        audit = QueryAudit()
        record = make_record(audit, 0, {1, 2}, {1, 2, 3}, {1, 2, 3, 4}, claims={1})
        assert record.spurious == {4}
        assert record.missed == set()
        assert len(audit) == 1
        assert 0 in audit

    def test_duplicate_registration_rejected(self):
        audit = QueryAudit()
        make_record(audit, 0, set(), set(), set())
        with pytest.raises(ValueError):
            make_record(audit, 0, set(), set(), set())

    def test_receipt_for_unknown_query_ignored(self):
        audit = QueryAudit()
        audit.record_receipt(99, 1)  # must not raise
        with pytest.raises(KeyError):
            audit.record(99)

    def test_records_between_filters_by_epoch(self):
        audit = QueryAudit()
        make_record(audit, 0, set(), set(), set(), epoch=10)
        make_record(audit, 1, set(), set(), set(), epoch=50)
        make_record(audit, 2, set(), set(), set(), epoch=90)
        assert [r.query_id for r in audit.records_between(40, 95)] == [1, 2]


RECORD_SETS = ("sources", "should_receive", "received", "source_claims")


def blob_of(audit) -> bytes:
    """The blob an audit pickles as."""
    _cls, (blob,) = audit.__reduce__()
    return blob


class TestAuditPickle:
    @staticmethod
    def audit() -> QueryAudit:
        """Records registered out of id order, with sets whose iteration
        order is not their sorted order."""
        audit = QueryAudit()
        make_record(
            audit, 7, {2**40, 16, 1000003}, {2**40, 16, 1000003, 5, 8},
            [77, 5, 2**40, 16], epoch=40, population=49, claims=(16, 8),
        )
        make_record(audit, 3, set(), {1}, [], epoch=20, population=48)
        query = RangeQuery(11, "humidity", -2.5, 31.25, epoch=60)
        audit.register_query(query, range(40, 0, -3), range(40), injection_epoch=61)
        for nid in (97, 64, 2, 1):
            audit.record_receipt(11, nid)
        return audit

    def test_records_round_trip_in_insertion_order(self):
        audit = self.audit()
        loaded = pickle.loads(pickle.dumps(audit))
        assert type(loaded) is UnreadAudit
        assert list(loaded._records) == [7, 3, 11]
        assert type(loaded) is QueryAudit
        for qid, record in audit._records.items():
            decoded = loaded.record(qid)
            for field in dataclasses.fields(QueryRecord):
                assert getattr(decoded, field.name) == getattr(record, field.name)
                assert type(getattr(decoded, field.name)) is type(
                    getattr(record, field.name)
                )
        assert loaded.records == audit.records

    def test_sets_iterate_as_a_plain_pickle_round_trip(self):
        audit = self.audit()
        assert list(audit.record(7).sources) != sorted(audit.record(7).sources)
        loaded = pickle.loads(pickle.dumps(audit))
        for qid, record in audit._records.items():
            for name in RECORD_SETS:
                plain = pickle.loads(pickle.dumps(getattr(record, name)))
                assert list(getattr(loaded.record(qid), name)) == list(plain)

    def test_blob_holds_plain_data_only(self):
        assert not class_references(blob_of(self.audit()))

    def test_unread_audit_re_emits_its_blob(self):
        audit = self.audit()
        once = pickle.loads(pickle.dumps(audit))
        assert pickle.dumps(once) == pickle.dumps(audit)
        assert blob_of(once) is once._unread
        assert type(once) is UnreadAudit
        twice = pickle.loads(pickle.dumps(once))
        assert twice.records == audit.records

    def test_deep_copies_are_independent(self):
        audit = self.audit()
        unread = pickle.loads(pickle.dumps(audit))
        for original, kind in ((audit, QueryAudit), (unread, UnreadAudit)):
            clone = copy.deepcopy(original)
            assert type(original) is kind  # copying decodes nothing
            clone.record_receipt(3, 42)
            assert 42 in clone.record(3).received
            assert 42 not in original.record(3).received

    def test_decoded_audit_records_on(self):
        audit = self.audit()
        loaded = pickle.loads(pickle.dumps(audit))
        for target in (audit, loaded):
            make_record(target, 12, {4}, {4, 0}, [4, 0, 9], epoch=80, claims=(9,))
            target.record_receipt(7, 3)
            target.record_source_claim(3, 1)
        assert type(loaded) is QueryAudit
        assert list(loaded._records) == list(audit._records)
        assert loaded.records == audit.records


class TestAccuracy:
    def test_exact_delivery_has_zero_overshoot(self):
        audit = QueryAudit()
        record = make_record(audit, 0, {1}, {1, 2}, {1, 2})
        acc = query_accuracy(record)
        assert acc.overshoot_percent == 0.0
        assert acc.accuracy == 1.0
        assert acc.num_missed == 0

    def test_overshoot_in_population_percentage_points(self):
        audit = QueryAudit()
        # 2 extra nodes over a population of 10 -> 20 percentage points.
        record = make_record(audit, 0, {1}, {1, 2}, {1, 2, 3, 4}, population=10)
        acc = query_accuracy(record)
        assert acc.overshoot_percent == pytest.approx(20.0)
        assert acc.relative_overshoot_percent == pytest.approx(100.0)

    def test_under_delivery_is_negative_overshoot(self):
        audit = QueryAudit()
        record = make_record(audit, 0, {1, 2}, {1, 2, 3}, {1}, population=10)
        acc = query_accuracy(record)
        assert acc.overshoot_percent == pytest.approx(-20.0)
        assert acc.accuracy == pytest.approx(1 / 3)

    def test_mean_metrics_over_records(self):
        audit = QueryAudit()
        make_record(audit, 0, {1}, {1}, {1}, population=10)
        make_record(audit, 1, {1}, {1}, {1, 2}, population=10)
        records = audit.records
        assert mean_overshoot(records) == pytest.approx(5.0)
        assert mean_accuracy(records) == pytest.approx(1.5)
        assert delivery_completeness(records) == 1.0

    def test_delivery_completeness_counts_missed_sources(self):
        audit = QueryAudit()
        make_record(audit, 0, {1, 2}, {1, 2}, {1}, population=10)
        assert delivery_completeness(audit.records) == pytest.approx(0.5)

    def test_overshoot_series_buckets_by_window(self):
        audit = QueryAudit()
        make_record(audit, 0, {1}, {1}, {1, 2}, epoch=10, population=10)
        make_record(audit, 1, {1}, {1}, {1}, epoch=150, population=10)
        series = overshoot_series(audit.records, window_epochs=100, num_epochs=300)
        assert series == [(0, pytest.approx(10.0)), (100, pytest.approx(0.0))]

    def test_fig5_percentages(self):
        audit = QueryAudit()
        make_record(audit, 0, {1, 2}, {1, 2, 3, 4}, {1, 2, 3, 4, 5}, population=10)
        point = fig5_percentages(audit.records, num_nodes=10, delta_percent=5.0,
                                 target_coverage=0.4)
        assert point.should_receive_pct == pytest.approx(40.0)
        assert point.receive_pct == pytest.approx(50.0)
        assert point.source_pct == pytest.approx(20.0)
        assert point.should_not_receive_pct == pytest.approx(60.0)
        assert point.num_queries == 1

    def test_fig5_empty_records(self):
        point = fig5_percentages([], num_nodes=10, delta_percent=3.0, target_coverage=0.2)
        assert point.num_queries == 0
        assert point.should_not_receive_pct == 100.0


class TestCost:
    def make_ledger(self):
        ledger = NetworkLedger()
        ledger.node(0).charge_tx("query")
        ledger.node(1).charge_rx("query")
        ledger.node(1).charge_tx("update")
        ledger.node(0).charge_rx("update")
        ledger.node(0).charge_tx("estimate")
        ledger.node(2).charge_tx("flood")
        return ledger

    def test_cost_breakdown(self):
        breakdown = cost_breakdown(self.make_ledger())
        assert breakdown.query_cost == 2.0
        assert breakdown.update_cost == 2.0
        assert breakdown.estimate_cost == 1.0
        assert breakdown.flood_cost == 1.0
        assert breakdown.total_dirq_cost == 5.0

    def test_compare_costs_against_total_and_per_query(self):
        ledger = self.make_ledger()
        cmp_total = compare_costs(ledger, flooding_reference=10.0, num_queries=1)
        assert cmp_total.ratio == pytest.approx(0.5)
        assert cmp_total.within_band()
        cmp_perq = compare_costs(
            ledger, flooding_reference=5.0, num_queries=2, flooding_is_total=False
        )
        assert cmp_perq.flooding_total == 10.0
        assert cmp_perq.dirq_per_query == pytest.approx(2.5)

    def test_compare_costs_validation(self):
        with pytest.raises(ValueError):
            compare_costs(NetworkLedger(), 10.0, num_queries=-1)


class TestSeries:
    def test_windowed_counter_differences(self):
        counter = WindowedCounter(window_epochs=100)
        counter.close_window(0, running_total=10)
        counter.close_window(100, running_total=25)
        assert [p.value for p in counter.points] == [10.0, 15.0]

    def test_windowed_counter_rejects_out_of_order_windows(self):
        counter = WindowedCounter(100)
        counter.close_window(0, 1)
        with pytest.raises(ValueError):
            counter.close_window(0, 2)

    def test_update_rate_recorder_reads_ledger(self):
        ledger = NetworkLedger()
        recorder = UpdateRateRecorder(ledger, window_epochs=100)
        ledger.node(1).charge_tx("update")
        ledger.node(2).charge_tx("update")
        recorder.on_window_end(0)
        ledger.node(1).charge_tx("update")
        recorder.on_window_end(100)
        assert [p.value for p in recorder.series] == [2.0, 1.0]

    def test_series_set_statistics(self):
        counter = WindowedCounter(100)
        counter.close_window(0, 10)
        counter.close_window(100, 20)
        counter.close_window(200, 32)
        series = SeriesSet(window_epochs=100)
        series.add_series("atc", counter.points)
        assert series.fraction_within("atc", 9.0, 11.0) == pytest.approx(2 / 3)
        assert series.fraction_within("atc", 9.0, 11.0, skip_windows=1) == pytest.approx(0.5)
        starts, values = series.as_arrays("atc")
        assert list(starts) == [0, 100, 200]


class TestReportFormatting:
    def test_format_table_aligns_and_formats_floats(self):
        text = format_table(["name", "value"], [("a", 1.234), ("bb", 10.0)])
        lines = text.splitlines()
        assert "name" in lines[0] and "value" in lines[0]
        assert "1.23" in text and "10.00" in text

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])

    def test_format_series_downsamples(self):
        text = format_series("s", list(range(0, 1000, 10)), [1.0] * 100, max_points=5)
        assert "mean=1.0" in text
        assert text.count(":") <= 12  # name + a handful of samples

    def test_format_series_empty(self):
        assert "empty" in format_series("s", [], [])

    def test_format_key_values(self):
        text = format_key_values("Title", [("alpha", 1.0), ("beta", "x")])
        assert text.startswith("Title")
        assert "alpha" in text and "beta" in text
