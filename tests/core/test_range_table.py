"""Tests for Range Tables (paper §4.1, Figs. 1-4)."""

import pytest

from repro.core.range_table import RangeEntry, RangeTable, RangeTableSet


class TestRangeEntry:
    def test_contains_and_overlaps(self):
        entry = RangeEntry(10.0, 20.0)
        assert entry.contains(10.0) and entry.contains(20.0) and entry.contains(15.0)
        assert not entry.contains(9.99)
        assert entry.overlaps(18.0, 25.0)
        assert entry.overlaps(5.0, 10.0)  # touching boundary counts
        assert not entry.overlaps(21.0, 30.0)

    def test_invalid_entry(self):
        with pytest.raises(ValueError):
            RangeEntry(5.0, 4.0)


class TestOwnEntryMaintenance:
    """Equations (1)-(2) and Fig. 1."""

    def test_first_reading_creates_entry(self):
        table = RangeTable(owner=1, sensor_type="temperature")
        changed = table.observe_reading(25.0, delta=2.0)
        assert changed
        assert table.own_entry.as_tuple == (23.0, 27.0)

    def test_reading_inside_thresholds_leaves_table_unchanged(self):
        table = RangeTable(1, "t")
        table.observe_reading(25.0, delta=2.0)
        assert table.observe_reading(26.9, delta=2.0) is False
        assert table.own_entry.as_tuple == (23.0, 27.0)

    def test_reading_outside_thresholds_recomputes_entry(self):
        table = RangeTable(1, "t")
        table.observe_reading(25.0, delta=2.0)
        assert table.observe_reading(28.0, delta=2.0) is True
        assert table.own_entry.as_tuple == (26.0, 30.0)

    def test_boundary_reading_is_inside(self):
        table = RangeTable(1, "t")
        table.observe_reading(25.0, delta=2.0)
        assert table.observe_reading(27.0, delta=2.0) is False

    def test_non_finite_reading_rejected(self):
        table = RangeTable(1, "t")
        with pytest.raises(ValueError):
            table.observe_reading(float("nan"), delta=1.0)

    def test_negative_delta_rejected(self):
        table = RangeTable(1, "t")
        with pytest.raises(ValueError):
            table.observe_reading(1.0, delta=-0.5)


class TestChildEntries:
    def test_update_child_stores_tuple(self):
        table = RangeTable(0, "t")
        assert table.update_child(3, 10.0, 15.0) is True
        assert table.child_entry(3).as_tuple == (10.0, 15.0)
        assert table.child_ids == [3]

    def test_identical_update_reports_no_change(self):
        table = RangeTable(0, "t")
        table.update_child(3, 10.0, 15.0)
        assert table.update_child(3, 10.0, 15.0) is False

    def test_remove_child(self):
        table = RangeTable(0, "t")
        table.update_child(3, 10.0, 15.0)
        assert table.remove_child(3) is True
        assert table.remove_child(3) is False
        assert table.child_entry(3) is None

    def test_num_entries_counts_own_plus_children(self):
        """A node with n children stores n+1 tuples (paper §4.1)."""
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        table.update_child(1, 10.0, 12.0)
        table.update_child(2, 30.0, 31.0)
        assert table.num_entries == 3
        entries = list(table.entries())
        assert entries[0][0] is None  # own entry first
        assert [e[0] for e in entries[1:]] == [1, 2]


class TestAggregationAndUpdateTrigger:
    """Fig. 2 (min/max extraction) and Fig. 3 (transmission trigger)."""

    def test_aggregate_spans_own_and_children(self):
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)       # [19, 21]
        table.update_child(1, 5.0, 8.0)
        table.update_child(2, 30.0, 35.0)
        assert table.aggregate() == (5.0, 35.0)

    def test_aggregate_of_empty_table_is_none(self):
        assert RangeTable(0, "t").aggregate() is None
        assert RangeTable(0, "t").is_empty

    def test_first_aggregate_always_triggers_update(self):
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        assert table.pending_update(delta=1.0) == (19.0, 21.0)

    def test_no_update_within_delta_of_last_transmission(self):
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        table.mark_transmitted(table.aggregate())
        # Child entry nudges the max by less than delta: no update due.
        table.update_child(1, 19.5, 21.5)
        assert table.pending_update(delta=1.0) is None

    def test_update_due_when_min_moves_by_more_than_delta(self):
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        table.mark_transmitted(table.aggregate())
        table.update_child(1, 15.0, 20.0)
        assert table.pending_update(delta=1.0) == (15.0, 21.0)

    def test_update_due_when_max_moves_by_more_than_delta(self):
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        table.mark_transmitted(table.aggregate())
        table.update_child(1, 20.0, 26.0)
        assert table.pending_update(delta=1.0) == (19.0, 26.0)

    def test_shrinking_range_also_triggers_update(self):
        table = RangeTable(0, "t")
        table.update_child(1, 0.0, 100.0)
        table.mark_transmitted(table.aggregate())
        table.update_child(1, 40.0, 60.0)
        assert table.pending_update(delta=5.0) == (40.0, 60.0)

    def test_sending_the_current_aggregate_arms_the_no_update_memo(self):
        """The memo mark_transmitted arms is the one the next evaluation
        would store: no update is due until the table moves again."""
        table = RangeTable(0, "t")
        table.observe_reading(20.0, delta=1.0)
        table.mark_transmitted(table.pending_update(delta=1.0), 1.0)
        assert table._no_update_memo == (table._version, 1.0)
        assert table.pending_update(delta=1.0) is None
        table.update_child(1, 10.0, 20.0)
        assert table.pending_update(delta=1.0) == (10.0, 21.0)

    def test_pending_update_rejects_negative_delta(self):
        table = RangeTable(0, "t")
        table.observe_reading(1.0, delta=1.0)
        with pytest.raises(ValueError):
            table.pending_update(delta=-1.0)


class TestRangeTableSet:
    """Fig. 4: one table per sensor type present in the subtree."""

    def test_tables_created_lazily_per_type(self):
        tables = RangeTableSet(owner=0)
        assert tables.table("temperature") is None
        created = tables.table("temperature", create=True)
        assert created is tables.table("temperature")
        assert "temperature" in tables
        assert tables.sensor_types == ["temperature"]

    def test_table_per_type_independent(self):
        tables = RangeTableSet(0)
        tables.table("a", create=True).observe_reading(1.0, 0.1)
        tables.table("b", create=True).update_child(5, 10.0, 20.0)
        assert tables.table("a").aggregate() == (0.9, 1.1)
        assert tables.table("b").aggregate() == (10.0, 20.0)
        assert len(tables) == 2
        assert tables.total_entries() == 2

    def test_remove_child_everywhere_reports_changed_types(self):
        tables = RangeTableSet(0)
        tables.table("a", create=True).update_child(7, 0.0, 1.0)
        tables.table("b", create=True).update_child(7, 5.0, 6.0)
        tables.table("c", create=True).update_child(8, 5.0, 6.0)
        assert tables.remove_child_everywhere(7) == ["a", "b"]
        assert tables.table("a").is_empty
        assert not tables.table("c").is_empty

    def test_drop_table(self):
        tables = RangeTableSet(0)
        tables.table("a", create=True)
        assert tables.drop("a") is True
        assert tables.drop("a") is False
        assert "a" not in tables
