"""Tests for the replication-statistics layer (`repro.metrics.stats`).

The properties the ISSUE pins down: Student-t criticals match the standard
table, CI width shrinks ~1/sqrt(n) on synthetic data, degenerate n=1 groups
report no CI instead of crashing, replicate grouping is stable across
worker counts, and report cells round-trip through the JSON export.
"""

import json
import math
import random

import pytest

from repro.metrics.report import format_replicate_table
from repro.metrics.stats import (
    DEFAULT_METRICS,
    ReplicateSummary,
    group_replicates,
    groups_to_jsonable,
    mean_series,
    student_t_critical,
)


class TestStudentT:
    #: Textbook two-sided 95 % critical values.
    TABLE = {1: 12.706, 2: 4.303, 4: 2.776, 9: 2.262, 30: 2.042, 100: 1.984}

    def test_matches_the_t_table(self):
        for df, expected in self.TABLE.items():
            assert student_t_critical(df, 0.95) == pytest.approx(
                expected, abs=1e-3
            )

    #: The values of the pure-``math`` incomplete-beta inversion this module
    #: used before it called ``scipy.stats.t.ppf``, pinned at full precision
    #: so any change of method shows up here.  The two agree to within
    #: 4.9e-13 relative over df 1-199 at 80/90/95/99 %.
    PINNED = {
        0.90: {
            1: 6.3137515146754595, 2: 2.9199855803535684,
            3: 2.3533634348013948, 4: 2.131846786326605,
            5: 2.0150483733332294, 9: 1.833112932657059,
            19: 1.72913281152114, 29: 1.6991270265339153,
            99: 1.66039115601734,
        },
        0.95: {
            1: 12.706204736172367, 2: 4.302652729749752,
            3: 3.1824463052844294, 4: 2.776445105198036,
            5: 2.570581835635494, 9: 2.2621571627978483,
            19: 2.093024054408488, 29: 2.0452296421326537,
            99: 1.9842169515859496,
        },
        0.99: {
            1: 63.65674116284936, 2: 9.924843200915348,
            3: 5.840909309734343, 4: 4.604094871350753,
            5: 4.032142983554877, 9: 3.2498355415928017,
            19: 2.86093460646498, 29: 2.7563859036699796,
            99: 2.62640545728118,
        },
    }

    def test_matches_the_pinned_values(self):
        for confidence, table in self.PINNED.items():
            for df, expected in table.items():
                assert student_t_critical(df, confidence) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_approaches_the_normal_quantile(self):
        assert student_t_critical(10_000, 0.95) == pytest.approx(1.96, abs=5e-3)

    def test_higher_confidence_widens(self):
        assert student_t_critical(9, 0.99) > student_t_critical(9, 0.95)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            student_t_critical(0)
        with pytest.raises(ValueError):
            student_t_critical(5, 1.0)


class TestReplicateSummary:
    def test_basic_moments(self):
        s = ReplicateSummary.from_values("x", [1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.mean == pytest.approx(3.0)
        assert s.std == pytest.approx(math.sqrt(2.5))
        assert s.minimum == 1.0 and s.maximum == 5.0 and s.n == 5
        # half-width = t*(4) * s / sqrt(5)
        assert s.ci_halfwidth == pytest.approx(
            2.776 * math.sqrt(2.5) / math.sqrt(5), abs=1e-3
        )

    def test_degenerate_single_replicate_has_no_ci(self):
        s = ReplicateSummary.from_values("x", [7.5])
        assert s.n == 1
        assert s.ci_halfwidth is None
        assert s.std == 0.0
        assert "±" not in s.format()
        assert s.format() == "7.500 [n=1]"

    def test_non_finite_values_degrade_gracefully(self):
        s = ReplicateSummary.from_values("ratio", [float("inf"), 1.0])
        assert s.ci_halfwidth is None
        assert math.isinf(s.mean)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            ReplicateSummary.from_values("x", [])

    def test_ci_width_shrinks_like_one_over_sqrt_n(self):
        rng = random.Random(42)
        population = [rng.gauss(10.0, 2.0) for _ in range(4000)]
        # Mean CI half-width over many disjoint groups of each size: the
        # t-interval is t*(n-1) * s / sqrt(n), so quadrupling n should
        # roughly halve it (slightly more, as t* also shrinks).
        def mean_halfwidth(n):
            groups = [population[i : i + n] for i in range(0, 4000, n)]
            widths = [
                ReplicateSummary.from_values("x", g).ci_halfwidth
                for g in groups
            ]
            return sum(widths) / len(widths)

        ratio = mean_halfwidth(10) / mean_halfwidth(40)
        assert 1.7 < ratio < 2.6  # ~sqrt(40/10) = 2, plus the t* shrink


class TestMeanSeries:
    def test_element_wise_mean(self):
        assert mean_series([[1.0, 2.0], [3.0, 4.0]]) == [2.0, 3.0]

    def test_rejects_ragged_replicates(self):
        with pytest.raises(ValueError):
            mean_series([[1.0], [1.0, 2.0]])

    def test_empty(self):
        assert mean_series([]) == []


class _FakeSpec:
    def __init__(self, label, key, tags):
        self.label = label
        self.key = key
        self.group = "g"
        self.tags = tags


class _FakeResult:
    """Duck-typed stand-in for TrialResult (scalar metrics only)."""

    def __init__(self, label, key, tags, value, from_cache=False):
        self.spec = _FakeSpec(label, key, tags)
        self.num_queries = 4
        self.cost_ratio = value
        self.mean_overshoot_percent = value
        self.mean_accuracy = 1.0
        self.total_dirq_cost = 10 * value
        self.from_cache = from_cache

        class _Audit:
            records = []

        self.audit = _Audit()

    def updates_per_window(self):
        return [1.0, 3.0]


def _fake_group(n, base="spec-a"):
    return [
        _FakeResult(
            label=base if i == 0 else f"{base} rep={i}",
            key=f"{base}-k{i}",
            tags={"replicate": i, "base_key": base, "base_label": base},
            value=float(i + 1),
            from_cache=(i == 0),
        )
        for i in range(n)
    ]


class TestGroupReplicates:
    def test_groups_fold_by_base_key(self):
        results = _fake_group(3) + _fake_group(2, base="spec-b")
        groups = group_replicates(results)
        assert [g.label for g in groups] == ["spec-a", "spec-b"]
        assert [g.n for g in groups] == [3, 2]
        assert groups[0].metrics["cost_ratio"].mean == pytest.approx(2.0)
        # Per-group cache-hit accounting (rep 0 was cached in the fixture).
        assert groups[0].cache_hits == 1 and groups[0].executed == 2

    def test_grouping_is_order_of_first_appearance_not_arrival(self):
        # Shuffled arrival (as a multi-worker run could interleave it)
        # must produce the same groups and summaries.
        results = _fake_group(3) + _fake_group(3, base="spec-b")
        shuffled = [results[i] for i in (4, 0, 5, 2, 3, 1)]
        a = group_replicates(results)
        b = group_replicates(shuffled)
        assert [g.label for g in b] == ["spec-b", "spec-a"]
        by_label_a = {g.label: g for g in a}
        by_label_b = {g.label: g for g in b}
        for label in by_label_a:
            assert (
                by_label_a[label].to_dict() == by_label_b[label].to_dict()
            )

    def test_twin_sweep_points_stay_separate_groups(self):
        # Two sweep points whose configs hash equally (shared cache entries)
        # must NOT merge into one double-counted group: same base_key,
        # different base_label => separate rows of n values each.
        twins = []
        for label in ("loss=0", "atc-target=0.5"):
            for i in range(2):
                twins.append(
                    _FakeResult(
                        label=label if i == 0 else f"{label} rep={i}",
                        key="shared-config-hash",
                        tags={
                            "replicate": i,
                            "base_key": "shared-config-hash",
                            "base_label": label,
                        },
                        value=float(i + 1),
                    )
                )
        groups = group_replicates(twins)
        assert [g.label for g in groups] == ["loss=0", "atc-target=0.5"]
        assert [g.n for g in groups] == [2, 2]
        assert groups[0].base_key == groups[1].base_key

    def test_ungrouped_results_become_n1_groups(self):
        lone = _FakeResult("solo", "solo-key", tags={}, value=2.5)
        (group,) = group_replicates([lone])
        assert group.n == 1
        assert group.base_key == "solo-key"
        assert group.metrics["cost_ratio"].ci_halfwidth is None

    def test_to_dict_excludes_provenance(self):
        (group,) = group_replicates(_fake_group(2))
        payload = group.to_dict()
        assert "cache_hits" not in payload and "executed" not in payload
        (exported,) = json.loads(json.dumps(groups_to_jsonable([group])))
        assert exported == payload

    def test_format_replicate_table_renders_cells(self):
        groups = group_replicates(_fake_group(3))
        text = format_replicate_table(groups, title="stats")
        assert "stats" in text and "trial" in text
        assert "± " in text and "[n=3]" in text
        for name in DEFAULT_METRICS:
            assert name in text
