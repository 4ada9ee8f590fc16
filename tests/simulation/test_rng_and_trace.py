"""Tests for random-stream management and the tracer."""

import pytest

from repro.simulation.rng import RandomStreams
from repro.simulation.trace import Tracer


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(7).get("topology")
        b = RandomStreams(7).get("topology")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_give_independent_streams(self):
        streams = RandomStreams(7)
        a = streams.get("alpha").random(10)
        b = streams.get("beta").random(10)
        assert list(a) != list(b)

    def test_same_name_returns_same_generator_object(self):
        streams = RandomStreams(7)
        assert streams.get("x") is streams.get("x")

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(5)
        b = RandomStreams(2).get("x").random(5)
        assert list(a) != list(b)

    def test_adding_new_stream_does_not_perturb_existing(self):
        s1 = RandomStreams(9)
        first_draw = s1.get("phenomena").random(3)

        s2 = RandomStreams(9)
        s2.get("some-new-consumer")  # extra stream created first
        second_draw = s2.get("phenomena").random(3)
        assert list(first_draw) == list(second_draw)

    def test_invalid_inputs(self):
        with pytest.raises(TypeError):
            RandomStreams("not-an-int")
        with pytest.raises(ValueError):
            RandomStreams(1).get("")


class TestTracer:
    def test_records_are_retained_in_order(self):
        tracer = Tracer()
        tracer.record(1.0, "a", node=1, detail=1)
        tracer.record(2.0, "b", node=2)
        assert [r.category for r in tracer.records] == ["a", "b"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, "a")
        assert tracer.records == []
        assert tracer.count("a") == 0

    def test_category_whitelist(self):
        tracer = Tracer(categories={"keep"})
        tracer.record(1.0, "keep")
        tracer.record(1.0, "drop")
        assert [r.category for r in tracer.records] == ["keep"]

    def test_retention_bound_drops_oldest(self):
        tracer = Tracer(max_records=3)
        for i in range(5):
            tracer.record(float(i), "x", node=i)
        assert len(tracer.records) == 3
        assert tracer.dropped == 2
        assert tracer.records[0].node == 2
        # Counts still reflect every record ever seen.
        assert tracer.count("x") == 5

    def test_window_overflowing_many_times_keeps_the_newest_tail(self):
        tracer = Tracer(max_records=4)
        for i in range(23):
            tracer.record(float(i), "even" if i % 2 == 0 else "odd", node=i, i=i)
        assert [r.node for r in tracer.records] == [19, 20, 21, 22]
        assert [r.time for r in tracer.records] == [19.0, 20.0, 21.0, 22.0]
        assert [r.detail for r in tracer.records] == [{"i": i} for i in range(19, 23)]
        assert tracer.dropped == 19
        assert tracer.summary() == {"even": 12, "odd": 11}
        tracer.clear()
        for i in range(6):
            tracer.record(float(i), "x", node=i)
        assert [r.node for r in tracer.records] == [2, 3, 4, 5]
        assert tracer.dropped == 2
        assert tracer.summary() == {"x": 6}

    def test_summary_and_clear(self):
        tracer = Tracer()
        tracer.record(1.0, "a")
        tracer.record(1.0, "a")
        tracer.record(1.0, "b")
        assert tracer.summary() == {"a": 2, "b": 1}
        tracer.clear()
        assert tracer.records == []
        assert tracer.summary() == {}

    def test_invalid_max_records(self):
        with pytest.raises(ValueError):
            Tracer(max_records=0)
