"""Property-based tests for the simulation engine, ledger, and phenomena."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.energy.ledger import NetworkLedger
from repro.sensors.phenomena import _ar1_filter, spatial_covariance
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams


class TestEngineProperties:
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=200)
    def test_events_execute_in_non_decreasing_time_order(self, times):
        sim = Simulator()
        executed = []
        for t in times:
            sim.schedule_at(t, lambda t=t: executed.append(sim.now))
        sim.run()
        assert len(executed) == len(times)
        assert executed == sorted(executed)
        assert sim.now == max(times)

    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        boundary=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_run_until_executes_exactly_the_due_events(self, times, boundary):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_until(boundary)
        assert sorted(fired) == sorted(t for t in times if t <= boundary)
        assert sim.pending == sum(1 for t in times if t > boundary)

    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_named_streams_are_reproducible(self, seed, name):
        a = RandomStreams(seed).get(name).random(4)
        b = RandomStreams(seed).get(name).random(4)
        assert np.array_equal(a, b)


class TestLedgerProperties:
    kinds = ("query", "update", "estimate", "flood")
    charges = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),          # node
            st.sampled_from(kinds),
            st.booleans(),                                    # tx?
        ),
        max_size=200,
    )

    @given(charges=charges)
    @settings(max_examples=200)
    def test_totals_equal_sum_of_parts(self, charges):
        ledger = NetworkLedger()
        for node, kind, is_tx in charges:
            if is_tx:
                ledger.node(node).charge_tx(kind)
            else:
                ledger.node(node).charge_rx(kind)
        total = ledger.total_count()
        # Counts match the number of charges.
        assert total == len(charges)
        # Per-kind and per-node counts partition the total.
        assert sum(ledger.total_count(kind=k) for k in self.kinds) == total
        assert sum(ledger.node(n).count() for n in ledger.node_ids) == total
        # Unit costs (paper §5): the cost is the count.
        assert ledger.total_cost() == float(total)
        assert sum(ledger.per_node_cost().values()) == float(total)


class TestPhenomenaProperties:
    @given(
        n=st.integers(min_value=2, max_value=25),
        scale=st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_spatial_covariance_is_valid_correlation_matrix(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 100, size=(n, 2))
        cov = spatial_covariance(positions, scale)
        assert cov.shape == (n, n)
        assert np.allclose(cov, cov.T)
        assert np.all(cov <= 1.0 + 1e-8)
        assert np.all(cov >= 0.0)
        # Positive definiteness (Cholesky succeeds).
        np.linalg.cholesky(cov)

    @given(
        num_epochs=st.integers(min_value=1, max_value=80),
        rhos=st.lists(
            st.floats(
                min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True
            ),
            min_size=1,
            max_size=6,
        ),
        log_scale=st.floats(min_value=-6.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_ar1_kernel_is_bit_identical_to_lfilter(
        self, num_epochs, rhos, log_scale, seed
    ):
        lfilter = pytest.importorskip("scipy.signal").lfilter
        x = np.random.default_rng(seed).standard_normal((num_epochs, len(rhos)))
        x *= 10.0**log_scale
        y = x.copy()
        _ar1_filter(y, np.array(rhos))
        for j, rho in enumerate(rhos):
            expected = lfilter([1.0], [1.0, -rho], x[:, j])
            assert np.array_equal(y[:, j].view(np.int64), expected.view(np.int64))
