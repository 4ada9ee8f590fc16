"""Tests for the experiment configuration, runner, and figure harnesses.

These use deliberately small networks and epoch counts so the whole module
runs in seconds; the figure presets run on the paper's network for 100
epochs.
"""

import json

import pytest

from repro.__main__ import main

from repro.core.config import ThresholdMode
from repro.experiments.batch import config_json
from repro.experiments.config import ExperimentConfig, ProtocolName, TopologyEvent
from repro.experiments.runner import ExperimentRunner, run_experiment
from repro.scenarios.static import paper_network
from repro.experiments import table_analytical
from repro.metrics.accuracy import delivery_completeness
from repro.sensors.types import SensorTypeSpec


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        num_nodes=15,
        comm_range=40.0,
        num_epochs=200,
        query_period=20,
        target_coverage=0.4,
        query_sensor_type="temperature",
        seed=5,
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_config):
    return run_experiment(tiny_config.with_fixed_delta(5.0))


class TestExperimentConfig:
    def test_defaults_match_paper_setup(self):
        cfg = paper_network()
        assert cfg.num_nodes == 50
        assert cfg.query_period == 20
        assert cfg.num_epochs == 20_000

    def test_with_fixed_delta_and_atc(self, tiny_config):
        fixed = tiny_config.with_fixed_delta(9.0)
        assert fixed.dirq.delta_percent == 9.0
        assert fixed.dirq.threshold_mode == ThresholdMode.FIXED
        atc = tiny_config.with_atc(target_cost_ratio=0.4)
        assert atc.dirq.threshold_mode == ThresholdMode.ADAPTIVE
        assert atc.dirq.atc_target_cost_ratio == 0.4
        flood = tiny_config.with_flooding()
        assert flood.protocol == ProtocolName.FLOODING

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_nodes=1)
        with pytest.raises(ValueError):
            ExperimentConfig(target_coverage=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="carrier-pigeon")
        with pytest.raises(ValueError):
            ExperimentConfig(initially_dead={0})
        with pytest.raises(ValueError):
            TopologyEvent(epoch=1, kind="explode", node_id=2)
        # A field naming a node outside range(num_nodes) names it back.
        kill, activate = TopologyEvent(5, "kill", 99), TopologyEvent(5, "activate", 99)
        for field, value, bad in [
            ("root_id", 20, 20),
            ("root_id", -1, -1),
            ("initially_dead", {3, 99}, 99),
            ("topology_events", [kill], 99),
            ("topology_events", [activate], 99),
            ("sensors_per_node", {99: ["temperature"]}, 99),
        ]:
            message = rf"{field} names nodes outside range\(10\): \[{bad}\]"
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(num_nodes=10, **{field: value})
        # A sensor mount fails at construction, not when the trial builds.
        for value, error, message in [
            ({1: ["nope"]}, ValueError, r"on node 1: \['nope'\]"),
            ("x", TypeError, "None, an int, or a mapping"),
            (2.5, TypeError, "None, an int, or a mapping"),
        ]:
            with pytest.raises(error, match=message):
                ExperimentConfig(num_nodes=10, sensors_per_node=value)

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"sensor_types": ["no-such-type"]}, r"with no spec: \['no-such-type'\]"),
            ({"sensors_per_node": 5}, r"sensors_per_node must be in \[1, 4\], got 5"),
            (
                {"sensor_types": ["light", "pressure"], "sensors_per_node": 3},
                r"sensors_per_node must be in \[1, 2\], got 3",
            ),
            ({"sensors_per_node": 0}, r"sensors_per_node must be in \[1, 4\], got 0"),
            (
                {"sensor_types": ["humidity"], "query_sensor_type": "temperature"},
                r"query_sensor_type 'temperature' is not one of",
            ),
            ({"query_sensor_type": "no-such-type"}, r"query_sensor_type 'no-such-type'"),
        ],
        ids=[
            "unknown-type",
            "mounts-above-default-types",
            "mounts-above-chosen-types",
            "no-mounts",
            "query-type-not-chosen",
            "query-type-unknown",
        ],
    )
    def test_sensor_type_fields_fail_at_construction(self, changes, message):
        """A trial whose sensor types its build would reject is rejected
        when the config is made, not in a worker."""
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(num_nodes=10, **changes)

    def test_sensor_types_named_by_phenomena_specs_are_accepted(self):
        spec = SensorTypeSpec("salinity", full_scale=5.0)
        cfg = ExperimentConfig(
            num_nodes=10,
            sensor_types=["salinity", "temperature"],
            phenomena_specs={"salinity": spec},
            sensors_per_node=2,
            query_sensor_type="salinity",
        )
        assert cfg.sensors_per_node == 2


class TestRunnerDirQ:
    def test_injects_expected_number_of_queries(self, tiny_result, tiny_config):
        expected = len(range(tiny_config.query_period, tiny_config.num_epochs,
                             tiny_config.query_period))
        assert tiny_result.num_queries == expected
        assert len(tiny_result.audit.records) == expected
        assert len(tiny_result.per_query_costs) == expected

    def test_flooding_reference_uses_alive_topology(self, tiny_result, tiny_config):
        # N + 2L for 15 nodes: at least 15 + 2*14.
        assert tiny_result.flooding_cost_per_query >= 15 + 2 * 14

    def test_queries_are_mostly_delivered(self, tiny_result):
        assert delivery_completeness(tiny_result.audit.records) > 0.9

    def test_cost_breakdown_contains_query_and_update_traffic(self, tiny_result):
        assert tiny_result.breakdown.query_cost > 0
        assert tiny_result.breakdown.update_cost > 0
        assert tiny_result.breakdown.flood_cost == 0

    def test_update_series_covers_run(self, tiny_result, tiny_config):
        assert len(tiny_result.update_series) == tiny_config.num_epochs // tiny_config.window_epochs

    def test_reproducible_with_same_seed(self, tiny_config):
        a = run_experiment(tiny_config.with_fixed_delta(5.0))
        b = run_experiment(tiny_config.with_fixed_delta(5.0))
        assert a.total_dirq_cost == b.total_dirq_cost
        assert a.mean_overshoot_percent == b.mean_overshoot_percent
        assert [r.received for r in a.audit.records] == [
            r.received for r in b.audit.records
        ]

    def test_different_seed_changes_workload(self, tiny_config):
        a = run_experiment(tiny_config.with_fixed_delta(5.0))
        b = run_experiment(tiny_config.replace(seed=99).with_fixed_delta(5.0))
        assert a.total_dirq_cost != b.total_dirq_cost

    def test_build_is_idempotent(self, tiny_config):
        runner = ExperimentRunner(tiny_config)
        assert runner.build() is runner.build()

    @pytest.mark.parametrize("threshold", ["fixed", "atc"])
    def test_running_a_config_writes_nothing_to_it(self, threshold):
        # A fresh config: the module's fixture shares its nested DirQ
        # config with every config derived from it.
        base = ExperimentConfig(num_nodes=15, comm_range=40.0, num_epochs=60, seed=5)
        cfg = base.with_fixed_delta(5.0) if threshold == "fixed" else base.with_atc()
        before = config_json(cfg)
        ExperimentRunner(cfg).run()
        assert config_json(cfg) == before

    def test_world_alive_is_the_channel_alive_set(self, tiny_config):
        cfg = tiny_config.replace(
            num_epochs=40,
            initially_dead={3},
            topology_events=[
                TopologyEvent(epoch=10, kind="activate", node_id=3),
                TopologyEvent(epoch=20, kind="kill", node_id=4),
            ],
        )
        runner = ExperimentRunner(cfg)
        world = runner.build()
        assert world.alive is world.channel.alive
        assert world.alive == set(range(15)) - {3}
        assert [nid for nid, p in world.protocols.items() if not p.alive] == [3]
        result = runner.run()
        assert world.alive is world.channel.alive
        assert result.alive_at_end == world.alive == set(range(15)) - {4}
        assert [nid for nid, p in world.protocols.items() if not p.alive] == [4]


class TestRunnerFlooding:
    def test_flooding_cost_matches_analytic_reference(self, tiny_config):
        result = run_experiment(tiny_config.with_flooding())
        expected = result.flooding_cost_per_query * result.num_queries
        assert result.breakdown.flood_cost == pytest.approx(expected)

    def test_flooding_reaches_every_alive_node(self, tiny_config):
        result = run_experiment(tiny_config.with_flooding())
        for record in result.audit.records:
            assert len(record.received) == tiny_config.num_nodes - 1


class TestRunnerDynamics:
    def test_node_failures_are_survivable(self):
        base = ExperimentConfig(
            num_nodes=15,
            comm_range=45.0,
            num_epochs=300,
            query_period=20,
            target_coverage=0.4,
            query_sensor_type="temperature",
            seed=8,
            topology_events=[
                TopologyEvent(epoch=100, kind=TopologyEvent.KILL, node_id=5),
                TopologyEvent(epoch=100, kind=TopologyEvent.KILL, node_id=9),
            ],
        )
        result = run_experiment(base.with_fixed_delta(5.0))
        assert result.alive_at_end == set(range(15)) - {5, 9}
        assert 5 not in result.tree
        late_records = result.audit.records_between(150, 300)
        assert delivery_completeness(late_records) > 0.8

    def test_killing_root_is_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                num_nodes=10,
                comm_range=45.0,
                num_epochs=100,
                topology_events=[TopologyEvent(epoch=10, kind="kill", node_id=0)],
            )

    def test_initially_dead_node_can_be_activated(self):
        cfg = ExperimentConfig(
            num_nodes=12,
            comm_range=45.0,
            num_epochs=200,
            query_period=20,
            query_sensor_type="temperature",
            seed=4,
            initially_dead={7},
            topology_events=[
                TopologyEvent(epoch=80, kind=TopologyEvent.ACTIVATE, node_id=7)
            ],
        )
        result = run_experiment(cfg.with_fixed_delta(5.0))
        assert 7 in result.alive_at_end
        assert 7 in result.tree

    def test_initially_dead_results_ignore_set_insertion_order(self):
        # {1, 9} and {9, 1} compare equal but iterate in different orders
        # under CPython (9 % 8 collides with 1).  The runner must kill in
        # sorted order so set-equal configs -- which share a config_hash --
        # also share their results (reprolint RL110; cache v5).
        def run_with(dead):
            cfg = ExperimentConfig(
                num_nodes=25,
                comm_range=45.0,
                num_epochs=60,
                query_period=20,
                seed=0,
                initially_dead=dead,
            )
            return run_experiment(cfg.with_fixed_delta(5.0))

        a, b = run_with({1, 9}), run_with({9, 1})
        assert a.breakdown == b.breakdown
        assert a.ledger.per_node_cost() == b.ledger.per_node_cost()
        assert a.alive_at_end == b.alive_at_end
        assert a.per_query_costs == b.per_query_costs

    def test_heterogeneous_assignment(self):
        cfg = ExperimentConfig(
            num_nodes=12,
            comm_range=45.0,
            num_epochs=150,
            query_period=30,
            seed=6,
            sensors_per_node=2,
        )
        result = run_experiment(cfg.with_fixed_delta(5.0))
        assert result.num_queries > 0
        assert delivery_completeness(result.audit.records) > 0.7


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    """Run a preset briefly through ``python -m repro``; (output, export)."""
    cache_dir = tmp_path_factory.mktemp("presets")

    def run(name, capsys):
        export = cache_dir / f"{name}.json"
        argv = [
            "run", name, "--epochs", "100", "--replicates", "2",
            "--workers", "1", "--cache-dir", str(cache_dir),
            "--json", str(export),
        ]
        assert main(argv) == 0
        return capsys.readouterr().out, json.loads(export.read_text())

    return run


def printed_value(out, label):
    """The number a report prints after ``label`` and a colon."""
    (line,) = [l for l in out.splitlines() if l.strip().startswith(label)]
    return float(line.rpartition(":")[2])


def group_means(payload, metric):
    """``{protocol: replicate mean of metric}`` over the export's groups."""
    return {
        g["tags"]["protocol"]: g["metrics"][metric]["mean"]
        for g in payload["groups"]
    }


class TestFigureHarnesses:
    def test_fig5_run_produces_points_per_delta_and_coverage(
        self, preset_run, capsys
    ):
        out, payload = preset_run("fig5", capsys)
        # One replicate group per (delta, coverage) point, n=2 each.
        assert [g["n"] for g in payload["groups"]] == [2] * 10
        for coverage in (40, 60):
            table = out.split(f"relevant nodes = {coverage}%")[1]
            rows = table.split("\n\n")[0].splitlines()[3:]
            assert [row.split()[0] for row in rows] == [
                "1.00", "3.00", "5.00", "7.00", "9.00",
            ]
        assert all(
            g["metrics"]["cost_ratio"]["ci_halfwidth"] is not None
            for g in payload["groups"]
        )
        assert "RECEIVE" in out and "should NOT" in out
        assert "± " in out and "[n=2]" in out

    def test_fig6_run_produces_series_and_references(self, preset_run, capsys):
        out, payload = preset_run("fig6", capsys)
        umax = printed_value(out, "U_max per window")
        assert umax > 0
        assert printed_value(out, "0.45 * U_max") == pytest.approx(
            0.45 * umax, abs=0.1
        )
        assert "atc: mean=" in out and "delta=5: mean=" in out
        assert "ATC windows inside the 0.45-0.55 U_max band" in out
        assert "[n=2]" in out
        ratios = group_means(payload, "cost_ratio")
        assert set(ratios) == {"delta=3", "delta=5", "delta=9", "atc"}
        assert all(ratio > 0 for ratio in ratios.values())

    def test_fig7_run_produces_overshoot_series(self, preset_run, capsys):
        out, payload = preset_run("fig7", capsys)
        assert "Overshoot" in out and "20% relevant nodes" in out
        assert "delta=5: mean=" in out and "average overshoot pp" in out
        assert all(g["n"] == 2 for g in payload["groups"])
        overshoot = group_means(payload, "mean_overshoot_pp")
        assert set(overshoot) == {"delta=3", "delta=5", "delta=9", "atc"}
        assert all(0 <= value < 100 for value in overshoot.values())

    def test_headline_comparison(self, preset_run, capsys):
        out, payload = preset_run("headline", capsys)
        assert printed_value(out, "flooding total cost") > 0
        ratio = printed_value(
            out, "DirQ / flooding ratio (mean of paired per-replicate ratios)"
        )
        assert 0 < ratio < 2.0
        assert 0 < group_means(payload, "cost_ratio")["atc"] < 2.0
        assert "within 45-55% band" in out
        # Replicate i of DirQ and flooding must share one workload seed.
        seeds = {}
        for trial in payload["trials"]:
            seeds.setdefault(trial["replicate"], set()).add(trial["seed"])
        assert all(len(s) == 1 for s in seeds.values())

    def test_analytical_experiment_consistency(self):
        rows, checks, example = table_analytical.run()
        assert all(c.consistent for c in checks)
        assert example["f_max"] == pytest.approx(0.7667, abs=1e-3)
        assert "f_max" in table_analytical.report(rows, checks, example)
