"""Registry contract + end-to-end scenario runs through the experiment layer.

Also pins the hash/fingerprint back-compatibility contract: adding the
``scenario`` field must not change the cache key or fingerprint of any
scenario-free configuration.
"""

import pytest

import repro.scenarios.static as static
from repro.experiments.batch import BatchRunner, TrialSpec, config_hash
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, run_experiment
from repro.scenarios.registry import (
    build_config,
    get_scenario,
    scenario_defs,
    scenario_names,
    scenario_spec,
)
from repro.scenarios.spec import (
    ChurnConfig,
    EnergyConfig,
    MobilityConfig,
    ScenarioConfig,
    TrafficConfig,
)
from repro.scenarios.static import small_network

# Golden values computed before the scenario subsystem existed; they pin
# the promise that scenario-free configs keep their cache identity and
# bit-exact measurements across the subsystem's introduction.  Re-pinned
# once, when the unmodelled ``slots_per_frame`` field left the canonical
# payload; the fingerprint moved only through its key.
GOLDEN_DEFAULT_HASH = "ab4e5e80b500fe5c87a5"
GOLDEN_PAPER_HASH = "c006bc9eb2b4fd852c7b"
GOLDEN_SMALL_KEY = "beb510ed361d90b02339"
GOLDEN_SMALL_FINGERPRINT = (
    "3b9a3ca433dc025f695e2cea33e6abcf4925cef1a4290b22520f08b35536b5ff"
)

# Golden scenario-config hashes computed before the area-failure /
# group-mobility fields were added to ChurnConfig / MobilityConfig; they
# pin the HASH_OMIT_WHEN_UNSET convention -- extending a scenario
# dataclass with optional fields must not move any existing cache key.
# Re-pinned with the goldens above when ``slots_per_frame`` was removed.
GOLDEN_SCENARIO_HASHES = {
    "churn-heavy": "56f7418062c844029715",
    "mobile-40": "2cc4bb24d806cd1360db",
    "harsh-mixed": "17533082b2f5bcb3c709",
}


def serial_runner() -> BatchRunner:
    return BatchRunner(max_workers=1)


class TestHashCompatibility:
    def test_scenario_free_hashes_unchanged(self):
        assert config_hash(ExperimentConfig()) == GOLDEN_DEFAULT_HASH
        assert config_hash(static.paper_network()) == GOLDEN_PAPER_HASH

    def test_scenario_free_fingerprint_unchanged(self):
        spec = TrialSpec(
            label="golden", config=small_network(num_nodes=10, num_epochs=80)
        )
        assert spec.key == GOLDEN_SMALL_KEY
        (result,) = serial_runner().run([spec])
        assert result.fingerprint() == GOLDEN_SMALL_FINGERPRINT

    def test_pre_extension_scenario_hashes_unchanged(self):
        for name, golden in GOLDEN_SCENARIO_HASHES.items():
            assert config_hash(build_config(name, 400, 1)) == golden, name

    def test_scenario_parameters_enter_the_hash(self):
        base = small_network(num_nodes=10, num_epochs=80)
        a = base.with_scenario(
            ScenarioConfig(churn=ChurnConfig(death_rate=0.01))
        )
        b = base.with_scenario(
            ScenarioConfig(churn=ChurnConfig(death_rate=0.02))
        )
        assert config_hash(base) != config_hash(a)
        assert config_hash(a) != config_hash(b)
        assert config_hash(a) == config_hash(
            base.with_scenario(ScenarioConfig(churn=ChurnConfig(death_rate=0.01)))
        )


class TestRegistry:
    def test_catalogue_covers_every_dimension(self):
        names = scenario_names()
        assert len(names) >= 6
        kinds = {d.kind for d in scenario_defs()}
        assert {"static", "churn", "mobility", "traffic", "energy"} <= kinds

    def test_every_factory_builds_a_config(self):
        for name in scenario_names():
            cfg = build_config(name, num_epochs=100, seed=2)
            assert isinstance(cfg, ExperimentConfig)
            assert cfg.num_epochs == 100 and cfg.seed == 2
            if get_scenario(name).kind == "static":
                assert cfg.scenario is None
            else:
                assert cfg.scenario is not None
                assert cfg.scenario.name == name

    def test_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="churn-heavy"):
            get_scenario("no-such-scenario")

    def test_scenario_spec_tags(self):
        spec = scenario_spec("churn-heavy", num_epochs=100, seed=2)
        assert spec.label == "churn-heavy"
        assert spec.tags["scenario"] == "churn-heavy"
        assert spec.tags["scenario_kind"] == "churn"

    def test_paper_network_has_one_definition(self):
        # static-paper is the canonical §7 network, which the top-level
        # package re-exports too.
        import repro

        assert repro.paper_network is static.paper_network
        assert build_config("static-paper", 300, 4) == static.paper_network(
            num_epochs=300, seed=4
        )

    def test_experiments_package_reexports_lazily(self):
        import repro.experiments as E

        assert E.paper_network is static.paper_network
        with pytest.raises(AttributeError):
            E.no_such_symbol


def churn_config(num_epochs=200, seed=5):
    return small_network(num_nodes=12, num_epochs=num_epochs, seed=seed).with_scenario(
        ScenarioConfig(
            name="test-churn",
            churn=ChurnConfig(death_rate=0.05, start_epoch=40, max_deaths=4),
        )
    )


class TestScenarioRuns:
    def test_churn_kills_nodes_and_records_events(self):
        result = run_experiment(churn_config())
        kills = [e for e in result.scenario_events if e[1] == "kill"]
        assert kills, "churn scenario produced no deaths"
        assert len(result.alive_at_end) == 12 - len(kills)
        for epoch, _, nid in kills:
            assert 40 <= epoch < 200
            assert nid not in result.alive_at_end

    def test_churn_revival_restores_nodes(self):
        cfg = small_network(num_nodes=12, num_epochs=200, seed=5).with_scenario(
            ScenarioConfig(
                churn=ChurnConfig(
                    death_rate=0.05, start_epoch=20, end_epoch=80,
                    revive_after=30, max_deaths=4,
                )
            )
        )
        result = run_experiment(cfg)
        kinds = {e[1] for e in result.scenario_events}
        assert kinds == {"kill", "activate"}
        # Every node killed before epoch 170 revives within the run.
        assert len(result.alive_at_end) == 12

    @pytest.mark.parametrize(
        "name", ["churn-revive", "area-blast-revive", "static-paper", "churn-heavy"]
    )
    def test_parents_hold_what_children_last_advertised(self, name):
        """After churn (revivals included) every parent's child entry is
        exactly the range the child last transmitted: a revived node must
        re-advertise, because its parent dropped its entries on
        NeighborLost (paper §4.2)."""
        runner = ExperimentRunner(build_config(name, 400, 1))
        runner.run()
        world = runner.world
        mismatched = []
        for nid in sorted(world.alive):
            parent = world.tree.parent_of(nid) if nid in world.tree else None
            if parent is None:
                continue
            parent_tables = world.protocols[parent].tables
            for table in world.protocols[nid].tables.tables():
                parent_table = parent_tables.table(table.sensor_type)
                entry = (
                    parent_table.child_entry(nid) if parent_table is not None else None
                )
                held = entry.as_tuple if entry is not None else None
                if held != table.last_transmitted:
                    mismatched.append((nid, table.sensor_type))
        assert mismatched == []

    def test_energy_budgets_kill_cheap_nodes(self):
        cfg = small_network(num_nodes=12, num_epochs=200, seed=5).with_scenario(
            ScenarioConfig(
                energy=EnergyConfig(
                    distribution="two_tier",
                    capacity_low=40.0,
                    capacity_high=1e9,
                    fraction_low=0.4,
                    check_period=2,
                )
            )
        )
        runner = ExperimentRunner(cfg)
        result = runner.run()
        assert runner.world.batteries, "energy scenario assigned no batteries"
        kills = [e for e in result.scenario_events if e[1] == "kill"]
        assert kills, "no node exhausted its battery"
        for _, _, nid in kills:
            assert runner.world.batteries[nid].depleted
        assert 0 in result.alive_at_end  # the root is mains-powered

    def test_activation_recharges_a_depleted_battery(self):
        # Reactivation models a battery swap: composing revive-churn with
        # finite energy must not flap (a revived node dying again at the
        # very next energy check because its old battery was empty).
        cfg = small_network(num_nodes=10, num_epochs=100, seed=5).with_scenario(
            ScenarioConfig(
                energy=EnergyConfig(capacity_low=50.0, capacity_high=50.0)
            )
        )
        runner = ExperimentRunner(cfg)
        world = runner.build()
        nid = sorted(world.alive - {cfg.root_id})[0]
        battery = world.batteries[nid]
        battery.draw(battery.capacity)
        assert battery.depleted
        runner._apply_kill(world, nid)
        runner._apply_activation(world, nid)
        assert nid in world.alive
        assert not battery.depleted
        assert battery.remaining == battery.capacity

    def test_fresh_battery_does_not_inherit_pre_death_spend(self):
        # A node dies mid-check-interval and is revived with a fresh
        # battery (a battery swap).  The energy it spent between its last
        # energy check and its death -- never checkpointed, because checks
        # skip dead nodes -- must not be debited from the new battery at
        # the next check, or the swap re-kills the node.  Checks land at
        # 55/110/165; the kill at 108 leaves ~50 epochs of un-checkpointed
        # spend, and the victim's capacity sits between its post-revival
        # spend (one check interval) and that spend plus the dead tail, so
        # inheriting the tail would deplete the battery at epoch 165.
        from repro.energy.battery import Battery
        from repro.experiments.config import TopologyEvent

        victim = 5
        cfg = small_network(num_nodes=8, num_epochs=180, seed=7).replace(
            topology_events=[
                TopologyEvent(epoch=108, kind=TopologyEvent.KILL, node_id=victim),
                TopologyEvent(epoch=112, kind=TopologyEvent.ACTIVATE, node_id=victim),
            ],
            scenario=ScenarioConfig(
                energy=EnergyConfig(
                    capacity_low=1e9, capacity_high=1e9, check_period=55
                )
            ),
        )
        runner = ExperimentRunner(cfg)
        runner.build().batteries[victim] = Battery(capacity=85.0)
        result = runner.run()
        battery_kills = {
            nid for epoch, kind, nid in result.scenario_events
            if kind == "kill" and epoch > 112
        }
        assert victim not in battery_kills
        assert victim in result.alive_at_end
        battery = runner.world.batteries[victim]
        assert not battery.depleted
        # The fresh battery paid only for post-revival traffic: one check
        # interval's spend, well under the pre-death tail + interval sum.
        assert 0.0 < battery.capacity - battery.remaining < 85.0

    def test_activating_an_alive_node_does_not_forgive_its_spend(self):
        # A scripted ACTIVATE on an already-alive node is a measurement
        # no-op (PR 4 contract) -- it must not checkpoint the energy
        # ledger either, or the spend since the last check would never be
        # drawn from the node's unchanged battery.  With checks at 55/110
        # and a budget below the node's epoch-0..55 spend, the battery
        # kill must land on the *first* check despite the epoch-50
        # activation; a forgiving checkpoint would defer it to epoch 110.
        from repro.energy.battery import Battery
        from repro.experiments.config import TopologyEvent

        victim = 5
        cfg = small_network(num_nodes=8, num_epochs=120, seed=7).replace(
            topology_events=[
                TopologyEvent(
                    epoch=50, kind=TopologyEvent.ACTIVATE, node_id=victim
                ),
            ],
            scenario=ScenarioConfig(
                energy=EnergyConfig(
                    capacity_low=1e9, capacity_high=1e9, check_period=55
                )
            ),
        )
        runner = ExperimentRunner(cfg)
        runner.build().batteries[victim] = Battery(capacity=20.0)
        result = runner.run()
        kills = [
            (epoch, nid)
            for epoch, kind, nid in result.scenario_events
            if kind == "kill"
        ]
        assert (55, victim) in kills

    def test_churn_revive_composes_with_finite_energy(self):
        cfg = small_network(num_nodes=12, num_epochs=240, seed=5).with_scenario(
            ScenarioConfig(
                churn=ChurnConfig(
                    death_rate=0.1, start_epoch=20, end_epoch=60,
                    revive_after=20, max_deaths=3,
                ),
                energy=EnergyConfig(
                    distribution="uniform",
                    capacity_low=60.0,
                    capacity_high=120.0,
                    check_period=1,
                ),
            )
        )
        result = run_experiment(cfg)
        revived = {
            nid for _, kind, nid in result.scenario_events if kind == "activate"
        }
        assert revived, "no revival happened"
        # No pathological flapping: every (kill, activate) pair for a node
        # is driven by the churn schedule or a genuine battery depletion,
        # never an immediate re-kill of a freshly revived node.
        events_per_node = {}
        for epoch, kind, nid in result.scenario_events:
            events_per_node.setdefault(nid, []).append((epoch, kind))
        for nid, events in events_per_node.items():
            for (e1, k1), (e2, k2) in zip(events, events[1:]):
                if k1 == "activate" and k2 == "kill":
                    assert e2 - e1 > 1, f"node {nid} flapped at epoch {e1}"

    def test_mobility_relinks_and_moves_nodes(self):
        cfg = small_network(num_nodes=12, num_epochs=120, seed=5).with_scenario(
            ScenarioConfig(
                mobility=MobilityConfig(
                    mobile_fraction=0.5, speed_min=1.0, speed_max=2.0,
                    relink_period=30,
                )
            )
        )
        runner = ExperimentRunner(cfg)
        before = dict(runner.build().topology.positions)
        result = runner.run()
        assert result.num_relinks == 3  # epochs 30, 60, 90
        after = runner.world.topology.positions
        assert after != before
        assert runner.world.tree.root == cfg.root_id
        # The root (and non-mobile nodes) never move.
        assert after[cfg.root_id] == before[cfg.root_id]

    def test_traffic_profile_changes_the_load(self):
        base = small_network(num_nodes=12, num_epochs=200, seed=5)
        static_result = run_experiment(base)
        bursty = base.with_scenario(
            ScenarioConfig(
                traffic=TrafficConfig(
                    mode="bursty", burst_every=50, queries_per_burst=5,
                    background_period=0,
                )
            )
        )
        bursty_result = run_experiment(bursty)
        assert bursty_result.num_queries == 15  # bursts at 50/100/150
        assert bursty_result.num_queries != static_result.num_queries

    def test_scenarios_bit_identical_across_worker_counts(self):
        specs = [
            scenario_spec(name, num_epochs=120, seed=9)
            for name in ("churn-heavy", "mobile-40", "diurnal-60", "energy-tiered")
        ]
        serial = [r.fingerprint() for r in serial_runner().run(specs)]
        parallel = [
            r.fingerprint()
            for r in BatchRunner(max_workers=2).run(specs)
        ]
        assert serial == parallel

    def test_scenario_results_cache_and_stay_bit_identical(self, tmp_path):
        spec = TrialSpec(label="churn", config=churn_config())
        first = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (a,) = first.run([spec])
        assert first.last_stats.executed == 1
        second = BatchRunner(max_workers=1, cache_dir=tmp_path)
        (b,) = second.run([spec])
        assert second.last_stats.cached == 1 and second.last_stats.executed == 0
        assert b.from_cache
        assert a.fingerprint() == b.fingerprint()
        assert b.scenario_events == a.scenario_events

    def test_static_run_has_no_scenario_telemetry(self):
        result = run_experiment(small_network(num_nodes=10, num_epochs=80))
        assert result.scenario_events == []
        assert result.num_relinks == 0
