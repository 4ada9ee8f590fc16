#!/usr/bin/env python
"""Forest environmental monitoring: the paper's motivating scenario (§3).

A 50-node network monitors temperature, humidity, light and pressure in a
forest.  A mixed population of users (researchers, students, the public)
queries it throughout the day, so the load is non-stationary: demand peaks
during the day and drops overnight.  The root's query-rate predictor feeds
the Adaptive Threshold Control, which re-budgets the update traffic every
hour so the network spends more energy on freshness when demand is high and
relaxes when it is quiet.

The example runs the full DirQ stack under a diurnal query load, then prints

* the per-hour query counts alongside the predictor's forecasts,
* the per-window update traffic (how ATC follows the load), and
* the end-of-run cost/accuracy summary against the flooding reference.

Run with::

    python examples/forest_monitoring.py
"""

from __future__ import annotations

from repro.core.analytical import flooding_cost_general
from repro.core.config import DirQConfig, ThresholdMode
from repro.core.dirq_root import DirQRoot
from repro.experiments.runner import ExperimentRunner
from repro.experiments.config import ExperimentConfig
from repro.metrics.accuracy import delivery_completeness, mean_overshoot
from repro.metrics.report import format_key_values, format_series, format_table
from repro.metrics.series import UpdateRateRecorder
from repro.simulation.rng import RandomStreams
from repro.workload.generator import QueryWorkloadGenerator
from repro.workload.ground_truth import evaluate_query
from repro.workload.injection import diurnal_schedule
from repro.core.messages import QUERY_KIND


NUM_EPOCHS = 4_000
EPOCHS_PER_DAY = 2_000
EPOCHS_PER_HOUR = 250


def main() -> None:
    config = ExperimentConfig(
        num_nodes=50,
        num_epochs=NUM_EPOCHS,
        epochs_per_day=EPOCHS_PER_DAY,
        target_coverage=0.4,
        query_sensor_type=None,  # users ask about all four sensor types
        seed=2,
        dirq=DirQConfig(
            threshold_mode=ThresholdMode.ADAPTIVE,
            epochs_per_hour=EPOCHS_PER_HOUR,
        ),
    )

    # Build the world through the standard runner, then drive a custom epoch
    # loop so we can use a diurnal (non-periodic) injection schedule.
    runner = ExperimentRunner(config)
    world = runner.build()
    sim = world.sim
    root: DirQRoot = world.protocols[config.root_id]

    streams = RandomStreams(config.seed)
    schedule = diurnal_schedule(
        NUM_EPOCHS,
        mean_rate_per_epoch=1.0 / 20.0,
        epochs_per_day=EPOCHS_PER_DAY,
        rng=streams.get("diurnal-workload"),
        peak_to_trough=5.0,
    )
    injections: dict[int, int] = {}
    for epoch in schedule:
        injections[epoch] = injections.get(epoch, 0) + 1

    generator = QueryWorkloadGenerator(
        dataset=world.dataset,
        tree=world.tree,
        rng=streams.get("workload"),
        sensor_owners=world.sensor_owners,
    )
    flooding_per_query = flooding_cost_general(len(world.alive), world.channel.num_links)
    root.set_network_size(len(world.alive))
    root.set_flooding_cost(flooding_per_query)
    recorder = UpdateRateRecorder(world.ledger, window_epochs=200)

    hourly_actual: list[int] = []
    hourly_forecast: list[float] = []
    queries = 0

    print(f"Simulating {NUM_EPOCHS} epochs of diurnal usage over a 50-node forest network...")
    for epoch in range(NUM_EPOCHS):
        sim.run_until(float(epoch))
        if epoch % EPOCHS_PER_HOUR == 0:
            message = root.start_new_hour(epoch)
            hourly_forecast.append(message.expected_queries)
            hourly_actual.append(0)
        for nid in sorted(world.alive):
            world.protocols[nid].on_epoch(epoch)
        sim.run_until(epoch + 0.5)
        for _ in range(injections.get(epoch, 0)):
            generated = generator.generate(epoch, config.target_coverage)
            query = generated.query
            sources, should = evaluate_query(
                world.dataset, world.tree, query, epoch, world.sensor_owners, world.alive
            )
            world.audit.register_query(
                query, sources, should, epoch, population=len(world.alive) - 1
            )
            before = world.ledger.total_cost([QUERY_KIND])
            root.inject_query(query)
            sim.run_until(epoch + 0.95)
            root.observe_query_cost(world.ledger.total_cost([QUERY_KIND]) - before)
            hourly_actual[-1] += 1
            queries += 1
        if (epoch + 1) % 200 == 0:
            recorder.on_window_end(epoch + 1 - 200)
    sim.run_until(float(NUM_EPOCHS))

    # ---- reporting ---------------------------------------------------------
    print()
    print(
        format_table(
            headers=["hour", "queries injected", "EHr forecast"],
            rows=[
                (i, actual, forecast)
                for i, (actual, forecast) in enumerate(zip(hourly_actual, hourly_forecast))
            ],
            float_format="{:.1f}",
            title="Query load vs the root's hourly EHr forecast",
        )
    )
    print()
    points = recorder.series
    print(
        format_series(
            "update messages per 200 epochs (ATC follows the diurnal load)",
            [p.window_start for p in points],
            [p.value for p in points],
        )
    )
    print()
    dirq_cost = world.ledger.total_cost(["query", "update", "estimate"])
    flooding_cost = flooding_per_query * queries
    print(
        format_key_values(
            "End-of-run summary",
            [
                ("queries injected", queries),
                ("DirQ total cost", dirq_cost),
                ("flooding cost for the same load", flooding_cost),
                ("cost ratio", dirq_cost / flooding_cost),
                ("mean overshoot (pp)", mean_overshoot(world.audit.records)),
                ("source completeness", delivery_completeness(world.audit.records)),
            ],
        )
    )


if __name__ == "__main__":
    main()
