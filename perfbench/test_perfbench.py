"""The benchmark's own tests, on workloads small enough to run in a second."""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run
from perfbench.hostspeed import REFERENCE_RATE, HostSpeed, Interval
from perfbench.metrics import END_TO_END, PER_LAYER, per_layer
from perfbench.passes import run_pass
from perfbench.workloads import MIN_SETUPS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent

TINY = Workload(
    name="tiny",
    why="two queries on the paper network",
    scenarios=("static-paper",),
    protocols=("atc",),
    num_epochs=60,
)


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    untraced = run_pass(TINY, 3, 0.0, work, setups=MIN_SETUPS, cached_seconds=0.0)
    traced = run_pass(
        TINY, 3, 0.0, work, traced=True, expected=untraced.fingerprints,
        trace_path=work / "trace.json", cached_seconds=0.0,
    )
    return untraced, traced


def test_passes_check_every_trial_and_agree(passes):
    untraced, traced = passes
    for result in passes:
        assert result.failed == 0, result.problems
        # One cold trial plus one cache-served pass.
        assert result.attempted == 2
    assert traced.fingerprints == untraced.fingerprints
    assert len(untraced.setup_s) == MIN_SETUPS
    assert untraced.counts["channel.deliveries"] > 0


def test_every_named_metric_is_printed_with_its_unit(passes, capsys):
    untraced, traced = passes
    values = {**run._print_end_to_end(TINY, untraced), **run._print_per_layer(untraced, traced)}
    printed = capsys.readouterr().out
    for metric in END_TO_END + PER_LAYER:
        assert re.search(rf"^\s+{re.escape(metric.name)}\s+\S+\s+{re.escape(metric.unit)}\b", printed, re.M), metric
        assert values[metric.name] >= 0
    line = json.loads(json.dumps(run.summary(3, 0, values)))
    assert line["correct"] is True
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == {
        m.name: m.unit for m in END_TO_END + PER_LAYER
    }
    for metric in END_TO_END:
        assert values[metric.name] > 0, metric


def test_benchmark_json_names_the_same_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            (m.name, m.unit, m.better) for m in table
        ]


def test_a_planted_fingerprint_mismatch_counts_as_a_failed_trial(tmp_path):
    label = "static-paper/atc"
    result = run_pass(TINY, 3, 0.0, tmp_path, expected={label: "0" * 64}, cached_seconds=0.0)
    assert result.attempted == 2
    assert result.failed == 1
    assert result.problems == [f"{label}: fingerprint differs from the reference run of this cell"]
    assert run.summary(result.attempted, result.failed, {})["correct"] is False


def test_traced_span_file_validates(passes):
    from repro.obs.trace_export import validate_chrome_trace

    _, traced = passes
    payload = json.loads(Path(traced.trace_path).read_text())
    validate_chrome_trace(payload)
    layers = {event["cat"] for event in payload["traceEvents"] if event["ph"] == "X"}
    assert {"setup", "runner", "simulation", "channel", "mac", "core", "tick", "workload"} <= layers
    assert traced.missing_entry_points == []


def test_layer_metrics_follow_the_spans(passes):
    untraced, traced = passes
    values = per_layer(untraced, traced)
    assert values["tick.self_s"] > 0 and values["channel.self_s"] > 0
    assert values["tree.self_s"] == 0  # a static network never re-links
    assert 0 < values["mac.frames_received"] <= untraced.counts["channel.deliveries"]
    assert values["campaign.cache_hit_share"] == 0.5


def test_wrappers_are_removed_after_a_pass(passes):
    from repro.experiments.runner import ExperimentRunner
    from repro.mac.lmac import LMACProtocol
    from repro.simulation.engine import Simulator

    for attr in (ExperimentRunner.build, ExperimentRunner.run, Simulator.schedule_at, LMACProtocol.__init__):
        assert not hasattr(attr, "__wrapped__"), attr


def test_host_speed_scales_by_the_samples_around_an_interval():
    speed = HostSpeed()
    speed.times = [float(t) for t in range(100)]
    speed.rates = [REFERENCE_RATE] * 50 + [REFERENCE_RATE / 2] * 50
    assert speed.scale(Interval(10, 40, 1.0, 1.0)) == 1.0
    assert speed.cpu_s(Interval(60, 90, 2.0, 3.0)) == 1.0
    assert speed.wall_s(Interval(60, 90, 2.0, 3.0)) == 1.5
    # A short interval takes the nearest samples, half of them each side.
    assert speed.scale(Interval(49.5, 49.6, 1.0, 1.0)) == 0.75


def test_sampling_time_is_left_out_of_intervals():
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        mark = speed.mark()
        start = time.process_time()
        while time.process_time() - start < 0.2:
            pass
        interval = speed.since(mark)
    assert len(speed.rates) >= 3
    assert interval.cpu_s == pytest.approx(0.2 - speed.handler_cpu, abs=0.01)
    assert signal.getsignal(signal.SIGALRM) is before


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-50", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
