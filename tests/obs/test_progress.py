"""RunTelemetry: scripted-clock units + the campaign accounting contract.

The campaign contract: across an interrupted run and its resume, the
telemetry's ``done`` totals must equal the rows the :class:`ResultsStore`
actually holds -- the progress numbers and the durable state may never
disagree.
"""

import pytest

from repro.experiments.batch import BatchRunner
from repro.experiments.campaign import CampaignSpec, run_missing
from repro.experiments.store import ResultsStore
from repro.obs.progress import RunTelemetry

from .test_phases import scripted_clock


class TestRunTelemetry:
    def test_snapshot_with_scripted_clock(self):
        telemetry = RunTelemetry(now=scripted_clock(100.0, 110.0))
        telemetry.on_start(total=4, workers=2)

        class Done:
            from_cache = False
            runtime_seconds = 5.0

        class Cached:
            from_cache = True
            runtime_seconds = 0.0

        telemetry.on_result(Done())
        telemetry.on_result(Cached())
        telemetry.on_failure()
        snap = telemetry.snapshot()
        assert snap["total"] == 4
        # ``done`` counts *completed* trials; the failure is tallied
        # separately so done always matches the durable store rows.
        assert snap["done"] == 2
        assert snap["executed"] == 1
        assert snap["cached"] == 1
        assert snap["failed"] == 1
        assert snap["elapsed_s"] == pytest.approx(10.0)
        assert snap["trials_per_s"] == pytest.approx(0.2)
        # Two trials left at 0.2/s.
        assert snap["eta_s"] == pytest.approx(10.0)
        # 5 busy seconds over 10 elapsed on 2 workers.
        assert snap["utilisation"] == pytest.approx(0.25)

    def test_render_is_one_line(self):
        telemetry = RunTelemetry(now=scripted_clock(0.0, 1.0))
        telemetry.on_start(total=2, workers=1)
        line = telemetry.render()
        assert "\n" not in line
        assert "0/2 trials" in line

    def test_idle_snapshot_reports_zeroes(self):
        snap = RunTelemetry().snapshot()
        assert snap["done"] == 0
        assert snap["elapsed_s"] == 0.0
        assert snap["eta_s"] is None


class TestCampaignTelemetryAccounting:
    def test_totals_match_store_rows_across_interrupt_and_resume(
        self, tmp_path
    ):
        spec = CampaignSpec(
            name="obs-resume",
            scenarios=("static-paper",),
            protocols=("dirq", "flooding"),
            replicates=3,
            num_epochs=40,
            seed=1,
        )
        total = spec.total_trials
        assert total == 6
        interrupt_at = 3
        seen = 0

        def interrupting(result):
            nonlocal seen
            seen += 1
            if seen == interrupt_at:
                raise KeyboardInterrupt

        with ResultsStore(tmp_path / "s.sqlite") as store:
            first = RunTelemetry()
            runner = BatchRunner(
                max_workers=1,
                cache_dir=None,
                telemetry=first,
            )
            with pytest.raises(KeyboardInterrupt):
                run_missing(spec, store, runner=runner, progress=interrupting)
            # Every trial the telemetry saw complete is a stored row;
            # the interrupt itself registers as a failure, not a trial.
            assert first.done == store.count(spec.campaign_id) == interrupt_at
            assert first.executed == interrupt_at
            assert first.cached == 0
            assert first.failed == 1

            second = RunTelemetry()
            runner = BatchRunner(
                max_workers=1,
                cache_dir=None,
                telemetry=second,
            )
            run_missing(spec, store, runner=runner)
            # The resume only runs the missing trials, and the combined
            # executed totals cover the whole campaign exactly once.
            assert second.done == second.executed == total - interrupt_at
            assert store.count(spec.campaign_id) == total
            assert first.executed + second.executed == total
