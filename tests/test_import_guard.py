"""The simulator runs on NumPy alone; only reports load SciPy.

A fresh interpreter imports ``repro``, runs a small campaign through
``run_missing``, fingerprints its results and runs ``python -m repro
trial``.  No ``scipy`` or ``networkx`` module may be loaded afterwards:
``src/repro`` never imports networkx, and its only SciPy import sits
inside :func:`repro.metrics.stats.student_t_critical`, which a report
calls when it prints a confidence interval.  This file (and the
``conftest.py`` and ``helpers.py`` that pytest loads with it) imports
none of SciPy, networkx and hypothesis, so it also runs where only NumPy
and pytest are installed.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    import tempfile
    from pathlib import Path

    import repro
    from repro.__main__ import main
    from repro.experiments.batch import BatchRunner
    from repro.experiments.campaign import CampaignSpec, run_missing, stored_results
    from repro.experiments.store import ResultsStore

    spec = CampaignSpec(
        name="import-guard",
        scenarios=("static-paper",),
        protocols=("dirq", "atc", "flooding"),
        num_epochs=40,
    )
    with tempfile.TemporaryDirectory() as tmp:
        runner = BatchRunner(max_workers=1, cache_dir=tmp)
        with ResultsStore(Path(tmp) / "campaigns.sqlite") as store:
            stats = run_missing(spec, store, runner=runner)
            results, lost = stored_results(spec, store)
    fingerprints = [r.fingerprint() for r in results]
    code = main(["trial", "static-paper", "--epochs", "40"])
    print(json.dumps({
        "executed": stats.executed,
        "fingerprints": fingerprints,
        "lost": lost,
        "trial_exit": code,
        "scipy": sorted(
            m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
        ),
        "networkx": sorted(
            m for m in sys.modules if m == "networkx" or m.startswith("networkx.")
        ),
    }))
    """
)


def test_campaign_and_trial_never_load_scipy():
    """Nor networkx: the simulator needs NumPy alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["executed"] == 3
    assert report["lost"] == 0
    assert len(set(report["fingerprints"])) == 3
    assert report["trial_exit"] == 0
    assert report["scipy"] == []
    assert report["networkx"] == []
