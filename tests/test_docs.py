"""Tier-1 guard for the documentation suite.

The docs promise exact commands and names; this keeps them from drifting
by running ``tools/check_docs.py`` (module resolution + ``--help`` smoke
for every CLI the docs mention, and resolution of every quoted ``repro``
name) and by pinning the files the README links to.
"""

import subprocess
import sys
from pathlib import Path

from tools import check_docs

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_DOCS = (
    "docs/architecture.md",
    "docs/experiments.md",
    "docs/reproducing.md",
    "docs/vectorisation.md",
)


def test_docs_suite_exists_and_is_linked():
    readme = (REPO_ROOT / "README.md").read_text()
    for doc in EXPECTED_DOCS:
        assert (REPO_ROOT / doc).is_file(), f"{doc} missing"
        assert doc in readme, f"README does not link {doc}"


def test_documented_commands_smoke():
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"docs check failed:\n{proc.stdout}\n{proc.stderr}"


def test_a_quoted_name_that_no_longer_exists_fails_the_check(tmp_path):
    doc = tmp_path / "planted.md"
    doc.write_text(
        "Responses were switched on by `ExperimentConfig.send_responses`,\n"
        "next to `ExperimentConfig.tick_method`, `LMACProtocol.fast_beacons`\n"
        "and `repro.utils.clock.wall_now`; `repro.utils.validation` and\n"
        "``Simulator.peek_time`` are gone.\n"
        "```\n`Simulator.peek_time` in a fenced block is not prose\n```\n"
    )
    checked, missing = check_docs.quoted_names([doc])
    assert checked == {
        "ExperimentConfig.send_responses",
        "ExperimentConfig.tick_method",
        "LMACProtocol.fast_beacons",
        "repro.utils.clock.wall_now",
        "repro.utils.validation",
        "Simulator.peek_time",
    }
    assert set(missing) == {
        "ExperimentConfig.send_responses",
        "repro.utils.validation",
        "Simulator.peek_time",
    }
