"""Configuration of ``bench_presets.py``.

It times the campaign presets of ``python -m repro run`` with
pytest-benchmark, prints their reports and asserts the paper's claims on
them.  Speed is measured by ``perfbench/``; work is pinned by the tier-1
suite.
"""

from __future__ import annotations

import os

#: Seed shared by every benchmark run.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


def emit(title: str, body: str) -> None:
    """Print a clearly delimited report block."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
