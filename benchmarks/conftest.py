"""Shared benchmark configuration.

The pytest-benchmark files time the substrates, the engine, the scenario
registry, the scale scenarios and the campaign presets of ``python -m
repro run``, and print what they measured; ``bench_presets.py`` also
asserts the paper's claims on the presets.
"""

from __future__ import annotations

import os

#: Seed shared by every benchmark run.
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "1"))


def emit(title: str, body: str) -> None:
    """Print a clearly delimited report block."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")
