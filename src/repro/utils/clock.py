"""The one sanctioned wall-clock accessor.

Simulation results must be a pure function of their configuration, so
reprolint rule RL102 forbids ``time.time()`` / ``datetime.now()``
everywhere in ``src/repro`` -- except here.  Code that genuinely needs
wall-clock time (CLI timestamps, ages) accepts an injectable ``now``
parameter and lets its *entry point* default it from :func:`wall_now`,
which keeps the core logic deterministic and testable with a frozen
clock.

Simulated time is unrelated: that is
:attr:`repro.simulation.engine.Simulator.now`.
"""

from __future__ import annotations

import time


def wall_now() -> float:
    """Current wall-clock time in seconds since the epoch.

    The single place in ``src/repro`` allowed to read the host clock.
    """
    return time.time()


def mono_now() -> float:
    """Monotonic host time in seconds, for measuring durations.

    The sanctioned accessor behind profiling code (``repro.obs.phases``).
    Profilers accept an injectable ``now`` callable defaulting to this
    function, so phase tables are testable with a scripted clock -- and so no
    measured duration ever reaches a result fingerprint (the obs layer
    keeps timings in the hash-exempt ``telemetry`` payload only).
    """
    return time.perf_counter()
