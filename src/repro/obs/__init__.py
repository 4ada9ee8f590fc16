"""repro.obs -- determinism-preserving observability.

Two pillars, both optional and both excluded from result hashing:

* :mod:`repro.obs.metrics` -- named counters/gauges/histograms
  (:class:`MetricsRegistry`) with a zero-overhead disabled default
  (:data:`NULL_METRICS`);
* :mod:`repro.obs.phases` -- a :class:`PhaseTimer` decomposing the epoch
  tick into named phases using injectable monotonic time.

:class:`repro.obs.instrumentation.Instrumentation` bundles the two
(plus the :class:`~repro.simulation.trace.Tracer` ring buffer) behind one
handle; :mod:`repro.obs.trace_export` renders tracer records and phase
spans as JSONL / Chrome trace-event JSON (loadable in Perfetto).

Everything collected here lands in the hash-exempt ``telemetry`` payload
of :class:`~repro.experiments.runner.ExperimentResult` /
:class:`~repro.experiments.batch.TrialResult`: enabling instrumentation
never changes a ``config_hash``, a trial fingerprint, or a cached
artifact (see ``docs/observability.md``).  ``python -m repro trial``
renders one instrumented trial.
"""

from __future__ import annotations

from .catalogue import METRIC_CATALOGUE, PHASES, TRACE_CATALOGUE
from .instrumentation import (
    NULL_INSTRUMENTATION,
    Instrumentation,
    build_instrumentation,
)
from .metrics import NULL_METRICS, MetricsRegistry
from .phases import NULL_PHASES, PhaseTimer

__all__ = [
    "METRIC_CATALOGUE",
    "TRACE_CATALOGUE",
    "PHASES",
    "MetricsRegistry",
    "NULL_METRICS",
    "PhaseTimer",
    "NULL_PHASES",
    "Instrumentation",
    "NULL_INSTRUMENTATION",
    "build_instrumentation",
]
