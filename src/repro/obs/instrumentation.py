"""The single handle bundling a trial's instruments.

Before this module, ``Optional[Tracer]`` threaded individually through
``Simulator.__init__``, the channel, and the runner.  An
:class:`Instrumentation` bundles the tracer with the metrics registry
and the phase timer behind one object with one ``enabled`` question per
instrument, so component signatures take a single handle and untraced
runs keep the exact ``NULL_TRACER`` semantics of the seed code.

:func:`build_instrumentation` is the config mapping used by the
experiment runner:

=============================  =======  ========  ======
``ExperimentConfig``           metrics  profiler  tracer
=============================  =======  ========  ======
``instrument=None`` (default)  off      off       off
``instrument="metrics"``       on       off       off
``instrument="full"``          on       on        on
=============================  =======  ========  ======

``instrument`` is hash-exempt (``HASH_EXCLUDE`` on the config,
``ExperimentConfig.instrument`` in ``HASH_EXEMPT``): flipping it must
never fork a cache key or a fingerprint.
"""

from __future__ import annotations

from ..simulation.trace import NULL_TRACER, Tracer
from .metrics import NULL_METRICS, MetricsRegistry
from .phases import NULL_PHASES, PhaseTimer


class Instrumentation:
    """Metrics + phase timer + tracer, each defaulting to its null."""

    __slots__ = ("metrics", "phases", "tracer")

    def __init__(
        self,
        metrics: MetricsRegistry = NULL_METRICS,
        phases: PhaseTimer = NULL_PHASES,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.metrics = metrics
        self.phases = phases
        self.tracer = tracer

    @property
    def enabled(self) -> bool:
        """True when any instrument is live."""
        return (
            self.metrics.enabled or self.phases.enabled or self.tracer.enabled
        )


#: The all-null handle: every instrument disabled.  Process-global; do
#: not mutate.
NULL_INSTRUMENTATION = Instrumentation()


def build_instrumentation(config) -> Instrumentation:
    """The instrumentation a config asks for (see the module table).

    ``config`` is an :class:`~repro.experiments.config.ExperimentConfig`
    (typed loosely to keep this module import-free of the experiments
    layer); only its ``instrument`` attribute is read.  The tracer is on
    only at ``"full"``.
    """
    instrument = config.instrument
    if instrument is None:
        return NULL_INSTRUMENTATION
    if instrument == "metrics":
        return Instrumentation(metrics=MetricsRegistry(enabled=True))
    return Instrumentation(
        metrics=MetricsRegistry(enabled=True),
        phases=PhaseTimer(enabled=True),
        tracer=Tracer(enabled=True),
    )
