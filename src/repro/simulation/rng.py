"""Deterministic random-stream management.

Every stochastic component of a simulation (topology placement, synthetic
phenomena, query workload, MAC beacon phases, channel loss) draws from its
own named stream.  All streams are derived from a single experiment seed via
:class:`numpy.random.SeedSequence`, so

* the whole experiment is reproducible from one integer, and
* adding a new consumer of randomness does not perturb the draws seen by
  existing consumers (streams are independent, not interleaved).

This is the standard "one generator per purpose" discipline used by large
simulation codebases and recommended by the NumPy random API.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

#: Central registry of named RNG streams: stream name -> the one module
#: allowed to request it via :meth:`RandomStreams.get`.
#:
#: Two call sites sharing a stream name draw from the *same* generator
#: and silently correlate -- a statistical failure no unit test catches.
#: The registry makes collisions impossible by construction: every
#: stream name used anywhere in ``src/repro`` must be a string literal,
#: registered here, and requested only from its owner module (enforced
#: statically by ``tools/reprolint`` rules RL401-RL404; see
#: ``docs/linting.md``).  All streams are currently requested by the
#: experiment runner -- the composition root -- which passes the
#: generators down to the components that consume them.
#:
#: The registry is deliberately *not* enforced at runtime: tests and
#: notebooks may create ad-hoc streams, and the derive_seed replicate
#: namespace ("rep-0", "rep-1", ...) is a seed-space mechanism, not a
#: stream name.
STREAM_REGISTRY: Dict[str, str] = {
    "topology": "repro.experiments.runner",
    "channel": "repro.experiments.runner",
    "phenomena": "repro.experiments.runner",
    "mac": "repro.experiments.runner",
    "workload": "repro.experiments.runner",
    "sensor-assignment": "repro.experiments.runner",
    "scenario-churn": "repro.experiments.runner",
    "scenario-mobility": "repro.experiments.runner",
    "scenario-traffic": "repro.experiments.runner",
    "scenario-energy": "repro.experiments.runner",
}


def _stable_stream_key(name: str) -> int:
    """Map a stream name to a stable 63-bit integer.

    Python's ``hash`` is salted per process; we need a digest that is stable
    across runs and machines so that named streams are reproducible.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master experiment seed.  Two :class:`RandomStreams` instances built
        from the same seed hand out identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> topo_rng = streams.get("topology")
    >>> data_rng = streams.get("phenomena")
    >>> float(topo_rng.random()) == float(RandomStreams(42).get("topology").random())
    True
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self._seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The master seed this factory was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so consumers share a stream if and only if they share a name.
        """
        if not name:
            raise ValueError("stream name must be a non-empty string")
        if name not in self._cache:
            seq = np.random.SeedSequence([self._seed, _stable_stream_key(name)])
            self._cache[name] = np.random.default_rng(seq)
        return self._cache[name]

    @classmethod
    def derive_seed(cls, seed: int, name: str) -> int:
        """Derive a new master seed from ``(seed, name)``, deterministically.

        This is how the batch layer assigns independent seeds to sweep
        replications: each :class:`~repro.experiments.batch.TrialSpec`
        replicate gets ``derive_seed(base_seed, f"rep-{i}")``, so a trial's
        randomness is a pure function of its declared config -- independent
        of worker count and execution order.
        """
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        return int(seed) ^ _stable_stream_key(name)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory (e.g. one per replication of a sweep)."""
        return RandomStreams(self.derive_seed(self._seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(seed={self._seed}, streams={sorted(self._cache)})"
