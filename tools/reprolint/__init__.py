"""reprolint: AST-based contract linter for the reproduction codebase.

The simulation's reproducibility guarantees (bit-identical trials at any
worker count, config-hash cache keys, fingerprint golden tests) rest on
invariants that ordinary tests only catch *after* a violation ships.
reprolint proves them over the program structure instead:

* **RL0xx every file** -- the file parses; no imported name goes unused.
* **RL1xx determinism** -- no ambient randomness or wall-clock reads in
  simulation code; order-sensitive iteration over sets must be sorted.
* **RL2xx hash coverage** -- every config-dataclass field is reachable
  from ``config_hash``/``_canonical`` or explicitly exempted.
* **RL3xx import layering** -- the declared layer DAG holds; no eager
  import cycles; ``scenarios.{spec,models}`` stay experiment-free.
* **RL4xx RNG-stream discipline** -- every named ``RandomStreams`` stream
  is a registered literal owned by exactly one module.

Run from the repository root::

    python -m tools.reprolint            # lint src/repro and tools/
    python -m tools.reprolint --self-test

See ``docs/linting.md`` for the rule catalogue and the exemption policy.
"""

from .core import Finding, RULES

__all__ = ["Finding", "RULES"]

__version__ = "1.0"
