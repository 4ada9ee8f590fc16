"""The radio-range link predicate.

This module is the home of :func:`within_range` -- the **single** unit-disk
link predicate every connectivity path must use (see below).  Which
neighbours a node currently believes alive is MAC state
(:attr:`repro.mac.lmac.LMACProtocol.neighbors`).
"""

from __future__ import annotations

import math
from typing import Tuple

Position = Tuple[float, float]


def within_range(pos_a: Position, pos_b: Position, comm_range: float) -> bool:
    """The unit-disk link predicate: are two positions within radio range?

    Contract (shared by every connectivity path)
    --------------------------------------------
    * **Inclusive**: a pair at distance *exactly* ``comm_range`` is linked.
      The paper's unit-disk model does not specify the boundary; we pin the
      inclusive convention so ties are a defined, testable behaviour.
    * **One float formulation**: the distance is evaluated as
      ``sqrt(dx*dx + dy*dy)`` in float64, the same operation order (and
      therefore the same rounding) as numpy's
      ``np.sqrt(dx * dx + dy * dy)``.  Alternative formulations such as
      :func:`math.dist`/:func:`math.hypot` round differently in the last
      ulp, which historically let a node sit exactly on the range boundary
      and be a neighbour on one code path but not on another.  The one
      connectivity path, :func:`repro.network.spatial.neighbors_of`,
      evaluates exactly this expression in numpy, and the all-pairs test
      oracle in ``tests/differential/reference.py`` calls this function,
      so the tie behaviour can never diverge again.
    """
    dx = float(pos_a[0]) - float(pos_b[0])
    dy = float(pos_a[1]) - float(pos_b[1])
    return math.sqrt(dx * dx + dy * dy) <= comm_range
