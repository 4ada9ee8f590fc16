"""Finite battery model.

The paper's evaluation assumes nodes stay alive for the whole run and models
topology change by scripted node removal.  For the heterogeneous-energy
scenarios this module provides a simple finite-energy battery: the runner
drains it by the node's ledger cost (one unit per transmission and per
reception, paper §5) and kills the node once it is depleted, which the MAC
layer then reports through the cross-layer interface exactly as it would a
scripted failure.
"""

from __future__ import annotations


class Battery:
    """Finite energy reservoir attached to a node.

    Parameters
    ----------
    capacity:
        Initial energy, in the ledger's unit costs (one per transmission
        and one per reception).  ``float("inf")`` (the default) reproduces
        the paper's always-on assumption.
    """

    def __init__(self, capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("battery capacity must be positive")
        self.capacity = float(capacity)
        self.remaining = float(capacity)

    @property
    def depleted(self) -> bool:
        """True once all energy has been consumed."""
        return self.remaining <= 0.0

    def draw(self, amount: float) -> None:
        """Consume ``amount`` energy; the battery never goes below empty."""
        if amount < 0:
            raise ValueError("cannot draw negative energy")
        self.remaining = max(0.0, self.remaining - amount)

    def recharge(self) -> None:
        """Restore the full capacity (a battery swap)."""
        self.remaining = self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Battery(remaining={self.remaining:.3g}/{self.capacity:.3g})"
