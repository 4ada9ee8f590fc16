"""Finite battery model.

The paper's evaluation assumes nodes stay alive for the whole run and models
topology change by scripted node removal.  For the topology-dynamics ablation
(and for downstream users who want lifetime studies) this module provides a
simple finite-energy battery that can declare a node dead once its budget is
exhausted, which the MAC layer then reports through the cross-layer
interface exactly as it would a scripted failure.
"""

from __future__ import annotations


class Battery:
    """Finite energy reservoir attached to a node.

    Parameters
    ----------
    capacity:
        Initial energy, in the same units as the installed
        :class:`~repro.energy.model.EnergyCostModel` (abstract units for the
        default :class:`~repro.energy.model.UnitCostModel`).  ``float("inf")``
        (the default) reproduces the paper's always-on assumption.
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

    def draw(self, amount: float) -> bool:
        """Consume ``amount`` energy.

        Returns ``True`` if the battery could supply it (even partially --
        the final draw that empties the battery still succeeds), ``False``
        if the battery was already depleted.
        """
        if amount < 0:
            raise ValueError("cannot draw negative energy")
        if self.depleted:
            return False
        self.remaining -= amount
        if self.remaining < 0:
            self.remaining = 0.0
        return True

    def recharge(self, amount: float | None = None) -> None:
        """Restore energy (fully when ``amount`` is omitted)."""
        if amount is None:
            self.remaining = self.capacity
        else:
            if amount < 0:
                raise ValueError("cannot recharge a negative amount")
            self.remaining = min(self.capacity, self.remaining + amount)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Battery(remaining={self.remaining:.3g}/{self.capacity:.3g})"
