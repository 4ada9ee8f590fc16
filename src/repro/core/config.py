"""DirQ protocol configuration.

All tunables of the dissemination scheme live here so that experiments,
examples, and tests construct protocol stacks from a single declarative
object.  Defaults correspond to the paper's simulation setup (§7).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional


class ThresholdMode:
    """How the threshold δ is chosen (paper §6, §7.1 vs §7.2)."""

    FIXED = "fixed"
    ADAPTIVE = "atc"

    ALL = (FIXED, ADAPTIVE)


@dataclasses.dataclass
class DirQConfig:
    """Configuration of the DirQ protocol stack.

    Attributes
    ----------
    threshold_mode:
        ``"fixed"`` reproduces §7.1 (a constant δ for the whole run);
        ``"atc"`` enables the Adaptive Threshold Control of §6/§7.2.
    delta_percent:
        The fixed threshold δ, expressed -- as in the paper's figures -- as a
        percentage of the sensor type's full-scale range.
    full_scale:
        Mapping sensor type -> full-scale range (max - min) used to convert
        percentage thresholds into absolute values.  The experiment runner
        fills this in from the generated dataset; a missing entry falls back
        to ``default_full_scale``.
    default_full_scale:
        Fallback full-scale range for sensor types without an explicit entry.
    epochs_per_hour:
        Number of epochs in one "hour" -- the period of the root's EHr
        estimate broadcast (§4).
    atc_target_cost_ratio:
        Total-cost target of the ATC mechanism as a fraction of the flooding
        cost; the paper reports DirQ settling at 45–55 % of flooding, so the
        default targets the middle of that band.
    atc_window_epochs:
        How often (in epochs) each node re-evaluates its threshold against
        its local update budget.
    atc_adjust_factor:
        Multiplicative step used when a node's observed update rate is
        outside the tolerance band around its budget.
    atc_tolerance:
        Relative dead-band around the per-node budget within which δ is left
        unchanged.
    atc_delta_min_percent / atc_delta_max_percent:
        Clamp on the adaptive threshold, in percent of full scale.

    Every message costs one unit to send and one to receive (paper §5), so
    the configuration carries no message sizes.
    """

    #: Deleted fields the canonical hash payload still carries at the one
    #: value they ever took, so every cache key and fingerprint from before
    #: their removal survives (``repro.experiments.batch._canonical``).
    #: They were per-kind message sizes for a byte-proportional energy
    #: model that no configuration could select.  Passing one raises
    #: ``TypeError``, like any unknown field.
    HASH_RETIRED = (
        ("query_payload_bytes", 24),
        ("update_payload_bytes", 20),
        ("estimate_payload_bytes", 16),
    )

    threshold_mode: str = ThresholdMode.FIXED
    delta_percent: float = 5.0
    full_scale: Dict[str, float] = dataclasses.field(default_factory=dict)
    default_full_scale: float = 100.0

    epochs_per_hour: int = 500

    atc_target_cost_ratio: float = 0.50
    atc_window_epochs: int = 100
    atc_adjust_factor: float = 0.25
    atc_tolerance: float = 0.10
    atc_delta_min_percent: float = 0.5
    atc_delta_max_percent: float = 25.0
    atc_initial_delta_percent: float = 3.0

    def __post_init__(self) -> None:
        if self.threshold_mode not in ThresholdMode.ALL:
            raise ValueError(
                f"threshold_mode must be one of {ThresholdMode.ALL}, "
                f"got {self.threshold_mode!r}"
            )
        if self.delta_percent <= 0:
            raise ValueError("delta_percent must be positive")
        if self.default_full_scale <= 0:
            raise ValueError("default_full_scale must be positive")
        if self.epochs_per_hour < 1:
            raise ValueError("epochs_per_hour must be >= 1")
        if not (0.0 < self.atc_target_cost_ratio < 1.0):
            raise ValueError("atc_target_cost_ratio must be in (0, 1)")
        if self.atc_window_epochs < 1:
            raise ValueError("atc_window_epochs must be >= 1")
        if not (0.0 < self.atc_adjust_factor < 1.0):
            raise ValueError("atc_adjust_factor must be in (0, 1)")
        if self.atc_tolerance < 0:
            raise ValueError("atc_tolerance must be non-negative")
        if not (0 < self.atc_delta_min_percent <= self.atc_delta_max_percent):
            raise ValueError("invalid adaptive delta clamp range")

    # -- helpers ----------------------------------------------------------------

    def full_scale_of(self, sensor_type: str) -> float:
        """Full-scale range used for percentage→absolute threshold conversion."""
        return float(self.full_scale.get(sensor_type, self.default_full_scale))

    def absolute_delta(self, sensor_type: str, delta_percent: Optional[float] = None) -> float:
        """Convert a percentage threshold into an absolute reading delta."""
        pct = self.delta_percent if delta_percent is None else delta_percent
        return pct / 100.0 * self.full_scale_of(sensor_type)

    @property
    def adaptive(self) -> bool:
        return self.threshold_mode == ThresholdMode.ADAPTIVE

    def replace(self, **changes) -> "DirQConfig":
        """Return a copy of this configuration with the given fields replaced.

        The copy gets its own ``full_scale`` dict unless ``changes`` gives
        one, so no derived config shares that dict with its base.
        """
        changes.setdefault("full_scale", dict(self.full_scale))
        return dataclasses.replace(self, **changes)
