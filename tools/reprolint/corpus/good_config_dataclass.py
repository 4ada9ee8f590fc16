# reprolint-corpus: expect=
"""Known-good: omit-when-unset fields with None defaults, constants.

``phenomena_method`` mirrors the ExperimentConfig strategy-flag convention:
None-defaulted, listed in HASH_OMIT_WHEN_UNSET, so unset configs keep
their pre-flag cache keys while pinned strategies hash distinctly.
"""
import dataclasses
from typing import Optional


@dataclasses.dataclass(frozen=True)
class SampleConfig:
    HASH_OMIT_WHEN_UNSET = ("mode", "phenomena_method")
    MODES = ("waypoint", "group")

    rate: float = 0.1
    mode: Optional[str] = None
    phenomena_method: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate", float(self.rate))
