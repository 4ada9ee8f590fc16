# reprolint-corpus: expect=RL202
"""Known-bad: a strategy flag (phenomena_method-style) declared omit-when-unset
must default to None -- a concrete default would make the omission rule
never fire consistently, silently changing every existing cache key."""
import dataclasses


@dataclasses.dataclass(frozen=True)
class SampleConfig:
    HASH_OMIT_WHEN_UNSET = ("phenomena_method",)

    phenomena_method: str = "exact"
