# reprolint-corpus: expect=RL002
"""Known-bad: ``math`` is imported and never read."""
import math
import os.path
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from collections import OrderedDict


def paths(names: List[str]) -> "OrderedDict[str, str]":
    return {name: os.path.basename(name) for name in names}
