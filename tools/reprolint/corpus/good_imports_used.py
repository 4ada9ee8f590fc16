# reprolint-corpus: expect=
"""Known-good: every import is read, exported, annotated or a fixture."""
from __future__ import annotations

import json
from typing import TYPE_CHECKING

from pathlib import PurePath as exported

if TYPE_CHECKING:
    from decimal import Decimal

from fractions import Fraction as fixture_like

__all__ = ["exported"]


def dump(value: "Decimal") -> str:
    return json.dumps(str(value))


def test_uses_a_fixture(fixture_like):
    assert fixture_like is not None
