"""Energy accounting substrate: the paper's §5 unit-cost ledger and batteries."""

from .battery import Battery
from .ledger import EnergyEntry, NetworkLedger, NodeLedger

__all__ = [
    "Battery",
    "EnergyEntry",
    "NetworkLedger",
    "NodeLedger",
]
