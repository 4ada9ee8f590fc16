"""Per-node and network-wide message ledgers.

The ledgers are the measurement backbone of every reproduced figure.  The
paper's §5 prices radio operations in unit costs: "the cost of
transmitting a message is assumed to be one unit while the cost of
receiving a message is also assumed to be one unit".  A ledger therefore
counts operations, and a bucket's cost is its count
(:attr:`EnergyEntry.cost`, the one place that rule is written).  Its
update/query breakdowns (Fig. 6, the 45–55 % claim) need each operation
attributed to a message *kind*: every radio operation performed through
the channel is recorded here, tagged with the node, the direction, and
the kind of protocol message that caused it.

A network ledger pickles as one opaque ``bytes`` blob of plain rows and
unpickles as an :class:`UnreadLedger`, which builds the node ledgers only
when something first reads them, so a cache-served trial whose ledger
nobody reads never builds it.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple, Union


@dataclasses.dataclass
class EnergyEntry:
    """Operation count for one (direction, kind) bucket."""

    count: int = 0

    @property
    def cost(self) -> float:
        """The bucket's cost: one unit per operation (paper §5)."""
        return float(self.count)


class NodeLedger:
    """Message bookkeeping for a single node."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self._entries: Dict[Tuple[str, str], EnergyEntry] = defaultdict(EnergyEntry)

    def charge_tx(self, kind: str) -> None:
        """Record one transmission of a message of the given kind."""
        self._entries[("tx", kind)].count += 1

    def charge_rx(self, kind: str) -> None:
        """Record one reception of a message of the given kind."""
        self._entries[("rx", kind)].count += 1

    # -- queries -----------------------------------------------------------

    def total_cost(self, kinds: Optional[Iterable[str]] = None) -> float:
        """Total cost, optionally restricted to certain message kinds."""
        wanted = set(kinds) if kinds is not None else None
        return sum(
            e.cost
            for (_, kind), e in self._entries.items()
            if wanted is None or kind in wanted
        )

    def count(self, direction: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Number of recorded operations matching the filters."""
        total = 0
        for (d, k), e in self._entries.items():
            if direction is not None and d != direction:
                continue
            if kind is not None and k != kind:
                continue
            total += e.count
        return total

    def breakdown(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """Mapping of (direction, kind) -> (count, cost)."""
        return {key: (e.count, e.cost) for key, e in self._entries.items()}


class NetworkLedger:
    """Aggregates :class:`NodeLedger` instances for a whole network.

    The channel holds one :class:`NetworkLedger`; protocols never write to it
    directly, they simply send messages and the channel charges the costs.

    A ledger pickles as one ``bytes`` blob: the pickle of a flat tuple of
    ``(node, direction, kind, count, cost)`` rows in its own iteration
    order, far cheaper to unpickle than the node and entry objects.  It
    unpickles as an :class:`UnreadLedger`, which builds the
    :class:`NodeLedger` objects from those rows only when something first
    reads them.  The cost slot carries ``float(count)``, so rows keep the
    layout they had when costs were stored, and is ignored on read.  The
    live class defines no attribute hooks, so its charge path is untouched.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, NodeLedger] = {}

    def __reduce__(self):
        return UnreadLedger, (self._blob(),)

    def _blob(self) -> bytes:
        flat: list = []
        for nid, ledger in self._nodes.items():
            if not ledger._entries:
                # A node without entries stays in the node set.
                flat += (nid, None, None, 0, 0.0)
            for (direction, kind), entry in ledger._entries.items():
                flat += (nid, direction, kind, entry.count, entry.cost)
        return pickle.dumps(tuple(flat), pickle.HIGHEST_PROTOCOL)

    def node(self, node_id: int) -> NodeLedger:
        """Ledger for ``node_id``, created on first access."""
        ledger = self._nodes.get(node_id)
        if ledger is None:
            ledger = self._nodes[node_id] = NodeLedger(node_id)
        return ledger

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    # -- network-wide aggregation -------------------------------------------

    def total_cost(self, kinds: Optional[Iterable[str]] = None) -> float:
        """Network-wide cost, optionally restricted to message kinds.

        One pass over every entry.  With no matching entry the sum is the
        int ``0``, as :meth:`NodeLedger.total_cost`'s is: the runner
        prices a query by the difference of two readings, and a query
        fingerprinted as ``0`` must not become ``0.0``.
        """
        wanted = set(kinds) if kinds is not None else None
        counts = [
            entry.count
            for ledger in self._nodes.values()
            for (_, kind), entry in ledger._entries.items()
            if wanted is None or kind in wanted
        ]
        return float(sum(counts)) if counts else 0

    def total_count(
        self, direction: Optional[str] = None, kind: Optional[str] = None
    ) -> int:
        """Network-wide operation count matching the filters."""
        return sum(ledger.count(direction, kind) for ledger in self._nodes.values())

    def per_node_cost(self, kinds: Optional[Iterable[str]] = None) -> Dict[int, float]:
        """Mapping node id -> total cost for that node."""
        return {nid: ledger.total_cost(kinds) for nid, ledger in self._nodes.items()}

    def breakdown_by_kind(self) -> Dict[str, Tuple[int, float]]:
        """Mapping kind -> (total operation count, total cost) network-wide."""
        agg: Dict[str, Tuple[int, float]] = {}
        for ledger in self._nodes.values():
            for (_, kind), (count, cost) in ledger.breakdown().items():
                c0, e0 = agg.get(kind, (0, 0.0))
                agg[kind] = (c0 + count, e0 + cost)
        return agg


class UnreadLedger(NetworkLedger):
    """An unpickled :class:`NetworkLedger` that still holds only its rows.

    The first read of ``_nodes`` -- through any ledger method -- builds the
    node ledgers and turns the object into a plain :class:`NetworkLedger`.
    Pickling or deep-copying it before that re-emits what it holds: the
    blob, or the bare row tuple that rows written before the blob carry.
    (Ledgers pickled before the row format unpickle as plain ledgers.)
    """

    def __init__(self, rows: Union[bytes, tuple]) -> None:
        self._unread = rows

    def _blob(self) -> Union[bytes, tuple]:
        return self._unread

    @property
    def _nodes(self) -> Dict[int, NodeLedger]:
        nodes = self._rebuild()
        del self._unread
        self.__class__ = NetworkLedger
        self._nodes = nodes
        return nodes

    def _rebuild(self) -> Dict[int, NodeLedger]:
        flat = self._unread
        rows = iter(pickle.loads(flat) if type(flat) is bytes else flat)
        nodes: Dict[int, NodeLedger] = {}
        for nid, direction, kind, count, _cost in zip(rows, rows, rows, rows, rows):
            ledger = nodes.get(nid)
            if ledger is None:
                ledger = nodes[nid] = NodeLedger(nid)
            if direction is not None:
                ledger._entries[direction, kind] = EnergyEntry(count)
        return nodes
