"""Range Tables: the per-sensor-type routing state of DirQ (paper §4.1).

Every node maintains one :class:`RangeTable` per sensor type known to exist
in its subtree.  A table holds

* the node's **own entry** -- the tuple ``(TH_min, TH_max)`` derived from the
  last *significant* sensor reading ``R_Aq`` via equations (1)–(2):
  ``TH_min = R_Aq − δ`` and ``TH_max = R_Aq + δ``; and
* one entry per **immediate child** -- the ``(min(TH_min), max(TH_max))``
  tuple most recently advertised by that child, summarising the child's whole
  subtree.

From these the table derives the aggregate ``(min(TH_min), max(TH_max))``
over all entries (Fig. 2).  Whenever the aggregate moves by more than δ from
the previously *transmitted* aggregate, the node must send a new Update
Message to its parent (Fig. 3); :meth:`RangeTable.pending_update` implements
exactly that trigger rule.

The collection of tables on one node is managed by :class:`RangeTableSet`,
which also implements the heterogeneity rules of Fig. 4: a table for a
sensor type exists on a node if and only if the type is present on the node
itself or somewhere in its subtree.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterator, List, Optional, Tuple

from ..network.addresses import NodeId


@dataclasses.dataclass
class RangeEntry:
    """One ``(TH_min, TH_max)`` tuple in a Range Table."""

    min_threshold: float
    max_threshold: float

    def __post_init__(self) -> None:
        if self.min_threshold > self.max_threshold:
            raise ValueError(
                f"range entry has min {self.min_threshold} > max {self.max_threshold}"
            )

    @property
    def as_tuple(self) -> Tuple[float, float]:
        return (self.min_threshold, self.max_threshold)

    def contains(self, value: float) -> bool:
        return self.min_threshold <= value <= self.max_threshold

    def overlaps(self, low: float, high: float) -> bool:
        return low <= self.max_threshold and self.min_threshold <= high


class RangeTable:
    """Range Table for a single sensor type on a single node.

    Parameters
    ----------
    owner:
        Node id of the owning node (for diagnostics only).
    sensor_type:
        Sensor type this table describes.
    """

    def __init__(self, owner: NodeId, sensor_type: str):
        self.owner = owner
        self.sensor_type = sensor_type
        self.own_entry: Optional[RangeEntry] = None
        self._children: Dict[NodeId, RangeEntry] = {}
        #: Aggregate advertised in the last transmitted Update Message, or
        #: ``None`` if no update has been sent yet for this sensor type.
        self.last_transmitted: Optional[Tuple[float, float]] = None
        #: Cached result of :meth:`aggregate`; the update trigger runs every
        #: epoch for every sensor type, while entries change only rarely, so
        #: the min/max scan is memoised and invalidated on mutation.
        self._aggregate_cache: Optional[Tuple[float, float]] = None
        self._aggregate_dirty = True
        #: Mutation counter backing the negative-result memo of
        #: :meth:`pending_update` (see there).
        self._version = 0
        self._no_update_memo: Optional[Tuple[int, float]] = None
        #: Optional zero-argument callback fired after every mutation that
        #: bumps :attr:`_version` (entry changes and transmissions).  The
        #: columnar tick (``repro.experiments.columnar``) registers one per
        #: table to invalidate its cached row when a message handler or
        #: topology event mutates the table between epoch passes.
        self.observer = None

    # -- own entry maintenance (equations (1)–(2)) ------------------------------------

    def observe_reading(self, reading: float, delta: float) -> bool:
        """Process a newly acquired sensor reading.

        Implements Fig. 1: if the reading falls outside the current own
        ``[TH_min, TH_max]`` (or no entry exists yet), it becomes the new
        reference reading ``R_Aq`` and the own entry is recomputed as
        ``[R_Aq − δ, R_Aq + δ]``; otherwise the table is left untouched.

        Returns
        -------
        bool
            ``True`` if the own entry changed.
        """
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if not math.isfinite(reading):
            raise ValueError(f"sensor reading must be finite, got {reading}")
        if self.own_entry is not None and self.own_entry.contains(reading):
            return False
        self.own_entry = RangeEntry(reading - delta, reading + delta)
        self._touch()
        return True

    # -- child entries -------------------------------------------------------------------

    def update_child(
        self, child: NodeId, min_threshold: float, max_threshold: float
    ) -> bool:
        """Install or replace the entry advertised by an immediate child.

        Returns ``True`` if the stored entry changed.  An unchanged
        advertisement builds no entry.
        """
        old = self._children.get(child)
        if (
            old is not None
            and old.min_threshold == min_threshold
            and old.max_threshold == max_threshold
        ):
            return False
        self._children[child] = RangeEntry(min_threshold, max_threshold)
        self._touch()
        return True

    def remove_child(self, child: NodeId) -> bool:
        """Drop a child's entry (child died or withdrew the sensor type)."""
        removed = self._children.pop(child, None) is not None
        if removed:
            self._touch()
        return removed

    def child_entry(self, child: NodeId) -> Optional[RangeEntry]:
        return self._children.get(child)

    @property
    def child_ids(self) -> List[NodeId]:
        return sorted(self._children)

    @property
    def num_entries(self) -> int:
        """Total tuples stored: own entry (if any) plus one per child."""
        return (1 if self.own_entry is not None else 0) + len(self._children)

    def entries(self) -> Iterator[Tuple[Optional[NodeId], RangeEntry]]:
        """Iterate ``(child_id_or_None_for_own, entry)`` pairs."""
        if self.own_entry is not None:
            yield None, self.own_entry
        for child in sorted(self._children):
            yield child, self._children[child]

    # -- aggregation and the update trigger (Fig. 2 / Fig. 3) ------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the table holds no entries at all.

        An empty table means the sensor type no longer exists anywhere in
        this node's subtree; the node should withdraw the type from its
        parent (a *removal* update) and may drop the table.
        """
        return self.own_entry is None and not self._children

    def aggregate(self) -> Optional[Tuple[float, float]]:
        """``(min(TH_min), max(TH_max))`` over all entries, or ``None`` if empty.

        The value is cached between mutations: the experiment hot loop calls
        this once per (node, sensor type, epoch) while readings only rarely
        move an entry, so most calls are a dirty-flag check.
        """
        if not self._aggregate_dirty:
            return self._aggregate_cache
        own = self.own_entry
        if own is None and not self._children:
            result = None
        else:
            if own is not None:
                lo = own.min_threshold
                hi = own.max_threshold
                for entry in self._children.values():
                    if entry.min_threshold < lo:
                        lo = entry.min_threshold
                    if entry.max_threshold > hi:
                        hi = entry.max_threshold
            else:
                entries = iter(self._children.values())
                first = next(entries)
                lo = first.min_threshold
                hi = first.max_threshold
                for entry in entries:
                    if entry.min_threshold < lo:
                        lo = entry.min_threshold
                    if entry.max_threshold > hi:
                        hi = entry.max_threshold
            result = (lo, hi)
        self._aggregate_cache = result
        self._aggregate_dirty = False
        return result

    def pending_update(self, delta: float) -> Optional[Tuple[float, float]]:
        """Aggregate to advertise if an Update Message is currently warranted.

        Implements Fig. 3's trigger: an update is due when no aggregate has
        ever been transmitted, or when the current aggregate's minimum or
        maximum differs from the previously transmitted one by more than δ.
        Returns the aggregate to transmit, or ``None`` if no update is due.

        A "no update due" outcome is memoised against the table's mutation
        counter and the δ it was evaluated for: the trigger runs every epoch
        but the table mutates only when a reading escapes its range, so most
        evaluations short-circuit here.
        """
        if delta < 0:
            raise ValueError("delta must be non-negative")
        memo = self._no_update_memo
        if memo is not None and memo[0] == self._version and memo[1] == delta:
            return None
        current = self.aggregate()
        if current is None:
            return None
        last = self.last_transmitted
        if last is None:
            return current
        if abs(current[0] - last[0]) > delta or abs(current[1] - last[1]) > delta:
            return current
        self._no_update_memo = (self._version, delta)
        return None

    def mark_transmitted(
        self, aggregate: Tuple[float, float], delta: Optional[float] = None
    ) -> None:
        """Record that ``aggregate`` has been sent upstream.

        ``delta``, when given, states that ``aggregate`` is the current
        aggregate and that the trigger runs with that δ: :meth:`pending_update`
        would then find no update due (nothing moved since the send), so
        its "no update due" memo is armed here rather than by the next
        evaluation.
        """
        self.last_transmitted = (float(aggregate[0]), float(aggregate[1]))
        self._version += 1
        if delta is not None:
            self._no_update_memo = (self._version, delta)
        if self.observer is not None:
            self.observer()

    def _touch(self) -> None:
        """Invalidate derived caches after an entry mutation."""
        self._aggregate_dirty = True
        self._version += 1
        if self.observer is not None:
            self.observer()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeTable(node={self.owner}, type={self.sensor_type!r}, "
            f"own={self.own_entry}, children={len(self._children)})"
        )


class RangeTableSet:
    """All Range Tables of one node (one per sensor type, Fig. 4)."""

    def __init__(self, owner: NodeId):
        self.owner = owner
        self._tables: Dict[str, RangeTable] = {}
        #: Optional zero-argument callback fired after a table is created
        #: or dropped.  The columnar tick registers one to rebuild its rows,
        #: which hold table references, before its next pass.
        self.observer = None

    def table(self, sensor_type: str, create: bool = False) -> Optional[RangeTable]:
        """Table for ``sensor_type``; optionally create it if missing."""
        tbl = self._tables.get(sensor_type)
        if tbl is None and create:
            tbl = self._tables[sensor_type] = RangeTable(self.owner, sensor_type)
            if self.observer is not None:
                self.observer()
        return tbl

    def __contains__(self, sensor_type: str) -> bool:
        return sensor_type in self._tables

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def sensor_types(self) -> List[str]:
        """Sorted sensor types for which a table exists."""
        return sorted(self._tables)

    def tables(self) -> Iterator[RangeTable]:
        for stype in sorted(self._tables):
            yield self._tables[stype]

    def drop(self, sensor_type: str) -> bool:
        """Remove a table entirely (its sensor type left the subtree)."""
        dropped = self._tables.pop(sensor_type, None) is not None
        if dropped and self.observer is not None:
            self.observer()
        return dropped

    def remove_child_everywhere(self, child: NodeId) -> List[str]:
        """Drop ``child``'s entries from every table.

        Returns the sensor types whose tables changed -- the caller must
        re-evaluate the update trigger for each of them (paper §4.2: the
        removal of a neighbour may change the advertised ranges, and any
        change must be propagated up the tree).
        """
        changed: List[str] = []
        for stype, table in self._tables.items():
            if table.remove_child(child):
                changed.append(stype)
        return sorted(changed)

    def total_entries(self) -> int:
        """Total number of stored tuples across all tables (memory footprint)."""
        return sum(t.num_entries for t in self._tables.values())
