"""Columnar epoch tick: vectorised sensing with bit-identical semantics.

Every DirQ trial runs this tick in place of the per-node Python sampling
loop (:meth:`repro.core.dirq_node.DirQNode.on_epoch`, the readable
reference): one fused numpy pass over every ``(node, sensor_type)`` row of
the alive set, fanning Python-level work out only for the rows whose
reading escaped the own range or whose "no update due" memo is stale.  It
must be *bit-identical* to the reference loop -- the differential harness
in ``tests/differential/`` runs that loop as its oracle and pins
fingerprints, energy ledgers, update series, and scenario events against
it -- so the restructuring leans on three invariants:

1. **Commutativity of the read pass.**  Sampling and ATC rate-of-change
   tracking touch only per-``(node, sensor_type)`` private state (the
   dataset is read-only, the sampling counter is a plain sum, and
   :meth:`AdaptiveThresholdController.on_reading` writes only the keys of
   its own sensor type).  Hoisting all reads of an epoch in front of all
   table/update work therefore cannot change any observable.

2. **Node-major fan-out order.**  The brute loop visits ``(node, type)``
   pairs sorted by node id (the runner's alive list) and sensor type
   (:meth:`SensorNode.sensors_sorted`).  The fan-out walks a permutation
   precomputed in exactly that order, so table mutations, update
   transmissions, and every MAC send they trigger happen in the brute
   order.

3. **Conservative suppression.**  A row is skipped only when the reading
   lies inside the own range *and* the table's negative-result memo is
   provably valid -- exactly when :meth:`RangeTable.observe_reading`
   would leave the table untouched and :meth:`RangeTable.pending_update`
   would answer from its memo, evaluated against cached copies of
   ``own_entry`` and the memo that are invalidated through
   :attr:`RangeTable.observer` whenever *anything* (message handlers,
   tree repair, the fan-out itself) mutates the table.  When in doubt a
   row falls through to the brute machinery, which recomputes the truth
   and re-arms the memo.

Every row reads the world's dataset directly, so every mounted sensor
must be a plain dataset-backed :class:`~repro.sensors.sensor.Sensor` (the
only kind the runner mounts); :meth:`ColumnarTick._rebuild` raises
``TypeError`` for any other.

Deferred state: per-row suppression tallies, sampling-counter increments,
and the ATC rate-of-change/last-reading dictionaries are maintained in
arrays and folded back into their objects on every rebuild and at
:meth:`ColumnarTick.finalize`.  The runner finalises before any metrics
harvest, and no mid-run reader exists (the window recorder reads the
energy ledger, ATC telemetry reads ``delta_percent``, seeding syncs its
own row first), so the deferral is unobservable.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import numpy as np

from ..core.atc import ROC_SMOOTHING
from ..core.config import DirQConfig
from ..sensors.dataset import SensorDataset
from ..sensors.sensor import Sensor


class _TypeSegment:
    """Contiguous run of rows sharing one sensor type (one dataset gather)."""

    __slots__ = ("matrix", "cols", "start", "end")

    def __init__(self, matrix: np.ndarray, cols: np.ndarray, start: int, end: int):
        self.matrix = matrix
        self.cols = cols
        self.start = start
        self.end = end


class ColumnarTick:
    """Drop-in replacement for the runner's per-node ``on_epoch`` loop.

    Parameters
    ----------
    dataset:
        The world's ground-truth dataset (shared by all standard sensors).
    dirq_config:
        Protocol configuration (threshold mode, ATC window length).

    The runner must call :meth:`set_protocols` with the sorted alive DirQ
    protocol list at start-up and whenever that list changes, and
    :meth:`finalize` once after the last simulated event, before metrics
    are harvested.  Rows are rebuilt only on an alive-list, sensor-suite
    or table-set change, at the start of the next :meth:`tick`: the
    runner reports the first, and the ``observer`` hooks the tick sets on
    each protocol's :class:`~repro.network.node.SensorNode` and
    :class:`~repro.core.range_table.RangeTableSet` report the others.
    """

    def __init__(self, dataset: SensorDataset, dirq_config: DirQConfig):
        self._dataset = dataset
        self._adaptive = dirq_config.adaptive
        self._window = dirq_config.atc_window_epochs
        self._protos: List = []
        self._needs_rebuild = True
        # Row-major state (filled by _rebuild); rows are type-major so each
        # sensor type occupies one contiguous segment of every array.
        self._n = 0
        self._segments: List[_TypeSegment] = []
        self._row_protos: List = []
        self._row_tables: List = []
        self._row_stypes: List[str] = []
        self._row_atcs: List = []
        # (sampling counter, rows that count in it), one pair per counter.
        self._row_counters: List[Tuple] = []
        self._lo = None
        self._hi = None
        self._delta = None
        self._memo_ok = None
        self._inside = None
        self._suppress = None
        # Row indices pre-sorted into the brute fan-out order (alive-list
        # position, sensor type); per epoch the fired subset is selected by
        # permuting the not-suppressed mask.
        self._order = None
        self._notsup = None
        self._pending_suppressed = None
        self._pending_epochs = 0
        self._cur = None
        self._last = None
        self._tmp = None
        self._roc = None
        self._nan_free = False
        self._unseeded: List[int] = []
        self._dirty: set = set()

    # -- lifecycle ---------------------------------------------------------------

    def set_protocols(self, protocols: List) -> None:
        """Install the (sorted, alive) protocol list; flushes and rebuilds."""
        self._flush()
        self._hook(None)
        self._protos = list(protocols)
        self._needs_rebuild = True

    def finalize(self) -> None:
        """Flush deferred state; must run before any metrics harvest."""
        self._flush()
        self._hook(None)
        for table in self._row_tables:
            table.observer = None

    def _hook(self, observer) -> None:
        """Set every protocol's sensor-suite and table-set observer."""
        for proto in self._protos:
            proto.node.observer = observer
            proto.tables.observer = observer

    def _invalidate(self) -> None:
        """A sensor was attached or a table created or dropped."""
        self._needs_rebuild = True

    def _flush(self) -> None:
        """Fold deferred counters and ATC arrays back into their objects."""
        pe = self._pending_epochs
        if pe:
            self._pending_epochs = 0
            for counter, rows in self._row_counters:
                counter.total += rows * pe
        ps = self._pending_suppressed
        if ps is not None and ps.any():
            protos = self._row_protos
            for i in np.flatnonzero(ps):
                protos[i].updates_suppressed += int(ps[i])
            ps[:] = 0
        if self._adaptive and self._n:
            last = self._last
            roc = self._roc
            stypes = self._row_stypes
            for i, atc in enumerate(self._row_atcs):
                lv = last[i]
                if lv == lv:  # not NaN: the row has sampled at least once
                    atc._last_reading[stypes[i]] = float(lv)
                rv = roc[i]
                if rv == rv:
                    atc._rate_of_change[stypes[i]] = float(rv)

    def _rebuild(self) -> None:
        self._flush()
        dataset = self._dataset
        adaptive = self._adaptive
        by_type: Dict[str, List[Tuple]] = {}
        for k, proto in enumerate(self._protos):
            tables = proto.tables
            # Mirrors DirQNode.on_epoch: one row per mounted sensor,
            # tables created on demand.
            for stype, sensor in proto.node.sensors_sorted():
                table = tables.table(stype, create=True)
                by_type.setdefault(stype, []).append((k, proto, sensor, table))

        segments: List[_TypeSegment] = []
        row_protos: List = []
        row_tables: List = []
        row_stypes: List[str] = []
        row_atcs: List = []
        row_sensors: List = []
        row_ks: List[int] = []
        for stype in sorted(by_type):
            start = len(row_protos)
            cols: List[int] = []
            for k, proto, sensor, table in by_type[stype]:
                if (
                    type(sensor) is not Sensor
                    or sensor.dataset is not dataset
                    or sensor.sensor_type != stype
                ):
                    raise TypeError(
                        f"node {proto.node_id} mounts {sensor!r} as "
                        f"{stype!r}: the columnar tick reads only "
                        "Sensor instances backed by the world's dataset"
                    )
                cols.append(dataset.column_of(sensor.node_id))
                row_protos.append(proto)
                row_tables.append(table)
                row_stypes.append(stype)
                row_atcs.append(proto.atc)
                row_sensors.append(sensor)
                row_ks.append(k)
            segments.append(
                _TypeSegment(
                    dataset.readings[stype],
                    np.array(cols, dtype=np.intp),
                    start,
                    len(row_protos),
                )
            )

        n = len(row_protos)
        self._n = n
        self._segments = segments
        self._row_protos = row_protos
        self._row_tables = row_tables
        self._row_stypes = row_stypes
        self._row_atcs = row_atcs
        # Brute fan-out order: rows are type-major in the arrays, the loop
        # visits them by (alive-list position, sensor type).
        keys = [(row_ks[i], row_stypes[i]) for i in range(n)]
        self._order = np.array(
            sorted(range(n), key=keys.__getitem__), dtype=np.intp
        )
        self._notsup = np.ones(n, dtype=bool)
        self._row_counters = list(
            Counter(s.counter for s in row_sensors if s.counter is not None).items()
        )
        self._lo = np.empty(n, dtype=float)
        self._hi = np.empty(n, dtype=float)
        # δ is only ever read and written one row at a time (memo checks,
        # fan-out, window adjustments), so a plain list of floats avoids a
        # numpy scalar round-trip on every access.
        self._delta = [0.0] * n
        self._memo_ok = np.zeros(n, dtype=bool)
        self._inside = np.empty(n, dtype=bool)
        self._suppress = np.empty(n, dtype=bool)
        self._pending_suppressed = np.zeros(n, dtype=np.int64)
        self._cur = np.empty(n, dtype=float)
        self._tmp = np.empty(n, dtype=float)
        if adaptive:
            last = np.full(n, np.nan)
            roc = np.full(n, np.nan)
            unseeded: List[int] = []
            for i, atc in enumerate(row_atcs):
                stype = row_stypes[i]
                lv = atc._last_reading.get(stype)
                if lv is not None:
                    last[i] = lv
                rv = atc._rate_of_change.get(stype)
                if rv is not None:
                    roc[i] = rv
                if not atc._seeded.get(stype):
                    unseeded.append(i)
                self._delta[i] = atc.delta_absolute(stype)
            self._last = last
            self._roc = roc
            self._unseeded = unseeded
            self._nan_free = False
        else:
            self._last = None
            self._roc = None
            self._unseeded = []
            for i, proto in enumerate(row_protos):
                self._delta[i] = proto.current_delta(row_stypes[i])

        dirty = self._dirty
        dirty.clear()
        for i, table in enumerate(row_tables):
            table.observer = lambda i=i, dirty=dirty: dirty.add(i)
            self._refresh_row(i)

        # Hooked after the table creations above, which the rows cover.
        self._hook(self._invalidate)
        self._needs_rebuild = False

    # -- cached-row maintenance ----------------------------------------------------

    def _refresh_row(self, i: int) -> None:
        """Re-read ``own_entry`` and the trigger memo for one row."""
        table = self._row_tables[i]
        own = table.own_entry
        if own is None:
            self._lo[i] = np.nan
            self._hi[i] = np.nan
        else:
            self._lo[i] = own.min_threshold
            self._hi[i] = own.max_threshold
        memo = table._no_update_memo
        self._memo_ok[i] = (
            memo is not None
            and memo[0] == table._version
            and memo[1] == self._delta[i]
        )

    def _refresh_memo(self, i: int) -> None:
        table = self._row_tables[i]
        memo = table._no_update_memo
        self._memo_ok[i] = (
            memo is not None
            and memo[0] == table._version
            and memo[1] == self._delta[i]
        )

    def _refresh_deltas(self) -> None:
        """Re-derive per-row δ after an ATC window adjustment."""
        delta = self._delta
        stypes = self._row_stypes
        for i, atc in enumerate(self._row_atcs):
            nd = atc.delta_absolute(stypes[i])
            if nd != delta[i]:
                delta[i] = nd
                self._refresh_memo(i)

    def _try_seed(self) -> None:
        """Mirror the seeding attempt ``on_reading`` makes per sample."""
        keep: List[int] = []
        last = self._last
        roc = self._roc
        stypes = self._row_stypes
        for i in self._unseeded:
            atc = self._row_atcs[i]
            rv = roc[i]
            # rv is NaN until the row has seen two readings -- exactly when
            # the brute on_reading body reaches its seeding check.
            if rv == rv and atc._hour_budget:
                # The controller's dicts lag the columnar arrays between
                # flushes; _seed_delta reads the rate of change, so sync
                # this row's state before delegating to the brute seeding.
                stype = stypes[i]
                atc._rate_of_change[stype] = float(rv)
                atc._last_reading[stype] = float(last[i])
                atc._seed_delta(stype)
                if atc._seeded.get(stype):
                    self._delta[i] = atc.delta_absolute(stype)
                    self._refresh_memo(i)
                    continue
            keep.append(i)
        self._unseeded = keep

    # -- per-epoch entry point ------------------------------------------------------

    def tick(self, epoch: int) -> None:
        """Run one epoch of sensing + range maintenance for every node."""
        if self._needs_rebuild:
            self._rebuild()

        n = self._n
        fired = self._order
        if n:
            dirty = self._dirty
            if dirty:
                refresh = self._refresh_row
                for i in dirty:
                    refresh(i)
                dirty.clear()
            dataset_epochs = self._dataset.num_epochs
            if not 0 <= epoch < dataset_epochs:
                # Same bounds check Sensor.sample performs before indexing.
                raise IndexError(
                    f"epoch {epoch} out of range [0, {dataset_epochs})"
                )
            cur = self._cur
            for seg in self._segments:
                np.take(
                    seg.matrix[epoch], seg.cols, out=cur[seg.start : seg.end]
                )
            if self._adaptive:
                prev = self._last
                tmp = self._tmp
                s = ROC_SMOOTHING
                if self._nan_free:
                    # Steady state: every row has >= 2 readings, so the
                    # brute recurrence applies unconditionally.
                    np.subtract(cur, prev, out=tmp)
                    np.abs(tmp, out=tmp)
                    roc = self._roc
                    np.multiply(roc, 1 - s, out=roc)
                    tmp *= s
                    roc += tmp
                else:
                    # First epochs after a (re)build: rows may still lack a
                    # previous reading (prev NaN) or a rate (roc NaN).
                    seen = ~np.isnan(prev)
                    change = np.abs(cur - prev)
                    roc = self._roc
                    smoothed = np.where(
                        np.isnan(roc), change, (1 - s) * roc + s * change
                    )
                    np.copyto(roc, smoothed, where=seen)
                    self._nan_free = bool(seen.all())
                # cur becomes the next epoch's "previous reading"; the old
                # buffer is recycled as the next gather target.
                self._last = cur
                self._cur = prev
                if self._unseeded:
                    self._try_seed()
            inside = self._inside
            np.less_equal(self._lo, cur, out=inside)
            np.less_equal(cur, self._hi, out=self._suppress)
            inside &= self._suppress
            suppress = self._suppress
            np.logical_and(inside, self._memo_ok, out=suppress)
            self._pending_suppressed += suppress
            self._pending_epochs += 1
            np.logical_not(suppress, out=self._notsup)
            # Select the fired rows already permuted into brute order.
            fired = fired[self._notsup[fired]]

        if len(fired):
            vals = self._last if self._adaptive else self._cur
            delta = self._delta
            row_protos = self._row_protos
            row_tables = self._row_tables
            row_stypes = self._row_stypes
            refresh = self._refresh_row
            # The row body marks its own row dirty (observe_reading and
            # mark_transmitted bump the table version); the trailing
            # refresh already re-reads that state, so drop the mark and
            # spare the redundant refresh next tick.  Mutations of *other*
            # rows (update_child on a parent) stay dirty: a later row's
            # send re-adds any index discarded earlier in this loop.
            discard = self._dirty.discard
            # One vectorised gather turns the fired rows' readings and
            # inside flags into builtin floats/bools (ndarray.tolist
            # round-trips float64 exactly, matching what Sensor.sample
            # hands the brute loop), so the loop touches no numpy scalars.
            rvals = vals[fired].tolist()
            rins = self._inside[fired].tolist()
            for pos, i in enumerate(fired.tolist()):
                proto = row_protos[i]
                table = row_tables[i]
                reading = rvals[pos]
                d = delta[i]
                if not rins[pos]:
                    table.observe_reading(reading, d)
                proto._maybe_send_update(
                    row_stypes[i], epoch, table=table, delta=d
                )
                refresh(i)
                discard(i)

        if self._adaptive and epoch > 0 and epoch % self._window == 0:
            for p in self._protos:
                atc = p.atc
                if atc is not None:
                    atc.end_window()
            if n:
                self._refresh_deltas()
