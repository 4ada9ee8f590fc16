"""The work of every pinned cell, beside its digest.

A cell's digest (``STATIC_DIGESTS``, ``DYNAMIC_DIGESTS``) pins what the
trial measures; its row here pins the work the trial did to measure it,
as the :class:`~tests.differential.abharness.Work` fields in order.  The
paper counts a protocol's cost in transmissions and receptions, and these
counters are the simulator's own: a change that adds an event per epoch,
drops a beacon off the fast path or re-advertises more often, without
changing one measurement, moves a row and no digest.  Nothing here is a
time, so no row depends on the host.

A row moves only when the work does.  The failure message prints the new
row; re-pin by pasting it, and say in ``CHANGES.md`` why the work moved.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .abharness import Work

#: (cell, protocol variant) -> the trial's ``Work``, fields in order.
WORK: Dict[Tuple[str, str], Tuple[int, ...]] = {
    ("area-blast", "dirq"): (4850, 12, 4783, 20347, 0, 1688, 16, 2637, 67153, 460, 15, 67184, 0, 2, 0),
    ("area-blast-revive", "dirq"): (5795, 12, 5517, 23803, 0, 1922, 227, 3073, 76284, 524, 27, 76280, 0, 14, 0),
    ("bursty-20", "atc"): (6888, 0, 6888, 26248, 0, 2000, 0, 3493, 79938, 1346, 0, 80000, 0, 1, 0),
    ("bursty-20", "dirq"): (6267, 0, 6267, 25627, 0, 2000, 0, 3079, 79908, 1139, 0, 80000, 0, 1, 0),
    ("bursty-20", "flooding"): (4600, 0, 4600, 49128, 0, 2000, 0, 0, 0, 0, 0, 2600, 0, 0, 0),
    ("churn-heavy", "atc"): (5976, 6, 5926, 23295, 0, 1877, 50, 3400, 74965, 600, 2, 74996, 0, 7, 0),
    ("churn-revive", "atc"): (6278, 7, 6155, 24916, 0, 1973, 123, 3517, 78646, 616, 7, 78652, 0, 13, 0),
    ("churn-revive", "dirq"): (5802, 7, 5679, 24440, 0, 1973, 123, 3122, 78616, 535, 7, 78652, 0, 13, 0),
    ("churn-revive", "flooding"): (3030, 7, 2907, 30550, 0, 1973, 123, 0, 0, 0, 0, 934, 0, 0, 0),
    ("diurnal-60", "atc"): (6392, 0, 6392, 25752, 0, 2000, 0, 3493, 79938, 850, 0, 80000, 0, 1, 0),
    ("diurnal-60", "dirq"): (5930, 0, 5930, 25290, 0, 2000, 0, 3079, 79908, 802, 0, 80000, 0, 1, 0),
    ("energy-lognormal", "dirq"): (5667, 3, 5632, 24432, 0, 1976, 35, 3064, 78904, 543, 1, 78980, 0, 4, 0),
    ("energy-tiered", "atc"): (5567, 13, 5458, 18596, 0, 1726, 109, 3151, 68968, 532, 30, 68800, 0, 12, 0),
    ("energy-tiered", "dirq"): (5274, 12, 5169, 18555, 0, 1746, 105, 2899, 69749, 475, 30, 69600, 0, 13, 0),
    ("energy-tiered", "flooding"): (2632, 12, 2539, 22026, 0, 1723, 93, 0, 0, 0, 0, 816, 0, 0, 0),
    ("group-mobile", "dirq"): (7876, 0, 7830, 45162, 0, 2000, 46, 5232, 82494, 549, 333, 80000, 0, 1, 19),
    ("harsh-grid", "dirq"): (6396, 6, 6336, 32543, 0, 1936, 60, 3699, 78241, 652, 126, 77348, 0, 8, 9),
    ("harsh-mixed", "dirq"): (6122, 7, 6060, 25166, 0, 1878, 62, 3444, 75579, 689, 85, 75004, 0, 8, 9),
    ("harsh-mixed scripted", "atc"): (6153, 9, 6087, 23515, 0, 1802, 66, 3457, 72656, 781, 97, 71984, 0, 11, 9),
    ("harsh-mixed scripted", "dirq"): (6013, 9, 5925, 23504, 0, 1807, 88, 3424, 72825, 647, 96, 72184, 0, 10, 9),
    ("harsh-mixed scripted", "flooding"): (3282, 10, 3209, 34150, 0, 1790, 73, 0, 0, 0, 0, 1419, 0, 0, 9),
    ("mobile-40", "atc"): (6869, 0, 6845, 30249, 0, 2000, 24, 4155, 81039, 641, 155, 80000, 0, 1, 19),
    ("mobile-40", "dirq"): (6706, 0, 6682, 30086, 0, 2000, 24, 4078, 81114, 555, 155, 80000, 0, 1, 19),
    ("mobile-40", "flooding"): (2964, 0, 2940, 37572, 0, 2000, 24, 0, 0, 0, 0, 940, 0, 0, 19),
    ("mobile-all", "dirq"): (7371, 0, 7351, 37835, 0, 2000, 20, 4746, 81659, 556, 222, 80000, 0, 1, 19),
    ("ramp-load", "atc"): (5982, 0, 5982, 25342, 0, 2000, 0, 3493, 79938, 440, 0, 80000, 0, 1, 0),
    ("ramp-load", "dirq"): (5505, 0, 5505, 24865, 0, 2000, 0, 3079, 79908, 377, 0, 80000, 0, 1, 0),
    ("scale-500", "dirq"): (11958, 0, 11904, 48768, 0, 3000, 54, 7918, 119958, 487, 0, 120000, 0, 1, 0),
    ("scale-500-churn", "dirq"): (12429, 20, 12031, 48222, 0, 2982, 398, 8066, 118701, 484, 30, 118520, 0, 21, 0),
    ("scale-500-mobile", "dirq"): (21021, 0, 20971, 58375, 0, 3000, 50, 16996, 127217, 476, 912, 120000, 0, 1, 29),
    ("scale-5000", "dirq"): (53234, 0, 53153, 117755, 0, 5000, 81, 43154, 79952, 0, 0, 80000, 0, 1, 0),
    ("small-10", "dirq"): (280, 0, 280, 456, 0, 80, 0, 167, 3174, 24, 0, 3200, 0, 1, 0),
    ("static-paper", "atc"): (6169, 0, 6169, 25529, 0, 2000, 0, 3493, 79938, 627, 0, 80000, 0, 1, 0),
    ("static-paper", "dirq"): (5676, 0, 5676, 25036, 0, 2000, 0, 3079, 79908, 548, 0, 80000, 0, 1, 0),
    # Lossless static flooding: every beacon tick takes the fast path.
    ("static-paper", "flooding"): (2950, 0, 2950, 31506, 0, 2000, 0, 0, 0, 0, 0, 950, 0, 0, 0),
    # Lossy: frames are dropped, and the fast path declines every beacon.
    ("static-paper channel_loss=0.2", "atc"): (9219, 0, 7219, 21292, 5287, 2000, 2000, 4821, 78963, 354, 0, 80000, 0, 1, 0),
    ("static-paper channel_loss=0.2", "flooding"): (4949, 0, 2949, 25264, 6241, 2000, 2000, 0, 0, 0, 0, 949, 0, 0, 0),
}


def assert_work(cell: str, variant: str, work: Work) -> None:
    """Assert a cell's work equals its pinned row, naming what moved."""
    pinned = WORK.get((cell, variant))
    if pinned == tuple(work):
        return
    if pinned is None:
        moved = "no pinned row"
    else:
        moved = ", ".join(
            f"{field} {old} -> {new}"
            for field, old, new in zip(Work._fields, pinned, work)
            if old != new
        )
    raise AssertionError(
        f"work of ({cell}, {variant}) moved: {moved}; the new row:\n"
        f'    ("{cell}", "{variant}"): {tuple(work)!r},'
    )
