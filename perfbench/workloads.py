"""The benchmark's workloads: campaigns over registry scenarios.

Every workload is a :class:`~repro.experiments.campaign.CampaignSpec` run the
way a user runs one: ``run_missing`` with one inline worker, so trials
execute one at a time in this process (a closed loop with one client).  No
strategy flag (``tick_method``, ``neighbor_method``, ``tree_repair``) is
set, so the benchmark keeps measuring the default path when those flags
change or go away.  The seed comes from the command line and is the
campaign's master seed.

There is no ``scale-5000`` workload.  Its trials are mostly memory stalls,
which stretch less than the host-speed yardstick when the host slows, so
its normalised figures still followed the host: two sets of ten runs
spread by up to 0.29 of the median, past the 0.25 bound.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple


#: Wall seconds of cache-served campaigns after each cold one (at least
#: one campaign).  One is milliseconds long, too short to time alone; a
#: time budget, unlike a count, gives every workload the same measuring
#: time whatever its number of cells.
CACHED_SECONDS = 2.0

#: Set-up samples a measuring run takes; extra builds top up what its
#: trials give.
MIN_SETUPS = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: the cells of a campaign.

    ``replicates`` runs each cell on that many seeds derived from the
    master seed (``TrialSpec.replicates``).
    """

    name: str
    why: str
    scenarios: Tuple[str, ...]
    protocols: Tuple[str, ...]
    num_epochs: int
    replicates: int = 1
    #: Whether this workload reproduces a published result (the paper's
    #: 45-55 % cost band); every other workload is unvalidated.
    paper_reference: bool = False

    def campaign(self, name: str, seed: int):
        """The workload's campaign under ``name`` (same cells for any name)."""
        from repro.experiments.campaign import CampaignSpec

        return CampaignSpec(
            name=name,
            scenarios=self.scenarios,
            protocols=self.protocols,
            replicates=self.replicates,
            num_epochs=self.num_epochs,
            seed=seed,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-50",
            why=(
                "static-paper + with_atc(), 6 seeds x 2000 epochs: the "
                "paper's 50-node steady state, where the epoch tick, ATC, "
                "updates, beacons and query routing carry the time"
            ),
            scenarios=("static-paper",),
            protocols=("atc",),
            num_epochs=2000,
            # One 50-node topology's work varies by about 10 % with the
            # seed; six per run keep the seed from moving the figures.
            replicates=6,
            paper_reference=True,
        ),
        Workload(
            name="mobile-500",
            why=(
                "scale-500-mobile, 2 seeds x 200 epochs: re-links every 4 "
                "epochs put tree repair, LMAC discovery and re-advertisement "
                "on the hot path, which paper-50 never runs"
            ),
            scenarios=("scale-500-mobile",),
            protocols=("dirq",),
            num_epochs=200,
            # Across seeds a trial's work spreads more than twice as widely
            # as repeats of one seed do; two per run narrow that.
            replicates=2,
        ),
        Workload(
            name="sweep",
            why=(
                "5 scenarios x dirq/atc/flooding x 2 seeds at 200 epochs, a "
                "cold campaign then cache-served ones: config hashing, trial "
                "cache, SQLite store; churn, batteries, bursts, flooding"
            ),
            scenarios=(
                "static-paper",
                "churn-revive",
                "mobile-40",
                "energy-tiered",
                "bursty-20",
            ),
            protocols=("dirq", "atc", "flooding"),
            num_epochs=200,
            # Two seeds per cell halve the seed's share of the spread.
            replicates=2,
        ),
    )
}
