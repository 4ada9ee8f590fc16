"""Inspection and pruning of the trial cache.

The :class:`~repro.experiments.batch.BatchRunner` cache is the ``results``
table of ``<cache-dir>/campaigns.sqlite``
(:class:`~repro.experiments.store.ResultsStore`): one row per ``(config
hash, CACHE_VERSION)`` with the spec's label, scenario and campaign beside
the pickled result, so the cache is inspectable without unpickling
anything.

``python -m repro.experiments.cache --list`` tabulates the rows;
``--prune`` deletes the rows of other versions than
:data:`~repro.experiments.batch.CACHE_VERSION` (they would be silently
re-executed anyway), and ``--prune --all`` deletes every cached trial.
Campaign rows are never pruned.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..metrics.report import format_table
from .batch import CACHE_VERSION, resolve_cache_dir
from .store import DEFAULT_STORE_NAME, ResultsStore


def _status(row: Dict[str, object]) -> str:
    return "ok" if row["cache_version"] == CACHE_VERSION else "stale"


def _format_listing(rows: List[Dict[str, object]], path: Path) -> str:
    total_kb = sum(int(row["size_bytes"]) for row in rows) / 1024
    return format_table(
        headers=[
            "key", "label", "scenario", "campaign", "version", "status",
            "size kB",
        ],
        rows=[
            (
                row["key"],
                row["label"] or "-",
                row["scenario"] or "-",
                row["campaign"] or "-",
                row["cache_version"],
                _status(row),
                f"{int(row['size_bytes']) / 1024:.1f}",
            )
            for row in rows
        ],
        title=(
            f"cache {path}: {len(rows)} entries, {total_kb:.1f} kB "
            f"(current version {CACHE_VERSION})"
        ),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Inspect / prune the BatchRunner result cache."
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            f"directory of {DEFAULT_STORE_NAME} "
            "(default: $REPRO_CACHE_DIR or .repro-cache)"
        ),
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="tabulate the cached trials (the default action)",
    )
    parser.add_argument(
        "--prune",
        action="store_true",
        help="delete the cached trials of other cache versions",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="with --prune: delete every cached trial (campaigns stay)",
    )
    args = parser.parse_args(argv)
    if args.all and not args.prune:
        parser.error("--all only makes sense with --prune")

    path = Path(resolve_cache_dir(args.cache_dir)) / DEFAULT_STORE_NAME
    if not path.is_file():
        print(f"cache {path}: empty (or missing)")
        return 0
    with ResultsStore(path) as store:
        rows = store.cached_results()
        if not args.prune:
            if rows:
                print(_format_listing(rows, path))
            else:
                print(f"cache {path}: empty (or missing)")
            return 0
        pruned = store.prune_results(everything=args.all)
    print(f"pruned {pruned} of {len(rows)} entries, {len(rows) - pruned} kept")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
