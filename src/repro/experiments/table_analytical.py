"""Reproduction of the §5 analytical comparison (the k = 2, d = 4 example).

The paper's §5.3 works through a single numerical example: for a binary tree
of depth 4, the maximum update frequency that keeps DirQ below flooding is
f_max ≈ 0.76 updates per query.  This experiment regenerates that number,
tabulates the closed-form costs for a range of (k, d) and cross-checks every
closed form against brute-force enumeration of the corresponding tree.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

from ..core.analytical import (
    AnalyticalRow,
    analytical_table,
    build_kary_tree,
    flooding_cost,
    flooding_cost_by_enumeration,
    max_query_cost_by_enumeration,
    max_query_dissemination_cost,
    max_update_cost,
    max_update_cost_by_enumeration,
    paper_example,
)
from ..metrics.report import format_key_values, format_table

DEFAULT_CASES: Tuple[Tuple[int, int], ...] = (
    (2, 2),
    (2, 3),
    (2, 4),
    (3, 3),
    (4, 3),
    (8, 2),
)
"""(k, d) cases tabulated by default; (2, 4) is the paper's worked example."""


@dataclasses.dataclass(frozen=True)
class AnalyticalCheck:
    """Closed-form vs brute-force agreement for one (k, d) case."""

    k: int
    d: int
    flooding_closed: float
    flooding_enumerated: float
    query_closed: float
    query_enumerated: float
    update_closed: float
    update_enumerated: float

    @property
    def consistent(self) -> bool:
        return (
            self.flooding_closed == self.flooding_enumerated
            and self.query_closed == self.query_enumerated
            and self.update_closed == self.update_enumerated
        )


def run(
    cases: Sequence[Tuple[int, int]] = DEFAULT_CASES,
) -> tuple[List[AnalyticalRow], List[AnalyticalCheck], dict]:
    """Compute the analytical table, the consistency checks, and the §5.3 example."""
    rows = analytical_table(list(cases))
    checks: List[AnalyticalCheck] = []
    for k, d in cases:
        tree = build_kary_tree(k, d)
        checks.append(
            AnalyticalCheck(
                k=k,
                d=d,
                flooding_closed=flooding_cost(k, d),
                flooding_enumerated=flooding_cost_by_enumeration(tree),
                query_closed=max_query_dissemination_cost(k, d),
                query_enumerated=max_query_cost_by_enumeration(tree),
                update_closed=max_update_cost(k, d),
                update_enumerated=max_update_cost_by_enumeration(tree),
            )
        )
    return rows, checks, paper_example()


def report(
    rows: Sequence[AnalyticalRow],
    checks: Sequence[AnalyticalCheck],
    example: dict,
) -> str:
    """Render the §5 reproduction as text."""
    table = format_table(
        headers=["k", "d", "nodes", "C_F", "C_QD_max", "C_UD_max", "f_max"],
        rows=[
            (r.k, r.d, r.num_nodes, r.flooding, r.query_max, r.update_max, r.f_max)
            for r in rows
        ],
        float_format="{:.3f}",
        title="Analytical cost model (paper §5, eqs. 3-9)",
    )
    consistency = format_table(
        headers=["k", "d", "C_F ok", "C_QD ok", "C_UD ok"],
        rows=[
            (
                c.k,
                c.d,
                c.flooding_closed == c.flooding_enumerated,
                c.query_closed == c.query_enumerated,
                c.update_closed == c.update_enumerated,
            )
            for c in checks
        ],
        title="Closed form vs brute-force tree enumeration",
    )
    worked = format_key_values(
        "Paper's worked example (k=2, d=4; paper reports f_max < 0.76):",
        [
            ("nodes", example["num_nodes"]),
            ("C_F", example["flooding_cost"]),
            ("C_QD_max", example["max_query_cost"]),
            ("C_UD_max", example["max_update_cost"]),
            ("f_max", example["f_max"]),
        ],
    )
    return "\n\n".join([table, consistency, worked])


def main() -> str:
    """Run and print the §5 reproduction (entry point for scripts)."""
    rows, checks, example = run()
    text = report(rows, checks, example)
    print(text)
    return text


if __name__ == "__main__":  # pragma: no cover
    main()
