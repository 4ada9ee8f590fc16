"""Analytical cost model for flooding vs directed dissemination (paper §5).

The paper analyses both schemes on a complete k-nary tree of depth ``d``
(root at depth 0), with unit transmission and reception costs:

* **Flooding** (§5.1): every node broadcasts the query exactly once, and
  every node receives it once from each of its neighbours, so

  .. math:: C_F = N + 2 L = \\frac{3k^{d+1} - 2k - 1}{k - 1}

  where ``N`` is the number of nodes and ``L = N - 1`` the number of links.

* **Directed dissemination, worst case** (§5.2): every leaf is relevant, so
  the query travels down every edge.  Each non-leaf node transmits the query
  once in its (TDMA) slot and every non-root node receives it once:

  .. math:: C_{QD}^{max} = \\frac{k^{d+1} + k^d - k - 1}{k - 1}

* **Update mechanism, worst case** (§5.2): every node sends one update
  message to its parent (one unicast transmission + one reception per
  non-root node):

  .. math:: C_{UD}^{max} = \\frac{2 (k^{d+1} - k)}{k - 1}

* **Total DirQ cost** (§5.2, eq. 7) with ``f`` update rounds per query:

  .. math:: C_{TD}^{max} = C_{QD}^{max} + f \\cdot C_{UD}^{max}

* **Update budget** (§5.3, eq. 9): the largest ``f`` for which DirQ's worst
  case stays below flooding:

  .. math:: f_{max} = \\frac{C_F - C_{QD}^{max}}{C_{UD}^{max}}
            = \\frac{2k^{d+1} - k^d - k}{2 (k^{d+1} - k)}

  For the paper's example k = 2, d = 4 this gives f_max ≈ 0.767 (the paper
  rounds to "< 0.76"), i.e. roughly one full-network update round per query.

Every closed form has a brute-force counterpart computed by explicit tree
enumeration (the ``*_by_enumeration`` functions); the property-based tests
verify that the two always agree, which validates the derivations above
against the paper's cost-accounting rules rather than just restating them.

The closed forms assume ``k >= 2``; ``k == 1`` (a path) is handled by the
enumeration functions and by explicit special cases.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..network.spanning_tree import SpanningTree
from ..network.topology import kary_tree_topology


# ---------------------------------------------------------------------------
# Tree size helpers
# ---------------------------------------------------------------------------


def _validate(k: int, d: int) -> None:
    if k < 1:
        raise ValueError("branching factor k must be >= 1")
    if d < 0:
        raise ValueError("depth d must be >= 0")


def tree_num_nodes(k: int, d: int) -> int:
    """Number of nodes in a complete k-ary tree of depth ``d``."""
    _validate(k, d)
    if k == 1:
        return d + 1
    return (k ** (d + 1) - 1) // (k - 1)


def tree_num_links(k: int, d: int) -> int:
    """Number of edges (= nodes - 1)."""
    return tree_num_nodes(k, d) - 1


def tree_num_leaves(k: int, d: int) -> int:
    """Number of leaf nodes (``k^d``; 1 for a path)."""
    _validate(k, d)
    return k**d if k > 1 else 1


def tree_num_internal(k: int, d: int) -> int:
    """Number of non-leaf nodes (nodes at depths 0..d-1)."""
    return tree_num_nodes(k, d) - tree_num_leaves(k, d)


# ---------------------------------------------------------------------------
# Closed-form costs (equations 3-9)
# ---------------------------------------------------------------------------


def flooding_cost(k: int, d: int) -> float:
    """Total cost of flooding one query, eq. (3)/(4): ``N + 2 L``."""
    n = tree_num_nodes(k, d)
    return float(n + 2 * tree_num_links(k, d))


def flooding_cost_general(num_nodes: int, num_links: int) -> float:
    """Eq. (3) for an arbitrary topology: ``N + 2 x links``."""
    if num_nodes < 0 or num_links < 0:
        raise ValueError("num_nodes and num_links must be non-negative")
    return float(num_nodes + 2 * num_links)


def max_query_dissemination_cost(k: int, d: int) -> float:
    """Worst-case directed dissemination cost, eq. (5).

    Every leaf is relevant; each non-leaf node transmits once, each non-root
    node receives once.
    """
    transmissions = tree_num_internal(k, d)
    receptions = tree_num_nodes(k, d) - 1
    return float(transmissions + receptions)


def max_update_cost(k: int, d: int) -> float:
    """Worst-case update cost, eq. (6): every non-root node unicasts one update."""
    non_root = tree_num_nodes(k, d) - 1
    return float(2 * non_root)


def dirq_total_cost(k: int, d: int, f: float) -> float:
    """Worst-case DirQ cost per query with ``f`` update rounds per query, eq. (7)."""
    if f < 0:
        raise ValueError("f must be non-negative")
    return max_query_dissemination_cost(k, d) + f * max_update_cost(k, d)


def f_max(k: int, d: int) -> float:
    """Largest update frequency keeping DirQ below flooding, eq. (9)."""
    cud = max_update_cost(k, d)
    if cud == 0:
        raise ValueError("tree has no non-root nodes; f_max is undefined")
    return (flooding_cost(k, d) - max_query_dissemination_cost(k, d)) / cud


def update_budget_per_hour(
    expected_queries_per_hour: float,
    flooding_cost_per_query: float,
    query_cost_per_query: float,
    cost_per_update: float = 2.0,
) -> float:
    """Maximum update *messages* per hour keeping DirQ at or below flooding.

    This generalises §5.3 from the worst-case k-ary tree to measured values:
    with ``Q`` queries expected in the next hour, flooding would spend
    ``Q * C_F``; DirQ spends ``Q * C_QD`` on dissemination, leaving
    ``Q * (C_F - C_QD)`` cost units for updates, i.e.
    ``U_max = Q * (C_F - C_QD) / cost_per_update`` update messages (each
    update is one unicast: one transmission + one reception = 2 units).

    This is the ``U_max/Hr`` reference line of Fig. 6.
    """
    if expected_queries_per_hour < 0:
        raise ValueError("expected_queries_per_hour must be non-negative")
    if cost_per_update <= 0:
        raise ValueError("cost_per_update must be positive")
    headroom = max(0.0, flooding_cost_per_query - query_cost_per_query)
    return expected_queries_per_hour * headroom / cost_per_update


# ---------------------------------------------------------------------------
# Brute-force validation by explicit tree enumeration
# ---------------------------------------------------------------------------


def build_kary_tree(k: int, d: int) -> SpanningTree:
    """Explicit :class:`SpanningTree` for a complete k-ary tree of depth ``d``."""
    from ..network.spanning_tree import build_bfs_tree

    topo = kary_tree_topology(k, d)
    return build_bfs_tree(topo, root=0)


def flooding_cost_by_enumeration(tree: SpanningTree) -> float:
    """Flooding cost on the tree topology: every node broadcasts once.

    On a tree (no shortcut links), each node receives the query once from
    every tree neighbour, so the reception count is ``2 * (N - 1)``.
    """
    n = tree.num_nodes
    return float(n + 2 * (n - 1))


def max_query_cost_by_enumeration(tree: SpanningTree) -> float:
    """Worst-case dissemination cost: every leaf relevant.

    Transmissions: one per non-leaf node (the query is sent once in the
    node's TDMA slot and heard by all its children).  Receptions: one per
    non-root node.
    """
    transmissions = sum(1 for n in tree.node_ids if not tree.is_leaf(n))
    receptions = tree.num_nodes - 1
    return float(transmissions + receptions)


def max_update_cost_by_enumeration(tree: SpanningTree) -> float:
    """Worst-case update cost: every non-root node sends one unicast update."""
    return float(2 * (tree.num_nodes - 1))


# ---------------------------------------------------------------------------
# Report helper (the §5.3 worked example as a table)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class AnalyticalRow:
    """One row of the analytical comparison table."""

    k: int
    d: int
    num_nodes: int
    flooding: float
    query_max: float
    update_max: float
    f_max: float


def analytical_table(cases: list[tuple[int, int]]) -> list[AnalyticalRow]:
    """Evaluate the closed-form model for a list of ``(k, d)`` cases."""
    rows = []
    for k, d in cases:
        rows.append(
            AnalyticalRow(
                k=k,
                d=d,
                num_nodes=tree_num_nodes(k, d),
                flooding=flooding_cost(k, d),
                query_max=max_query_dissemination_cost(k, d),
                update_max=max_update_cost(k, d),
                f_max=f_max(k, d),
            )
        )
    return rows


def paper_example() -> Dict[str, float]:
    """The §5.3 worked example: k = 2, d = 4."""
    k, d = 2, 4
    return {
        "k": k,
        "d": d,
        "num_nodes": tree_num_nodes(k, d),
        "flooding_cost": flooding_cost(k, d),
        "max_query_cost": max_query_dissemination_cost(k, d),
        "max_update_cost": max_update_cost(k, d),
        "f_max": f_max(k, d),
    }
