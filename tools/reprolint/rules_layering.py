"""RL3xx: import-layering rules.

Builds the static import graph of every scanned ``src/`` module and
enforces the declared layer DAG.  Edges are classified:

* **eager** -- module-level (incl. class-body) imports: these run at
  import time and define initialisation order;
* **lazy** -- function-scoped imports, the sanctioned module
  ``__getattr__`` pattern, and ``importlib.import_module`` calls (for
  ``import_module(f".{name}", __name__)`` over a module-level dict of
  submodule names, every dict value is taken as a candidate edge);
* **typing** -- imports under ``if TYPE_CHECKING:``.

Checks:

* RL301: forbidden pairs.  ``repro.scenarios.spec`` / ``.models`` must
  not *reach* ``repro.experiments`` (transitively over eager edges, and
  no direct edge of any kind); ``repro.metrics`` / ``network`` / ``mac``
  / ``energy`` must not import ``repro.experiments`` at all.
* RL302: eager import cycles (lazy edges are exactly how cycles are
  legitimately broken, so they are excluded).
* RL303: an eager import whose target sits in a *higher* layer than the
  importer (see :data:`LAYERS`; longest-prefix match, higher rank =
  higher layer, equal ranks are free).
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import Finding, SourceFile, dotted_name

#: The declared layer DAG, as (module prefix, rank).  Longest prefix
#: wins; an eager import must never target a strictly higher rank.
#: Mirrors the architecture documented in ``docs/linting.md``.
LAYERS: Sequence[Tuple[str, int]] = (
    ("repro.utils", 0),
    ("repro.simulation", 10),
    ("repro.obs", 10),
    ("repro.scenarios.spec", 10),
    ("repro.network", 20),
    ("repro.energy", 20),
    ("repro.sensors", 30),
    ("repro.mac", 30),
    ("repro.core", 40),
    ("repro.workload", 50),
    ("repro.metrics", 50),
    ("repro.scenarios.models", 60),
    ("repro.scenarios", 60),
    ("repro.experiments", 70),
    ("repro.scenarios.static", 80),
    ("repro.scenarios.registry", 80),
    ("repro.experiments.campaign", 90),
    ("repro", 100),
)

#: (importer prefix, forbidden target prefix): no direct edge of any kind.
FORBIDDEN_DIRECT: Sequence[Tuple[str, str]] = (
    ("repro.scenarios.spec", "repro.experiments"),
    ("repro.scenarios.models", "repro.experiments"),
    ("repro.metrics", "repro.experiments"),
    ("repro.network", "repro.experiments"),
    ("repro.mac", "repro.experiments"),
    ("repro.energy", "repro.experiments"),
    ("repro.simulation", "repro.experiments"),
    ("repro.sensors", "repro.experiments"),
)

#: (source prefix, unreachable target prefix): no *eager transitive* path.
FORBIDDEN_TRANSITIVE: Sequence[Tuple[str, str]] = (
    ("repro.scenarios.spec", "repro.experiments"),
    ("repro.scenarios.models", "repro.experiments"),
)

EAGER = "eager"
LAZY = "lazy"
TYPING = "typing"


@dataclasses.dataclass(frozen=True)
class ImportEdge:
    src: str  # importer module
    dst: str  # imported module
    kind: str  # eager | lazy | typing
    line: int


def layer_rank(module: str) -> Optional[int]:
    """Rank of a module under longest-prefix matching (None if unmapped)."""
    best: Optional[Tuple[int, int]] = None  # (prefix length, rank)
    for prefix, rank in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > best[0]:
                best = (len(prefix), rank)
    return best[1] if best else None


def _is_type_checking_test(test: ast.expr) -> bool:
    name = dotted_name(test) or ""
    return name.rsplit(".", 1)[-1] == "TYPE_CHECKING"


def _module_package(src: SourceFile) -> List[str]:
    """The package a module's relative imports resolve against."""
    parts = (src.module or "").split(".")
    if src.path.name == "__init__.py":
        return parts
    return parts[:-1]


def _resolve_from(
    src: SourceFile, node: ast.ImportFrom, known: Set[str]
) -> List[str]:
    if node.level:
        pkg = _module_package(src)
        if node.level - 1 > len(pkg):
            return []
        base_parts = pkg[: len(pkg) - (node.level - 1)]
        base = ".".join(
            base_parts + (node.module.split(".") if node.module else [])
        )
    else:
        base = node.module or ""
    if not base:
        return []
    targets = []
    for alias in node.names:
        candidate = f"{base}.{alias.name}"
        if candidate in known:
            targets.append(candidate)
    if base in known:
        targets.append(base)
    elif not targets and base.startswith("repro"):
        targets.append(base)
    return targets


def _dict_literal_values(tree: ast.Module) -> Set[str]:
    """String values of module-level dict literals (lazy-export tables)."""
    values: Set[str] = set()
    for stmt in tree.body:
        target_value = None
        if isinstance(stmt, ast.Assign):
            target_value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target_value = stmt.value
        if not isinstance(target_value, ast.Dict):
            continue
        if all(
            isinstance(v, ast.Constant) and isinstance(v.value, str)
            for v in target_value.values
        ) and target_value.values:
            values.update(v.value for v in target_value.values)
    return values


def build_graph(files: Sequence[SourceFile]) -> List[ImportEdge]:
    """Classified internal import edges over the scanned ``src`` modules."""
    known = {f.module for f in files if f.module}
    edges: List[ImportEdge] = []

    def add(src: SourceFile, dst: str, kind: str, line: int) -> None:
        if dst in known and dst != src.module:
            edges.append(ImportEdge(src.module or "", dst, kind, line))

    def visit(src: SourceFile, node: ast.AST, kind: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(src, alias.name, kind, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for target in _resolve_from(src, node, known):
                add(src, target, kind, node.lineno)
        elif isinstance(node, ast.If) and kind == EAGER:
            body_kind = TYPING if _is_type_checking_test(node.test) else kind
            for child in node.body:
                visit(src, child, body_kind)
            for child in node.orelse:
                visit(src, child, kind)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                if child is node:
                    continue
                if isinstance(child, (ast.Import, ast.ImportFrom)):
                    visit_shallow(src, child, LAZY)
                elif isinstance(child, ast.Call):
                    name = dotted_name(child.func) or ""
                    if name.rsplit(".", 1)[-1] != "import_module":
                        continue
                    if not child.args:
                        continue
                    arg = child.args[0]
                    pkg = ".".join(_module_package(src)) or (src.module or "")
                    if src.path.name == "__init__.py":
                        pkg = src.module or ""
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, str
                    ):
                        target = arg.value
                        if target.startswith("."):
                            target = pkg + target if pkg else target[1:]
                        add(src, target, LAZY, child.lineno)
                    elif isinstance(arg, ast.JoinedStr):
                        # f".{name}" over a lazy-export table: take every
                        # table value as a candidate submodule.
                        for value in _dict_literal_values(src.tree):
                            add(src, f"{pkg}.{value}", LAZY, child.lineno)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    continue
                visit(src, child, kind)

    def visit_shallow(src: SourceFile, node: ast.AST, kind: str) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(src, alias.name, kind, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for target in _resolve_from(src, node, known):
                add(src, target, kind, node.lineno)

    for src in files:
        if not src.module:
            continue
        for stmt in src.tree.body:
            visit(src, stmt, EAGER)
    return edges


def _prefixed(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def _strongly_connected(adj: Dict[str, Set[str]]) -> List[List[str]]:
    """Tarjan SCCs (iterative), only components of size > 1."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    for root in sorted(adj):
        if root in index:
            continue
        work = [(root, iter(sorted(adj.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(adj.get(nxt, ())))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
    return sccs


def check_graph(
    edges: Sequence[ImportEdge],
    module_files: Dict[str, Tuple[str, int]],
) -> List[Finding]:
    """All RL3xx findings for a classified import graph.

    ``module_files`` maps module -> (repo-relative path, anchor line) for
    findings that concern a module rather than a single import statement.
    """
    findings: List[Finding] = []

    def rel_of(module: str, line: int = 1) -> Tuple[str, int]:
        return module_files.get(module, (module, line))

    # RL301 direct
    for edge in edges:
        for src_prefix, dst_prefix in FORBIDDEN_DIRECT:
            if _prefixed(edge.src, src_prefix) and _prefixed(
                edge.dst, dst_prefix
            ):
                rel, _ = rel_of(edge.src)
                findings.append(
                    Finding(
                        "RL301",
                        rel,
                        edge.line,
                        f"{edge.src} must not import {edge.dst} "
                        f"({src_prefix} is declared {dst_prefix}-free)",
                    )
                )

    # RL301 transitive over eager edges
    eager_adj: Dict[str, Set[str]] = {}
    for edge in edges:
        if edge.kind == EAGER:
            eager_adj.setdefault(edge.src, set()).add(edge.dst)
    for src_prefix, dst_prefix in FORBIDDEN_TRANSITIVE:
        roots = sorted(
            m
            for m in {e.src for e in edges} | {e.dst for e in edges}
            if _prefixed(m, src_prefix)
        )
        for root in roots:
            parents: Dict[str, str] = {root: ""}
            queue = [root]
            hit: Optional[str] = None
            while queue and hit is None:
                node = queue.pop(0)
                for nxt in sorted(eager_adj.get(node, ())):
                    if nxt in parents:
                        continue
                    parents[nxt] = node
                    if _prefixed(nxt, dst_prefix):
                        hit = nxt
                        break
                    queue.append(nxt)
            if hit is None:
                continue
            chain = [hit]
            while chain[-1] != root:
                chain.append(parents[chain[-1]])
            chain.reverse()
            if len(chain) == 2:
                continue  # direct edge: already reported by RL301 direct
            rel, line = rel_of(root)
            findings.append(
                Finding(
                    "RL301",
                    rel,
                    line,
                    f"{root} reaches {hit} via "
                    f"{' -> '.join(chain)} ({src_prefix} is declared "
                    f"{dst_prefix}-free)",
                )
            )

    # RL302 eager cycles
    for component in _strongly_connected(eager_adj):
        rel, line = rel_of(component[0])
        findings.append(
            Finding(
                "RL302",
                rel,
                line,
                "eager import cycle: " + " <-> ".join(component),
            )
        )
    for edge in edges:
        if edge.kind == EAGER and edge.src == edge.dst:  # pragma: no cover
            rel, _ = rel_of(edge.src)
            findings.append(
                Finding("RL302", rel, edge.line, f"{edge.src} imports itself")
            )

    # RL303 layer ranks
    for edge in edges:
        if edge.kind != EAGER:
            continue
        src_rank = layer_rank(edge.src)
        dst_rank = layer_rank(edge.dst)
        if src_rank is None or dst_rank is None:
            continue
        if dst_rank > src_rank:
            rel, _ = rel_of(edge.src)
            findings.append(
                Finding(
                    "RL303",
                    rel,
                    edge.line,
                    f"{edge.src} (layer {src_rank}) imports {edge.dst} "
                    f"(layer {dst_rank}): imports must not go up the "
                    "layer DAG; use the lazy module-__getattr__ pattern "
                    "if the dependency is genuinely deferred",
                )
            )
    return findings


def check(files: List[SourceFile]) -> List[Finding]:
    src_files = [f for f in files if f.module]
    if not src_files:
        return []
    edges = build_graph(src_files)
    module_files = {f.module: (f.rel, 1) for f in src_files if f.module}
    return check_graph(edges, module_files)
