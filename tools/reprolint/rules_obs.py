"""RL5xx: observability-catalogue discipline.

Observability has the same silent-collision failure mode as random
streams: two call sites incrementing subtly different spellings of one
counter produce two half-counts no test catches, and a wall-clock value
smuggled into a metric payload poisons determinism comparisons.  The
defence mirrors RL4xx: the declarative tables in
``repro.obs.catalogue`` (``METRIC_CATALOGUE`` / ``TRACE_CATALOGUE``) are
the single source of truth, and every call site is checked statically:

* RL501: metric names and trace categories must be string literals;
* RL502: a metric name must be registered in ``METRIC_CATALOGUE``;
* RL503: a trace category must be registered in ``TRACE_CATALOGUE``;
* RL504: no clock-read call may appear inside a metric/trace call's
  arguments (durations belong in the phase profiler, whose output never
  enters anything hashed);
* RL505: every field a config dataclass lists in ``HASH_EXCLUDE`` must
  have a matching ``ClassName.field`` rationale entry in
  ``repro.experiments.batch.HASH_EXEMPT`` -- an exclusion without a
  written justification is indistinguishable from a hashing bug;
* RL506: the obs catalogue itself is missing or unparseable;
* RL507: a catalogue entry that no ``src/`` call site emits is dead
  (repo-wide scans only; the mirror of RL404 for streams).

A receiver "looks like" a metrics registry when it is a name or
attribute called ``metrics``/``_metrics`` and the method is one of
``inc``/``gauge_set``/``observe``; a tracer when it is called
``tracer``/``_tracer`` with method ``record`` -- the project-wide naming
conventions for :class:`repro.obs.metrics.MetricsRegistry` and
:class:`repro.simulation.trace.Tracer`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .core import Finding, SourceFile, dict_key_line, dotted_name
from .rules_hashcov import parse_hash_exempt

#: Repo-relative path of the catalogue module.
CATALOGUE_PATH = "src/repro/obs/catalogue.py"

#: Repo-relative path of the module declaring ``HASH_EXEMPT``.
BATCH_PATH = "src/repro/experiments/batch.py"

#: Receiver names treated as MetricsRegistry instances.
_METRICSY_NAMES = {"metrics", "_metrics"}

#: MetricsRegistry methods taking a metric name as first argument.
_METRIC_METHODS = {"inc", "gauge_set", "observe"}

#: Receiver names treated as Tracer instances.
_TRACERY_NAMES = {"tracer", "_tracer"}

#: Call names that read a clock; none may appear inside a metric/trace
#: call's arguments (RL102 bans the wall-clock ones everywhere in
#: determinism-critical code, but the monotonic ones are sanctioned for
#: profiling -- just never inside a recorded payload).
_CLOCK_CALLS = {
    "time",
    "time_ns",
    "perf_counter",
    "monotonic",
    "process_time",
    "now",
    "utcnow",
    "today",
    "mono_now",
    "wall_now",
}


def parse_catalogue(
    tree: ast.Module, table_name: str
) -> Optional[Set[str]]:
    """The keys of the ``table_name`` dict literal (name -> description)."""
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == table_name for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return None
        names: Set[str] = set()
        for key in value.keys:
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            names.add(key.value)
        return names
    return None


def _load_tree(
    files: List[SourceFile], repo_root: Path, rel: str
) -> Optional[ast.Module]:
    src = next((f for f in files if f.rel == rel), None)
    if src is not None:
        return src.tree
    path = repo_root / rel
    if path.is_file():
        try:
            return ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError:
            return None
    return None


def load_catalogues(
    files: List[SourceFile], repo_root: Path
) -> Tuple[Optional[Set[str]], Optional[Set[str]], Optional[Finding]]:
    """(metric names, trace categories) from the scanned files or disk."""
    tree = _load_tree(files, repo_root, CATALOGUE_PATH)
    if tree is None:
        return None, None, Finding(
            "RL506",
            CATALOGUE_PATH,
            1,
            "obs/catalogue.py not found or unparseable: cannot check "
            "metric/trace name discipline",
        )
    metric_names = parse_catalogue(tree, "METRIC_CATALOGUE")
    trace_names = parse_catalogue(tree, "TRACE_CATALOGUE")
    if metric_names is None or trace_names is None:
        return None, None, Finding(
            "RL506",
            CATALOGUE_PATH,
            1,
            "METRIC_CATALOGUE / TRACE_CATALOGUE dict literals (name -> "
            "description) not found in obs/catalogue.py",
        )
    return metric_names, trace_names, None


def _receiver_named(node: ast.expr, names: Set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return False


def _metric_call(node: ast.Call) -> Optional[int]:
    """Index of the metric-name argument, or ``None`` if not a metric call."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS):
        return None
    return 0 if _receiver_named(func.value, _METRICSY_NAMES) else None


def _trace_call(node: ast.Call) -> Optional[int]:
    """Index of the category argument, or ``None`` if not a tracer call."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "record"):
        return None
    return 1 if _receiver_named(func.value, _TRACERY_NAMES) else None


def _clock_reads(call: ast.Call) -> List[ast.Call]:
    """Clock-reading calls nested anywhere in ``call``'s arguments."""
    reads: List[ast.Call] = []
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for node in ast.walk(arg):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            if name.rsplit(".", 1)[-1] in _CLOCK_CALLS:
                reads.append(node)
    return reads


def _check_hash_exclude(
    src: SourceFile, exempt: Set[str]
) -> List[Finding]:
    """RL505: HASH_EXCLUDE entries need a HASH_EXEMPT rationale."""
    findings: List[Finding] = []
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "HASH_EXCLUDE"
                for t in stmt.targets
            ):
                continue
            try:
                entries = ast.literal_eval(stmt.value)
            except (ValueError, TypeError):
                entries = None
            if not isinstance(entries, (tuple, list)) or not all(
                isinstance(e, str) for e in (entries or ())
            ):
                findings.append(
                    Finding(
                        "RL505",
                        src.rel,
                        stmt.lineno,
                        f"{node.name}.HASH_EXCLUDE must be a literal "
                        "tuple/list of field-name strings",
                    )
                )
                continue
            for field in entries:
                qualified = f"{node.name}.{field}"
                if qualified not in exempt:
                    findings.append(
                        Finding(
                            "RL505",
                            src.rel,
                            stmt.lineno,
                            f"HASH_EXCLUDE field {qualified!r} has no "
                            "matching entry in experiments/batch.py "
                            "HASH_EXEMPT: every unconditional hash "
                            "exclusion needs a written rationale",
                        )
                    )
    return findings


def check(
    files: List[SourceFile],
    repo_root: Path,
    *,
    repo_mode: bool = True,
) -> List[Finding]:
    findings: List[Finding] = []
    metric_names, trace_names, catalogue_finding = load_catalogues(
        files, repo_root
    )
    if catalogue_finding is not None:
        return [catalogue_finding]
    assert metric_names is not None and trace_names is not None

    exempt: Set[str] = set()
    batch_tree = _load_tree(files, repo_root, BATCH_PATH)
    if batch_tree is not None:
        parsed = parse_hash_exempt(batch_tree)
        if parsed is not None:
            exempt = parsed

    emitted: Dict[str, Set[str]] = {"metric name": set(), "trace category": set()}
    for src in files:
        findings.extend(_check_hash_exclude(src, exempt))
        in_src = src.rel.startswith("src/")
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            metric_idx = _metric_call(node)
            trace_idx = _trace_call(node)
            if metric_idx is None and trace_idx is None:
                continue
            for read in _clock_reads(node):
                findings.append(
                    Finding(
                        "RL504",
                        src.rel,
                        read.lineno,
                        "clock read inside a metric/trace call argument: "
                        "measured time must never enter a recorded "
                        "payload (use the phase profiler)",
                    )
                )
            idx = metric_idx if metric_idx is not None else trace_idx
            kind = "metric name" if metric_idx is not None else "trace category"
            if idx >= len(node.args):
                continue  # e.g. keyword-only call forms; nothing to check
            arg = node.args[idx]
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                findings.append(
                    Finding(
                        "RL501",
                        src.rel,
                        node.lineno,
                        f"{kind} must be a string literal so spelling "
                        "collisions are statically checkable",
                    )
                )
                continue
            name = arg.value
            if in_src:
                emitted[kind].add(name)
            if metric_idx is not None and name not in metric_names:
                findings.append(
                    Finding(
                        "RL502",
                        src.rel,
                        node.lineno,
                        f"metric {name!r} is not registered in "
                        "METRIC_CATALOGUE (obs/catalogue.py)",
                    )
                )
            elif trace_idx is not None and name not in trace_names:
                findings.append(
                    Finding(
                        "RL503",
                        src.rel,
                        node.lineno,
                        f"trace category {name!r} is not registered in "
                        "TRACE_CATALOGUE (obs/catalogue.py)",
                    )
                )

    if repo_mode:
        catalogue_tree = _load_tree(files, repo_root, CATALOGUE_PATH)
        for kind, names in (
            ("metric name", metric_names),
            ("trace category", trace_names),
        ):
            for name in sorted(names - emitted[kind]):
                findings.append(
                    Finding(
                        "RL507",
                        CATALOGUE_PATH,
                        dict_key_line(catalogue_tree, name),
                        f"catalogued {kind} {name!r} has no emitting call "
                        "site under src/: remove the dead entry",
                    )
                )
    return findings
