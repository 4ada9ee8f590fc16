"""Shared linter infrastructure: findings, rule catalogue, pragmas, parsing.

A :class:`SourceFile` is one parsed python file plus the policy flags the
CLI derives from its path (whether it is RNG-exempt, wall-clock-exempt,
or determinism-critical).  Rule modules consume lists of source files and
return :class:`Finding` objects; suppression (``# reprolint:
disable=RLxxx`` pragmas) and ``--select``/``--ignore`` filtering happen
here so every rule module stays oblivious to presentation concerns.
"""

from __future__ import annotations

import ast
import dataclasses
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Rule catalogue: code -> (one-line summary, one-line rationale).
#: ``docs/linting.md`` mirrors this table; ``--list-rules`` prints it.
RULES: Dict[str, Tuple[str, str]] = {
    "RL001": (
        "file does not parse",
        "a syntax error hides every other invariant",
    ),
    "RL002": (
        "imported name never used",
        "a dead import hides the module's real dependencies and keeps "
        "deleted code reachable by name",
    ),
    "RL101": (
        "stdlib `random` imported",
        "ambient global RNG breaks bit-identical replay; use RandomStreams",
    ),
    "RL102": (
        "wall-clock read (time.time/datetime.now/...)",
        "wall-clock values leak irreproducible state into results; "
        "inject a clock (see repro.utils.clock)",
    ),
    "RL103": (
        "entropy source (uuid/os.urandom/secrets)",
        "OS entropy is unseedable; derive ids from config instead",
    ),
    "RL104": (
        "direct numpy RNG outside simulation/rng.py",
        "generators must come from named RandomStreams streams so adding "
        "a consumer never perturbs existing draws",
    ),
    "RL110": (
        "iteration over a set without sorted() in determinism-critical code",
        "set order depends on insertion history and hash salting; event "
        "scheduling and tree construction must iterate in sorted order",
    ),
    "RL201": (
        "config-dataclass binding that is not a hashed field",
        "a class-level knob bypasses _canonical and aliases cache keys",
    ),
    "RL202": (
        "invalid HASH_OMIT_WHEN_UNSET entry",
        "omit-when-unset only works for declared fields defaulting to None",
    ),
    "RL203": (
        "object.__setattr__ on an undeclared config attribute",
        "smuggled instance state is invisible to config_hash",
    ),
    "RL210": (
        "config field not reachable from _canonical/config_hash",
        "an unhashed field silently aliases distinct configs to one cache "
        "entry (add it to HASH_EXEMPT only with a written rationale)",
    ),
    "RL301": (
        "forbidden cross-layer import",
        "scenarios.{spec,models} must stay experiment-free and "
        "metrics/network/mac/energy must never import experiments",
    ),
    "RL302": (
        "eager import cycle",
        "cycles make module initialisation order-dependent; break them "
        "with the sanctioned lazy module-__getattr__ pattern",
    ),
    "RL303": (
        "import against the declared layer DAG",
        "upward imports entangle low layers with experiment orchestration",
    ),
    "RL401": (
        "RandomStreams stream name is not a string literal",
        "computed stream names defeat static collision checking",
    ),
    "RL402": (
        "unregistered RandomStreams stream name",
        "every stream must be declared in STREAM_REGISTRY "
        "(simulation/rng.py) so collisions are impossible",
    ),
    "RL403": (
        "stream used outside its registered owner module",
        "two subsystems sharing a stream name silently correlate draws",
    ),
    "RL404": (
        "registered stream never used",
        "dead registry entries hide real collisions behind noise",
    ),
    "RL405": (
        "STREAM_REGISTRY missing or unparseable",
        "the stream table is the single source of truth for RL4xx",
    ),
    "RL501": (
        "metric/trace name is not a string literal",
        "computed names defeat static collision checking",
    ),
    "RL502": (
        "unregistered metric name",
        "every metric must be declared in METRIC_CATALOGUE "
        "(obs/catalogue.py) so spelling drift is impossible",
    ),
    "RL503": (
        "unregistered trace category",
        "every tracer category must be declared in TRACE_CATALOGUE "
        "(obs/catalogue.py) so spelling drift is impossible",
    ),
    "RL504": (
        "clock read inside a metric/trace call argument",
        "measured time in a recorded payload poisons determinism "
        "comparisons; timings belong to the phase profiler",
    ),
    "RL505": (
        "HASH_EXCLUDE field without a HASH_EXEMPT rationale",
        "an unconditional hash exclusion is indistinguishable from a "
        "hashing bug unless justified in experiments/batch.py",
    ),
    "RL506": (
        "obs catalogue missing or unparseable",
        "the catalogue tables are the single source of truth for RL5xx",
    ),
    "RL507": (
        "catalogued metric/trace name never emitted",
        "dead catalogue entries document observables that no longer exist",
    ),
}

_PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)=([A-Z0-9,\s]*)"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule violation at a specific location."""

    code: str
    path: str  # repo-relative posix path
    line: int
    message: str

    @property
    def sort_key(self) -> Tuple[str, int, str]:
        return (self.path, self.line, self.code)

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


@dataclasses.dataclass
class SourceFile:
    """A parsed source file plus the path-derived lint policy flags."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    #: module dotted name when the file lives under ``src/`` (else None)
    module: Optional[str] = None
    #: skip RL101/RL103/RL104 (the sanctioned RNG module)
    rng_exempt: bool = False
    #: skip RL102 (the sanctioned wall-clock module)
    clock_exempt: bool = False
    #: apply RL110 (simulation/, network/, scenarios/models.py)
    determinism_critical: bool = False
    #: per-line pragma patterns: line -> {"RL104", ...}
    line_pragmas: Dict[int, Set[str]] = dataclasses.field(default_factory=dict)
    #: file-wide pragma patterns
    file_pragmas: Set[str] = dataclasses.field(default_factory=set)


def parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract ``# reprolint: disable[-file]=...`` pragmas from source."""
    line_pragmas: Dict[int, Set[str]] = {}
    file_pragmas: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        codes = {c.strip() for c in match.group(2).split(",") if c.strip()}
        if not codes:
            continue
        if match.group(1) == "disable-file":
            file_pragmas |= codes
        else:
            line_pragmas.setdefault(lineno, set()).update(codes)
    return line_pragmas, file_pragmas


def load_source_file(
    path: Path, repo_root: Path
) -> Tuple[Optional[SourceFile], Optional[Finding]]:
    """Parse ``path``; returns ``(source_file, None)`` or ``(None, RL001)``."""
    try:
        rel = path.resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            code="RL001",
            path=rel,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
        )
    module = None
    parts = Path(rel).parts
    if parts and parts[0] == "src" and rel.endswith(".py"):
        mod_parts = list(parts[1:])
        mod_parts[-1] = mod_parts[-1][: -len(".py")]
        if mod_parts[-1] == "__init__":
            mod_parts.pop()
        if mod_parts:
            module = ".".join(mod_parts)
    line_pragmas, file_pragmas = parse_pragmas(source)
    return (
        SourceFile(
            path=path,
            rel=rel,
            source=source,
            tree=tree,
            module=module,
            line_pragmas=line_pragmas,
            file_pragmas=file_pragmas,
        ),
        None,
    )


def code_matches(code: str, patterns: Sequence[str]) -> bool:
    """Prefix matching: ``RL1`` selects the whole RL1xx family."""
    return any(code == p or code.startswith(p) for p in patterns if p)


def apply_pragmas(
    findings: Sequence[Finding], files: Sequence[SourceFile]
) -> Tuple[List[Finding], int]:
    """Drop findings suppressed by pragmas; returns (kept, n_suppressed)."""
    by_rel = {f.rel: f for f in files}
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        src = by_rel.get(finding.path)
        if src is not None:
            patterns = set(src.file_pragmas)
            patterns |= src.line_pragmas.get(finding.line, set())
            if patterns and code_matches(finding.code, sorted(patterns)):
                suppressed += 1
                continue
        kept.append(finding)
    return kept, suppressed


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dict_key_line(tree: ast.Module, key: str) -> int:
    """Line of ``key`` in the first assigned dict literal holding it (else 1)."""
    for node in ast.walk(tree):
        value = None
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
        if isinstance(value, ast.Dict):
            for k in value.keys:
                if isinstance(k, ast.Constant) and k.value == key:
                    return k.lineno
    return 1
