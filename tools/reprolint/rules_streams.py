"""RL4xx: RandomStreams stream-name discipline.

Two subsystems accidentally sharing a stream name draw from the *same*
generator and silently correlate -- the failure is statistical, so no
test catches it.  The defence is a single declarative table,
``STREAM_REGISTRY`` in ``repro.simulation.rng``, mapping every stream
name to the one module allowed to request it.  This rule module checks
every ``<streams>.get("...")`` call site against that table:

* RL401: the stream name must be a string literal (computed names defeat
  static collision checking);
* RL402: the literal must be registered;
* RL403: the call must come from the registered owner module (prefix
  match, so helpers under the owner package are fine);
* RL404: registry entries no call site uses are dead weight (repo-wide
  scans only);
* RL405: the registry itself is missing or unparseable.

A receiver "looks like" a stream factory when it is a name or attribute
called ``streams``/``_streams``/``random_streams`` -- the project-wide
naming convention for :class:`repro.simulation.rng.RandomStreams`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .core import Finding, SourceFile, dict_key_line, dotted_name

#: Repo-relative path of the registry module.
REGISTRY_PATH = "src/repro/simulation/rng.py"

#: Receiver names treated as RandomStreams factories.
_STREAMY_NAMES = {"streams", "_streams", "random_streams"}


def parse_stream_registry(tree: ast.Module) -> Optional[Dict[str, str]]:
    """The ``STREAM_REGISTRY`` dict literal (name -> owner module)."""
    for node in ast.walk(tree):
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not any(
            isinstance(t, ast.Name) and t.id == "STREAM_REGISTRY"
            for t in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            return None
        registry: Dict[str, str] = {}
        for key, val in zip(value.keys, value.values):
            if not (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(val, ast.Constant)
                and isinstance(val.value, str)
            ):
                return None
            registry[key.value] = val.value
        return registry
    return None


def load_registry(
    files: List[SourceFile], repo_root: Path
) -> Tuple[Optional[Dict[str, str]], Optional[Finding]]:
    """Registry from the scanned files, else from ``repo_root`` on disk."""
    src = next((f for f in files if f.rel == REGISTRY_PATH), None)
    tree: Optional[ast.Module] = None
    if src is not None:
        tree = src.tree
    else:
        path = repo_root / REGISTRY_PATH
        if path.is_file():
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except SyntaxError:
                tree = None
    if tree is None:
        return None, Finding(
            "RL405",
            REGISTRY_PATH,
            1,
            "simulation/rng.py not found or unparseable: cannot check "
            "stream discipline",
        )
    registry = parse_stream_registry(tree)
    if registry is None:
        return None, Finding(
            "RL405",
            REGISTRY_PATH,
            1,
            "STREAM_REGISTRY dict literal (stream name -> owner module) "
            "not found in simulation/rng.py",
        )
    return registry, None


def _is_stream_get(node: ast.Call) -> bool:
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "get"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return receiver.id in _STREAMY_NAMES
    if isinstance(receiver, ast.Attribute):
        return receiver.attr in _STREAMY_NAMES
    return False


def check(
    files: List[SourceFile],
    repo_root: Path,
    *,
    repo_mode: bool = True,
) -> List[Finding]:
    findings: List[Finding] = []
    registry, registry_finding = load_registry(files, repo_root)
    if registry_finding is not None:
        return [registry_finding]
    assert registry is not None

    used: Dict[str, int] = {}
    for src in files:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call) or not _is_stream_get(node):
                continue
            if not node.args:
                continue
            arg = node.args[0]
            if not (
                isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            ):
                findings.append(
                    Finding(
                        "RL401",
                        src.rel,
                        node.lineno,
                        "RandomStreams stream name must be a string "
                        "literal so collisions are statically checkable",
                    )
                )
                continue
            name = arg.value
            if name not in registry:
                findings.append(
                    Finding(
                        "RL402",
                        src.rel,
                        node.lineno,
                        f"stream {name!r} is not registered in "
                        "STREAM_REGISTRY (simulation/rng.py)",
                    )
                )
                continue
            used[name] = used.get(name, 0) + 1
            owner = registry[name]
            module = src.module or ""
            if not (module == owner or module.startswith(owner + ".")):
                findings.append(
                    Finding(
                        "RL403",
                        src.rel,
                        node.lineno,
                        f"stream {name!r} is registered to {owner}; "
                        f"requesting it from {module or src.rel} would "
                        "correlate draws across subsystems",
                    )
                )

    if repo_mode:
        registry_src = next(
            (f for f in files if f.rel == REGISTRY_PATH), None
        )
        for name in sorted(set(registry) - set(used)):
            findings.append(
                Finding(
                    "RL404",
                    REGISTRY_PATH,
                    1 if registry_src is None else dict_key_line(
                        registry_src.tree, name
                    ),
                    f"registered stream {name!r} has no call site in the "
                    "scanned sources: remove the dead entry",
                )
            )
    return findings
