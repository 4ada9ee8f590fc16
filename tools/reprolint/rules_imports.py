"""RL002: imported names that the importing module never uses.

A name bound by ``import`` or ``from ... import`` counts as used when the
module reads it anywhere (at any scope), lists it in ``__all__``, names
it inside a string annotation, or takes a parameter of that name (pytest
injects fixtures by parameter name, so a test module imports a fixture
it never reads).  Every import in an ``__init__.py`` is a re-export, and
``from __future__`` imports are directives, so neither is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .core import Finding, SourceFile


def _bindings(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.partition(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name, node.lineno)


def _string_annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names inside the string constants of an annotation."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for sub in ast.walk(parsed):
                if isinstance(sub, ast.Name):
                    yield sub.id


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        annotation = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, ast.AnnAssign):
            annotation = node.annotation
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                for item in ast.walk(node.value):
                    if isinstance(item, ast.Constant) and isinstance(item.value, str):
                        used.add(item.value)
        if annotation is not None:
            used.update(_string_annotation_names(annotation))
    return used


def check(files: Sequence[SourceFile]) -> List[Finding]:
    findings: List[Finding] = []
    for src in files:
        if Path(src.rel).name == "__init__.py":
            continue
        used = _used_names(src.tree)
        first_line: Dict[str, int] = {}
        for name, line in _bindings(src.tree):
            first_line.setdefault(name, line)
        for name, line in sorted(first_line.items(), key=lambda kv: kv[1]):
            if name not in used:
                findings.append(
                    Finding(
                        code="RL002",
                        path=src.rel,
                        line=line,
                        message=f"imported name {name!r} is never used",
                    )
                )
    return findings
