#!/usr/bin/env python
"""Smoke-check the commands and names embedded in the documentation.

Scans fenced code blocks in ``docs/*.md`` and ``README.md`` for
``python -m <module>`` invocations and verifies that

* every referenced module actually resolves on the import path, and
* every module known to expose an argparse CLI answers ``--help`` with
  exit code 0 (so documented flags can at least parse).

It also resolves the names the prose quotes in inline code spans:

* every dotted ``repro.…`` name must import (a module, or an attribute
  of one);
* every ``Class.attr`` whose class is a ``repro`` class must name a class
  attribute, a dataclass field, or an attribute the class (or a base)
  sets with ``self.<attr> =``.

This is what keeps the docs from drifting: renaming or removing a CLI, a
module or a member without updating the docs fails the CI docs job.  Run
from the repository root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

if __package__ in (None, ""):
    # Launched as a script (`python tools/check_docs.py`): make the
    # `tools` package importable before touching tools._common.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools._common import REPO_ROOT, SRC_ROOT, bootstrap

bootstrap()

#: Files scanned for fenced code blocks (repo-relative, resolved against
#: REPO_ROOT so the script works from any working directory).
DOC_FILES = sorted(
    p.relative_to(REPO_ROOT) for p in (REPO_ROOT / "docs").glob("*.md")
) + [Path("README.md")]

#: Modules with an argparse entry point: ``--help`` must exit 0.
ARGPARSE_CLIS = {"repro", "tools.reprolint"}

FENCE_RE = re.compile(r"^```")
PYTHON_M_RE = re.compile(r"python\s+-m\s+([A-Za-z_][\w.]*)")

#: An inline code span (single or double backticks), and the two kinds of
#: names resolved inside one.
SPAN_RE = re.compile(r"(`+)(.+?)\1", re.S)
DOTTED_RE = re.compile(r"(?<![\w.])repro(?:\.\w+)+")
CLASS_ATTR_RE = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")


def extract_modules(path: Path) -> set:
    """All ``python -m`` targets inside the file's fenced code blocks."""
    modules = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            continue
        if in_fence:
            for match in PYTHON_M_RE.finditer(line):
                modules.add(match.group(1))
    return modules


def prose(path: Path) -> str:
    """The file's text outside fenced code blocks."""
    kept = []
    in_fence = False
    for line in path.read_text().splitlines():
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
        elif not in_fence:
            kept.append(line)
    return "\n".join(kept)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module or an attribute path of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def repro_classes() -> Dict[str, List[type]]:
    """Every class defined in the ``repro`` package, by name."""
    import repro

    classes: Dict[str, List[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(obj.__name__, []).append(obj)
    return classes


def self_attributes(cls: type) -> Set[str]:
    """Attributes the class body assigns as ``self.<attr>``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names = set()
    for node in ast.walk(tree):
        targets: Iterable[ast.AST] = ()
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                names.add(target.attr)
    return names


def has_member(cls: type, attr: str) -> bool:
    """A class attribute, dataclass field or ``self.<attr>`` of the MRO."""
    if hasattr(cls, attr):
        return True
    for base in cls.__mro__:
        if not base.__module__.startswith("repro"):
            continue
        if dataclasses.is_dataclass(base) and attr in {
            field.name for field in dataclasses.fields(base)
        }:
            return True
        if attr in self_attributes(base):
            return True
    return False


def quoted_names(docs: Iterable[Path]) -> Tuple[Set[str], Dict[str, Set[str]]]:
    """The quoted ``repro.…`` and ``Class.attr`` names (of ``repro``
    classes) in ``docs``, and those that resolve to nothing -> the docs
    quoting them."""
    classes = repro_classes()
    checked: Set[str] = set()
    missing: Dict[str, Set[str]] = {}
    for doc in docs:
        for span in SPAN_RE.finditer(prose(REPO_ROOT / doc)):
            text = span.group(2)
            for name in DOTTED_RE.findall(text):
                checked.add(name)
                if not resolves(name):
                    missing.setdefault(name, set()).add(str(doc))
            for owner, attr in CLASS_ATTR_RE.findall(text):
                if owner not in classes:
                    continue
                name = f"{owner}.{attr}"
                checked.add(name)
                if not any(has_member(cls, attr) for cls in classes[owner]):
                    missing.setdefault(name, set()).add(str(doc))
    return checked, missing


def main() -> int:
    failures = []
    all_modules = {}
    for doc in DOC_FILES:
        path = REPO_ROOT / doc
        if not path.is_file():
            failures.append(f"{doc}: documented file is missing")
            continue
        for module in extract_modules(path):
            all_modules.setdefault(module, []).append(str(doc))

    if not all_modules:
        failures.append("no `python -m` commands found in any doc -- "
                        "is the fence scanning broken?")

    for module, sources in sorted(all_modules.items()):
        try:
            spec = importlib.util.find_spec(module)
        except ModuleNotFoundError:
            spec = None
        if spec is None:
            failures.append(
                f"module {module!r} (referenced by {', '.join(sources)}) "
                "does not resolve"
            )
            continue
        print(f"ok: {module} resolves ({', '.join(sources)})")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT), str(REPO_ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for module in sorted(ARGPARSE_CLIS & set(all_modules)):
        proc = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        if proc.returncode != 0:
            failures.append(
                f"`python -m {module} --help` exited {proc.returncode}:\n"
                f"{proc.stderr.strip()}"
            )
        else:
            print(f"ok: {module} --help")

    missing_clis = ARGPARSE_CLIS - set(all_modules)
    if missing_clis:
        failures.append(
            "documented CLIs no longer mentioned anywhere in the docs: "
            + ", ".join(sorted(missing_clis))
        )

    checked, missing = quoted_names(DOC_FILES)
    for name, sources in sorted(missing.items()):
        failures.append(
            f"`{name}` (quoted by {', '.join(sorted(sources))}) names "
            "nothing that exists"
        )
    if not missing:
        print(f"ok: {len(checked)} quoted repro names resolve")

    if failures:
        print("\nDOCS CHECK FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\ndocs check passed: {len(all_modules)} modules verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
