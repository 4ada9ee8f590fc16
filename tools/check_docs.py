#!/usr/bin/env python
"""Smoke-check the commands embedded in the documentation.

Scans fenced code blocks in ``docs/*.md`` and ``README.md`` for
``python -m <module>`` invocations and verifies that

* every referenced module actually resolves on the import path, and
* every module known to expose an argparse CLI answers ``--help`` with
  exit code 0 (so documented flags can at least parse).

This is what keeps the docs from drifting: renaming or removing a CLI
without updating the docs fails the CI docs job.  Run from the repository
root:

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

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
ARGPARSE_CLIS = {
    "repro",
    "repro.obs.report",
    "benchmarks.bench_engine",
    "benchmarks.bench_scenarios",
    "benchmarks.bench_scale",
    "tools.reprolint",
}

FENCE_RE = re.compile(r"^```")
PYTHON_M_RE = re.compile(r"python\s+-m\s+([A-Za-z_][\w.]*)")


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

    if failures:
        print("\nDOCS CHECK FAILED", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\ndocs check passed: {len(all_modules)} modules verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
