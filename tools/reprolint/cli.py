"""Command-line entry point: ``python -m tools.reprolint``.

Run from the repository root.  With no paths, lints ``src/repro`` and
``tools`` (the linter lints itself; its intentionally-bad self-test
corpus is excluded).  Exit status: 0 clean, 1 findings, 2 usage or
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from tools._common import REPO_ROOT, bootstrap

from . import core
from . import (
    rules_determinism,
    rules_hashcov,
    rules_imports,
    rules_layering,
    rules_obs,
    rules_streams,
)
from .core import Finding, SourceFile

#: Modules exempt from RL101/RL103/RL104: the one sanctioned RNG module.
RNG_EXEMPT = {"src/repro/simulation/rng.py"}

#: Modules exempt from RL102: the one sanctioned wall-clock accessor.
CLOCK_EXEMPT = {"src/repro/utils/clock.py"}

#: Where RL110 (unsorted set iteration) applies: event scheduling, tree
#: construction, scenario models, and the experiment runner's epoch loop.
DETERMINISM_CRITICAL_PREFIXES = (
    "src/repro/simulation/",
    "src/repro/network/",
)
DETERMINISM_CRITICAL_FILES = {
    "src/repro/scenarios/models.py",
    "src/repro/experiments/runner.py",
}

#: Path fragments never scanned.
EXCLUDED_PARTS = {"__pycache__"}
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

DEFAULT_TARGETS = ("src/repro", "tools")


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    out: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            out.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if EXCLUDED_PARTS.intersection(sub.parts):
                    continue
                try:
                    sub.resolve().relative_to(CORPUS_DIR)
                    continue  # the intentionally-bad corpus
                except ValueError:
                    pass
                out.append(sub)
    return out


def _apply_policy(src: SourceFile) -> SourceFile:
    src.rng_exempt = src.rel in RNG_EXEMPT
    src.clock_exempt = src.rel in CLOCK_EXEMPT
    src.determinism_critical = src.rel.startswith(
        DETERMINISM_CRITICAL_PREFIXES
    ) or src.rel in DETERMINISM_CRITICAL_FILES
    # Corpus snippets passed explicitly are linted under the strictest
    # policy so every known-bad fixture fails from the CLI too.
    try:
        src.path.resolve().relative_to(CORPUS_DIR)
        src.determinism_critical = True
    except ValueError:
        pass
    return src


def lint_paths(
    paths: Sequence[Path],
    repo_root: Path,
    *,
    dynamic: bool = True,
) -> Tuple[List[Finding], List[SourceFile], int]:
    """Lint the given paths; returns (findings, files, n_suppressed)."""
    findings: List[Finding] = []
    files: List[SourceFile] = []
    for path in _iter_python_files(paths):
        src, parse_finding = core.load_source_file(path, repo_root)
        if parse_finding is not None:
            findings.append(parse_finding)
            continue
        assert src is not None
        files.append(_apply_policy(src))

    repo_mode = any(f.rel.startswith("src/repro/") for f in files)
    findings.extend(rules_imports.check(files))
    findings.extend(rules_determinism.check(files))
    findings.extend(rules_hashcov.check(files, dynamic=dynamic and repo_mode))
    findings.extend(rules_layering.check(files))
    findings.extend(
        rules_streams.check(files, repo_root, repo_mode=repo_mode)
    )
    findings.extend(rules_obs.check(files, repo_root, repo_mode=repo_mode))
    findings, suppressed = core.apply_pragmas(findings, files)
    return sorted(findings, key=lambda f: f.sort_key), files, suppressed


def _filter_selection(
    findings: Sequence[Finding],
    select: Optional[Sequence[str]],
    ignore: Sequence[str],
) -> List[Finding]:
    out = []
    for finding in findings:
        if select and not core.code_matches(finding.code, select):
            continue
        if ignore and core.code_matches(finding.code, ignore):
            continue
        out.append(finding)
    return out


def _parse_codes(raw: Optional[Sequence[str]]) -> List[str]:
    codes: List[str] = []
    for chunk in raw or ():
        codes.extend(c.strip() for c in chunk.split(",") if c.strip())
    return codes


def _render(
    findings: Sequence[Finding],
    suppressed: int,
    n_files: int,
    fmt: str,
) -> str:
    if fmt == "json":
        return json.dumps(
            {
                "version": 1,
                "count": len(findings),
                "suppressed": suppressed,
                "files": n_files,
                "findings": [f.to_json() for f in findings],
            },
            indent=2,
            sort_keys=True,
        )
    lines = [f.render() for f in findings]
    lines.append(
        f"reprolint: {len(findings)} finding(s), {suppressed} suppressed "
        f"by pragmas, {n_files} file(s) checked"
    )
    return "\n".join(lines)


def _expected_codes(source: str) -> Optional[List[str]]:
    for line in source.splitlines():
        stripped = line.strip()
        if stripped.startswith("# reprolint-corpus:"):
            _, _, spec = stripped.partition("expect=")
            return [c.strip() for c in spec.split(",") if c.strip()]
    return None


def run_self_test(stdout=sys.stdout) -> int:
    """Lint every corpus snippet and compare against its expectations.

    Each ``corpus/*.py`` file declares ``# reprolint-corpus:
    expect=RL101,...`` (empty for known-good snippets); the set of rule
    codes found must match exactly.
    """
    failures = 0
    snippets = sorted(CORPUS_DIR.glob("*.py"))
    if not snippets:
        print("self-test: no corpus snippets found", file=sys.stderr)
        return 2
    for path in snippets:
        expected = _expected_codes(path.read_text(encoding="utf-8"))
        if expected is None:
            print(f"FAIL {path.name}: missing `# reprolint-corpus: expect=`")
            failures += 1
            continue
        src, parse_finding = core.load_source_file(path, REPO_ROOT)
        if parse_finding is not None:
            found = {parse_finding.code}
        else:
            assert src is not None
            src.determinism_critical = True
            findings = []
            findings.extend(rules_imports.check([src]))
            findings.extend(rules_determinism.check([src]))
            findings.extend(rules_hashcov.check([src], dynamic=False))
            findings.extend(
                rules_streams.check([src], REPO_ROOT, repo_mode=False)
            )
            findings.extend(
                rules_obs.check([src], REPO_ROOT, repo_mode=False)
            )
            findings, _ = core.apply_pragmas(findings, [src])
            found = {f.code for f in findings}
        if found == set(expected):
            label = ",".join(sorted(found)) or "clean"
            print(f"ok   {path.name}: {label}", file=stdout)
        else:
            print(
                f"FAIL {path.name}: expected {sorted(expected)}, "
                f"found {sorted(found)}",
                file=stdout,
            )
            failures += 1
    verdict = "passed" if not failures else f"{failures} failure(s)"
    print(f"self-test {verdict} over {len(snippets)} snippets", file=stdout)
    return 0 if not failures else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    bootstrap()
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description=(
            "AST contract linter: unused imports (RL002), determinism "
            "(RL1xx), config hash "
            "coverage (RL2xx), import layering (RL3xx), RNG stream "
            "discipline (RL4xx), observability catalogue discipline "
            "(RL5xx).  See docs/linting.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src/repro and tools)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only report these codes/prefixes (comma-separated, e.g. RL1,RL302)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="drop these codes/prefixes (comma-separated)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--no-dynamic",
        action="store_true",
        help="skip the RL210 dynamic hash-coverage check (no imports)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="lint the known-bad corpus and verify every rule fires",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(core.RULES):
            summary, rationale = core.RULES[code]
            print(f"{code}  {summary}\n       ({rationale})")
        return 0
    if args.self_test:
        return run_self_test()

    targets = [
        Path(p) if Path(p).is_absolute() else REPO_ROOT / p
        for p in (args.paths or DEFAULT_TARGETS)
    ]
    for target in targets:
        if not target.exists():
            print(f"reprolint: no such path: {target}", file=sys.stderr)
            return 2

    findings, files, suppressed = lint_paths(
        targets, REPO_ROOT, dynamic=not args.no_dynamic
    )
    findings = _filter_selection(
        findings, _parse_codes(args.select), _parse_codes(args.ignore)
    )
    print(_render(findings, suppressed, len(files), args.format))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
