"""The reprolint runner: collect files, run rules, report findings.

Dependency-free by design — stdlib only — so ``python -m repro.devtools``
works in any environment that can parse the source tree, including CI
images without numpy/scipy installed.

Exit codes: 0 when no findings, 1 when findings were reported, 2 on
usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.devtools.context import FileContext, Project
from repro.devtools.findings import Finding
from repro.devtools.registry import RULES, Rule, all_rules, register_rule

__all__ = ["collect_files", "lint_paths", "lint_project", "main"]


@register_rule
class UnjustifiedSuppression(Rule):
    """Meta-rule: the findings are emitted by the runner itself (a
    suppression directive must not be able to suppress this check)."""

    id = "RPL001"
    title = "file-level suppressions carry a `-- justification`"

_CHECKS_LOADED = False


def _load_builtin_checks() -> None:
    """Import the built-in checker families (registers their rules)."""
    global _CHECKS_LOADED
    if _CHECKS_LOADED:
        return
    import repro.devtools.checks  # noqa: F401  (import registers rules)

    _CHECKS_LOADED = True


def _rel_display(path: Path) -> str:
    """Scope path for ``path``: posix-style, rooted at the innermost
    ``repro`` package directory when the file lives inside one.

    This makes rule scoping (``repro/core/algorithms/``) work both for
    the real tree under ``src/repro/`` and for test fixture trees like
    ``tests/devtools/fixtures/determinism/repro/core/algorithms/bad.py``.
    """
    parts = path.as_posix().split("/")
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.as_posix()


def collect_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(p for p in path.rglob("*.py") if p.is_file())
        elif path.is_file():
            out.add(path)
    return sorted(out)


def _find_repo_root(start: Path) -> Path | None:
    """Walk up from ``start`` looking for the repository root (the
    directory holding ``docs/observability.md`` or ``.git``)."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    while True:
        if (current / "docs" / "observability.md").is_file() or (current / ".git").exists():
            return current
        if current.parent == current:
            return None
        current = current.parent


def lint_project(
    project: Project, select: set[str] | None = None
) -> tuple[list[Finding], list[str]]:
    """Run all registered rules over ``project``.

    Returns ``(findings, errors)`` where ``errors`` are non-finding
    problems (unknown rule ids in ``--select``).
    """
    _load_builtin_checks()
    errors: list[str] = []
    if select:
        unknown = select - set(RULES)
        if unknown:
            errors.append(f"unknown rule id(s): {', '.join(sorted(unknown))}")
    rules = [r for r in all_rules() if select is None or r.id in select]

    findings: list[Finding] = []
    for rule in rules:
        for ctx in project.files:
            if rule.applies(ctx):
                findings.extend(rule.check_file(ctx))
        findings.extend(rule.check_project(project))

    # RPL001: file-level suppressions must carry a justification.  The
    # directive itself cannot be suppressed away silently.
    if select is None or "RPL001" in select:
        for ctx in project.files:
            for line, rules_set in ctx.suppressions.unjustified:
                findings.append(
                    ctx.finding(
                        "RPL001",
                        line,
                        "file-level suppression of "
                        f"{', '.join(sorted(rules_set))} lacks a justification",
                        hint='append " -- <why this file is exempt>" to the directive',
                    )
                )

    kept = [
        f
        for f in findings
        if f.rule == "RPL001"
        or not _suppressed(project, f)
    ]
    return sorted(set(kept)), errors


def _suppressed(project: Project, finding: Finding) -> bool:
    for ctx in project.files:
        if ctx.rel == finding.path:
            return ctx.suppressions.is_suppressed(finding.rule, finding.line)
    return False


def lint_paths(
    paths: list[Path],
    select: set[str] | None = None,
    repo_root: Path | None = None,
) -> tuple[list[Finding], list[str]]:
    """Lint files/directories.  Parse failures become errors, not crashes."""
    files = collect_files(paths)
    contexts: list[FileContext] = []
    errors: list[str] = []
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(FileContext(path, _rel_display(path), source))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"{path}: cannot lint: {exc}")
    if repo_root is None and paths:
        repo_root = _find_repo_root(paths[0])
    findings, rule_errors = lint_project(Project(contexts, repo_root), select)
    return findings, errors + rule_errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="reprolint: AST checks for the repo's determinism, "
        "locking, telemetry and ask/tell contracts",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: src/ under the repo root, else .)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        # Downstream consumer (`... | head`) closed the pipe: not an
        # error.  Redirect stdout to devnull so interpreter shutdown
        # does not raise a second time while flushing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _run(args: argparse.Namespace) -> int:
    _load_builtin_checks()
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.title}")
        return 0

    paths = list(args.paths)
    if not paths:
        root = _find_repo_root(Path.cwd())
        if root is not None and (root / "src").is_dir():
            paths = [root / "src"]
        else:
            paths = [Path(".")]

    select = None
    if args.select:
        select = {token.strip() for token in args.select.split(",") if token.strip()}

    findings, errors = lint_paths(paths, select)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)

    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            print(f"\n{len(findings)} finding(s)")

    if errors:
        return 2
    return 1 if findings else 0
