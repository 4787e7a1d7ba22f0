"""simlint engine: walk files, run rule families, render the report.

The output is deterministic by construction: files are visited in
sorted order, findings are sorted by location, and the JSON rendering
uses sorted keys — two runs over the same tree produce byte-identical
reports (a property the test suite asserts).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.lint.findings import Finding
from repro.lint.pragmas import parse_pragmas
from repro.lint.rules import ALL_RULES, RULE_IDS
from repro.lint.rules.base import build_context

__all__ = ["LintResult", "LintUsageError", "lint_paths", "render_json",
           "render_text"]


class LintUsageError(ValueError):
    """Arguments that would lint nothing: a path that is neither a
    directory nor a ``.py`` file, or a rule filter that matches no rule."""


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return dict(sorted(out.items()))


def iter_source_files(paths: Sequence[str]) -> list[Path]:
    files: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.update(
                f for f in p.rglob("*.py")
                if "__pycache__" not in f.parts
                and not any(part.startswith(".") for part in f.parts)
            )
        elif not p.exists():
            raise LintUsageError(f"{raw}: no such file or directory")
        elif p.suffix != ".py":
            raise LintUsageError(f"{raw}: not a directory or a .py file")
        else:
            files.add(p)
    return sorted(files)


def _check_rules(rules: Iterable[str]) -> None:
    """Refuse a filter that selects no rule, as :func:`lint_file` selects
    them (its family, then the rule id): it would report a clean run."""
    for r in rules:
        if not any(_family_selected(family, [r]) and _rule_selected(rule, [r])
                   for family, ids in RULE_IDS.items() for rule in ids):
            raise LintUsageError(
                f"unknown rule {r!r}: not a rule id or a family letter "
                f"({', '.join(ALL_RULES)})")


def module_name_for(path: Path) -> str:
    """Dotted module identity inferred from the package structure.

    Walk up while ``__init__.py`` markers continue: ``src/repro/core/
    hybrid.py`` -> ``repro.core.hybrid``.  Files outside any package keep
    their stem (fixtures override identity via ``# simlint: module=``).
    """
    path = path.resolve()
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _display_path(path: Path) -> str:
    try:
        rel = path.resolve().relative_to(Path.cwd())
    except ValueError:
        rel = path
    return rel.as_posix()


def lint_file(path: Path,
              rules: Optional[Iterable[str]] = None) -> LintResult:
    result = LintResult(files_checked=1)
    display = _display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        result.findings.append(Finding(
            path=display, line=1, col=1, rule="E000",
            message=f"cannot read file: {exc}"))
        return result
    pragmas = parse_pragmas(source)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        result.findings.append(Finding(
            path=display, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule="E000", message=f"syntax error: {exc.msg}"))
        return result
    module = pragmas.module_override or module_name_for(path)
    ctx = build_context(display, module, tree, pragmas)
    for family, checker in ALL_RULES.items():
        if rules is not None and not _family_selected(family, rules):
            continue
        result.findings.extend(checker(ctx))
    if rules is not None:
        result.findings = [f for f in result.findings
                           if _rule_selected(f.rule, rules)]
    return result


def _family_selected(family: str, rules: Iterable[str]) -> bool:
    return any(r.upper().startswith(family) for r in rules)


def _rule_selected(rule: str, rules: Iterable[str]) -> bool:
    return any(rule == r.upper() or rule.startswith(r.upper())
               for r in rules)


def lint_paths(paths: Sequence[str],
               rules: Optional[Iterable[str]] = None) -> LintResult:
    """Lint every ``.py`` file under ``paths``; the public entry point.

    Raises :class:`LintUsageError` for a path that does not exist or is
    not a directory or a ``.py`` file, and for an unknown rule filter.
    """
    rules = list(rules) if rules else None
    if rules is not None:
        _check_rules(rules)
    total = LintResult()
    for path in iter_source_files(paths):
        one = lint_file(path, rules)
        total.findings.extend(one.findings)
        total.files_checked += one.files_checked
    total.findings.sort()
    return total


def render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    counts = result.counts_by_rule()
    if counts:
        summary = ", ".join(f"{rule}: {n}" for rule, n in counts.items())
        lines.append("")
        lines.append(
            f"{len(result.findings)} finding(s) in "
            f"{result.files_checked} file(s) ({summary})"
        )
    else:
        lines.append(
            f"clean: {result.files_checked} file(s), 0 findings"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "version": 1,
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in result.findings],
        "counts": result.counts_by_rule(),
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, sort_keys=True, indent=2)
