"""Argument handling for ``repro lint`` (and ``python -m repro.lint``)."""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.baseline import check_baseline, write_baseline
from repro.lint.engine import lint_paths, render_json, render_text

__all__ = ["add_lint_arguments", "run_lint", "main"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the deterministic JSON report instead of text",
    )
    parser.add_argument(
        "--rule", action="append", default=None, metavar="RULE",
        help="restrict to a rule id (C301) or family letter (D); "
             "repeatable",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="compare the suppression budget against this committed "
             "baseline; any drift (new debt OR stale credit) fails",
    )
    parser.add_argument(
        "--write-baseline", default=None, metavar="FILE",
        help="write the current suppression budget as the new baseline "
             "and exit (does not fail on findings)",
    )


def run_lint(args: argparse.Namespace) -> int:
    result = lint_paths(args.paths, rules=args.rule)
    if args.write_baseline:
        write_baseline(result, args.write_baseline)
        print(f"baseline written: {args.write_baseline} "
              f"({len(result.suppressions)} pragma(s))")
        return 0
    print(render_json(result) if args.json else render_text(result))
    exit_code = result.exit_code
    if args.baseline:
        drift = check_baseline(result, args.baseline)
        for msg in drift:
            print(f"baseline: {msg}", file=sys.stderr)
        if drift:
            exit_code = max(exit_code, 1)
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="simlint: static invariant checks for the simulation "
                    "stack (determinism, float-free exact scope, cause "
                    "tags, kernel safety, probe purity, layering)",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
