"""Command-line front end.

Exposes the evaluation harness and one-off migration runs without writing
Python::

    python -m repro.cli table1
    python -m repro.cli fig1
    python -m repro.cli fig2 [--approach postcopy]
    python -m repro.cli fig3
    python -m repro.cli fig4
    python -m repro.cli fig5 [--grid 8x8]
    python -m repro.cli single --approach our-approach --workload ior
    python -m repro.cli compare --workload asyncwr
    python -m repro.cli analyze trace.json [--json out.json] [--html out.html]
    python -m repro.cli profile [--speedscope prof.json] [--check]
    python -m repro.cli diff runA.json runB.json [--json] [--top 5]
    python -m repro.cli series fig2-series.json [--json] [--csv]
    python -m repro.cli lint [src] [--json] [--rule D]
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.registry import APPROACHES
from repro.experiments.config import IOR_MAX_READ, IOR_MAX_WRITE
from repro.experiments.runner import render_table
from repro.experiments.scenarios import run_single_migration

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by the run-something subcommands."""
    p.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write an execution trace (.json = Chrome/Perfetto trace "
             "format, .jsonl = one event per line)",
    )
    p.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write per-run counters/gauges/histograms as JSON",
    )
    p.add_argument(
        "--trace-detail", choices=["normal", "full"], default="normal",
        help="'full' additionally records high-frequency events "
             "(process resumes, control messages)",
    )
    p.add_argument(
        "--report", metavar="OUT.html", default=None,
        help="analyze the run's trace and write a self-contained HTML "
             "report (implies tracing, even without --trace)",
    )
    p.add_argument(
        "--causal", action="store_true",
        help="record causal wait edges for critical-path analysis "
             "(repro critical-path TRACE.json); implies tracing",
    )
    p.add_argument(
        "--profile", action="store_true",
        help="self-profile the simulator host process (wall-clock per "
             "subsystem + work counters); never changes simulation output",
    )
    p.add_argument(
        "--profile-out", metavar="OUT.speedscope.json", default=None,
        help="write the host profile as a speedscope flamegraph "
             "(implies --profile)",
    )
    p.add_argument(
        "--series", action="store_true",
        help="record time-resolved telemetry (repro.obs.series); never "
             "changes simulation output",
    )
    p.add_argument(
        "--series-out", metavar="OUT.json", default=None,
        help="write the repro.series/1 time-series document "
             "(implies --series)",
    )


def _add_fault_flags(p: argparse.ArgumentParser) -> None:
    """Fault-injection flags for the migration-running subcommands."""
    p.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject faults from a FaultPlan JSON file (schedule + "
             "timeout/retry knobs; see repro.faults.FaultPlan)",
    )
    p.add_argument(
        "--restarts", type=_at_least(int, 0, "restarts"), default=0,
        help="re-issue an aborted migration up to N extra times",
    )


def _load_faults(args):
    path = getattr(args, "faults", None)
    if path is None:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.from_file(path)


def _make_obs(args):
    """An Observability bundle when any export flag was given, else None."""
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    report = getattr(args, "report", None)
    causal = getattr(args, "causal", False)
    profile = (getattr(args, "profile", False)
               or getattr(args, "profile_out", None) is not None)
    series = (getattr(args, "series", False)
              or getattr(args, "series_out", None) is not None)
    if (trace is None and metrics_out is None and report is None
            and not causal and not profile and not series):
        return None
    from repro.obs import Observability

    return Observability(
        trace=trace is not None or report is not None or causal,
        metrics=metrics_out is not None,
        detail=args.trace_detail,
        causal=causal,
        profile=profile,
        series=series,
    )


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` (creating parent directories) and say
    so on stderr."""
    import pathlib

    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {path}", file=sys.stderr)


def _write_obs(obs, args) -> None:
    if obs is None:
        return
    series_out = getattr(args, "series_out", None)
    obs.write(trace_path=args.trace, metrics_path=args.metrics_out,
              series_path=series_out)
    written = [p for p in (args.trace, args.metrics_out, series_out) if p]
    prof_summary = None
    if obs.profiler is not None:
        from repro.obs.prof import render_profile_text, write_speedscope

        prof_summary = obs.profiler.summary()
        print(render_profile_text(prof_summary), file=sys.stderr)
        profile_out = getattr(args, "profile_out", None)
        if profile_out is not None:
            write_speedscope(prof_summary, profile_out,
                             name=f"repro {args.command}")
            written.append(profile_out)
    series_summary = obs.series.summary() if obs.series is not None else None
    if series_summary is not None and series_out is None:
        from repro.obs.series import render_sparklines

        print(render_sparklines(series_summary), file=sys.stderr)
    report = getattr(args, "report", None)
    if report is not None:
        from repro.obs.analyze import analyze_tracer, render_html

        summary = analyze_tracer(obs.tracer)
        if not summary["conservation_ok"]:
            print("warning: byte-attribution conservation check failed",
                  file=sys.stderr)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    if report is not None:
        _write_text(report, render_html(summary, profile=prof_summary,
                                        series=series_summary))


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, b = text.lower().split("x")
        grid = int(a), int(b)
    except Exception as exc:  # noqa: BLE001 - argparse boundary
        raise argparse.ArgumentTypeError(
            f"grid must look like '4x4', got {text!r}"
        ) from exc
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(
            f"grid sizes must be at least 1, got {text!r}"
        )
    return grid


def _at_least(convert, minimum, what: str):
    """argparse type: ``convert(text)``, rejected below ``minimum`` (and
    NaN) with a usage error instead of a traceback deep in the run."""
    kind = "a whole number" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"{what} must be {kind}, got {text!r}"
            ) from exc
        if not value >= minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be at least {minimum}, got {text!r}"
            )
        return value

    return parse


_parse_warmup = _at_least(float, 0, "warmup")
_parse_seed = _at_least(int, 0, "seed")
_parse_top = _at_least(int, 1, "top")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Hybrid Local Storage Transfer Scheme for "
            "Live Migration of I/O Intensive Workloads' (HPDC'12)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print Table 1 (approach summary)")

    fig1 = sub.add_parser("fig1", help="render the architecture inventory")
    fig1.add_argument("--nodes", type=_at_least(int, 2, "nodes"), default=8,
                      help="compute nodes in the cluster (at least 2)")

    fig2 = sub.add_parser("fig2", help="run + render one migration's phase timeline")
    fig2.add_argument("--approach", choices=sorted(APPROACHES),
                      default="our-approach")
    _add_obs_flags(fig2)

    for fig in ("fig3", "fig4", "fig5"):
        p = sub.add_parser(fig, help=f"regenerate {fig} of the paper")
        if fig == "fig5":
            p.add_argument("--grid", type=_parse_grid, default=(4, 4),
                           help="CM1 rank grid, e.g. 8x8 (default 4x4)")
        _add_obs_flags(p)

    single = sub.add_parser("single", help="one migration under one workload")
    single.add_argument("--approach", choices=sorted(APPROACHES),
                        default="our-approach")
    single.add_argument("--workload", choices=["ior", "asyncwr"], default="ior")
    single.add_argument("--warmup", type=_parse_warmup, default=10.0,
                        help="seconds before the migration request")
    single.add_argument("--seed", type=_parse_seed, default=0)
    _add_obs_flags(single)
    _add_fault_flags(single)

    compare = sub.add_parser(
        "compare", help="run all five approaches on one workload"
    )
    compare.add_argument("--workload", choices=["ior", "asyncwr"], default="ior")
    compare.add_argument("--warmup", type=_parse_warmup, default=10.0)
    compare.add_argument("--seed", type=_parse_seed, default=0)
    compare.add_argument("--diff", action="store_true",
                         help="after the table, attribute each approach's "
                              "delta against our-approach (bytes by cause, "
                              "critical path, migration wall)")
    compare.add_argument("--top", type=_parse_top, default=5,
                         help="contributors per dimension in --diff tables")
    _add_obs_flags(compare)
    _add_fault_flags(compare)

    analyze = sub.add_parser(
        "analyze",
        help="derive per-cause attribution, phase timelines and the chunk "
             "heatmap from a recorded trace",
    )
    analyze.add_argument("trace_file", metavar="TRACE.json",
                         help="trace written by --trace (.json or .jsonl)")
    analyze.add_argument("--json", metavar="OUT.json", default=None,
                         help="write the deterministic JSON summary")
    analyze.add_argument("--html", metavar="OUT.html", default=None,
                         help="write the self-contained HTML report")
    analyze.add_argument("--check", action="store_true",
                         help="exit non-zero unless every run's byte "
                              "attribution conserves exactly")

    cpath = sub.add_parser(
        "critical-path",
        help="explain a migration's wall time: critical-path decomposition "
             "by resource class from a trace recorded with --causal",
    )
    cpath.add_argument("trace_file", metavar="TRACE.json",
                       help="trace written by a run with --causal --trace")
    cpath.add_argument("--json", action="store_true",
                       help="print the deterministic JSON instead of text")
    cpath.add_argument("--what-if", metavar="RES=FACTOR", action="append",
                       default=[], dest="what_if",
                       help="bounded speedup with a resource class sped up, "
                            "e.g. nic=2, net.memory=4, stall.timeout=inf "
                            "(repeatable)")

    profile = sub.add_parser(
        "profile",
        help="self-profile the simulator host process: run fig2 under the "
             "deterministic profiler and print the per-subsystem wall-clock "
             "tree + work counters (see docs/profiling.md)",
    )
    profile.add_argument("--approach", choices=sorted(APPROACHES),
                         default="our-approach")
    profile.add_argument("--seed", type=_parse_seed, default=0)
    profile.add_argument("--alloc", action="store_true",
                         help="also attribute heap allocations via "
                              "tracemalloc (slower)")
    profile.add_argument("--speedscope", metavar="OUT.json", default=None,
                         help="write a speedscope.app-loadable flamegraph")
    profile.add_argument("--collapsed", metavar="OUT.txt", default=None,
                         help="write Brendan-Gregg collapsed stacks "
                              "(flamegraph.pl input)")
    profile.add_argument("--json", metavar="OUT.json", default=None,
                         help="write the raw profile summary as JSON")
    profile.add_argument("--report", metavar="OUT.html", default=None,
                         help="write the flight report HTML with the "
                              "profiler panel embedded")
    profile.add_argument("--check", action="store_true",
                         help="exit non-zero unless exclusive times sum to "
                              "total wall within 1%%")

    diff = sub.add_parser(
        "diff",
        help="attribute the delta between two runs: consumes two artifacts "
             "of the same kind (analyze/critical-path/profile JSON, or "
             "benchmarks/e2e results.json files) and decomposes every "
             "changed total into exactly-conserving per-key contributions",
    )
    diff.add_argument("artifact_a", metavar="A",
                      help="first artifact (the baseline)")
    diff.add_argument("artifact_b", metavar="B",
                      help="second artifact (the candidate)")
    diff.add_argument("--json", metavar="OUT.json", nargs="?", const="-",
                      default=None,
                      help="emit the deterministic JSON document instead of "
                           "the table (to stdout, or to OUT.json)")
    diff.add_argument("--report", metavar="OUT.html", default=None,
                      help="also write a side-by-side HTML delta panel")
    diff.add_argument("--top", type=_parse_top, default=10,
                      help="ranked contributors shown per dimension "
                           "(default 10)")

    series = sub.add_parser(
        "series",
        help="render time-resolved telemetry (sparklines, JSON, CSV) from "
             "a repro.series/1 document or derive it from a trace's "
             "counter events",
    )
    series.add_argument("input", metavar="SERIES-or-TRACE.json",
                        help="document written by --series-out, or a trace "
                             "written by --trace (.json or .jsonl)")
    series.add_argument("--json", metavar="OUT.json", nargs="?", const="-",
                        default=None,
                        help="emit the repro.series/1 document instead of "
                             "sparklines (to stdout, or to OUT.json)")
    series.add_argument("--csv", metavar="OUT.csv", nargs="?", const="-",
                        default=None,
                        help="emit long-form CSV (run,signal,kind,unit,t,"
                             "value) to stdout or OUT.csv")
    series.add_argument("--signal", metavar="GLOB", action="append",
                        default=[], dest="signals",
                        help="only signals matching this glob "
                             "(repeatable, e.g. --signal 'net.*')")
    series.add_argument("--width", type=_at_least(int, 1, "width"),
                        default=60,
                        help="sparkline width in columns (default 60)")

    lint = sub.add_parser(
        "lint",
        help="simlint: static invariant checks (determinism, exactness, "
             "cause tags, kernel safety, probe purity, layering); see "
             "docs/static-analysis.md",
    )
    lint.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                      help="files or directories to lint (default: src)")
    lint.add_argument("--json", action="store_true",
                      help="emit the deterministic JSON report instead of "
                           "text")
    lint.add_argument("--rule", action="append", default=None,
                      metavar="RULE",
                      help="restrict to a rule id (C301) or family letter "
                           "(D); repeatable")

    return parser


def _cmd_profile(args) -> int:
    import json

    from repro.experiments.fig2 import run_fig2
    from repro.obs import Observability, Profiler
    from repro.obs.analyze import analyze_tracer, render_html
    from repro.obs.prof import (
        render_profile_text,
        write_collapsed,
        write_speedscope,
    )

    obs = Observability(trace=True, metrics=False,
                        profile=Profiler(alloc=args.alloc))
    prof = obs.profiler
    with prof.scope("run.fig2"):
        run_fig2(args.approach, seed=args.seed, obs=obs)
    with prof.scope("obs.analyze"):
        summary = analyze_tracer(obs.tracer)
    prof_summary = prof.summary()
    print(f"== repro profile: fig2 ({args.approach}, seed {args.seed})")
    print(render_profile_text(prof_summary))
    if args.speedscope:
        write_speedscope(prof_summary, args.speedscope,
                         name=f"repro profile fig2 ({args.approach})")
        print(f"wrote {args.speedscope}", file=sys.stderr)
    if args.collapsed:
        write_collapsed(prof_summary, args.collapsed)
        print(f"wrote {args.collapsed}", file=sys.stderr)
    if args.json:
        _write_text(args.json,
                    json.dumps(prof_summary, sort_keys=True, indent=1))
    if args.report:
        _write_text(args.report, render_html(summary, profile=prof_summary))
    if args.check and not prof_summary["conservation"]["ok"]:
        print("profile conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _load_trace_or_exit(path: str):
    """Events from a trace file, or ``None`` after printing a one-line
    error (unreadable file / bad JSON must never escape as a traceback)."""
    import json

    from repro.obs.analyze import load_trace

    try:
        return load_trace(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid trace JSON: {exc}",
              file=sys.stderr)
    return None


def _cmd_analyze(args) -> int:
    from repro.obs.analyze import (
        analyze_events,
        render_html,
        render_text,
        write_summary_json,
    )

    events = _load_trace_or_exit(args.trace_file)
    if events is None:
        return 2
    summary = analyze_events(events)
    if not summary["runs"]:
        print(f"error: no recorded runs in {args.trace_file} — record the "
              "trace with --trace (add --causal for critical-path sections, "
              "--profile for host profiling)", file=sys.stderr)
        return 2
    print(render_text(summary))
    if args.json is not None:
        write_summary_json(summary, args.json)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.html is not None:
        _write_text(args.html, render_html(summary))
    if args.check and not summary["conservation_ok"]:
        print("conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_critical_path(args) -> int:
    import json

    from repro.obs.causal import critical_path_summary, parse_what_if

    try:
        specs = [parse_what_if(s) for s in args.what_if]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events = _load_trace_or_exit(args.trace_file)
    if events is None:
        return 2
    out = critical_path_summary(events, specs)
    all_attempts = [a for r in out["runs"] for a in r["attempts"]]
    if not all_attempts:
        print(f"error: no causal records in {args.trace_file} — re-run the "
              "experiment with --causal to record wait edges",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(out, sort_keys=True, separators=(",", ":")))
    else:
        print(_render_critical_text(out))
    if not out["conservation_ok"]:
        print("critical-path conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _render_critical_text(out: dict) -> str:
    lines = []
    for run in out["runs"]:
        if not run["attempts"]:
            continue
        lines.append(f"=== {run['label']} ===")
        for att in run["attempts"]:
            status = " [aborted]" if att["aborted"] else ""
            lines.append(
                f"migration {att['vm']} attempt {att['attempt']}{status}: "
                f"{att['wall_s']:.3f} s "
                f"({att['start_s']:.3f} -> {att['end_s']:.3f})"
            )
            cons = att["conservation"]
            lines.append(
                "  conservation: "
                + ("exact" if cons["exact"]
                   else f"RESIDUAL {cons['residual_s']:g} s")
            )
            lines.append("  critical path by resource:")
            lines.extend(
                f"    {row['resource']:<22s}"
                f"{row['seconds']:>10.3f} s  "
                f"{100 * row['share']:5.1f}%"
                for row in att["by_resource"]
            )
        lines.extend(
            f"  what-if {wi['resource']}x{wi['factor']:g} "
            f"(attempt {wi['attempt']}): wall {wi['wall_s']:.3f} -> "
            f">= {wi['new_wall_s']:.3f} s "
            f"(speedup <= {wi['speedup_bound']:.2f}x)"
            for wi in run["what_if"]
        )
        lines.append("")
    return "\n".join(lines).rstrip()


def _cmd_diff(args) -> int:
    from repro.obs.diff import (
        DiffError,
        diff_files,
        diff_json,
        render_diff_html,
        render_diff_text,
    )

    try:
        doc = diff_files(args.artifact_a, args.artifact_b)
    except DiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json == "-":
        sys.stdout.write(diff_json(doc))
    else:
        print(render_diff_text(doc, top=args.top))
        if args.json is not None:
            _write_text(args.json, diff_json(doc))
    if args.report is not None:
        _write_text(args.report, render_diff_html(doc, top=args.top))
    if not doc["conservation_ok"]:
        print("diff conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_series(args) -> int:
    import json

    from repro.obs.series import (
        SeriesLoadError,
        load_series_file,
        render_sparklines,
        series_csv,
    )

    try:
        doc = load_series_file(args.input)
    except SeriesLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    signals = args.signals or None
    if args.json == "-":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return 0
    if args.csv == "-":
        sys.stdout.write(series_csv(doc, signals=signals))
        return 0
    print(render_sparklines(doc, width=args.width, signals=signals))
    for flag, text in (
        (args.json, json.dumps(doc, sort_keys=True,
                               separators=(",", ":")) + "\n"),
        (args.csv, series_csv(doc, signals=signals)),
    ):
        if flag is not None:
            _write_text(flag, text)
    return 0


def _cmd_lint(args) -> int:
    from repro.lint import LintUsageError, lint_paths, render_json, render_text

    try:
        result = lint_paths(args.paths, rules=args.rule)
    except LintUsageError as exc:
        # A usage error, as argparse reports its own: nothing was linted.
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2
    print(render_json(result) if args.json else render_text(result))
    return result.exit_code


def _compare_diff_text(obs, args) -> str:
    """Attribute each approach's delta against our-approach from the
    compare run's own trace (``repro compare --diff``)."""
    from repro.obs.analyze import analyze_tracer
    from repro.obs.diff import (
        artifact_from_analyze_summary,
        diff_artifacts,
        render_diff_text,
    )

    art = artifact_from_analyze_summary(
        analyze_tracer(obs.tracer), "compare")
    base = next((r for r in art["runs"]
                 if r["label"].startswith("our-approach/")), None)
    if base is None:
        return "(no our-approach run recorded; nothing to diff against)"
    blocks = []
    for run in art["runs"]:
        if run is base:
            continue
        doc = diff_artifacts(
            {"kind": "analyze", "source": base["label"], "runs": [base]},
            {"kind": "analyze", "source": run["label"], "runs": [run]},
        )
        blocks.append(render_diff_text(doc, top=args.top))
    return "\n\n".join(blocks)


def _outcome_row(outcome) -> list:
    # Under fault injection a migration may abort (or still be in flight
    # at the plan horizon): name the outcome instead of printing NaN.
    if len(outcome.migration_times) == 1:
        mig_time = outcome.migration_times[0]
    elif outcome.aborts:
        retries = max(outcome.aborts - 1, 0)
        mig_time = f"aborted ({retries} retr{'y' if retries == 1 else 'ies'})"
    else:
        mig_time = "incomplete"
    return [
        mig_time,
        outcome.total_traffic() / 2**20,
        100 * outcome.read_throughput / IOR_MAX_READ,
        100 * outcome.write_throughput / IOR_MAX_WRITE,
    ]


def _cmd_single(args, obs=None) -> str:
    outcome = run_single_migration(
        args.approach, workload=args.workload, warmup=args.warmup,
        seed=args.seed, obs=obs, faults=_load_faults(args),
        restarts=args.restarts,
    )
    return render_table(
        f"Single migration: {args.approach} under {args.workload}",
        ["mig time (s)", "traffic (MB)", "read (%max)", "write (%max)"],
        {args.approach: _outcome_row(outcome)},
    )


def _cmd_compare(args, obs=None) -> str:
    rows = {}
    faults = _load_faults(args)
    for approach in APPROACHES:
        outcome = run_single_migration(
            approach, workload=args.workload, warmup=args.warmup,
            seed=args.seed, obs=obs, faults=faults,
            restarts=args.restarts,
        )
        rows[approach] = _outcome_row(outcome)
    return render_table(
        f"All approaches under {args.workload} (migration at t={args.warmup:g}s)",
        ["mig time (s)", "traffic (MB)", "read (%max)", "write (%max)"],
        rows,
    )


def _check_fig5_grid(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a ``--grid`` with fewer ranks than the sweep migrates."""
    from repro.experiments.fig5 import MIGRATION_COUNTS

    ranks = args.grid[0] * args.grid[1]
    most = max(MIGRATION_COUNTS)
    if most > ranks:
        parser.error(f"--grid {args.grid[0]}x{args.grid[1]} has {ranks} "
                     f"rank(s), but the sweep migrates up to {most}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "fig5":
        _check_fig5_grid(parser, args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "critical-path":
        return _cmd_critical_path(args)
    if args.command == "diff":
        return _cmd_diff(args)
    if args.command == "series":
        return _cmd_series(args)
    if args.command == "lint":
        return _cmd_lint(args)
    obs = _make_obs(args)
    if args.command == "compare" and args.diff and obs is None:
        # --diff needs a recorded trace even when no export flag was given.
        from repro.obs import Observability

        obs = Observability(trace=True, causal=True)
    if args.command == "table1":
        from repro.experiments.table1 import render_table1

        print(render_table1())
    elif args.command == "fig1":
        from repro.cluster import Cluster
        from repro.experiments.config import graphene_spec
        from repro.experiments.fig1 import render_fig1
        from repro.simkernel import Environment

        print(render_fig1(Cluster(Environment(), graphene_spec(args.nodes))))
    elif args.command == "fig2":
        from repro.experiments.fig2 import render_fig2

        print(render_fig2(args.approach, obs=obs))
    elif args.command == "fig3":
        from repro.experiments.fig3 import render_fig3, run_fig3

        print(render_fig3(run_fig3(obs=obs)))
    elif args.command == "fig4":
        from repro.experiments.fig4 import render_fig4, run_fig4

        print(render_fig4(run_fig4(obs=obs)))
    elif args.command == "fig5":
        from repro.experiments.fig5 import render_fig5, run_fig5

        print(render_fig5(run_fig5(grid=args.grid, obs=obs)))
    elif args.command == "single":
        print(_cmd_single(args, obs=obs))
    elif args.command == "compare":
        print(_cmd_compare(args, obs=obs))
        if args.diff:
            print()
            print(_compare_diff_text(obs, args))
    _write_obs(obs, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
