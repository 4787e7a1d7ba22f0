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
    python -m repro.cli compare --workload asyncwr [--diff]
    python -m repro.cli analyze trace.json [--json out.json] [--html out.html]
    python -m repro.cli critical-path trace.json [--json] [--what-if nic=2]
    python -m repro.cli profile [--speedscope prof.json] [--check]
    python -m repro.cli diff runA.json runB.json [--json] [--top 5]
    python -m repro.cli series fig2-series.json [--json] [--csv]
    python -m repro.cli lint [src] [--json] [--rule D]

The run commands (fig2-fig5, single, compare) take the observability
flags ``--trace``, ``--metrics-out``, ``--trace-detail``, ``--report``,
``--causal``, ``--profile [OUT]`` and ``--series [OUT]``.

Each subcommand's parser names its handler; ``main`` parses the
arguments and calls it, and a handler calls the library and prints what
it returns.  An artifact file the library cannot use is one ``error:``
line on stderr and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional, Sequence

from repro.core.registry import APPROACHES
from repro.experiments.config import IOR_MAX_READ, IOR_MAX_WRITE
from repro.experiments.runner import render_table
from repro.experiments.scenarios import run_single_migration
from repro.obs.export import ArtifactError, load_trace

__all__ = ["main", "build_parser"]


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """Observability flags shared by the run commands."""
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
        "--profile", metavar="OUT.speedscope.json", nargs="?", const="-",
        default=None,
        help="self-profile the simulator host process (wall-clock per "
             "subsystem + work counters) and print the tree to stderr; "
             "with a path, also write a speedscope flamegraph. Never "
             "changes simulation output",
    )
    p.add_argument(
        "--series", metavar="OUT.json", nargs="?", const="-", default=None,
        help="record time-resolved telemetry (repro.obs.series) and print "
             "sparklines to stderr; with a path, write the repro.series/1 "
             "document instead. Never changes simulation output",
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


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` (creating parent directories) and say
    so on stderr."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    print(f"wrote {path}", file=sys.stderr)


def _run(args, render, causal: bool = False) -> int:
    """Print ``render(obs)`` under the backends the observability flags
    ask for, then write or print what they recorded.  ``causal`` records
    causal wait edges (and so a trace) whatever the flags say."""
    causal = causal or args.causal
    trace = causal or args.trace is not None or args.report is not None
    obs = None
    if (trace or args.metrics_out is not None or args.profile is not None
            or args.series is not None):
        from repro.obs import Observability

        obs = Observability(
            trace=trace,
            metrics=args.metrics_out is not None,
            detail=args.trace_detail,
            causal=causal,
            profile=args.profile is not None,
            series=args.series is not None,
        )
    print(render(obs))
    if obs is not None:
        _write_obs(obs, args)
    return 0


def _write_obs(obs, args) -> None:
    """Write the files the observability flags name; print the profile
    tree, and the sparklines when ``--series`` names no file."""
    series_path = None if args.series == "-" else args.series
    obs.write(trace_path=args.trace, metrics_path=args.metrics_out,
              series_path=series_path)
    written = [p for p in (args.trace, args.metrics_out, series_path) if p]
    profile = series = html = None
    if obs.profiler is not None:
        from repro.obs.prof import render_profile_text, write_speedscope

        profile = obs.profiler.summary()
        print(render_profile_text(profile), file=sys.stderr)
        if args.profile != "-":
            write_speedscope(profile, args.profile,
                             name=f"repro {args.command}")
            written.append(args.profile)
    if obs.series is not None:
        series = obs.series.summary()
        if series_path is None:
            from repro.obs.series import render_sparklines

            print(render_sparklines(series), file=sys.stderr)
    if args.report is not None:
        from repro.obs.analyze import analyze_tracer, render_html

        summary = analyze_tracer(obs.tracer)
        if not summary["conservation_ok"]:
            print("warning: byte-attribution conservation check failed",
                  file=sys.stderr)
        html = render_html(summary, profile=profile, series=series)
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    if html is not None:
        _write_text(args.report, html)


def _parse_grid(text: str) -> tuple[int, int]:
    """argparse type of fig5's ``--grid``: ``AxB`` CM1 ranks, at least as
    many as the sweep migrates."""
    from repro.experiments.fig5 import MIGRATION_COUNTS

    try:
        a, b = text.lower().split("x")
        grid = int(a), int(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"grid must look like '4x4', got {text!r}"
        ) from exc
    if min(grid) < 1:
        raise argparse.ArgumentTypeError(
            f"grid sizes must be at least 1, got {text!r}"
        )
    ranks, most = grid[0] * grid[1], max(MIGRATION_COUNTS)
    if most > ranks:
        raise argparse.ArgumentTypeError(
            f"--grid {grid[0]}x{grid[1]} has {ranks} rank(s), but the sweep "
            f"migrates up to {most}"
        )
    return grid


def _parse_what_if(text: str):
    """argparse type of ``--what-if``: see ``repro.obs.causal.parse_what_if``."""
    from repro.obs.causal import parse_what_if

    try:
        return parse_what_if(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


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

    sub.add_parser(
        "table1", help="print Table 1 (approach summary)",
    ).set_defaults(handler=_cmd_table1)

    fig1 = sub.add_parser("fig1", help="render the architecture inventory")
    fig1.add_argument("--nodes", type=_at_least(int, 2, "nodes"), default=8,
                      help="compute nodes in the cluster (at least 2)")
    fig1.set_defaults(handler=_cmd_fig1)

    fig2 = sub.add_parser("fig2", help="run + render one migration's phase timeline")
    fig2.add_argument("--approach", choices=sorted(APPROACHES),
                      default="our-approach")
    _add_obs_flags(fig2)
    fig2.set_defaults(handler=_cmd_fig2)

    for fig, handler in (("fig3", _cmd_fig3), ("fig4", _cmd_fig4),
                         ("fig5", _cmd_fig5)):
        p = sub.add_parser(fig, help=f"regenerate {fig} of the paper")
        if fig == "fig5":
            p.add_argument("--grid", type=_parse_grid, default=(4, 4),
                           help="CM1 rank grid, e.g. 8x8 (default 4x4)")
        _add_obs_flags(p)
        p.set_defaults(handler=handler)

    single = sub.add_parser("single", help="one migration under one workload")
    single.add_argument("--approach", choices=sorted(APPROACHES),
                        default="our-approach")
    single.add_argument("--workload", choices=["ior", "asyncwr"], default="ior")
    single.add_argument("--warmup", type=_parse_warmup, default=10.0,
                        help="seconds before the migration request")
    single.add_argument("--seed", type=_parse_seed, default=0)
    _add_obs_flags(single)
    _add_fault_flags(single)
    single.set_defaults(handler=_cmd_single)

    compare = sub.add_parser(
        "compare", help="run all five approaches on one workload"
    )
    compare.add_argument("--workload", choices=["ior", "asyncwr"], default="ior")
    compare.add_argument("--warmup", type=_parse_warmup, default=10.0)
    compare.add_argument("--seed", type=_parse_seed, default=0)
    compare.add_argument("--diff", action="store_true",
                         help="after the table, attribute each approach's "
                              "delta against our-approach (bytes by cause, "
                              "critical path, migration wall); implies "
                              "--causal")
    compare.add_argument("--top", type=_parse_top, default=5,
                         help="contributors per dimension in --diff tables")
    _add_obs_flags(compare)
    _add_fault_flags(compare)
    compare.set_defaults(handler=_cmd_compare)

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
    analyze.set_defaults(handler=_cmd_analyze)

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
                       type=_parse_what_if, default=[], dest="what_if",
                       help="bounded speedup with a resource class sped up, "
                            "e.g. nic=2, net.memory=4, stall.timeout=inf "
                            "(repeatable)")
    cpath.set_defaults(handler=_cmd_critical_path)

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
    profile.set_defaults(handler=_cmd_profile)

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
    diff.set_defaults(handler=_cmd_diff)

    series = sub.add_parser(
        "series",
        help="render time-resolved telemetry (sparklines, JSON, CSV) from "
             "a repro.series/1 document or derive it from a trace's "
             "counter events",
    )
    series.add_argument("input", metavar="SERIES-or-TRACE.json",
                        help="document written by --series OUT.json, or a "
                             "trace written by --trace (.json or .jsonl)")
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
    series.set_defaults(handler=_cmd_series)

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
    lint.set_defaults(handler=_cmd_lint)

    return parser


def _cmd_profile(args) -> int:
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


def _cmd_analyze(args) -> int:
    from repro.obs.analyze import (
        analyze_events,
        render_html,
        render_text,
        summary_json,
    )

    summary = analyze_events(load_trace(args.trace_file))
    if not summary["runs"]:
        raise ArtifactError(
            f"no recorded runs in {args.trace_file} — record the trace "
            "with --trace (add --causal for critical-path sections, "
            "--profile for host profiling)")
    print(render_text(summary))
    if args.json is not None:
        _write_text(args.json, summary_json(summary))
    if args.html is not None:
        _write_text(args.html, render_html(summary))
    if args.check and not summary["conservation_ok"]:
        print("conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_critical_path(args) -> int:
    from repro.obs.causal import critical_path_summary, render_critical_text

    doc = critical_path_summary(load_trace(args.trace_file), args.what_if)
    if not any(run["attempts"] for run in doc["runs"]):
        raise ArtifactError(
            f"no causal records in {args.trace_file} — re-run the "
            "experiment with --causal to record wait edges")
    if args.json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        print(render_critical_text(doc))
    if not doc["conservation_ok"]:
        print("critical-path conservation check FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import (
        diff_files,
        diff_json,
        render_diff_html,
        render_diff_text,
    )

    doc = diff_files(args.artifact_a, args.artifact_b)
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
    from repro.obs.series import load_series_file, render_sparklines, series_csv

    doc = load_series_file(args.input)
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


def _outcome_table(args, title: str, approaches, obs) -> str:
    """One row per approach: a single migration under ``args.workload``
    with the fault plan ``--faults`` names."""
    faults = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        faults = FaultPlan.from_file(args.faults)
    rows = {
        approach: _outcome_row(run_single_migration(
            approach, workload=args.workload, warmup=args.warmup,
            seed=args.seed, obs=obs, faults=faults, restarts=args.restarts,
        ))
        for approach in approaches
    }
    return render_table(
        title,
        ["mig time (s)", "traffic (MB)", "read (%max)", "write (%max)"],
        rows,
    )


def _cmd_single(args) -> int:
    title = f"Single migration: {args.approach} under {args.workload}"
    return _run(args,
                lambda obs: _outcome_table(args, title, [args.approach], obs))


def _cmd_compare(args) -> int:
    title = (f"All approaches under {args.workload} "
             f"(migration at t={args.warmup:g}s)")

    def render(obs) -> str:
        table = _outcome_table(args, title, APPROACHES, obs)
        if not args.diff:
            return table
        return f"{table}\n\n{_compare_diff_text(obs, args)}"

    # --diff attributes the deltas from this run's own causal trace.
    return _run(args, render, causal=args.diff)


def _cmd_table1(args) -> int:
    from repro.experiments.table1 import render_table1

    print(render_table1())
    return 0


def _cmd_fig1(args) -> int:
    from repro.cluster import Cluster, ClusterSpec
    from repro.experiments.fig1 import render_fig1
    from repro.simkernel import Environment

    print(render_fig1(Cluster(Environment(), ClusterSpec(n_nodes=args.nodes))))
    return 0


def _cmd_fig2(args) -> int:
    from repro.experiments.fig2 import render_fig2

    return _run(args, lambda obs: render_fig2(args.approach, obs=obs))


def _cmd_fig3(args) -> int:
    from repro.experiments.fig3 import render_fig3, run_fig3

    return _run(args, lambda obs: render_fig3(run_fig3(obs=obs)))


def _cmd_fig4(args) -> int:
    from repro.experiments.fig4 import render_fig4, run_fig4

    return _run(args, lambda obs: render_fig4(run_fig4(obs=obs)))


def _cmd_fig5(args) -> int:
    from repro.experiments.fig5 import render_fig5, run_fig5

    return _run(args,
                lambda obs: render_fig5(run_fig5(grid=args.grid, obs=obs)))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
