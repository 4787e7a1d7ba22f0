"""Tests for the command-line front end."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.golden.generate import FIXTURES, canonical_json

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_grid_parsing(capsys):
    args = build_parser().parse_args(["fig5", "--grid", "3x3"])
    assert args.grid == (3, 3)
    assert build_parser().parse_args(["fig5"]).grid == (4, 4)
    # The rank check is part of the parser: 6 ranks cannot host 7
    # migrations.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5", "--grid", "2x3"])
    assert "has 6 rank(s)" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5", "--grid", "nope"])
    for text in ("0x4", "4x0", "-1x2"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", f"--grid={text}"])
        assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fig5", "--grid", "1x1"],
     "--grid 1x1 has 1 rank(s), but the sweep migrates up to 7"),
    (["fig5", "--grid", "2x2"],
     "--grid 2x2 has 4 rank(s), but the sweep migrates up to 7"),
], ids=["full-1x1", "full-2x2"])
def test_fig5_grid_smaller_than_a_migration_count_is_a_usage_error(
        monkeypatch, capsys, argv, message):
    from repro.experiments import fig5

    runs = []
    monkeypatch.setattr(fig5, "run_cm1_successive",
                        lambda *args, **kwargs: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert runs == []
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["single", "compare"])
def test_restarts_parsing(capsys, command):
    assert build_parser().parse_args([command]).restarts == 0
    assert build_parser().parse_args([command, "--restarts", "2"]).restarts == 2
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--restarts", "-3"])
    assert exc.value.code == 2
    assert "restarts must be at least 0, got '-3'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--restarts", "two"])
    assert "whole number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fig1", "--nodes", "1"], "nodes must be at least 2, got '1'"),
    (["fig1", "--nodes", "0"], "nodes must be at least 2, got '0'"),
    (["fig1", "--nodes", "-3"], "nodes must be at least 2, got '-3'"),
    (["single", "--warmup", "-5"], "warmup must be at least 0, got '-5'"),
    (["compare", "--warmup", "-5"], "warmup must be at least 0, got '-5'"),
    (["diff", "a.json", "b.json", "--top", "-1"],
     "top must be at least 1, got '-1'"),
    (["diff", "a.json", "b.json", "--top", "0"],
     "top must be at least 1, got '0'"),
    (["compare", "--diff", "--top", "0"], "top must be at least 1, got '0'"),
    (["series", "s.json", "--width", "0"],
     "width must be at least 1, got '0'"),
    (["series", "s.json", "--width", "-3"],
     "width must be at least 1, got '-3'"),
    (["profile", "--seed", "-1"], "seed must be at least 0, got '-1'"),
    (["single", "--seed", "-1"], "seed must be at least 0, got '-1'"),
    (["compare", "--seed", "-1"], "seed must be at least 0, got '-1'"),
    (["fig3", "--quick"], "unrecognized arguments: --quick"),
    (["fig4", "--quick"], "unrecognized arguments: --quick"),
    (["fig5", "--quick"], "unrecognized arguments: --quick"),
])
def test_bad_nodes_and_warmup_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_nodes_and_warmup_parsing(capsys):
    assert build_parser().parse_args(["fig1"]).nodes == 8
    assert build_parser().parse_args(["fig1", "--nodes", "2"]).nodes == 2
    assert build_parser().parse_args(["single", "--warmup", "0"]).warmup == 0.0
    assert build_parser().parse_args(["compare"]).warmup == 10.0
    for argv, message in (
        (["fig1", "--nodes", "two"], "nodes must be a whole number"),
        (["single", "--warmup", "nan"], "warmup must be at least 0"),
        (["compare", "--warmup", "soon"], "warmup must be a number"),
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert message in capsys.readouterr().err


def test_unknown_approach_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["single", "--approach", "teleport"])


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "our-approach" in out
    assert "pvfs-shared" in out


def test_single(capsys):
    assert main(["single", "--approach", "postcopy", "--workload", "ior",
                 "--warmup", "5"]) == 0
    out = capsys.readouterr().out
    assert "postcopy" in out
    assert "mig time" in out


def test_compare_runs_all(capsys):
    assert main(["compare", "--workload", "ior", "--warmup", "5"]) == 0
    out = capsys.readouterr().out
    for approach in ("our-approach", "mirror", "postcopy", "precopy",
                     "pvfs-shared"):
        assert approach in out


def test_fig1(capsys):
    assert main(["fig1", "--nodes", "4"]) == 0
    out = capsys.readouterr().out
    assert "Cloud architecture" in out
    assert "node3" in out


def test_fig2(capsys):
    assert main(["fig2"]) == 0
    out = capsys.readouterr().out
    assert "progresses in time" in out
    assert "downtime" in out


def test_profile_subcommand(tmp_path, capsys):
    speedscope = tmp_path / "prof.speedscope.json"
    assert main(["profile", "--check", "--speedscope", str(speedscope)]) == 0
    out = capsys.readouterr().out
    assert "host wall attribution" in out
    assert "kernel.step" in out
    assert "maxmin.invocations" in out
    assert "maxmin.links_visited" in out
    assert "conservation: exclusive sums to wall" in out

    import json

    doc = json.loads(speedscope.read_text())
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    assert doc["profiles"][0]["type"] == "sampled"


def test_profile_flag_on_fig2(tmp_path, capsys):
    report = tmp_path / "report.html"
    assert main(["fig2", "--profile", "--report", str(report)]) == 0
    err = capsys.readouterr().err
    assert "host wall attribution" in err
    assert "Host self-profile" in report.read_text()


# -- repro diff + the friendly no-section errors -------------------------------

@pytest.fixture(scope="module")
def fig2_summaries(tmp_path_factory):
    """Two summary artifacts (our-approach and precopy) plus one raw trace."""
    root = tmp_path_factory.mktemp("diff-cli")
    paths = {}
    for approach in ("our-approach", "precopy"):
        trace = root / f"{approach}.trace.json"
        assert main(["fig2", "--approach", approach, "--causal",
                     "--trace", str(trace)]) == 0
        summary = root / f"{approach}.summary.json"
        assert main(["analyze", str(trace), "--json", str(summary)]) == 0
        paths[approach] = summary
    paths["trace"] = root / "our-approach.trace.json"
    return paths


def test_diff_self_is_zero(fig2_summaries, capsys):
    path = str(fig2_summaries["our-approach"])
    assert main(["diff", path, path]) == 0
    out = capsys.readouterr().out
    assert "identical under every compared dimension" in out
    assert "delta conservation across all dimensions: exact" in out


def test_diff_two_approaches_ranked_table(fig2_summaries, capsys):
    assert main(["diff", str(fig2_summaries["our-approach"]),
                 str(fig2_summaries["precopy"]), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "bytes.by_cause" in out
    assert "sim.wall.migrations" in out
    assert "conservation exact" in out
    assert "[new]" in out and "[gone]" in out  # prefetch vs repo.fetch


def test_diff_json_deterministic_and_html(fig2_summaries, tmp_path, capsys):
    import json

    a = str(fig2_summaries["our-approach"])
    b = str(fig2_summaries["precopy"])
    assert main(["diff", a, b, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["diff", a, b, "--json"]) == 0
    assert capsys.readouterr().out == first  # byte-identical
    doc = json.loads(first)
    assert doc["schema"] == "repro.diff/1"
    assert doc["conservation_ok"] and not doc["zero_delta"]
    report = tmp_path / "delta.html"
    assert main(["diff", a, b, "--report", str(report)]) == 0
    assert report.read_text().startswith("<!DOCTYPE html>")


def test_diff_accepts_raw_trace(fig2_summaries, capsys):
    # A raw --trace file is analyzed on the fly; against its own summary
    # the delta must be exactly zero.
    assert main(["diff", str(fig2_summaries["trace"]),
                 str(fig2_summaries["our-approach"])]) == 0
    out = capsys.readouterr().out
    assert "identical under every compared dimension" in out


def test_diff_kind_mismatch_exits_2(fig2_summaries, tmp_path, capsys):
    prof = tmp_path / "prof.json"
    assert main(["profile", "--json", str(prof)]) == 0
    capsys.readouterr()
    rc = main(["diff", str(fig2_summaries["our-approach"]), str(prof)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot diff analyze artifact" in err


def test_diff_unknown_schema_exits_2(tmp_path, capsys):
    weird = tmp_path / "weird.json"
    weird.write_text('{"schema": "repro.future/9"}')
    rc = main(["diff", str(weird), str(weird)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unsupported schema" in captured.err
    assert captured.out == ""  # refused before any partial output


def test_diff_e2e_benchmark_results(capsys):
    # Two back-to-back benchmarks/e2e runs of one tree: every workload
    # pairs and the work counts match exactly.  Each verdict judges the
    # timed runs' host_s quartiles; the traced run's host_s follows.
    results = REPO_ROOT / "benchmarks" / "e2e" / "results"
    assert main(["diff", str(results / "baseline-a.json"),
                 str(results / "baseline-b.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("== repro diff (bench): A = baseline-a.json  "
                          "vs  B = baseline-b.json")
    for workload, verdict, timed, traced in (
            ("fig4-precopy-x20", "held steady",
             "17.492 s [17.105, 17.815] -> 17.175 s [16.810, 17.713]",
             "18.195 s -> 25.143 s"),
            ("fig4-pvfs-sweep", "slowed 1.11x",
             "4.510 s [4.401, 4.632] -> 5.020 s [4.791, 5.329]",
             "6.639 s -> 6.687 s"),
            ("fig3-3seeds", "slowed 1.20x",
             "2.036 s [1.991, 2.120] -> 2.446 s [2.182, 2.693]",
             "4.208 s -> 4.611 s"),
            ("fig5-cm1", "held steady",
             "10.479 s [10.401, 10.863] -> 11.702 s [10.487, 13.036]",
             "16.489 s -> 14.636 s")):
        assert (f"=== {workload}\n  host.wall.by_layer {verdict}: "
                f"timed {timed}, traced {traced}; ") in out
    assert out.count("(delta 0) — conservation exact") == 4
    assert "delta conservation across all dimensions: exact" in out


def test_diff_old_trajectory_array_exits_2(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        path.write_text('[{"schema": "repro.bench/1", "scenarios": []}]')
    rc = main(["diff", *map(str, paths)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_analyze_empty_trace_one_line_error(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}')
    rc = main(["analyze", str(empty)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--trace" in captured.err and "--causal" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.out == ""


def test_analyze_unreadable_trace_no_traceback(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path / "absent.json")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: cannot read")


@pytest.mark.parametrize("command", ["analyze", "critical-path", "diff",
                                     "series"])
def test_bad_json_is_one_error_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    argv = [command, str(bad)] + ([str(bad)] if command == "diff" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not valid JSON: ")
    assert len(captured.err.strip().splitlines()) == 1


def test_critical_path_without_causal_names_flag(tmp_path, capsys):
    trace = tmp_path / "plain.json"
    assert main(["fig2", "--trace", str(trace)]) == 0
    capsys.readouterr()
    rc = main(["critical-path", str(trace)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--causal" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_jsonl_trace_reads_like_json(tmp_path, capsys):
    # The line stream carries the trace's lane names, so the readers find
    # the same migrations and critical paths in it.
    outputs = []
    for name in ("c.json", "c.jsonl"):
        trace = tmp_path / name
        assert main(["fig2", "--causal", "--trace", str(trace)]) == 0
        summary = tmp_path / f"{name}.summary.json"
        assert main(["analyze", str(trace), "--json", str(summary)]) == 0
        capsys.readouterr()
        assert main(["critical-path", str(trace), "--json"]) == 0
        outputs.append((summary.read_text(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    (run,) = json.loads(outputs[1][0])["runs"]
    assert run["phases"]["migrations"] and run["critical_path"]


# -- text outputs pinned on committed fixtures ---------------------------------

#: sha256 of stdout for text outputs that no golden renders.  The inputs
#: are committed fixtures, so the bytes hold on every Python.
TEXT_PINS = {
    "series": (["series", "fig2_series.json"],
               "ee87a562da7f44de2c13c15e143617ddc496aa7737d52c5210188053f22cc101"),
    "series-csv": (["series", "fig2_series.json", "--csv", "-"],
                   "e44e8882902e4daa9ee196ed2c5c27c9df1b90f45652fe8eb53f0a0e22cb0273"),
    "series-signal": (["series", "fig2_series.json", "--signal", "net.*"],
                      "aec54c8dba575be8672f85dc0a1f01f69c899254d39040b4fd8c19049b425a46"),
    "diff-kernels": (["diff", "fig2_summary_fast.json",
                      "fig2_summary_reference.json"],
                     "9787c998faaca145b0ac36ace1b65386e488f7de90afb70160db0d26d0838d8d"),
    "diff-precopy": (["diff", "fig2_summary_fast.json",
                      "fig2_summary_precopy.json"],
                     "6473d7576759889d83cd84ace3b0cb107d67aa50ef7f51d42ce6720b62de1ce3"),
}


@pytest.mark.parametrize("name", sorted(TEXT_PINS))
def test_text_output_is_pinned(name, capsys):
    argv, sha256 = TEXT_PINS[name]
    assert main([str(FIXTURES / a) if a.endswith(".json") else a
                 for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


CRITICAL_PATH_TEXT = """\
=== our-approach/fig2 ===
migration vm0 attempt 0: 17.738 s (5.000 -> 22.738)
  conservation: exact
  critical path by resource:
    net.memory                11.717 s   66.1%
    net.prefetch               5.997 s   33.8%
    pagecache                  0.015 s    0.1%
    net.control                0.009 s    0.1%
  what-if nicx2 (attempt 0): wall 17.738 -> >= 8.876 s (speedup <= 2.00x)
  what-if storagex2 (attempt 0): wall 17.738 -> >= 17.731 s (speedup <= 1.00x)"""


def test_critical_path_text_is_pinned():
    from repro.obs.causal import render_critical_text

    doc = json.loads((FIXTURES / "fig2_critical_path.json").read_text())
    assert render_critical_text(doc) == CRITICAL_PATH_TEXT


def test_module_entry_point(capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table1"],
        capture_output=True, text=True, timeout=120, check=False,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["table1"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_smoke_command_lines(tmp_path, capsys):
    """One command-line run of each artifact pipeline (diff,
    critical-path, series, profile), checked the way its golden is: at
    9 significant digits, conserving, and deterministic."""
    from tests.differential.oracle import kernel_scope

    def fixture(name: str) -> str:
        return (FIXTURES / name).read_text()

    fast, reference, precopy = (str(FIXTURES / f"fig2_summary_{k}.json")
                                for k in ("fast", "reference", "precopy"))

    # diff: the kernels' summaries do not differ, precopy's do.
    assert main(["diff", fast, reference, "--json"]) == 0
    kernels = json.loads(capsys.readouterr().out)
    assert kernels["conservation_ok"] and kernels["zero_delta"]
    assert canonical_json(kernels) == fixture("fig2_diff_kernels.json")
    assert main(["diff", fast, precopy, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["diff", fast, precopy, "--json"]) == 0
    assert capsys.readouterr().out == first
    delta = json.loads(first)
    assert delta["conservation_ok"] and not delta["zero_delta"]
    assert canonical_json(delta) == fixture("fig2_diff_precopy.json")
    report = tmp_path / "diff-precopy.html"
    assert main(["diff", fast, precopy, "--report", str(report)]) == 0
    assert report.read_text().startswith("<!DOCTYPE html>")

    # The simulating runs use the production kernel, which the series
    # fixture is pinned to.
    with kernel_scope("fast"):
        trace = tmp_path / "fig2-causal-trace.json"
        assert main(["fig2", "--causal", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["critical-path", str(trace), "--json",
                     "--what-if", "nic=2", "--what-if", "storage=2"]) == 0
        assert (canonical_json(json.loads(capsys.readouterr().out))
                == fixture("fig2_critical_path.json"))

        series = tmp_path / "fig2-series.json"
        flight = tmp_path / "series-flight-report.html"
        assert main(["fig2", "--series", str(series),
                     "--report", str(flight)]) == 0
        doc = json.loads(series.read_text())
        assert doc["schema"] == "repro.series/1" and doc["enabled"]
        assert doc["runs"] and all(run["conservation"]["ok"]
                                   for run in doc["runs"])
        assert canonical_json(doc) == fixture("fig2_series.json")
        assert ("Time-resolved telemetry — our-approach/fig2"
                in flight.read_text())
        capsys.readouterr()
        assert main(["series", str(series)]) == 0
        assert "net.* integral vs TrafficMeter: exact" in \
            capsys.readouterr().out

        prof = tmp_path / "prof.json"
        assert main(["profile", "--check",
                     "--speedscope", str(tmp_path / "prof.speedscope.json"),
                     "--collapsed", str(tmp_path / "prof.folded.txt"),
                     "--json", str(prof)]) == 0
        summary = json.loads(prof.read_text())
        for counter in ("maxmin.invocations", "maxmin.links_visited",
                        "kernel.heap_push", "chunks.push_scanned"):
            assert summary["counters"].get(counter, 0) > 0, counter
        assert summary["conservation"]["ok"]
