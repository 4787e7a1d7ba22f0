"""Tests for the command-line front end."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_grid_parsing(capsys):
    args = build_parser().parse_args(["fig5", "--grid", "2x3"])
    assert args.grid == (2, 3)
    # No default here: run_fig5 picks 2x2 under --quick, 4x4 otherwise.
    assert build_parser().parse_args(["fig5", "--quick"]).grid is None
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig5", "--grid", "nope"])
    for text in ("0x4", "4x0", "-1x2"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", f"--grid={text}"])
        assert "at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["fig5", "--quick", "--grid", "1x1"],
     "--grid 1x1 has 1 rank(s), but the sweep migrates up to 3"),
    (["fig5", "--grid", "2x2"],
     "--grid 2x2 has 4 rank(s), but the sweep migrates up to 7"),
], ids=["quick-1x1", "full-2x2"])
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


def test_critical_path_without_causal_names_flag(tmp_path, capsys):
    trace = tmp_path / "plain.json"
    assert main(["fig2", "--trace", str(trace)]) == 0
    capsys.readouterr()
    rc = main(["critical-path", str(trace)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--causal" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
