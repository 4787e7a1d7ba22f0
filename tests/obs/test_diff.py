"""The run-comparison engine: exact delta attribution + loaders + CLI docs.

Covers the tentpole invariants: per-key contributions sum exactly to
each dimension's Δtotal (telescoping conservation, no tolerance),
identical runs produce an all-zero delta that still conserves,
degenerate runs (aborted, zero-byte, empty series) never produce
NaN/div-by-zero, mismatched artifact kinds/schemas are refused with a
one-line error before any output, and the JSON document is
byte-deterministic.
"""

import json
import pathlib

import pytest

from repro.obs.diff import (
    DiffError,
    artifact_from_analyze_summary,
    artifact_from_prof_summary,
    diff_artifacts,
    diff_files,
    diff_json,
    dimension_delta,
    load_artifact,
    render_diff_html,
    render_diff_text,
)

MB = 2**20


# -- the delta attributor ------------------------------------------------------

class TestDimensionDelta:
    def test_conservation_is_exact_on_adversarial_floats(self):
        # 0.1 + 0.2 != 0.3 in floats; the rational path must not care.
        a = {f"k{i}": 0.1 * i for i in range(40)}
        b = {f"k{i}": 0.1 * i + 0.2 for i in range(40)}
        dim = dimension_delta("bytes.by_cause", "B", a, b)
        assert dim["conservation"]["exact"]
        assert dim["conservation"]["residual"] == 0.0

    def test_identical_series_all_zero_still_exact(self):
        a = {"push": 301989888.0, "prefetch": 704643072.0, "control": 89651.0}
        dim = dimension_delta("bytes.by_cause", "B", a, dict(a))
        assert dim["delta"] == 0.0
        assert dim["conservation"]["exact"]
        assert all(c["delta"] == 0.0 and c["status"] == "unchanged"
                   for c in dim["contributions"])

    def test_new_and_vanished_keys(self):
        dim = dimension_delta("bytes.by_cause", "B",
                              {"prefetch": 100.0, "push": 50.0},
                              {"repo.fetch": 80.0, "push": 70.0})
        by_key = {c["key"]: c for c in dim["contributions"]}
        assert dim["new_keys"] == ["repo.fetch"]
        assert dim["vanished_keys"] == ["prefetch"]
        assert by_key["repo.fetch"]["status"] == "new"
        assert by_key["prefetch"]["status"] == "vanished"
        assert by_key["prefetch"]["delta"] == -100.0
        assert dim["conservation"]["exact"]

    def test_ranking_by_absolute_delta_then_key(self):
        dim = dimension_delta("work.counters", "count",
                              {"a": 0.0, "b": 0.0, "c": 0.0},
                              {"a": -5.0, "b": 9.0, "c": 5.0})
        assert [c["key"] for c in dim["contributions"]] == ["b", "a", "c"]
        assert [c["rank"] for c in dim["contributions"]] == [1, 2, 3]

    def test_share_uses_gross_movement_when_net_is_zero(self):
        # +100 and -100 cancel: net Δtotal is 0, but both movers must
        # register (share of |Δ|), and conservation still holds.
        dim = dimension_delta("bytes.by_cause", "B",
                              {"x": 100.0, "y": 200.0},
                              {"x": 200.0, "y": 100.0})
        assert dim["delta"] == 0.0
        assert dim["conservation"]["exact"]
        assert [c["share"] for c in dim["contributions"]] == [0.5, 0.5]

    def test_empty_both_sides_no_nan(self):
        dim = dimension_delta("bytes.by_cause", "B", {}, {})
        assert dim["total_a"] == dim["total_b"] == dim["delta"] == 0.0
        assert dim["ratio"] is None
        assert dim["contributions"] == []
        assert dim["conservation"]["exact"]

    def test_zero_baseline_no_div_by_zero(self):
        # A zero-byte (aborted-before-transfer) baseline: ratio must be
        # None, shares finite, conservation exact.
        dim = dimension_delta("bytes.by_cause", "B", {}, {"push": 10.0})
        assert dim["ratio"] is None
        assert dim["contributions"][0]["share"] == 1.0
        assert dim["conservation"]["exact"]


# -- artifact diffing ----------------------------------------------------------

def _artifact(kind, source, series_per_run):
    runs = [
        {
            "label": label,
            "series": {name: {"unit": unit, "values": values}
                       for name, (unit, values) in series.items()},
        }
        for label, series in series_per_run.items()
    ]
    return {"kind": kind, "source": source, "runs": runs}


class TestDiffArtifacts:
    def test_kind_mismatch_is_refused(self):
        a = _artifact("analyze", "a", {"r": {}})
        b = _artifact("prof", "b", {"r": {}})
        with pytest.raises(DiffError, match="cannot diff"):
            diff_artifacts(a, b)

    def test_identical_artifacts_zero_delta(self):
        series = {"bytes.by_cause": ("B", {"push": 10.0, "pull": 5.0})}
        a = _artifact("analyze", "a", {"run": series})
        b = _artifact("analyze", "b", {"run": series})
        doc = diff_artifacts(a, b)
        assert doc["zero_delta"]
        assert doc["conservation_ok"]
        assert doc["pairs"][0]["headline"] == "no differences found"

    def test_pairing_by_label_then_index_fallback(self):
        series = {"bytes.by_cause": ("B", {"push": 1.0})}
        a = _artifact("analyze", "a", {"x": series, "y": series})
        b = _artifact("analyze", "b", {"y": series, "x": series})
        doc = diff_artifacts(a, b)
        assert [(p["a_label"], p["b_label"]) for p in doc["pairs"]] == [
            ("x", "x"), ("y", "y")]
        # No common labels but equal counts: positional pairing.
        b2 = _artifact("analyze", "b", {"u": series, "v": series})
        doc2 = diff_artifacts(a, b2)
        assert [(p["a_label"], p["b_label"]) for p in doc2["pairs"]] == [
            ("x", "u"), ("y", "v")]
        assert doc2["unmatched_a"] == doc2["unmatched_b"] == []

    def test_unmatched_runs_are_reported(self):
        series = {"bytes.by_cause": ("B", {"push": 1.0})}
        a = _artifact("analyze", "a", {"x": series, "extra": series})
        b = _artifact("analyze", "b", {"x": series})
        doc = diff_artifacts(a, b)
        assert doc["unmatched_a"] == ["extra"]
        assert doc["unmatched_b"] == []

    def test_dimension_present_on_one_side_only(self):
        a = _artifact("analyze", "a",
                      {"r": {"bytes.by_cause": ("B", {"push": 7.0})}})
        b = _artifact("analyze", "b", {"r": {}})
        doc = diff_artifacts(a, b)
        (dim,) = doc["pairs"][0]["dimensions"]
        assert dim["vanished_keys"] == ["push"]
        assert dim["delta"] == -7.0
        assert doc["conservation_ok"] and not doc["zero_delta"]

    def test_json_is_deterministic(self):
        a = _artifact("analyze", "a",
                      {"r": {"bytes.by_cause": ("B", {"push": 7.0})}})
        b = _artifact("analyze", "b",
                      {"r": {"bytes.by_cause": ("B", {"push": 9.0})}})
        assert diff_json(diff_artifacts(a, b)) == \
            diff_json(diff_artifacts(a, b))
        assert diff_json(diff_artifacts(a, b)).endswith("\n")


# -- normalizers and the file loader -------------------------------------------

class TestLoaders:
    def test_unknown_schema_refused_no_partial_output(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text('{"schema": "repro.analyze/99", "runs": []}')
        with pytest.raises(DiffError, match="unsupported schema"):
            load_artifact(path)

    def test_non_artifact_json_refused(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('"just a string"')
        with pytest.raises(DiffError, match="not a recognized"):
            load_artifact(path)

    def test_invalid_json_refused(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(DiffError, match="not valid JSON"):
            load_artifact(path)

    def test_missing_file_refused(self, tmp_path):
        with pytest.raises(DiffError, match="cannot read"):
            load_artifact(tmp_path / "absent.json")

    def test_prof_disabled_names_profile_flag(self):
        with pytest.raises(DiffError, match="--profile"):
            artifact_from_prof_summary(
                {"schema": "repro.prof/1", "enabled": False}, "p.json")

    def test_prof_tree_flattens_to_scope_paths(self):
        summary = {
            "schema": "repro.prof/1", "enabled": True,
            "tree": [{"name": "kernel.step", "exclusive_s": 1.0,
                      "children": [{"name": "fluid.advance",
                                    "exclusive_s": 2.0, "children": []}]}],
            "counters": {"heap_pop": 42},
        }
        art = artifact_from_prof_summary(summary, "p.json")
        (run,) = art["runs"]
        assert run["series"]["host.wall.by_scope"]["values"] == {
            "kernel.step": 1.0, "kernel.step/fluid.advance": 2.0}
        assert run["series"]["work.counters"]["values"] == {"heap_pop": 42}

    def test_empty_trace_names_trace_flag(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}')
        with pytest.raises(DiffError, match="--trace"):
            load_artifact(path)

# -- figure-level benchmark results (benchmarks/e2e) ---------------------------

E2E_RESULTS = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "e2e" / "results")


def _baseline(side):
    return json.loads((E2E_RESULTS / f"baseline-{side}.json").read_text())


@pytest.fixture(scope="module")
def e2e_diff():
    """The two committed back-to-back runs of the same tree."""
    return diff_files(E2E_RESULTS / "baseline-a.json",
                      E2E_RESULTS / "baseline-b.json")


def _dims(pair):
    return {d["name"]: d for d in pair["dimensions"]}


#: Headline starts on the committed pair: the verdict reads the timed
#: runs' host_s (median [q1, q3]), the traced totals follow.
BENCH_HEADLINES = {
    "fig4-precopy-x20": (
        "host.wall.by_layer held steady: timed 17.492 s [17.105, 17.815]"
        " -> 17.175 s [16.810, 17.713], traced 18.195 s -> 25.143 s; "),
    "fig4-pvfs-sweep": (
        "host.wall.by_layer slowed 1.11x: timed 4.510 s [4.401, 4.632]"
        " -> 5.020 s [4.791, 5.329], traced 6.639 s -> 6.687 s; "),
    "fig3-3seeds": (
        "host.wall.by_layer slowed 1.20x: timed 2.036 s [1.991, 2.120]"
        " -> 2.446 s [2.182, 2.693], traced 4.208 s -> 4.611 s; "),
    "fig5-cm1": (
        "host.wall.by_layer held steady: timed 10.479 s [10.401, 10.863]"
        " -> 11.702 s [10.487, 13.036], traced 16.489 s -> 14.636 s; "),
}


class TestBenchResults:
    def test_pairs_every_workload_with_exact_conservation(self, e2e_diff):
        assert e2e_diff["kind"] == "bench"
        assert [p["label"] for p in e2e_diff["pairs"]] == [
            "fig4-precopy-x20", "fig4-pvfs-sweep", "fig3-3seeds", "fig5-cm1"]
        assert e2e_diff["unmatched_a"] == e2e_diff["unmatched_b"] == []
        assert e2e_diff["conservation_ok"]

    def test_work_counters_are_zero_delta(self, e2e_diff):
        # Two runs of one tree do the same work: all 18 integer per-layer
        # counts match, while the nine self times move with host noise.
        # No ratio or inclusive scope time is loaded beside them.
        for pair in e2e_diff["pairs"]:
            dims = _dims(pair)
            assert sorted(dims) == ["host.wall.by_layer", "work.counters"]
            counters = dims["work.counters"]["contributions"]
            assert len(counters) == 18
            assert all(c["delta"] == 0 and c["status"] == "unchanged"
                       for c in counters)
            assert len(dims["host.wall.by_layer"]["contributions"]) == 9
            assert pair["headline"].startswith("host.wall.by_layer ")

    def test_layer_self_times_tile_the_traced_host_time(self, e2e_diff):
        for side in "ab":
            workloads = _baseline(side)["workloads"]
            for pair in e2e_diff["pairs"]:
                traced = workloads[pair["label"]]["runs"]["traced"]
                wall = _dims(pair)["host.wall.by_layer"]
                assert wall[f"total_{side}"] == traced["host_s"]

    def test_verdict_judges_the_timed_runs(self, e2e_diff):
        # One traced run per side has no spread, so host noise would read
        # as a verdict (fig4-precopy-x20's traced total grew 1.38x, and
        # fig5-cm1's shrank 1.13x, between two runs of one tree).  The
        # timed runs decide instead: a move only when the two [q1, q3]
        # ranges are disjoint, sized by the ratio of medians.
        for pair in e2e_diff["pairs"]:
            assert pair["headline"].startswith(BENCH_HEADLINES[pair["label"]])

    def test_verdict_direction_and_untimed_results(self, tmp_path):
        swapped = diff_files(E2E_RESULTS / "baseline-b.json",
                             E2E_RESULTS / "baseline-a.json")
        fig3 = [p for p in swapped["pairs"] if p["label"] == "fig3-3seeds"]
        assert fig3[0]["headline"].startswith(
            "host.wall.by_layer sped up 1.20x: timed 2.446 s")
        # A --trace 1 result has no timed summary, and one traced run is
        # no evidence either way: no verdict, only the traced totals.
        doc = _baseline("b")
        for result in doc["workloads"].values():
            result["end_to_end"] = {}
        untimed = tmp_path / "untimed.json"
        untimed.write_text(json.dumps(doc))
        diff = diff_files(E2E_RESULTS / "baseline-a.json", untimed)
        assert diff["pairs"][0]["headline"].startswith(
            "host.wall.by_layer not judged (no timed runs): "
            "traced 18.195 s -> 25.143 s; ")

    def test_results_without_per_layer_metrics_refused(self, tmp_path):
        doc = _baseline("a")
        doc["workloads"]["fig3-3seeds"]["per_layer"] = {}  # a --trace 0 run
        path = tmp_path / "untraced.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DiffError, match="fig3-3seeds .* --trace 0"):
            load_artifact(path)

    def test_old_trajectory_array_refused(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps([{"schema": "repro.bench/1",
                                     "scenarios": []}]))
        with pytest.raises(DiffError, match="not a recognized"):
            load_artifact(path)


# -- series documents: fractional values and the headline ----------------------

def _link_series_doc(util):
    return {
        "schema": "repro.series/1", "enabled": True,
        "runs": [{"label": "r", "conservation": None, "signals": {
            "link.h1.out": {"kind": "gauge", "unit": "frac",
                            "points": [[1.0, util]], "samples": 1,
                            "min": util, "max": util},
        }}],
    }


@pytest.fixture
def link_diff():
    from repro.obs.diff import artifact_from_series_doc

    return diff_artifacts(
        artifact_from_series_doc(_link_series_doc(0.37), "a.json"),
        artifact_from_series_doc(_link_series_doc(0.52), "b.json"),
    )


class TestSeriesDiffRendering:
    def test_fractional_values_keep_significant_digits(self, link_diff):
        from repro.obs.render import fmt_count

        text = render_diff_text(link_diff)
        assert "0.37 -> 0.52 (delta +0.15)" in text
        assert "0 -> 1" not in text
        finding = link_diff["pairs"][0]["findings"][0]["text"]
        assert "(0.37 -> 0.52): link.h1.out@1 +0.15" in finding
        # Integral counts keep the thousands-separated integer form.
        assert fmt_count(1234567.0) == "1,234,567"
        assert fmt_count(42) == "42"

    def test_headline_falls_back_to_first_moved_dimension(self, link_diff):
        headline = link_diff["pairs"][0]["headline"]
        assert headline.startswith(
            "series.by_signal grew 1.41x: 0.37 -> 0.52; 100% of the "
            "movement is link.h1.out@1 (+0.15)")


# -- analyze-summary normalization on a real (tiny) run ------------------------

def _traced_summary(label="diff-test", migrate=True):
    from repro.cluster import CloudMiddleware, Cluster
    from repro.experiments.config import graphene_spec
    from repro.obs import Observability
    from repro.obs.analyze import analyze_tracer
    from repro.simkernel import Environment
    from repro.workloads.synthetic import SequentialWriter

    obs = Observability(trace=True, metrics=False, causal=True)
    with obs.run_scope(label):
        env = Environment()
        obs.install(env)
        cloud = CloudMiddleware(Cluster(env, graphene_spec(4)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=64 * MB)
        SequentialWriter(
            vm, total_bytes=128 * MB, rate=60e6, op_size=4 * MB,
            region_offset=1024 * MB, region_size=128 * MB,
        ).start()
        done = {}

        def migrator():
            yield env.timeout(1.0)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        if migrate:
            env.process(migrator())
        env.run()
        obs.note_traffic(cloud.cluster.fabric.meter)
    return analyze_tracer(obs.tracer)


@pytest.fixture(scope="module")
def summary():
    return _traced_summary()


class TestAnalyzeIntegration:
    def test_self_diff_is_zero_and_exact(self, summary):
        a = artifact_from_analyze_summary(summary, "a.json")
        b = artifact_from_analyze_summary(summary, "b.json")
        doc = diff_artifacts(a, b)
        assert doc["zero_delta"]
        assert doc["conservation_ok"]
        text = render_diff_text(doc)
        assert "identical under every compared dimension" in text
        assert "conservation exact" in text

    def test_expected_dimensions_present(self, summary):
        art = artifact_from_analyze_summary(summary, "a.json")
        series = art["runs"][0]["series"]
        for name in ("bytes.by_cause", "bytes.by_tag", "flows.by_cause",
                     "sim.wall.migrations", "critical.by_resource"):
            assert name in series, name
        assert sum(series["bytes.by_cause"]["values"].values()) > 0

    def test_no_migration_run_diffs_cleanly(self, summary):
        # Zero migrations: wall series empty, byte series workload-only.
        quiet = _traced_summary(label="idle", migrate=False)
        a = artifact_from_analyze_summary(quiet, "idle.json")
        b = artifact_from_analyze_summary(summary, "busy.json")
        doc = diff_artifacts(a, b)
        assert doc["conservation_ok"] and not doc["zero_delta"]
        for dim in doc["pairs"][0]["dimensions"]:
            for c in dim["contributions"]:
                assert c["share"] == c["share"]  # no NaN
            assert dim["conservation"]["exact"]

    def test_render_html_self_contained(self, summary):
        a = artifact_from_analyze_summary(summary, "a.json")
        b = artifact_from_analyze_summary(_traced_summary(label="diff-test"),
                                          "b.json")
        html = render_diff_html(diff_artifacts(a, b))
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html or "no per-key movement" in html
