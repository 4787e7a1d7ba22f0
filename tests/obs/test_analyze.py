"""Flight-recorder analyzer tests: export → load → analyze round-trips,
determinism, the exact conservation invariant, cause tagging, and the
CLI-facing rendering of aborted migrations."""

import json

import pytest

from repro.netsim.flows import Fabric
from repro.netsim.traffic import TrafficMeter
from repro.obs import Observability
from repro.obs.analyze import (
    analyze_file,
    analyze_tracer,
    attribution_from_pairs,
    load_trace,
    summary_json,
)
from repro.obs.export import write_chrome_trace, write_events_jsonl
from repro.simkernel import Environment

MB = 2**20


# -- TrafficMeter pair accounting ---------------------------------------------

class TestTrafficMeterPairs:
    def test_by_tag_by_cause_group_same_pairs(self):
        m = TrafficMeter()
        m.add("storage-push", 100.0, cause="push")
        m.add("storage-pull", 60.0, cause="prefetch")
        m.add("storage-pull", 40.0, cause="pull.demand")
        assert m.by_tag() == {"storage-push": 100.0, "storage-pull": 100.0}
        assert m.by_cause() == {
            "push": 100.0, "prefetch": 60.0, "pull.demand": 40.0,
        }
        assert m.by_pair()[("storage-pull", "prefetch")] == 60.0
        assert m.total() == 200.0

    def test_cause_defaults_to_tag(self):
        m = TrafficMeter()
        m.add("memory", 5.0)
        assert m.by_cause() == {"memory": 5.0}

    @pytest.mark.parametrize("tag", ["", None, 3])
    def test_rejects_bad_tag(self, tag):
        m = TrafficMeter()
        with pytest.raises((ValueError, TypeError)):
            m.add(tag, 1.0)

    def test_rejects_empty_cause_and_negative_bytes(self):
        m = TrafficMeter()
        with pytest.raises(ValueError):
            m.add("t", 1.0, cause="")
        with pytest.raises(ValueError):
            m.add("t", -1.0)


class TestCauseScope:
    def test_scope_overrides_explicit_cause(self):
        # Retry scopes must capture bytes even when the retried closure
        # passes its original explicit cause.
        from repro.netsim.topology import Topology

        env = Environment()
        fabric = Fabric(env, Topology())
        with fabric.cause_scope("retry.push"):
            assert fabric._resolve_cause("push", "storage-push") == "retry.push"
        assert fabric._resolve_cause("push", "storage-push") == "push"
        assert fabric._resolve_cause(None, "storage-push") == "storage-push"


# -- conservation --------------------------------------------------------------

class TestConservation:
    def test_exact_by_construction(self):
        pairs = [["a", "x", 0.1], ["a", "y", 0.2], ["b", "x", 0.3]]
        att = attribution_from_pairs(pairs)
        cons = att["conservation"]
        assert cons["exact"]
        assert cons["residual_bytes"] == 0.0
        assert cons["cause_sum_bytes"] == cons["tag_sum_bytes"]

    def test_non_dyadic_sums_stay_exact(self):
        # 0.1 + 0.3 is not representable as a float: grouping must be
        # compared as rationals, not as the float-rounded JSON views
        # (regression: rounding each group first missed by an ulp).
        att = attribution_from_pairs(
            [["a", "x", 0.1], ["b", "x", 0.3], ["b", "y", 1e-17]]
        )
        assert att["conservation"]["exact"]
        assert att["conservation"]["residual_bytes"] == 0.0


# -- export → load → analyze round-trips --------------------------------------

def _traced_run(seed: int = 0) -> Observability:
    """A tiny but complete traced hybrid migration under write pressure."""
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
    from repro.workloads.synthetic import SequentialWriter

    obs = Observability(trace=True, metrics=True)
    with obs.run_scope("analyze-test"):
        env = Environment()
        obs.install(env)
        cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=4)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=64 * MB)
        SequentialWriter(
            vm, total_bytes=128 * MB, rate=60e6, op_size=4 * MB,
            region_offset=1024 * MB, region_size=128 * MB, seed=seed,
        ).start()
        done = {}

        def migrator():
            yield env.timeout(1.0)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run()
        obs.note_traffic(cloud.cluster.fabric.meter)
    obs._last_meter_total = cloud.cluster.fabric.meter.total()
    return obs


@pytest.fixture(scope="module")
def traced():
    return _traced_run()


class TestRoundTrip:
    def test_chrome_trace_roundtrip(self, traced, tmp_path):
        path = write_chrome_trace(traced.tracer, tmp_path / "t.json")
        summary = analyze_file(path)
        assert summary["conservation_ok"]
        (run,) = summary["runs"]
        assert run["label"] == "analyze-test"
        metered = run["attribution"]["metered"]
        assert metered["conservation"]["exact"]
        # The analyzer's cause sum equals the live meter total exactly.
        assert metered["total_bytes"] == traced._last_meter_total
        assert sum(metered["by_cause"].values()) == pytest.approx(
            metered["total_bytes"], rel=0, abs=1e-6)

    def test_jsonl_roundtrip_matches_chrome(self, traced, tmp_path):
        # JSONL carries the same records, metadata included, one per
        # line: the attribution must agree with the .json path.
        jpath = write_chrome_trace(traced.tracer, tmp_path / "t.json")
        lpath = write_events_jsonl(traced.tracer, tmp_path / "t.jsonl")
        s_json = analyze_file(jpath)
        s_jsonl = analyze_file(lpath)
        att_a = s_json["runs"][0]["attribution"]["metered"]
        att_b = s_jsonl["runs"][0]["attribution"]["metered"]
        assert att_a == att_b
        assert s_jsonl["conservation_ok"]

    def test_async_spans_survive(self, traced, tmp_path):
        path = write_chrome_trace(traced.tracer, tmp_path / "t.json")
        events = load_trace(path)
        begins = [e for e in events if e.get("ph") == "b"]
        ends = [e for e in events if e.get("ph") == "e"]
        assert begins and len(begins) == len(ends)
        run = analyze_file(path)["runs"][0]
        flows = run["attribution"]["flows_by_cause"]
        assert flows  # flow spans were matched and attributed
        assert all(st["flows"] > 0 for st in flows.values())

    def test_counter_events_survive(self, traced, tmp_path):
        path = write_chrome_trace(traced.tracer, tmp_path / "t.json")
        events = load_trace(path)
        assert any(e.get("ph") == "C" for e in events)

    def test_phases_and_heatmap_present(self, traced):
        run = analyze_tracer(traced.tracer)["runs"][0]
        migs = run["phases"]["migrations"]
        assert len(migs) == 1 and not migs[0]["aborted"]
        names = [p["name"] for p in migs[0]["phases"]]
        assert names == ["request/setup", "memory + push", "sync",
                         "downtime", "pull / post-control"]
        (hm,) = run["heatmaps"]
        assert hm["chunks"] > 0
        assert all(fate in {"pushed", "prefetched", "ondemand", "cancelled"}
                   for _wc, fate, _n in hm["cells"])


class TestDeterminism:
    def test_identical_seeded_runs_byte_identical_summary(self, tmp_path):
        texts = []
        for i in range(2):
            obs = _traced_run(seed=7)
            path = write_chrome_trace(obs.tracer, tmp_path / f"t{i}.json")
            texts.append(summary_json(analyze_file(path)))
        assert texts[0] == texts[1]

    def test_summary_json_is_canonical(self, traced):
        summary = analyze_tracer(traced.tracer)
        text = summary_json(summary)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(summary_json(summary))
        # sorted keys, no whitespace separators
        assert '", "' not in text


# -- aborted-migration rendering (CLI satellite) -------------------------------

class TestAbortedRendering:
    def test_outcome_row_names_the_abort(self):
        from repro.cli import _outcome_row

        class FakeOutcome:
            migration_times = []
            aborts = 3
            read_throughput = 0.0
            write_throughput = 0.0

            def total_traffic(self):
                return 0.0

        row = _outcome_row(FakeOutcome())
        assert row[0] == "aborted (2 retries)"

        FakeOutcome.aborts = 1
        assert _outcome_row(FakeOutcome())[0] == "aborted (0 retries)"

        FakeOutcome.aborts = 0
        assert _outcome_row(FakeOutcome())[0] == "incomplete"

    def test_render_table_keeps_string_cells(self):
        from repro.experiments.runner import render_table

        text = render_table(
            "t", ["mig time (s)", "traffic (MB)"],
            {"postcopy": ["aborted (2 retries)", 12.5]},
        )
        assert "aborted (2 retries)" in text
        assert "nan" not in text.lower()
