"""Time-resolved telemetry invariants (``repro.obs.series``).

The contracts, in rough order of importance:

1. *Determinism*: probes observe, never perturb — every figure run and
   two chaos-matrix cells are byte-identical with series recording on
   and off, and the same seed yields a byte-identical series document.
2. *Conservation*: the Fraction step-integral of every ``net.*``
   cumulative curve telescopes to the TrafficMeter tag total exactly —
   including under hypothesis-generated fault plans, where retries and
   partial flows stress the credit mirroring.
3. *Off by default*: an Observability records no series unless asked.
4. *Read side*: windowed aggregation, sparkline/CSV rendering, the
   diff-engine loader and the flight-report panel all consume the
   ``repro.series/1`` document without touching the recorder.
"""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.core.config import MigrationConfig
from repro.faults import FaultInjector, FaultPlan
from repro.obs import Observability
from repro.obs.series import (
    SCHEMA,
    SeriesLoadError,
    SeriesRecorder,
    coerce_series_doc,
    integral_check,
    load_series_file,
    render_sparklines,
    series_csv,
    series_from_trace_events,
    step_integral,
)
from repro.obs.series.agg import rates_from_cumulative
from repro.simkernel import Environment
from repro.workloads.synthetic import RandomWriter
from tests.faults.test_chaos_matrix import _plan
from tests.golden.generate import (
    CHAOS_CELLS,
    FIXTURES,
    canonical_json,
    run_chaos_cell,
)

MB = 2**20


def run_fig2_outputs(series):
    """fig2 run -> everything the simulation computes, plus the obs."""
    from repro.experiments.fig2 import run_fig2

    obs = Observability(trace=False, metrics=False, series=series)
    record, stats, traffic = run_fig2(obs=obs)
    return {
        "record": repr(record),
        "stats": stats,
        "traffic": dict(traffic),
    }, obs


@pytest.fixture(scope="module")
def fig2_series():
    """One recorded fig2 run shared by the read-side tests."""
    outputs, obs = run_fig2_outputs(series=True)
    return outputs, obs.series.summary()


class TestNullSeries:
    def test_default_observability_is_null(self):
        obs = Observability(trace=False, metrics=False)
        assert obs.series is None

    def test_preconfigured_recorder_is_adopted(self):
        sr = SeriesRecorder()
        obs = Observability(trace=False, metrics=False, series=sr)
        assert obs.series is sr


class TestByteIdentity:
    """Recording on must leave the simulation byte-identical to off."""

    def test_fig2_identical_on_vs_off(self):
        plain, _ = run_fig2_outputs(series=False)
        recorded, obs = run_fig2_outputs(series=True)
        assert plain == recorded
        doc = obs.series.summary()
        assert doc["runs"] and doc["runs"][0]["signals"]

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4", "fig5"])
    def test_figures_match_goldens_with_series_on(self, name):
        # The committed fixtures were generated without observability;
        # a series-recording rerun must reproduce them byte for byte.
        from tests.golden import generate

        obs = Observability(trace=False, metrics=False, series=True)
        doc = getattr(generate, f"{name}_golden")(obs=obs)
        assert canonical_json(doc) == (FIXTURES / f"{name}.json").read_text()
        assert obs.series.summary()["runs"], "the probes never fired"

    @pytest.mark.parametrize("approach,kind", CHAOS_CELLS)
    def test_chaos_cells_identical_on_vs_off(self, approach, kind):
        plain = _run_chaos_cell(approach, kind, series=False)[0]
        recorded, obs, meter = _run_chaos_cell(approach, kind, series=True)
        assert plain == recorded
        # The on-run's net.* curves conserve against the meter even
        # under the injected fault (retried/partial flows included).
        _assert_fraction_conservation(obs.series.summary(), meter)

    def test_same_seed_byte_identical_series_doc(self):
        doc_a = run_fig2_outputs(series=True)[1].series.summary()
        doc_b = run_fig2_outputs(series=True)[1].series.summary()
        assert json.dumps(doc_a, sort_keys=True) \
            == json.dumps(doc_b, sort_keys=True)

    def test_fig2_series_matches_golden(self):
        # The kernel.* gauges observe scheduler internals, so the
        # fixture pins the fast kernel's document; every other signal
        # is kernel-independent (tests/differential asserts that).
        from tests.golden.generate import fig2_series_golden

        assert canonical_json(fig2_series_golden()) \
            == (FIXTURES / "fig2_series.json").read_text()


def _run_chaos_cell(approach, kind, series):
    """One chaos-matrix cell with metrics on and the series recorder
    optionally installed."""
    obs = Observability(trace=False, metrics=True, series=series)
    digest, meter = run_chaos_cell(approach, _plan(kind), obs)
    return digest, obs, meter


def _assert_fraction_conservation(doc, meter):
    """Every net.* curve's Fraction step-integral equals the meter's
    tag total exactly — no tolerance, no rounding."""
    by_tag = dict(meter.by_tag())
    checked = 0
    for run in doc["runs"]:
        for name, sig in run["signals"].items():
            if not name.startswith("net.") or name.startswith("net.rate."):
                continue
            tag = name[len("net."):]
            assert step_integral(sig["points"]) == Fraction(by_tag[tag]), name
            checked += 1
    assert checked, "no net.* signals recorded"


class TestConservation:
    def test_fig2_integrals_equal_meter_totals(self, fig2_series):
        _outputs, doc = fig2_series
        for run in doc["runs"]:
            cons = run["conservation"]
            assert cons is not None and cons["ok"]
            for tag, row in cons["by_tag"].items():
                assert row["exact"], tag
            # Re-derive the verdict from the document itself.
            for name, sig in run["signals"].items():
                if name.startswith("net.") \
                        and not name.startswith("net.rate."):
                    tag = name[len("net."):]
                    assert step_integral(sig["points"]) \
                        == Fraction(cons["by_tag"][tag]["meter_total"])

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           n_faults=st.integers(min_value=1, max_value=3))
    def test_integrals_exact_under_random_fault_plans(self, seed, n_faults):
        plan = FaultPlan.random(
            seed=seed, targets=["node2", "node3"], n_faults=n_faults,
            window=(0.5, 12.0), max_duration=6.0, chunk_timeout=6.0,
            retry_max=6, retry_backoff=0.25, migration_timeout=120.0,
            horizon=600.0,
        )
        obs = Observability(trace=False, metrics=False, series=True)
        env = Environment()
        obs.install(env)
        cluster = Cluster(env, ClusterSpec(
            n_nodes=4, nic_bw=100e6, backplane_bw=None, latency=1e-4,
            disk_bw=55e6, disk_cache_bytes=2 * 2**30, chunk_size=1 * MB,
            image_size=256 * MB, base_allocated=64 * MB,
            repo_replication=2,
        ))
        config = plan.apply_to(MigrationConfig(push_batch=8, pull_batch=8))
        cloud = CloudMiddleware(cluster, config=config)
        vm = cloud.deploy("vm0", cluster.node(0), approach="our-approach",
                          memory_size=256 * MB, working_set=64 * MB)
        RandomWriter(vm, total_bytes=64 * MB, rate=12e6, op_size=2 * MB,
                     region_offset=0, region_size=96 * MB,
                     seed=seed).start()
        FaultInjector(env, cluster, plan).start()
        out = {}

        def migrator():
            yield env.timeout(1.0)
            out["record"] = yield cloud.migrate(vm, cluster.node(1))

        env.process(migrator())
        env.run(until=plan.horizon)
        assert out.get("record") is not None
        _assert_fraction_conservation(obs.series.summary(),
                                      cluster.fabric.meter)

    def test_integral_check_verdicts(self):
        ok = integral_check({"a": 8.0}, {"a": 8.0})
        assert ok["ok"] and ok["by_tag"]["a"]["exact"]
        bad = integral_check({"a": 8.0}, {"a": 8.0 + 2**-40})
        assert not bad["ok"] and not bad["by_tag"]["a"]["exact"]
        # Missing sides default to zero, not to a KeyError.
        missing = integral_check({"a": 1.0}, {})
        assert not missing["ok"]

    def test_step_integral_telescopes(self):
        pts = [[0.0, 1.0], [1.0, 2.5], [2.0, 2.5], [3.0, 7.0]]
        assert step_integral(pts) == Fraction(7.0)
        assert step_integral([]) == Fraction(0)


class TestRecorder:
    def test_gauge_min_max_and_points(self):
        sr = SeriesRecorder(bin_width=1.0)
        sr.gauge("g", 0.2, 5.0, unit="x")
        sr.gauge("g", 1.7, 2.0)
        sr.gauge("g", 2.1, 9.0)
        (run,) = sr.summary()["runs"]
        sig = run["signals"]["g"]
        assert sig["kind"] == "gauge" and sig["unit"] == "x"
        assert sig["min"] == 2.0 and sig["max"] == 9.0
        assert sig["points"] == [[0.0, 5.0], [1.0, 2.0], [2.0, 9.0]]
        assert sig["samples"] == 3

    def test_gauge_keeps_the_last_sample_of_each_instant(self):
        sr = SeriesRecorder(bin_width=1.0)
        sr.gauge("g", 0.5, 1.0)
        sr.gauge("g", 0.5, 7.0)  # held for zero seconds
        sr.gauge("g", 0.5, 3.0)
        sr.gauge("g", 0.75, 2.0)
        sr.gauge("g", 1.5, 4.0)
        (run,) = sr.summary()["runs"]
        sig = run["signals"]["g"]
        assert sig["samples"] == 3
        assert sig["min"] == 2.0 and sig["max"] == 4.0
        assert sig["points"] == [[0.0, 2.0], [1.0, 4.0]]

    def test_inc_accumulates_a_cumulative_curve(self):
        sr = SeriesRecorder(bin_width=1.0)
        sr.inc("r", 0.5, 2.0)
        sr.inc("r", 1.5, 3.0)
        (run,) = sr.summary()["runs"]
        sig = run["signals"]["r"]
        assert sig["kind"] == "rate"
        assert sig["total"] == 5.0
        assert sig["points"] == [[0.0, 2.0], [1.0, 5.0]]

    def test_coarsening_bounds_memory(self):
        sr = SeriesRecorder(bin_width=1.0, max_bins=8)
        for i in range(64):
            sr.gauge("g", float(i), float(i))
        (run,) = sr.summary()["runs"]
        sig = run["signals"]["g"]
        assert len(sig["points"]) <= 8
        assert sig["samples"] == 64
        assert sig["bin_width"] == 8.0  # doubled 1 -> 2 -> 4 -> 8
        # The last value in each merged bin survives.
        assert sig["points"][-1][1] == 63.0

    def test_distribution_snapshots_are_coerced(self):
        sr = SeriesRecorder()
        sr.distribution("d", 1.0, [[np.int64(2), "pushed", np.int64(7)]])
        (run,) = sr.summary()["runs"]
        (snap,) = run["signals"]["d"]["snapshots"]
        assert snap == {"t": 1.0, "cells": [[2, "pushed", 7]]}
        assert type(snap["cells"][0][0]) is int

    def test_finish_run_scopes_and_resets(self):
        sr = SeriesRecorder()
        sr.gauge("g", 0.0, 1.0)
        sr.finish_run("first")
        sr.gauge("h", 0.0, 2.0)
        doc = sr.summary()
        labels = [r["label"] for r in doc["runs"]]
        assert labels == ["first", "(unscoped)"]
        assert list(doc["runs"][0]["signals"]) == ["g"]
        assert list(doc["runs"][1]["signals"]) == ["h"]

    def test_credit_net_mirrors_meter_pair_order(self):
        sr = SeriesRecorder()
        sr.credit_net("t", "push", 0.0, 0.1)
        sr.credit_net("t", "retry.push", 1.0, 0.2)
        sr.credit_net("t", "push", 2.0, 0.3)
        # Same pair-then-sum float order as TrafficMeter.by_tag.
        assert sr.net_totals()["t"] == (0.1 + 0.3) + 0.2


class TestAggregation:
    def test_rates_from_cumulative_recovers_deltas(self):
        rates = rates_from_cumulative([[1.0, 4.0], [2.0, 10.0]],
                                      bin_width=1.0)
        assert rates == [[1.0, 4.0], [2.0, 6.0]]


class TestRenderers:
    def test_sparklines_mention_signals_and_conservation(self, fig2_series):
        _outputs, doc = fig2_series
        text = render_sparklines(doc)
        assert "== run: our-approach/fig2" in text
        assert "net.storage-push" in text
        assert "net.* integral vs TrafficMeter: exact" in text

    def test_signal_filter(self, fig2_series):
        _outputs, doc = fig2_series
        text = render_sparklines(doc, signals=["kernel.*"])
        assert "kernel.ready" in text
        assert "net.storage-push" not in text
        assert "(no matching signals)" \
            in render_sparklines(doc, signals=["nope.*"])

    def test_csv_long_form(self, fig2_series):
        _outputs, doc = fig2_series
        lines = series_csv(doc, signals=["net.control"]).splitlines()
        assert lines[0] == "run,signal,kind,unit,t,value"
        assert all(ln.split(",")[1] == "net.control" for ln in lines[1:])
        assert len(lines) > 1

    def test_trace_counter_events_become_gauges(self):
        events = [
            {"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "repro:lane"}},
            {"ph": "C", "pid": 1, "ts": 1e6, "name": "depth",
             "args": {"chunks": 4}},
            {"ph": "C", "pid": 1, "ts": 2e6, "name": "depth",
             "args": {"chunks": 1}},
        ]
        doc = series_from_trace_events(events)
        (run,) = doc["runs"]
        assert run["label"] == "lane"
        assert run["signals"]["depth"]["points"] == [[1.0, 4.0], [2.0, 1.0]]

    def test_coerce_refusals_are_one_line(self):
        with pytest.raises(SeriesLoadError, match="series disabled"):
            coerce_series_doc({"schema": SCHEMA, "enabled": False}, "x")
        with pytest.raises(SeriesLoadError, match="expected"):
            coerce_series_doc({"schema": "repro.prof/1"}, "x")
        with pytest.raises(SeriesLoadError, match="neither"):
            coerce_series_doc(42, "x")
        with pytest.raises(SeriesLoadError, match="no counter events"):
            coerce_series_doc([{"ph": "X"}], "x")

    def test_load_series_file_errors(self, tmp_path):
        with pytest.raises(SeriesLoadError, match="cannot read"):
            load_series_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SeriesLoadError, match="not valid JSON"):
            load_series_file(str(bad))


class TestDiffIntegration:
    def test_series_doc_normalizes_and_self_diffs_to_zero(self, fig2_series):
        from repro.obs.diff import artifact_from_series_doc, diff_artifacts

        _outputs, doc = fig2_series
        art = artifact_from_series_doc(doc, "self")
        assert art["kind"] == "series"
        (run,) = art["runs"]
        assert "series.by_signal" in run["series"]
        assert "series.totals" in run["series"]
        keyed = run["series"]["series.by_signal"]["values"]
        assert any(k.startswith("net.storage-push@") for k in keyed)
        assert any(":" in k and "/" in k for k in keyed), \
            "distribution snapshot cells missing"
        delta = diff_artifacts(art, art)
        assert delta["zero_delta"] and delta["conservation_ok"]

    def test_kind_mismatch_is_refused(self, fig2_series):
        from repro.obs.diff import (
            DiffError,
            artifact_from_series_doc,
            diff_artifacts,
        )

        _outputs, doc = fig2_series
        art = artifact_from_series_doc(doc, "s.json")
        other = {"kind": "analyze", "source": "a.json", "runs": []}
        with pytest.raises(DiffError, match="cannot diff"):
            diff_artifacts(art, other)
        with pytest.raises(DiffError, match="cannot diff"):
            diff_artifacts(other, art)

    def test_disabled_doc_is_refused(self):
        from repro.obs.diff import DiffError, artifact_from_series_doc

        with pytest.raises(DiffError, match="telemetry"):
            artifact_from_series_doc(
                {"schema": SCHEMA, "enabled": False}, "x")


class TestReportPanel:
    def test_flight_report_embeds_series_cards(self, fig2_series):
        from repro.obs.analyze.report import render_html

        _outputs, doc = fig2_series
        empty = {"schema": "repro.analyze/1", "runs": [],
                 "conservation_ok": True}
        html = render_html(empty, series=doc)
        assert "Time-resolved telemetry — our-approach/fig2" in html
        assert "Remaining-set drain" in html
        assert "Bandwidth by tag" in html
        assert "Dirty rate vs guest write rate" in html
        assert "integral = meter total" in html
        assert 'class="badge bad"' not in html
        # Without a series doc the panel is absent.
        assert "Time-resolved telemetry" not in render_html(empty)


class TestAnalyzeDistribution:
    def test_summary_carries_plain_write_count_cells(self):
        from repro.experiments.fig2 import run_fig2
        from repro.obs.analyze import analyze_tracer

        obs = Observability(trace=True, metrics=False)
        run_fig2(obs=obs)
        (run,) = analyze_tracer(obs.tracer)["runs"]
        dist = run["write_count_distribution"]
        assert dist and dist == sorted(dist)
        assert all(
            isinstance(wc, int) and isinstance(fate, str)
            and isinstance(n, int)
            for wc, fate, n in dist
        )
        # Aggregates exactly the run's heatmap cells.
        assert sum(n for _wc, _f, n in dist) \
            == sum(hm["chunks"] for hm in run["heatmaps"])


class TestExpectedSignals:
    def test_fig2_records_the_documented_signal_families(self, fig2_series):
        _outputs, doc = fig2_series
        (run,) = doc["runs"]
        names = set(run["signals"])
        for expected in (
            "push.remaining:vm0", "pull.pending:vm0",
            "progress.pushed:vm0", "progress.prefetched:vm0",
            "writes.chunks:vm0", "net.storage-push", "net.storage-pull",
            "net.memory", "net.rate.memory", "mem.residual:vm0",
            "mem.dirty_rate:vm0", "kernel.ready", "kernel.heap",
            "dist.write_count:vm0", "dist.chunk_fate:vm0",
        ):
            assert expected in names, expected
        assert any(n.startswith("link.") for n in names)
