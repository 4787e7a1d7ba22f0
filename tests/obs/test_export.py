"""Export-format tests: Chrome trace JSON, JSONL stream, metrics dump."""

import json

import pytest

from repro.obs import Observability
from repro.obs.export import (
    ArtifactError,
    chrome_trace,
    load_trace,
    read_artifact,
    trace_events,
    trace_lanes,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
    write_trace,
)
from repro.obs.tracer import Tracer


def _sample_tracer() -> Tracer:
    tr = Tracer()
    with tr.scope("run-1"):
        tr.instant("push.start", cat="storage", tid="push:vm0")
        tr.complete("push.batch", 0.0, 1.0, cat="storage", tid="push:vm0",
                    args={"chunks": 32})
        tr.async_span("flow:memory", 0.5, 2.0, cat="net", tid="net:memory")
    return tr


class TestChromeTrace:
    def test_document_shape(self):
        doc = chrome_trace(_sample_tracer())
        assert doc["displayTimeUnit"] == "ms"
        assert isinstance(doc["traceEvents"], list)

    def test_metadata_names_every_lane(self):
        doc = chrome_trace(_sample_tracer(), process_prefix="repro")
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        proc_names = {e["args"]["name"] for e in meta
                      if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert proc_names == {"repro:run-1"}
        assert {"push:vm0", "net:memory"} <= thread_names

    def test_roundtrips_through_json(self, tmp_path):
        path = write_chrome_trace(_sample_tracer(), tmp_path / "t.json")
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert ev["ph"] in {"M", "i", "X", "b", "e", "C"}
            assert "name" in ev
            assert "pid" in ev and "tid" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], float)


class TestOtherWriters:
    def test_jsonl_one_record_per_line_metadata_first(self, tmp_path):
        tr = _sample_tracer()
        path = write_events_jsonl(tr, tmp_path / "t.jsonl")
        parsed = [json.loads(line) for line in path.read_text().splitlines()]
        assert parsed == chrome_trace(tr)["traceEvents"]
        assert parsed[0]["ph"] == "M" and parsed[-len(tr.events):] == tr.events

    def test_write_trace_dispatches_on_suffix(self, tmp_path):
        tr = _sample_tracer()
        as_json = write_trace(tr, tmp_path / "a.json")
        as_jsonl = write_trace(tr, tmp_path / "b.jsonl")
        assert "traceEvents" in json.loads(as_json.read_text())
        first = json.loads(as_jsonl.read_text().splitlines()[0])
        assert "traceEvents" not in first

    def test_metrics_json(self, tmp_path):
        obs = Observability(trace=False)
        obs.metrics.counter("push.chunks").inc(10)
        with obs.run_scope("r1"):
            obs.metrics.counter("push.chunks").inc(5)
        path = write_metrics_json(obs.metrics_dump(), tmp_path / "m.json")
        dump = json.loads(path.read_text())
        assert dump["runs"]["r1"]["counters"]["push.chunks"] == 15.0


class TestReadArtifact:
    """The one reader of every artifact file."""

    # An unclosed file is a ResourceWarning raised in a finalizer, which
    # pytest reports as an unraisable exception: both fail the test.
    @pytest.mark.filterwarnings("error::ResourceWarning")
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnraisableExceptionWarning")
    def test_closes_its_file_and_fails_in_one_line(self, tmp_path):
        from repro.obs.series import load_series_file

        tr = _sample_tracer()
        doc = read_artifact(write_chrome_trace(tr, tmp_path / "t.json"))
        assert trace_events(doc) == doc["traceEvents"]
        jsonl = write_events_jsonl(tr, tmp_path / "t.jsonl")
        assert read_artifact(jsonl) == load_trace(jsonl) == doc["traceEvents"]
        (tmp_path / "bad.json").write_text("{bad")
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe")
        for name, message in (("bad.json", "bad.json is not valid JSON"),
                              ("binary.json", "cannot read"),
                              ("absent.json", "cannot read")):
            with pytest.raises(ArtifactError, match=message):
                load_series_file(str(tmp_path / name))

    def test_splits_a_trace_into_labelled_lanes(self):
        lanes, tid_names = trace_lanes(
            chrome_trace(_sample_tracer())["traceEvents"])
        assert [label for label, _lane in lanes] == ["run-1"]
        assert "push:vm0" in tid_names.values()
        # Without metadata (a hand-built event list) a lane is named by
        # its pid.
        bare = [{"ph": "i", "pid": 7}, {"ph": "i", "pid": 3}]
        assert trace_events(bare) == bare
        assert [label for label, _lane in trace_lanes(bare)[0]] == \
            ["run-3", "run-7"]
        assert trace_events([]) is None
        assert trace_events({"schema": "repro.series/1"}) is None


class TestObservabilityBundle:
    def test_run_scope_snapshots_and_resets(self):
        obs = Observability()
        with obs.run_scope("a"):
            obs.metrics.counter("x").inc(1)
        with obs.run_scope("a"):  # repeated label gets uniquified
            obs.metrics.counter("x").inc(2)
        assert obs.runs["a"]["counters"]["x"] == 1.0
        assert obs.runs["a#2"]["counters"]["x"] == 2.0

    def test_install_binds_env(self):
        from repro.simkernel import Environment

        obs = Observability()
        env = Environment()
        obs.install(env)
        assert env.probe is obs.probe
        assert env.probe.tracer is obs.tracer
        assert env.probe.metrics is obs.metrics
        assert obs.tracer.now == env.now

    def test_write_skips_trace_when_disabled(self, tmp_path):
        obs = Observability(trace=False)
        obs.write(trace_path=tmp_path / "t.json",
                  metrics_path=tmp_path / "m.json")
        assert not (tmp_path / "t.json").exists()
        assert (tmp_path / "m.json").exists()
