"""Unit tests for repro.obs.tracer: event shapes and lanes."""

import pytest

from repro.obs.tracer import Tracer


class FakeEnv:
    def __init__(self, now=0.0):
        self.now = now


class TestTracer:
    def test_detail_validation(self):
        with pytest.raises(ValueError):
            Tracer(detail="debug")
        assert Tracer(detail="normal").verbose is False
        assert Tracer(detail="full").verbose is True

    def test_now_tracks_bound_env(self):
        tr = Tracer()
        assert tr.now == 0.0
        env = FakeEnv(now=3.5)
        tr.bind(env)
        assert tr.now == 3.5

    def test_instant_shape(self):
        tr = Tracer()
        tr.bind(FakeEnv(now=2.0))
        tr.instant("push.stop", cat="storage", tid="push:vm0",
                   args={"remaining": 4})
        (ev,) = tr.events
        assert ev["name"] == "push.stop"
        assert ev["ph"] == "i"
        assert ev["ts"] == 2.0e6  # microseconds
        assert ev["s"] == "t"
        assert ev["cat"] == "storage"
        assert ev["args"] == {"remaining": 4}

    def test_complete_shape_and_clamped_duration(self):
        tr = Tracer()
        tr.complete("batch", 1.0, 3.0, tid="lane")
        tr.complete("zero", 5.0, 4.0)  # never negative
        a, b = tr.events
        assert a["ph"] == "X"
        assert a["ts"] == 1.0e6 and a["dur"] == 2.0e6
        assert b["dur"] == 0.0

    def test_async_span_emits_paired_halves(self):
        tr = Tracer()
        tr.async_span("pull.demand", 1.0, 2.0, tid="pull:vm0")
        tr.async_span("pull.demand", 1.5, 3.0, tid="pull:vm0")
        b1, e1, b2, e2 = tr.events
        assert (b1["ph"], e1["ph"], b2["ph"], e2["ph"]) == ("b", "e", "b", "e")
        assert b1["id"] == e1["id"]
        assert b2["id"] == e2["id"]
        assert b1["id"] != b2["id"]  # overlapping spans stay distinguishable
        assert b1["tid"] == b2["tid"]

    def test_counter_event(self):
        tr = Tracer()
        tr.bind(FakeEnv(now=1.0))
        tr.counter("fabric.active_flows", {"flows": 3})
        (ev,) = tr.events
        assert ev["ph"] == "C"
        assert ev["args"] == {"flows": 3}

    def test_span_context_manager_measures(self):
        tr = Tracer()
        env = FakeEnv(now=1.0)
        tr.bind(env)
        with tr.span("work", cat="test"):
            env.now = 4.0
        (ev,) = tr.events
        assert ev["ph"] == "X"
        assert ev["ts"] == 1.0e6
        assert ev["dur"] == 3.0e6

    def test_tid_labels_get_stable_integer_ids(self):
        tr = Tracer()
        tr.instant("a", tid="first")
        tr.instant("b", tid="second")
        tr.instant("c", tid="first")
        assert tr.tid_labels() == {"first": 1, "second": 2}
        assert [e["tid"] for e in tr.events] == [1, 2, 1]

    def test_scope_switches_process_lane_and_restores(self):
        tr = Tracer()
        tr.instant("outside")
        with tr.scope("run-a"):
            tr.instant("inside-a")
            with tr.scope("run-b"):
                tr.instant("inside-b")
            tr.instant("inside-a-again")
        tr.instant("outside-again")
        pids = tr.pid_labels()
        evs = tr.events
        assert evs[0]["pid"] == pids["sim"]
        assert evs[1]["pid"] == pids["run-a"]
        assert evs[2]["pid"] == pids["run-b"]
        assert evs[3]["pid"] == pids["run-a"]
        assert evs[4]["pid"] == pids["sim"]
