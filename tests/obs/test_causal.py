"""Causal recorder + critical-path extractor + what-if unit tests.

Three layers:

* recorder — kernel waits become ``causal.wait`` instants whose
  intervals tile each process's lifetime, cross-process wakeups become
  Perfetto flow arrows;
* extractor — synthetic DAGs with known decompositions: recursion into
  producers, AnyOf first-finisher, AllOf last-finisher, and the exact
  Fraction conservation invariant;
* what-if — bounded re-pricing, group matching, spec parsing.
"""

from fractions import Fraction

import pytest

from repro.obs import Observability
from repro.obs.causal import (
    classify,
    critical_path_summary,
    parse_what_if,
    what_if,
)
from repro.obs.causal.critical import critical_paths, extract_waits
from repro.obs.causal.record import describe
from repro.obs.export import chrome_trace
from repro.simkernel import Environment

US = 1e6


def _causal_env():
    obs = Observability(trace=True, causal=True)
    env = Environment()
    obs.install(env)
    return obs, env


# -- recorder ------------------------------------------------------------------

class TestRecorder:
    def test_waits_tile_process_lifetime(self):
        obs, env = _causal_env()

        def worker():
            yield env.timeout(1.0)
            yield env.timeout(2.5)
            yield env.timeout(0.5)

        env.process(worker(), name="w")
        env.run()
        events = chrome_trace(obs.tracer)["traceEvents"]
        waits = extract_waits(events)["w"]
        # Contiguous cover of [0, 4] with no gaps or overlaps.
        assert [(float(w.t0), float(w.t1)) for w in waits] == [
            (0.0, 1.0), (1.0, 3.5), (3.5, 4.0),
        ]

    def test_zero_duration_waits_skipped(self):
        obs, env = _causal_env()

        def worker():
            yield env.timeout(0.0)
            yield env.timeout(1.0)

        env.process(worker(), name="w")
        env.run()
        events = chrome_trace(obs.tracer)["traceEvents"]
        waits = extract_waits(events)["w"]
        assert [(float(w.t0), float(w.t1)) for w in waits] == [(0.0, 1.0)]

    def test_cross_process_wakeup_emits_flow_arrows(self):
        obs, env = _causal_env()
        gate = env.event()

        def producer():
            yield env.timeout(3.0)
            gate.succeed()

        def consumer():
            yield gate

        env.process(producer(), name="prod")
        env.process(consumer(), name="cons")
        env.run()
        events = chrome_trace(obs.tracer)["traceEvents"]
        starts = [ev for ev in events
                  if ev.get("name") == "causal.handoff" and ev["ph"] == "s"]
        ends = [ev for ev in events
                if ev.get("name") == "causal.handoff" and ev["ph"] == "f"]
        assert len(starts) == len(ends) >= 1
        # Flow ids pair up and binding point is enclosing ("e").
        assert {ev["id"] for ev in starts} == {ev["id"] for ev in ends}
        assert all(ev.get("bp") == "e" for ev in ends)

    def test_annotate_describe_round_trip(self):
        obs, env = _causal_env()
        ev = env.probe.causal_tag(env.event(), "net.flow", cause="push",
                                  tag="t")
        desc = describe(ev)
        assert desc["k"] == "net.flow"
        assert desc["d"] == {"cause": "push", "tag": "t"}

    def test_annotate_noop_without_causal(self):
        obs = Observability(trace=True)  # causal off
        env = Environment()
        obs.install(env)
        ev = env.probe.causal_tag(env.event(), "net.flow", cause="push")
        assert not hasattr(ev, "_causal")
        assert describe(env.timeout(1.0)) == {"k": "timer"}

    def test_plain_env_has_zero_overhead_path(self):
        env = Environment()  # NULL_PROBE
        ev = env.probe.causal_tag(env.event(), "x")
        assert not hasattr(ev, "_causal")

    def test_the_probe_stamps_events_only_when_recording(self):
        def run(env):
            timer = env.timeout(2.0)
            gate = env.event()
            failed = env.event()

            def producer():
                yield env.timeout(1.5)
                gate.succeed()
                failed.fail(RuntimeError("x"))
                failed.defused = True

            def consumer():
                yield env.timeout(0.5)
                yield gate

            env.process(producer(), name="prod")
            env.process(consumer(), name="cons")
            env.run()
            return timer, gate, failed

        # NULL_PROBE, and every backend but the causal one.
        plain, observed = Environment(), Environment()
        Observability(trace=True, profile=True, series=True).install(observed)
        fields = ("created_at", "triggered_at", "succeeded_by", "_causal")
        for env in (plain, observed):
            for ev in run(env):
                assert not [f for f in fields if hasattr(ev, f)]

        _obs, env = _causal_env()
        timer, gate, failed = run(env)
        assert describe(timer) == {"k": "timer", "t0": 0.0, "t1": 2.0}
        assert describe(gate) == {"k": "event", "by": "prod",
                                  "t0": 0.0, "t1": 1.5}
        # A failure stamps its time but names no producer.
        assert describe(failed) == {"k": "event", "t0": 0.0, "t1": 1.5}


# -- classification ------------------------------------------------------------

class TestClassify:
    @pytest.mark.parametrize("desc,expected", [
        ({"k": "net.flow", "d": {"cause": "push"}}, "net.push"),
        ({"k": "net.flow", "d": {"cause": "prefetch"}}, "net.prefetch"),
        ({"k": "net.flow", "d": {"cause": "retry.push"}}, "net.retry"),
        ({"k": "net.flow", "d": {"cause": "mystery"}}, "net.other"),
        ({"k": "net.message", "d": {}}, "net.control"),
        ({"k": "fluid", "d": {"name": "disk:n0"}}, "disk"),
        ({"k": "fluid", "d": {"name": "pagecache:n1"}}, "pagecache"),
        ({"k": "fluid", "d": {"name": "mystery"}}, "fluid.other"),
        ({"k": "stall.chunk_timeout", "d": {}}, "stall.timeout"),
        ({"k": "retry.backoff", "d": {}}, "retry.backoff"),
        ({"k": "timer"}, "timer"),
    ])
    def test_terminal_classes(self, desc, expected):
        assert classify(desc) == expected

    @pytest.mark.parametrize("desc", [
        {"k": "proc", "p": "x"}, {"k": "any", "c": []}, {"k": "event"},
    ])
    def test_structural_nodes_are_not_terminal(self, desc):
        assert classify(desc) is None


# -- extractor -----------------------------------------------------------------

def _migration_span(vm, t0, t1, pid=1, tid=9):
    """Minimal lifecycle so migration_timelines sees one attempt."""
    return [
        {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
         "args": {"name": f"migration:{vm}"}},
        {"ph": "X", "pid": pid, "tid": tid, "cat": "migration",
         "name": "request/setup", "ts": t0 * US, "dur": (t1 - t0) * US,
         "args": {}},
    ]


class TestExtractor:
    def _run_spine(self, spine_body, extra_procs=(), vm="vm0"):
        """Run ``migrate:<vm>`` plus helpers; return critical_paths()."""
        obs, env = _causal_env()
        for name, gen_fn in extra_procs:
            env.process(gen_fn(env), name=name)
        spine = env.process(spine_body(env), name=f"migrate:{vm}")
        env.run()
        end = env.now
        events = chrome_trace(obs.tracer)["traceEvents"]
        tl = [{"vm": vm, "attempt": 0, "aborted": False,
               "start_s": 0.0, "end_s": end}]
        return critical_paths(events, {}, timelines=tl)

    def test_terminal_decomposition_and_conservation(self):
        def spine(env):
            yield env.probe.causal_tag(env.timeout(2.0), "stall.chunk_timeout")
            yield env.probe.causal_tag(env.timeout(3.0), "retry.backoff")

        (att,) = self._run_spine(spine)
        assert att["conservation"]["exact"]
        assert att["wall_s"] == 5.0
        assert [(s["resource"], s["t1"] - s["t0"]) for s in att["segments"]] \
            == [("stall.timeout", 2.0), ("retry.backoff", 3.0)]
        shares = {r["resource"]: r["share"] for r in att["by_resource"]}
        assert shares == {"stall.timeout": 0.4, "retry.backoff": 0.6}

    def test_recurses_into_producer_process(self):
        # The spine waits on a helper process whose own time is a
        # classified wait — the helper's decomposition is inherited.
        def helper(env):
            yield env.probe.causal_tag(env.timeout(4.0), "stall.chunk_timeout")

        def spine(env):
            proc = env.process(helper(env), name="helper")
            yield proc

        (att,) = self._run_spine(spine)
        assert att["conservation"]["exact"]
        resources = {r["resource"] for r in att["by_resource"]}
        assert "stall.timeout" in resources
        by = {r["resource"]: r["seconds"] for r in att["by_resource"]}
        assert by["stall.timeout"] == pytest.approx(4.0)

    def test_anyof_attributes_to_first_finisher(self):
        def spine(env):
            fast = env.probe.causal_tag(env.timeout(1.0), "retry.backoff")
            slow = env.probe.causal_tag(env.timeout(10.0), "stall.chunk_timeout")
            yield env.any_of([fast, slow])
            # Drain the rest of the run so the lane has one more wait.
            yield env.probe.causal_tag(env.timeout(0.5), "retry.backoff")

        (att,) = self._run_spine(spine)
        assert att["conservation"]["exact"]
        by = {r["resource"]: r["seconds"] for r in att["by_resource"]}
        assert by.get("retry.backoff") == pytest.approx(1.5)
        assert "stall.timeout" not in by

    def test_allof_attributes_to_last_finisher(self):
        def spine(env):
            fast = env.probe.causal_tag(env.timeout(1.0), "retry.backoff")
            slow = env.probe.causal_tag(env.timeout(4.0), "stall.chunk_timeout")
            yield env.all_of([fast, slow])

        (att,) = self._run_spine(spine)
        assert att["conservation"]["exact"]
        by = {r["resource"]: r["seconds"] for r in att["by_resource"]}
        assert by.get("stall.timeout") == pytest.approx(4.0)

    def test_conservation_is_fraction_exact(self):
        # Durations chosen to not be float-representable sums.
        def spine(env):
            yield env.probe.causal_tag(env.timeout(0.1), "retry.backoff")
            yield env.probe.causal_tag(env.timeout(0.2), "stall.chunk_timeout")
            yield env.probe.causal_tag(env.timeout(0.3), "retry.backoff")

        (att,) = self._run_spine(spine)
        cons = att["conservation"]
        assert cons["exact"]
        assert cons["residual_s"] == 0.0
        # The exactness claim is Fraction-level, not approx-level.
        seg_sum = sum(
            Fraction(float(s["t1"])) - Fraction(float(s["t0"]))
            for s in att["segments"]
        )
        assert seg_sum == Fraction(float(att["end_s"])) - Fraction(
            float(att["start_s"]))

    def test_plain_trace_yields_empty(self):
        obs = Observability(trace=True)  # no causal recording
        env = Environment()
        obs.install(env)

        def spine(env_):
            yield env_.timeout(1.0)

        env.process(spine(env), name="migrate:vm0")
        env.run()
        events = chrome_trace(obs.tracer)["traceEvents"]
        assert critical_paths(events, {}) == []


# -- what-if -------------------------------------------------------------------

def _attempt(wall, by):
    return {
        "vm": "vm0", "attempt": 0, "wall_s": wall,
        "by_resource": [
            {"resource": r, "seconds": s, "share": s / wall}
            for r, s in by.items()
        ],
    }


class TestWhatIf:
    def test_halving_the_dominant_resource(self):
        att = _attempt(10.0, {"net.push": 8.0, "disk": 2.0})
        res = what_if(att, "nic", Fraction(2))
        assert res["affected_s"] == 8.0
        assert res["new_wall_s"] == pytest.approx(6.0)
        assert res["speedup_bound"] == pytest.approx(10.0 / 6.0)

    def test_group_matching(self):
        att = _attempt(10.0, {"net.push": 4.0, "net.prefetch": 2.0,
                              "disk": 3.0, "stall.timeout": 1.0})
        assert what_if(att, "net", Fraction(2))["affected_s"] == 6.0
        assert what_if(att, "storage", Fraction(2))["affected_s"] == 3.0
        assert what_if(att, "stall", Fraction(2))["affected_s"] == 1.0
        # Exact class name matches only itself.
        assert what_if(att, "disk", Fraction(2))["affected_s"] == 3.0
        assert what_if(att, "nope", Fraction(2))["affected_s"] == 0.0

    def test_infinite_factor_removes_the_resource(self):
        att = _attempt(10.0, {"net.push": 8.0, "disk": 2.0})
        _res, inf = parse_what_if("nic=inf")
        res = what_if(att, "nic", inf)
        assert res["new_wall_s"] == pytest.approx(2.0)
        assert res["factor"] == float("inf")

    def test_parse_specs(self):
        assert parse_what_if("NIC=2") == ("NIC", Fraction(2))
        assert parse_what_if("net.push=1.5") == ("net.push", Fraction(1.5))
        # The decimal itself, not the nearest binary float.
        assert parse_what_if("nic=1.1") == ("nic", Fraction(11, 10))
        for bad in ("nic", "=2", "nic=0", "nic=-1", "nic=zoom", "nic=nan",
                    "nic=1/0"):
            with pytest.raises(ValueError):
                parse_what_if(bad)


# -- end-to-end determinism ----------------------------------------------------

class TestDeterminism:
    def test_identical_runs_identical_documents(self):
        import json

        def one_doc():
            obs, env = _causal_env()

            def spine(env_):
                yield env_.probe.causal_tag(env_.timeout(1.5), "stall.chunk_timeout")
                yield env_.probe.causal_tag(env_.timeout(0.5), "retry.backoff")

            with obs.tracer.scope("run"):
                env.process(spine(env), name="migrate:vm0")
                env.run()
            events = chrome_trace(obs.tracer)["traceEvents"]
            events += _migration_span("vm0", 0.0, 2.0,
                                      pid=events[0].get("pid", 1))
            doc = critical_path_summary(events, [("nic", Fraction(2))])
            return json.dumps(doc, sort_keys=True, separators=(",", ":"))

        assert one_doc() == one_doc()
