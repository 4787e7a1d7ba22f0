"""Tests of the figure-level benchmark itself (``pytest benchmarks/e2e -q``).

They never run a benchmark workload: the run loop is driven with a fake
child, and the tracer is exercised on ``run_fig2`` and synthetic spans.
"""

from __future__ import annotations

import json
import re
import sys

import pytest

import compare
import run

sys.path.insert(0, str(run.SRC))

import spans  # noqa: E402
import suite  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def _fig2_outputs(obs=None):
    from repro.experiments.fig2 import run_fig2

    record, stats, traffic = run_fig2("our-approach", seed=0, obs=obs)
    return {"phases": record.phases, "downtime": record.downtime,
            "released_at": record.released_at, "stats": stats,
            "traffic_by_tag": dict(traffic)}


@pytest.fixture(scope="module")
def traced_fig2():
    """``(plain digest, traced digest, tracer, layer metrics)`` of run_fig2."""
    from repro.obs import Observability

    plain = suite.digest(_fig2_outputs())
    obs = Observability(trace=False, metrics=False, profile=True)
    tracer = spans.SpanTracer().install()
    try:
        traced = suite.digest(_fig2_outputs(obs))
    finally:
        tracer.uninstall()
    return plain, traced, tracer, spans.layer_metrics(tracer, obs.profiler, 1.0)


def _child(digest="d" * 64, host_s=1.0, **extra):
    rec = {"setup_s": 0.2, "wall": host_s + 0.2, "peak_rss_mb": 50.0,
           "digest": digest, "problems": [], "host_s": host_s, "cells": 2}
    rec.update(extra)
    return rec


def _fake_spawn(monkeypatch, digests=None, layers=None):
    """Replace the child spawner; timed runs take their digest from ``digests``."""
    digests = iter(digests or [])

    def spawn(workload, seed, *extra):
        if "--setup-only" in extra:
            return {"setup_s": 0.2, "wall": 0.2, "peak_rss_mb": 40.0}
        if "--spans" in extra:
            return _child(host_s=1.5, layers=dict(layers or {}))
        return _child(digest=next(digests, "d" * 64))

    monkeypatch.setattr(run, "spawn", spawn)


# -- names ------------------------------------------------------------------
def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)
    assert next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_every_per_layer_metric_is_emitted_by_a_traced_run(traced_fig2):
    *_, layers = traced_fig2
    emitted = set(layers) | {"trace.overhead_frac"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_every_end_to_end_metric_is_emitted_by_a_timed_run(monkeypatch, tmp_path):
    _fake_spawn(monkeypatch)
    res = run.measure("fig3-3seeds", 0, 1.0, run.DEFAULT_RUNS, 0, tmp_path)
    assert set(res["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert res["end_to_end"]["host_s"]["n"] == run.DEFAULT_RUNS
    assert res["end_to_end"]["setup_s"]["n"] == run.SETUP_PROBES
    assert res["failed"] == 0 and res["per_layer"] == {}


def test_digest_mismatch_fails_the_run(monkeypatch, tmp_path):
    _fake_spawn(monkeypatch, digests=["a" * 64], layers={"simkernel.events": 1})
    res = run.measure("fig3-3seeds", 0, 20.0, 1, 1, tmp_path)
    assert res["attempted"] == 2  # one timed reference + one traced
    assert res["failed"] == 1 and res["errors_frac"] == 0.5
    assert "trace.overhead_frac" not in res["per_layer"]


# -- compare ----------------------------------------------------------------
def _entry(samples):
    q1, med, q3 = run.quartiles(samples)
    return {"value": med, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def _results(host, digest="d", errors=0.0, events=100, self_s=1.0):
    e2e = {"host_s": _entry(host), "setup_s": _entry([0.2] * 5),
           "peak_rss_mb": _entry([50.0] * 5)}
    layers = {m["name"]: 1 for m in SPEC["per_layer"]}
    layers.update({"simkernel.events": events, "simkernel.self_s": self_s})
    return {"workloads": {"fig3-3seeds": {"digest": digest, "errors_frac": errors,
                                          "end_to_end": e2e, "per_layer": layers}}}


def _verdicts(a, b):
    rows, failed = compare.compare(a, b, SPEC)
    return {row[1]: row[5] for row in rows}, failed


@pytest.mark.parametrize("b_host, verdict, failed", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], "unchanged", False),
    ([1.30, 1.31, 1.29, 1.30, 1.32], "worse", True),
    ([0.70, 0.71, 0.69, 0.70, 0.72], "better", False),
    ([0.50, 1.00, 1.60, 1.00, 1.90], "unresolved", False),
    ([0.93, 0.94, 0.92, 0.93, 0.95], "better", False),  # every B run beats every A run
])
def test_compare_end_to_end_verdicts(b_host, verdict, failed):
    a = _results([1.00, 0.99, 1.01, 1.00, 0.98])
    got, any_failed = _verdicts(a, _results(b_host))
    assert got["host_s"] == verdict and any_failed is failed


def test_compare_wide_spread_is_unresolved_unless_every_run_beats_the_other():
    a = _results([1.0, 1.5, 2.0, 1.2, 1.8])
    assert _verdicts(a, _results([1.1, 1.6, 2.1, 1.3, 1.9]))[0]["host_s"] == "unresolved"
    assert _verdicts(a, _results([0.5, 0.6, 0.7, 0.8, 0.9]))[0]["host_s"] == "better"


def test_compare_counts_exact_times_unresolved_digest_and_errors():
    a = _results([1.0] * 5)
    got, failed = _verdicts(a, _results([1.0] * 5, digest="e", errors=0.2,
                                        events=99, self_s=0.5))
    assert got["digest"] == "outputs changed"
    assert got["errors_frac"] == "worse" and failed
    assert got["simkernel.events"] == "better"
    assert got["simkernel.cancelled_skips"] == "unchanged"
    assert got["simkernel.self_s"] == "unresolved"


# -- spans ------------------------------------------------------------------
def test_self_time_is_inclusive_minus_child_spans():
    ticks = iter([0, 0, 1, 2, 3, 4, 5, 9, 10])  # the first is the trace origin
    t = spans.SpanTracer(clock=lambda: next(ticks))
    t.layer_of.update({"A": "core", "B": "storage", "C": "netsim.flows",
                       "D": "storage"})
    # A[0,10] > B[1,4] > C[2,3];  A > D[5,9]
    t.enter("A"); t.enter("B"); t.enter("C"); t.exit(); t.exit()  # noqa: E702
    t.enter("D"); t.exit(); t.exit()  # noqa: E702
    assert {n: s[2] for n, s in t.stats.items()} == {"C": 1, "B": 2, "D": 4, "A": 3}
    assert {n: s[1] for n, s in t.stats.items()} == {"C": 1, "B": 3, "D": 4, "A": 10}
    layers = t.layer_self_s()
    assert layers["storage"] == 6 and layers["core"] == 3
    assert sum(layers.values()) == 10
    assert [(n, d) for n, _, d, _ in t.spans] == [("C", 1), ("B", 3), ("D", 4), ("A", 10)]


def test_wrapped_run_fig2_gives_the_same_digest(traced_fig2):
    plain, traced, tracer, layers = traced_fig2
    assert plain == traced
    assert tracer.calls["LiveMigration.run"] == 1
    assert layers["simkernel.events"] > 0 and layers["core.io_ops"] > 0


def test_uninstall_restores_every_function():
    from repro.netsim.flows import Fabric

    original = Fabric.transfer
    tracer = spans.SpanTracer().install()
    assert Fabric.transfer is not original
    tracer.uninstall()
    assert Fabric.transfer is original


def test_interrupt_and_close_pass_through_a_wrapped_generator():
    from repro.simkernel import Environment
    from repro.simkernel.events import Interrupt

    class Manager:
        def on_wait(self, env, log):
            try:
                yield env.timeout(10)
            except Interrupt as intr:
                log.append((intr.cause, env.now))
                return "interrupted"
            finally:
                log.append("finally")
            return "timed out"

    tracer = spans.SpanTracer()
    tracer.wrap(Manager, "on_wait", "core")
    env, log, mgr = Environment(), [], Manager()

    def body():
        log.append((yield from mgr.on_wait(env, log)))

    proc = env.process(body())

    def interrupter():
        yield env.timeout(1)
        proc.interrupt("abort")

    env.process(interrupter())
    env.run()
    assert log == [("abort", 1.0), "finally", "interrupted"]
    assert tracer.calls["Manager.on_wait"] == 1
    assert tracer.stats["Manager.on_wait"][0] == 2  # two resumes

    gen = mgr.on_wait(env, log)
    next(gen)
    gen.close()
    assert log[-1] == "finally"
