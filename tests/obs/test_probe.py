"""The probe: per-backend laziness, kernel counters, run scopes.

The byte-identity of every export is pinned by the goldens and the
zero-overhead test; these tests pin the probe's own contracts — values
one backend reads are computed only when that backend is live, the
single-body ``Environment.step`` keeps the profiler's counters and
scope stack exact, and run scopes snapshot even when a run raises.
"""

import numpy as np
import pytest

from repro.obs import Observability, Probe, Profiler, SeriesRecorder, Tracer
from repro.simkernel import Environment
from repro.simkernel.core import NORMAL
from repro.simkernel.events import RearmableTimer
from tests.differential.oracle import kernel_scope


def _never():
    raise AssertionError("computed for a backend that is off")


class TestLazyValues:
    def test_only_a_consuming_backend_computes(self):
        probe = Probe(profiler=Profiler())
        probe.bind(Environment())
        remaining = np.zeros(4, dtype=bool)
        probe.push_stop("vm0", remaining, _never)  # series off
        probe.pull_drained("vm0", 3, 8, _never)  # trace and series off

    def test_fate_cells_computed_once_for_two_backends(self):
        calls = []

        def cells():
            calls.append(1)
            return [[0, "pushed", 2]]

        probe = Probe(tracer=Tracer(), series=SeriesRecorder())
        probe.bind(Environment())
        probe.pull_drained("vm0", 3, 8, cells)
        assert calls == [1]
        drained, fate = probe.tracer.events
        assert drained["name"] == "pull.drained"
        assert fate["args"]["cells"] == [[0, "pushed", 2]]


def _profiled_env():
    obs = Observability(trace=False, metrics=False, profile=True)
    env = Environment()
    obs.install(env)
    return obs.profiler, env


class TestKernelStep:
    def test_cancelled_entry_counts_one_pop_and_one_skip(self):
        prof, env = _profiled_env()
        timer = RearmableTimer(env, _never)
        timer.arm(1.0)
        timer.cancel()
        env.run()
        counters = prof.counters
        assert counters["kernel.heap_push"] == 1
        assert counters["kernel.heap_pop"] == 1
        assert counters["kernel.cancelled_skips"] == 1
        assert "kernel.callbacks_run" not in counters
        assert env.events_processed == 0

    def test_each_pop_counts_under_the_queue_it_came_from(self):
        # An entry armed at a reserved number (as the fabric arms its
        # wakeup) goes to the heap even at zero delay, and pops ahead of
        # the now-bucket entry scheduled after the reservation.  The
        # now-buckets are production's: the oracle heaps every event.
        with kernel_scope("fast"):
            prof, env = _profiled_env()
            seq = env.reserve_seq()
            env.event().succeed()
            env._schedule(env.event(), NORMAL, seq=seq)
            env.run()
        counters = prof.counters
        assert counters["kernel.heap_push"] == counters["kernel.heap_pop"] == 1
        assert (counters["kernel.bucket_push"]
                == counters["kernel.bucket_pop"] == 1)

    def test_scope_stack_balanced_when_a_callback_stops_the_run(self):
        prof, env = _profiled_env()

        def proc():
            yield env.timeout(1.0)
            return 42

        # run(until=event) ends by raising StopSimulation from a callback
        # inside Environment.step.
        assert env.run(until=env.process(proc())) == 42
        assert prof._stack == []
        assert prof.summary()["conservation"]["ok"]
        assert prof.counters["kernel.callbacks_run"] > 0


class TestRunScope:
    def test_metrics_snapshot_survives_a_failing_run(self):
        obs = Observability(trace=False)
        with pytest.raises(RuntimeError):
            with obs.run_scope("r"):
                obs.metrics.counter("x").inc(3)
                raise RuntimeError("boom")
        assert obs.runs["r"]["counters"]["x"] == 3.0

    def test_run_scope_without_backends_records_nothing(self):
        obs = Observability(trace=False, metrics=False)
        with obs.run_scope("r"):
            pass
        assert obs.runs == {}
