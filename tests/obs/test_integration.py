"""End-to-end observability tests: CLI export, determinism, zero overhead."""

import json

import pytest

from repro.cli import main
from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.obs import NULL_PROBE, Observability, Probe
from repro.simkernel import Environment
from repro.workloads.synthetic import SequentialWriter

MB = 2**20


def _run_mini_migration(obs=None):
    """One small hybrid migration under write pressure; returns (env, record)."""
    env = Environment()
    if obs is not None:
        obs.install(env)
    cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=4)))
    vm = cloud.deploy("vm0", cloud.cluster.node(0), approach="our-approach")
    wl = SequentialWriter(
        vm, total_bytes=256 * MB, rate=60e6, op_size=4 * MB,
        region_offset=0, region_size=256 * MB, seed=1,
    )
    wl.start()
    done = {}

    def migrator():
        yield env.timeout(2.0)
        done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

    env.process(migrator())
    env.run()
    return env, done["rec"]


class TestCliAcceptance:
    def test_single_writes_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main([
            "single", "--approach", "our-approach", "--workload", "ior",
            "--trace", str(trace), "--metrics-out", str(metrics),
        ])
        assert rc == 0
        assert "our-approach" in capsys.readouterr().out

        # Valid Chrome trace-event JSON with the expected fields.
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events
        for ev in events:
            assert "ph" in ev and "name" in ev
            if ev["ph"] != "M":
                assert "ts" in ev
        names = {e["name"] for e in events}
        assert "push.batch" in names
        assert "prefetch.batch" in names

        # Metrics dump holds the push/prefetch/pull counter families.
        dump = json.loads(metrics.read_text())
        counters = dump["runs"]["our-approach/ior"]["counters"]
        assert counters["push.chunks"] > 0
        assert counters["pull.prefetch.chunks"] > 0
        assert "push.hot_skipped" in counters

    def test_jsonl_suffix_selects_line_stream(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        rc = main([
            "fig2", "--approach", "our-approach", "--trace", str(trace),
        ])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all("ph" in json.loads(line) for line in lines)


class TestDeterminism:
    def test_identical_runs_emit_byte_identical_traces(self, tmp_path):
        paths = []
        for i in range(2):
            obs = Observability()
            with obs.run_scope("mini"):
                _run_mini_migration(obs)
            path = tmp_path / f"run{i}.json"
            obs.write(trace_path=path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


#: Backend sets the probe renders into, as ``Observability`` arguments.
BACKEND_SETS = {
    "none": dict(trace=False, metrics=False),
    "trace-causal-full": dict(trace=True, metrics=False, detail="full",
                              causal=True),
    "metrics": dict(trace=False, metrics=True),
    "series": dict(trace=False, metrics=False, series=True),
    "profile": dict(trace=False, metrics=False, profile=True),
    "all": dict(detail="full", causal=True, series=True, profile=True),
}


@pytest.fixture(scope="module")
def plain_run():
    return _run_mini_migration(obs=None)


class TestZeroOverhead:
    @pytest.mark.parametrize("backends", sorted(BACKEND_SETS))
    def test_backends_never_perturb_the_run(self, plain_run, backends):
        env_plain, rec_plain = plain_run
        obs = Observability(**BACKEND_SETS[backends])
        env_obs, rec_obs = _run_mini_migration(obs)
        # Any set of backends schedules exactly the kernel events of the
        # uninstrumented run and lands on the same results.
        assert env_plain._seq == env_obs._seq
        assert env_plain.now == env_obs.now
        assert repr(rec_plain) == repr(rec_obs)
        assert rec_plain.migration_time == rec_obs.migration_time
        assert rec_plain.downtime == rec_obs.downtime
        assert rec_plain.phases == rec_obs.phases
        assert obs.probe.enabled is (backends != "none")

    def test_null_probe_is_default_and_stateless(self):
        assert Environment().probe is NULL_PROBE
        assert Observability(trace=False, metrics=False).probe is NULL_PROBE
        assert NULL_PROBE.enabled is False
        # Shared by every environment, so it must carry no state at all:
        # no instance dict, and none of Probe's slots ever filled.
        assert not hasattr(NULL_PROBE, "__dict__")
        assert not any(hasattr(NULL_PROBE, slot) for slot in Probe.__slots__)
