"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the *mechanisms* the paper
argues for: the write-count Threshold, the prioritized prefetch order, the
push phase itself, and repository striping.
"""

from repro.core.config import MigrationConfig
from repro.experiments.runner import render_table
from repro.experiments.scenarios import run_single_migration

from benchmarks.conftest import write_result

#: IOR at 4 iterations over a 256 MiB file in 8 MiB operations.
IOR_4X256MIB = dict(iterations=4, file_size=256 * 2**20, op_size=8 * 2**20)


def _run(approach="our-approach", config=None, **kwargs):
    params = dict(
        workload="ior", warmup=2.0, workload_kwargs=IOR_4X256MIB, config=config
    )
    params.update(kwargs)
    return run_single_migration(approach, **params)


def test_threshold_sweep(results_sink):
    """Sweeping the write-count Threshold: higher thresholds push hot
    chunks repeatedly (more traffic); the migration still completes and
    traffic grows monotonically-ish with the bound."""

    def sweep():
        out = {}
        for thr in (1, 2, 3, 5):
            o = _run(config=MigrationConfig(threshold=thr))
            out[thr] = o
        return out

    results = sweep()
    rows = {
        f"threshold={t}": [
            o.migration_time,
            o.total_traffic() / 2**20,
            o.traffic_by_tag.get("storage-push", 0) / 2**20,
        ]
        for t, o in results.items()
    }
    results_sink(
        "ablation_threshold",
        render_table(
            "Ablation: write-count Threshold (IOR, 4 x 256 MiB in 8 MiB ops)",
            ["mig time (s)", "total (MB)", "push (MB)"],
            rows,
        ),
    )
    push = {t: o.traffic_by_tag.get("storage-push", 0) for t, o in results.items()}
    # A larger threshold never pushes less.
    assert push[5] >= push[1]


def _prefetch_scenario(policy):
    """Cold 256 MB + a hot 64 MB tail rewritten during migration; after
    control the guest reads the hot tail.  Write-count priority fetches
    the tail first; FIFO fetches it last (it has the highest chunk ids),
    so the read pays for on-demand pulls."""
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
    from repro.simkernel import Environment

    MB = 2**20
    env = Environment()
    cloud = CloudMiddleware(
        Cluster(env, ClusterSpec(n_nodes=8)),
        config=MigrationConfig(prefetch_policy=policy, threshold=1),
    )
    vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=256 * MB)
    out = {}

    def proc():
        # A cold body too large for the push to cover before control, plus
        # a hot tail rewritten during the migration: both stay in the
        # remaining set, with very different write counts.
        yield from vm.write(512 * MB, 1536 * MB)
        mig = cloud.migrate(vm, cloud.cluster.node(1))

        def hot_writer():
            yield env.timeout(0.1)
            for _ in range(3):
                yield from vm.write(512 * MB + 1536 * MB, 64 * MB)

        def reader():
            while not vm.manager.is_destination:
                yield env.timeout(0.02)
            t0 = env.now
            yield from vm.read(512 * MB + 1536 * MB, 64 * MB)
            out["read_time"] = env.now - t0

        env.process(hot_writer())
        env.process(reader())
        rec = yield mig
        out["mig_time"] = rec.migration_time

    env.process(proc())
    env.run()
    out["ondemand"] = vm.manager.stats["ondemand_chunks"]
    return out


def test_prefetch_policy(results_sink):
    """Prefetch order: the paper's write-count priority fetches hot chunks
    first, so a post-control read of hot data beats FIFO order."""

    def sweep():
        return {p: _prefetch_scenario(p) for p in ("writecount", "fifo", "random")}

    results = sweep()
    rows = {
        p: [r["mig_time"], r["read_time"], r["ondemand"]]
        for p, r in results.items()
    }
    results_sink(
        "ablation_prefetch",
        render_table(
            "Ablation: prefetch policy (hot-tail read after control)",
            ["mig time (s)", "hot read (s)", "on-demand chunks"],
            rows,
        ),
    )
    assert results["writecount"]["read_time"] <= results["fifo"]["read_time"]


def test_push_phase(results_sink):
    """The push phase on/off = our-approach vs postcopy on identical
    inputs: with a settled modified set, the push moves everything before
    control and the pull phase nearly vanishes."""
    from repro.workloads.synthetic import SequentialWriter

    MB = 2**20

    def run_one(approach):
        from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
        from repro.simkernel import Environment

        env = Environment()
        cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=8)))
        vm = cloud.deploy("vm0", cloud.cluster.node(0), approach=approach,
                          working_set=256 * MB)
        wl = SequentialWriter(
            vm, total_bytes=512 * MB, rate=100e6, op_size=8 * MB,
            region_offset=512 * MB, region_size=512 * MB,
        )
        wl.start()
        done = {}

        def migrator():
            yield env.timeout(6.0)
            done["rec"] = yield cloud.migrate(vm, cloud.cluster.node(1))

        env.process(migrator())
        env.run()
        o = done["rec"]
        return {
            "mig_time": o.migration_time,
            "pull": cloud.cluster.fabric.meter.bytes("storage-pull"),
            "push": cloud.cluster.fabric.meter.bytes("storage-push"),
        }

    def run_pair():
        return {
            "push on (ours)": run_one("our-approach"),
            "push off (postcopy)": run_one("postcopy"),
        }

    results = run_pair()
    rows = {
        name: [r["mig_time"], r["push"] / 2**20, r["pull"] / 2**20]
        for name, r in results.items()
    }
    results_sink(
        "ablation_push",
        render_table(
            "Ablation: push phase (512 MB settled working data)",
            ["mig time (s)", "push (MB)", "pull (MB)"],
            rows,
        ),
    )
    ours = results["push on (ours)"]
    post = results["push off (postcopy)"]
    # The push covers whatever the pre-control window allows; the pull
    # volume must shrink accordingly.
    assert ours["pull"] < 0.75 * post["pull"]
    assert ours["push"] > 0 and post["push"] == 0


def test_striping(results_sink):
    """Repository striping: first-touch of the base image from a striped
    repository vs a repository with one effective server (replication and
    striping collapse onto node0)."""
    from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
    from repro.simkernel import Environment

    def first_touch(n_servers):
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=8))
        # Restrict the repository to the first n_servers hosts.
        cluster.repository.servers = [
            n.host for n in cluster.nodes[:n_servers]
        ]
        cloud = CloudMiddleware(cluster)
        vms = [
            cloud.deploy(f"vm{i}", cluster.node(i + 1), approach="our-approach")
            for i in range(4)
        ]
        done = []

        def reader(vm):
            yield from vm.read(0, 512 * 2**20)
            done.append(env.now)

        for vm in vms:
            env.process(reader(vm))
        env.run()
        return max(done)

    def sweep():
        return {"striped (7 servers)": first_touch(7), "single server": first_touch(1)}

    results = sweep()
    results_sink(
        "ablation_striping",
        render_table(
            "Ablation: repository striping, 4 concurrent cold reads of 512 MB",
            ["completion (s)"],
            {k: [v] for k, v in results.items()},
        ),
    )
    assert results["striped (7 servers)"] < results["single server"]
