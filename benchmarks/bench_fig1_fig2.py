"""Regenerates the paper's diagrams from live objects: Figure 1 (the
architecture inventory) and Figure 2 (the protocol timeline)."""

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.experiments.fig1 import render_fig1, run_fig1
from repro.experiments.fig2 import render_fig2, run_fig2
from repro.simkernel import Environment


def test_fig1_architecture(results_sink):
    def build():
        env = Environment()
        cluster = Cluster(env, ClusterSpec(n_nodes=6))
        cloud = CloudMiddleware(cluster)
        cloud.deploy("vm0", cluster.node(0), approach="our-approach")
        cloud.deploy("vm1", cluster.node(1), approach="pvfs-shared")
        return cluster, cloud

    cluster, cloud = build()
    inv = run_fig1(cluster, cloud)
    # Every dark-background box of the paper's Figure 1 exists and is wired.
    assert len(inv["compute_nodes"]) == 6
    assert inv["shared_repository"]["kind"] == "StripedRepository"
    assert inv["vms"]["vm0"]["manager"] == "our-approach"
    assert inv["vms"]["vm1"]["manager"] == "pvfs-shared"
    results_sink("fig1", render_fig1(cluster, cloud))


def test_fig2_protocol_timeline(results_sink):
    record, stats, traffic = run_fig2()
    names = [name for name, _, _ in record.phases]
    # The phases of the paper's Figure 2, in order.
    assert names == [
        "request/setup",
        "memory + push",
        "sync",
        "downtime",
        "pull / post-control",
    ]
    # Active phase: chunks were pushed while memory moved; passive phase:
    # the destination prefetched the remainder.
    assert stats["source"]["pushed_chunks"] > 0
    assert stats["destination"]["pulled_chunks"] > 0
    assert traffic["memory"] > 0 and traffic["storage-push"] > 0
    results_sink("fig2", render_fig2())
