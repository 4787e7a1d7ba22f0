"""Extension benches: the alternate memory strategies under one roof.

The paper handles storage independently of memory precisely so the memory
strategy can be swapped (Section 4.1); its conclusion asks how the scheme
behaves over post-copy memory.  This bench runs the same hybrid storage
migration over four memory strategies against a hot-set rewriter and
reports time-to-control, total migration time, downtime and memory wire
bytes.
"""

import pytest

from repro.cluster import CloudMiddleware, Cluster, ClusterSpec
from repro.experiments.runner import render_table
from repro.hypervisor.memory import (
    AdaptivePrecopyMemory,
    PostcopyMemory,
    PrecopyMemory,
)
from repro.hypervisor.pagedirty import PageDirtyModel, PageLevelPrecopyMemory
from repro.simkernel import Environment
from repro.workloads.synthetic import HotspotWriter

MB = 2**20


def run_memory_strategy(factory):
    env = Environment()
    cloud = CloudMiddleware(Cluster(env, ClusterSpec(n_nodes=8)))
    vm = cloud.deploy("vm0", cloud.cluster.node(0), working_set=768 * MB)
    vm.dirty_rate_base = 90e6  # heavy memory churn alongside the I/O
    wl = HotspotWriter(
        vm, total_bytes=1024 * MB, rate=30e6, op_size=2 * MB,
        region_offset=1024 * MB, region_size=512 * MB, seed=1,
    )
    wl.start()
    done = {}

    def migrator():
        yield env.timeout(3.0)
        done["rec"] = yield cloud.migrate(
            vm, cloud.cluster.node(1), memory=factory(env)
        )

    env.process(migrator())
    env.run()
    rec = done["rec"]
    return {
        "ttc": rec.time_to_control,
        "mig": rec.migration_time,
        "downtime_ms": (rec.downtime or 0) * 1000,
        "memory_mb": rec.memory_bytes / MB,
    }


STRATEGIES = {
    "pre-copy (paper)": lambda env: PrecopyMemory(max_rounds=20),
    "pre-copy + XBZRLE": lambda env: PrecopyMemory(max_rounds=20, delta_ratio=3.0),
    "adaptive (auto-converge)": lambda env: AdaptivePrecopyMemory(max_rounds=40),
    "page-level (hot-set aware)": lambda env: PageLevelPrecopyMemory(
        PageDirtyModel(768 * MB, 90e6, zipf_s=1.3, seed=2), max_rounds=40
    ),
    "post-copy": lambda env: PostcopyMemory(),
}


def test_memory_strategy_matrix(results_sink):
    results = {name: run_memory_strategy(f) for name, f in STRATEGIES.items()}
    rows = {
        name: [r["ttc"], r["mig"], r["downtime_ms"], r["memory_mb"]]
        for name, r in results.items()
    }
    results_sink(
        "extensions_memory",
        render_table(
            "Extension: memory strategies under the hybrid storage scheme",
            ["time-to-control (s)", "mig time (s)", "downtime (ms)",
             "memory wire (MB)"],
            rows,
        ),
    )
    # Post-copy hands control over almost immediately.
    assert results["post-copy"]["ttc"] < 0.2 * results["pre-copy (paper)"]["ttc"]
    # XBZRLE shrinks memory wire bytes for the same workload.
    assert (
        results["pre-copy + XBZRLE"]["memory_mb"]
        < results["pre-copy (paper)"]["memory_mb"]
    )
    # The page-level model converges (hot-set saturation) with less wire
    # volume than the scalar worst-case model.
    assert (
        results["page-level (hot-set aware)"]["memory_mb"]
        < results["pre-copy (paper)"]["memory_mb"]
    )
    # Every strategy keeps the downtime in the sub-second regime.
    assert all(r["downtime_ms"] < 1000 for r in results.values())
