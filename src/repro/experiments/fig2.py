"""Figure 2: the live storage transfer as it progresses in time.

The paper's Figure 2 sketches the protocol phases (active push during
memory transfer, SYNC, transfer of control, prioritized prefetch with
on-demand pulls, shutdown of the source).  This module *executes* one
hybrid migration under I/O pressure and renders the measured phase
timeline plus the per-phase data movement — the same figure, produced
from a run instead of drawn.
"""

from __future__ import annotations

from repro.experiments.config import VM_WORKING_SET
from repro.experiments.scenarios import ScenarioOutcome, simulate
from repro.metrics.report import render_migration_timeline
from repro.workloads.synthetic import SequentialWriter

__all__ = ["run_fig2", "render_fig2"]

MB = 2**20


def run_fig2(approach: str = "our-approach", seed: int = 0, obs=None):
    """One migration under steady write pressure; returns
    ``(record, stats, traffic_by_tag)``."""

    def deploy(cloud):
        vm = cloud.deploy("vm0", cloud.cluster.node(0), approach=approach,
                          working_set=VM_WORKING_SET)
        SequentialWriter(
            vm, total_bytes=2048 * MB, rate=60e6, op_size=4 * MB,
            region_offset=1024 * MB, region_size=1024 * MB, seed=seed,
        ).start()
        return [(5.0, vm, cloud.cluster.node(1))]

    outcome = ScenarioOutcome(approach=approach, workload=SequentialWriter.name)
    cloud = simulate(outcome, f"{approach}/fig2", 8, deploy, obs=obs)
    manager = cloud.vms["vm0"].manager
    stats = {
        "source": dict(getattr(manager.peer, "stats", {})) if manager.peer else {},
        "destination": dict(getattr(manager, "stats", {})),
    }
    return cloud.collector.records[0], stats, outcome.traffic_by_tag


def render_fig2(approach: str = "our-approach", seed: int = 0, obs=None) -> str:
    record, stats, traffic = run_fig2(approach, seed, obs=obs)
    lines = [
        "== Fig 2: Overview of the live storage transfer as it progresses "
        f"in time ({approach})",
        "",
        render_migration_timeline(record),
        "",
        "data movement:",
    ]
    lines.extend(
        f"  {tag:14s} {traffic[tag] / MB:9.1f} MB"
        for tag in ("memory", "storage-push", "storage-pull", "repo-fetch")
        if tag in traffic
    )
    src = stats.get("source", {})
    dst = stats.get("destination", {})
    if src or dst:
        lines.append(
            "chunk events: "
            f"pushed={src.get('pushed_chunks', 0)}, "
            f"prefetched={dst.get('pulled_chunks', 0)}, "
            f"on-demand={dst.get('ondemand_chunks', 0)}, "
            f"hot-skipped={src.get('skipped_hot_chunks', 0)}"
        )
    return "\n".join(lines)
