"""Figure 1: the cloud architecture that integrates the approach.

The paper's Figure 1 is a diagram; its reproducible content is the
*inventory* — which components exist, where they run, and how they are
wired.  This module renders that inventory from a live ``Cluster``, so
the "figure" is generated from the actual object graph rather than
hand-drawn (a missing wire would show up as a missing line).
"""

from __future__ import annotations

from repro.cluster.cloud import Cluster

__all__ = ["render_fig1", "run_fig1"]


def run_fig1(cluster: Cluster, cloud=None) -> dict:
    """Collect the architecture inventory of a live cluster."""
    spec = cluster.spec
    inventory = {
        "compute_nodes": [n.name for n in cluster.nodes],
        "fabric": {
            "nic_bw": spec.nic_bw,
            "backplane_bw": spec.backplane_bw,
            "latency": spec.latency,
        },
        "shared_repository": {
            "kind": type(cluster.repository).__name__,
            "servers": len(cluster.repository.servers),
            "stripe": cluster.repository.chunk_size,
            "replication": cluster.repository.replication,
        },
        "pvfs": {
            "servers": len(cluster.pvfs.servers),
            "stripe_width": cluster.pvfs.stripe_width,
            "client_write_bw": cluster.pvfs.client_write_bw,
        },
        "vms": {},
    }
    if cloud is not None:
        for name, vm in cloud.vms.items():
            inventory["vms"][name] = {
                "node": vm.node.name,
                "manager": vm.manager.name,
            }
    return inventory


def render_fig1(cluster: Cluster, cloud=None) -> str:
    inv = run_fig1(cluster, cloud)
    spec = cluster.spec
    lines = ["== Fig 1: Cloud architecture (generated from the object graph)"]
    lines.append(
        f"cloud middleware ──deploy/migrate──> {len(inv['compute_nodes'])} "
        f"compute nodes"
    )
    lines.append(
        f"  fabric: NIC {spec.nic_bw / 1e6:.1f} MB/s full duplex, "
        f"backplane {spec.backplane_bw / 1e9 if spec.backplane_bw else float('inf'):.1f} GB/s, "
        f"latency {spec.latency * 1e3:.2f} ms"
    )
    repo = inv["shared_repository"]
    lines.append(
        f"  shared repository: {repo['kind']} over {repo['servers']} servers, "
        f"{repo['stripe'] // 1024} KiB stripes x{repo['replication']}"
    )
    pv = inv["pvfs"]
    lines.append(
        f"  pvfs: {pv['servers']} servers, stripe width {pv['stripe_width']}, "
        f"client write ceiling {pv['client_write_bw'] / 1e6:.0f} MB/s"
    )
    for node_name in inv["compute_nodes"]:
        vms_here = [
            f"{vm} [{meta['manager']}]"
            for vm, meta in inv["vms"].items()
            if meta["node"] == node_name
        ]
        suffix = ", ".join(vms_here) if vms_here else "-"
        lines.append(f"    {node_name}: hypervisor + migration manager + "
                     f"local disk ({spec.disk_bw / 1e6:.0f} MB/s) | VMs: {suffix}")
    return "\n".join(lines)
