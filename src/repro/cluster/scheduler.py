"""Migration-based datacenter management policies.

The paper's introduction motivates live migration with four management
tasks — load balancing, online maintenance, power management and
pro-active fault tolerance — and its Figure 1 places the "VM scheduling
strategies that leverage live migration" in the cloud middleware.  This
module is that layer: policies that decide *which* VM moves *where*, and
drive the migrations through :class:`~repro.cluster.cloud.CloudMiddleware`.

All policies operate on live placement (``vm.node``), run their
migrations concurrently where the policy allows, and return the
:class:`~repro.metrics.collector.MigrationRecord` list so callers can
account time and traffic.
"""

from __future__ import annotations

from typing import Generator

from repro.cluster.node import ComputeNode
from repro.simkernel.core import Process

__all__ = ["DatacenterScheduler"]


class DatacenterScheduler:
    """Placement policies over a cloud's VMs.

    Parameters
    ----------
    cloud:
        The middleware to deploy/migrate through.
    capacity:
        Maximum VMs a node may host (consolidation/balancing constraint).
    """

    def __init__(self, cloud, capacity: int = 4):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.cloud = cloud
        self.env = cloud.env
        self.capacity = int(capacity)

    # -- placement queries -----------------------------------------------------
    def vms_on(self, node: ComputeNode) -> list:
        return [vm for vm in self.cloud.vms.values() if vm.node is node]

    def occupancy(self) -> dict[str, int]:
        """VM count per node name (all cluster nodes, including empty)."""
        counts = {n.name: 0 for n in self.cloud.cluster.nodes}
        for vm in self.cloud.vms.values():
            counts[vm.node.name] += 1
        return counts

    # -- policies ------------------------------------------------------------
    def evacuate(self, node: ComputeNode, memory=None) -> Process:
        """Online maintenance: move every VM off ``node`` (concurrently,
        to the least-loaded other nodes).  Yields the migration records."""
        return self.env.process(
            self._evacuate(node, memory), name=f"evacuate:{node.name}"
        )

    def _evacuate(self, node: ComputeNode, memory) -> Generator:
        vms = self.vms_on(node)
        migrations = []
        taken: dict[str, int] = {}
        for vm in vms:
            counts = self.occupancy()
            candidates = [
                n for n in self.cloud.cluster.nodes
                if n is not node
                and counts[n.name] + taken.get(n.name, 0) < self.capacity
            ]
            if not candidates:
                raise RuntimeError(
                    f"no capacity left to evacuate {vm.name} from {node.name}"
                )
            target = min(
                candidates,
                key=lambda n: (counts[n.name] + taken.get(n.name, 0), n.name),
            )
            taken[target.name] = taken.get(target.name, 0) + 1
            migrations.append(self.cloud.migrate(vm, target, memory=memory))
        records = []
        for proc in migrations:
            records.append((yield proc))
        return records

    def consolidate(self, memory=None) -> Process:
        """Power management: pack VMs from lightly-loaded nodes onto the
        more heavily-loaded ones (without exceeding capacity), so emptied
        hosts can be shut down.  Yields ``(records, freed_node_names)``."""
        return self.env.process(self._consolidate(memory), name="consolidate")

    def _consolidate(self, memory) -> Generator:
        records = []
        while True:
            counts = self.occupancy()
            occupied = [
                n for n in self.cloud.cluster.nodes if counts[n.name] > 0
            ]
            if len(occupied) <= 1:
                break
            donor = min(occupied, key=lambda n: (counts[n.name], n.name))
            receivers = [
                n for n in occupied
                if n is not donor
                and counts[n.name] + counts[donor.name] <= self.capacity
            ]
            if not receivers:
                break  # nothing fits anywhere: done
            target = max(receivers, key=lambda n: (counts[n.name], n.name))
            # Move the donor's VMs sequentially (same source NIC anyway).
            for vm in self.vms_on(donor):
                records.append(
                    (yield self.cloud.migrate(vm, target, memory=memory))
                )
        counts = self.occupancy()
        freed = sorted(name for name, c in counts.items() if c == 0)
        return records, freed

    def balance(self, memory=None) -> Process:
        """Load balancing: even out VM counts until no node differs from
        another by more than one VM.  Yields the migration records."""
        return self.env.process(self._balance(memory), name="balance")

    def _balance(self, memory) -> Generator:
        records = []
        while True:
            counts = self.occupancy()
            names = sorted(counts, key=lambda n: (counts[n], n))
            low_name, high_name = names[0], names[-1]
            if counts[high_name] - counts[low_name] <= 1:
                break
            by_name = {n.name: n for n in self.cloud.cluster.nodes}
            donor, target = by_name[high_name], by_name[low_name]
            vm = self.vms_on(donor)[0]
            records.append((yield self.cloud.migrate(vm, target, memory=memory)))
        return records
