"""Cluster construction and the cloud middleware.

:class:`ClusterSpec` captures the Grid'5000 *graphene* calibration the
paper's evaluation ran on (Section 5.1); :class:`Cluster` wires topology,
fabric, disks and both repositories; :class:`CloudMiddleware` is the
user-facing frontend that deploys VM instances from a base image and
initiates live migrations (the component that "implements the VM
scheduling strategies" in Figure 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.node import ComputeNode
from repro.core.config import MigrationConfig
from repro.core.registry import manager_class
from repro.hypervisor.control import LiveMigration
from repro.hypervisor.vm import VMInstance
from repro.metrics.collector import MetricsCollector
from repro.netsim.flows import Fabric
from repro.netsim.topology import Topology
from repro.repository.blobseer import StripedRepository
from repro.repository.pvfs import PVFS
from repro.simkernel.core import Environment, Process
from repro.storage.disk import LocalDisk
from repro.storage.virtualdisk import VirtualDisk

__all__ = ["ClusterSpec", "Cluster", "CloudMiddleware"]


@dataclass
class ClusterSpec:
    """Hardware calibration (defaults: Grid'5000 graphene, Section 5.1)."""

    n_nodes: int = 8
    nic_bw: float = 117.5e6  # measured GbE TCP throughput
    backplane_bw: Optional[float] = 8e9  # Cisco Catalyst aggregate
    latency: float = 1e-4  # 0.1 ms
    disk_bw: float = 55e6  # SATA II sequential
    disk_cache_bytes: float = 8 * 2**30  # host page cache budget
    chunk_size: int = 256 * 1024  # BlobSeer stripe size
    image_size: int = 4 * 2**30  # base disk image
    #: Allocated portion of the base image (a minimal Debian Sid install
    #: plus applications, ~1 GB); the rest of the 4 GB image is scratch.
    base_allocated: int = 1 * 2**30
    repo_replication: int = 1
    pvfs_stripe_width: int = 4
    pvfs_client_write_bw: float = 14e6  # qcow2-over-PVFS sync ceiling

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("a cluster needs at least 2 nodes")
        if self.image_size % self.chunk_size != 0:
            raise ValueError("image_size must be a multiple of chunk_size")
        if not 0 <= self.base_allocated <= self.image_size:
            raise ValueError("base_allocated must lie in [0, image_size]")


class Cluster:
    """Topology + fabric + nodes + repositories, built from a spec."""

    def __init__(self, env: Environment, spec: Optional[ClusterSpec] = None):
        self.env = env
        self.spec = spec if spec is not None else ClusterSpec()
        s = self.spec
        self.topology = Topology(backplane=s.backplane_bw)
        self.nodes: list[ComputeNode] = []
        for i in range(s.n_nodes):
            host = self.topology.add_host(f"node{i}", nic_out=s.nic_bw)
            disk = LocalDisk(
                env,
                bandwidth=s.disk_bw,
                cache_bytes=s.disk_cache_bytes,
                chunk_size=s.chunk_size,
                name=f"node{i}",
            )
            self.nodes.append(ComputeNode(f"node{i}", host, disk))
        self.fabric = Fabric(env, self.topology, latency=s.latency)
        hosts = [n.host for n in self.nodes]
        # Both repository flavors span all compute nodes, as in the paper.
        self.repository = StripedRepository(
            env,
            self.fabric,
            hosts,
            chunk_size=s.chunk_size,
            replication=s.repo_replication,
        )
        self.pvfs = PVFS(
            env,
            self.fabric,
            hosts,
            chunk_size=s.chunk_size,
            client_write_bw=s.pvfs_client_write_bw,
            stripe_width=s.pvfs_stripe_width,
        )

    def node(self, index: int) -> ComputeNode:
        return self.nodes[index]

    def __repr__(self) -> str:
        return f"<Cluster {len(self.nodes)} nodes>"


class CloudMiddleware:
    """Deployment and migration frontend."""

    def __init__(
        self,
        cluster: Cluster,
        collector: Optional[MetricsCollector] = None,
        config: Optional[MigrationConfig] = None,
    ):
        self.cluster = cluster
        self.env = cluster.env
        self.collector = collector if collector is not None else MetricsCollector()
        self.config = config if config is not None else MigrationConfig()
        self.vms: dict[str, VMInstance] = {}

    def deploy(
        self,
        name: str,
        node: ComputeNode,
        approach: str = "our-approach",
        memory_size: float = 4 * 2**30,
        working_set: float = 1 * 2**30,
        read_bw: float = 1e9,
        write_bw: float = 266e6,
    ) -> VMInstance:
        """Start a VM instance from the base image on ``node``.

        ``approach`` selects the Table 1 storage strategy; VMs whose
        manager keeps storage on PVFS (``pvfs-shared``) are wired to the
        PVFS deployment, everything else to the striped repository.
        """
        if name in self.vms:
            raise ValueError(f"VM name {name!r} already in use")
        spec = self.cluster.spec
        cls = manager_class(approach)
        repo = (self.cluster.pvfs if cls.storage_placement == "pvfs"
                else self.cluster.repository)
        vm = VMInstance(
            self.env,
            name,
            memory_size=memory_size,
            working_set=working_set,
            read_bw=read_bw,
            write_bw=write_bw,
        )
        vdisk = VirtualDisk(
            self.env,
            size=spec.image_size,
            chunk_size=spec.chunk_size,
            disk=node.disk,
            name=f"{name}@src",
            base_allocated=spec.base_allocated,
        )
        manager = cls(
            self.env,
            vm,
            node,
            vdisk,
            repo,
            self.cluster.fabric,
            self.config,
        )
        vm.place(node, manager)
        self.vms[name] = vm
        return vm

    def migrate(
        self,
        vm: VMInstance,
        dst_node: ComputeNode,
        memory: Optional[object] = None,
        restarts: int = 0,
    ) -> Process:
        """Initiate a live migration; returns the migration process (an
        event yielding the final MigrationRecord).

        With ``restarts > 0`` an aborted attempt (destination failure,
        retry exhaustion, watchdog) is re-issued after
        ``config.restart_backoff`` seconds, up to ``restarts`` extra
        attempts — abort-and-restart: the VM kept running on the source
        throughout, so another attempt is always safe.  Restarting is
        skipped while the destination node is marked failed.
        """

        def one_attempt():
            migration = LiveMigration(
                self.env,
                self.cluster.fabric,
                vm,
                dst_node,
                self.collector,
                memory=memory,
            )
            return self.env.process(migration.run(), name=f"migrate:{vm.name}")

        if restarts <= 0:
            return one_attempt()

        def attempts():
            record = yield one_attempt()
            started = 0  # restarts that actually ran, not retries skipped
            for _ in range(restarts):
                if not record.aborted:
                    return record
                yield self.env.timeout(vm.manager.config.restart_backoff)
                if getattr(dst_node, "failed", False):
                    # The destination is (still) down; a fresh attempt
                    # would abort again without moving a byte.
                    continue
                started += 1
                p = self.env.probe
                if p.enabled:
                    p.migration_restart(vm.name, started)
                record = yield one_attempt()
            return record

        return self.env.process(attempts(), name=f"migrate-retry:{vm.name}")
