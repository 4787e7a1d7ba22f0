"""The IaaS cloud: compute nodes, cluster wiring, middleware."""

from repro.cluster.cloud import CloudMiddleware, Cluster, ClusterSpec
from repro.cluster.node import ComputeNode

__all__ = [
    "CloudMiddleware",
    "Cluster",
    "ClusterSpec",
    "ComputeNode",
]
