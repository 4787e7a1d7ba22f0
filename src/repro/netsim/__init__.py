"""Flow-level (fluid) datacenter network simulation.

Models the Grid'5000-style fabric of the paper: every compute node has a
full-duplex NIC (117.5 MB/s measured for GbE), all nodes hang off one core
switch whose backplane (~8 GB/s for the Cisco Catalyst used in the paper)
is a shared capacity constraint.  Concurrent flows receive their **max-min
fair** share subject to per-NIC ingress/egress caps and the backplane cap —
this is the mechanism behind the paper's Figure 4 finding that pre-copy
collapses once the instantaneous demand of many simultaneous migrations
exceeds the backplane.

Public surface:

* :class:`~repro.netsim.topology.Host` /
  :class:`~repro.netsim.topology.Topology` — NICs and constraints.
* :class:`~repro.netsim.flows.Fabric` — the live network: open flows,
  ``transfer``/``transfer_many``/``message`` primitives, byte integration
  under changing rates.
* :class:`~repro.netsim.traffic.TrafficMeter` — per-tag byte accounting.
"""

from repro.netsim.flows import Fabric, NetFlow
from repro.netsim.topology import Host, Topology
from repro.netsim.traffic import TrafficMeter

__all__ = [
    "Fabric",
    "Host",
    "NetFlow",
    "Topology",
    "TrafficMeter",
]
