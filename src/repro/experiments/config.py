"""Workload calibration for the paper's evaluation (Section 5).

The workload maxima are the paper's measured no-migration ceilings used
to normalize Figure 3(c).  The hardware calibration, the Grid'5000
*graphene* cluster of Section 5.1, is
:class:`~repro.cluster.cloud.ClusterSpec`'s defaults.
"""

from __future__ import annotations

__all__ = [
    "IOR_MAX_READ",
    "IOR_MAX_WRITE",
    "ASYNCWR_MAX_WRITE",
    "VM_MEMORY",
    "VM_WORKING_SET",
    "CM1_WORKING_SET",
]

#: Paper-measured guest ceilings (Section 5.3).
IOR_MAX_READ = 1e9  # 1 GB/s POSIX reads, no migration
IOR_MAX_WRITE = 266e6  # 266 MB/s POSIX writes, no migration
ASYNCWR_MAX_WRITE = 6e6  # ~6 MB/s constant pressure, no migration

#: VM sizing (Section 5.3/5.5).
VM_MEMORY = 4 * 2**30
#: Touched memory shipped by the first pre-copy round.  The paper gives
#: every VM 4 GB of RAM, but QEMU only moves touched pages: an IOR guest's
#: page cache holds the whole benchmark file (~1 GB), an AsyncWR guest
#: touches little beyond its buffers, CM1 keeps subdomain fields and MPI
#: buffers live.
VM_WORKING_SET = 1 * 2**30
ASYNCWR_WORKING_SET = 256 * 2**20
CM1_WORKING_SET = 1.2 * 2**30
