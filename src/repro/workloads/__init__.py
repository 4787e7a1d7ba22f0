"""Guest applications driving the evaluation.

* :class:`~repro.workloads.ior.IORWorkload` — the HPC I/O benchmark of
  Section 5.3: per iteration, write then read a large file through POSIX.
* :class:`~repro.workloads.asyncwr.AsyncWRWorkload` — the paper's custom
  compute + asynchronous-write benchmark (and its computational-potential
  counter used for Figure 4(c)).
* :class:`~repro.workloads.cm1.CM1Workload` + ``Barrier`` — the CM1
  atmospheric stencil application of Section 5.5 as a BSP model: compute,
  halo exchange, periodic local dumps.
* :mod:`~repro.workloads.synthetic` — sequential / uniform-random /
  Zipf-hotspot writers for unit tests and ablations.
"""

from repro.workloads.asyncwr import AsyncWRWorkload
from repro.workloads.base import Workload
from repro.workloads.cm1 import Barrier, CM1Workload
from repro.workloads.ior import IORWorkload
from repro.workloads.synthetic import (
    HotspotWriter,
    MixedOLTP,
    PacedReader,
    RandomWriter,
    SequentialWriter,
)

__all__ = [
    "AsyncWRWorkload",
    "Barrier",
    "CM1Workload",
    "HotspotWriter",
    "IORWorkload",
    "MixedOLTP",
    "PacedReader",
    "RandomWriter",
    "SequentialWriter",
    "Workload",
]
