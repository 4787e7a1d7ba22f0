"""The paper's contribution and its baselines.

:class:`~repro.core.manager.MigrationManager` traps every guest disk read
and write (the role FUSE plays in the paper) and implements the lazy
copy-on-reference over the shared repository.  Each compared approach from
Table 1 is a subclass:

* :class:`~repro.core.hybrid.HybridManager` — ``our-approach``: active push
  with a write-count ``Threshold`` plus prioritized prefetch after control
  transfer (Algorithms 1-4).
* :class:`~repro.core.precopy.PrecopyManager` — ``precopy``: qcow2-style
  incremental block migration (QEMU/KVM).
* :class:`~repro.core.mirror.MirrorManager` — ``mirror``: synchronous dual
  writes (Haselhorst et al.).
* :class:`~repro.core.postcopy.PostcopyManager` — ``postcopy``: passive
  until control transfer, then pull.
* :class:`~repro.core.shared.SharedStorageManager` — ``pvfs-shared``: all
  I/O remote, no storage transfer.

:data:`~repro.core.registry.APPROACHES` is the programmatic form of the
paper's Table 1.
"""

from repro.core.config import MigrationConfig
from repro.core.hybrid import HybridManager
from repro.core.manager import MigrationManager
from repro.core.mirror import MirrorManager
from repro.core.postcopy import PostcopyManager
from repro.core.precopy import PrecopyManager
from repro.core.registry import APPROACHES, approach_summary, manager_class
from repro.core.shared import SharedStorageManager

__all__ = [
    "APPROACHES",
    "HybridManager",
    "MigrationConfig",
    "MigrationManager",
    "MirrorManager",
    "PostcopyManager",
    "PrecopyManager",
    "SharedStorageManager",
    "approach_summary",
    "manager_class",
]
