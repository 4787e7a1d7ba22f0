"""Algorithm parameters of the migration strategies."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MigrationConfig"]


@dataclass
class MigrationConfig:
    """Tunables of the storage transfer strategies.

    Attributes
    ----------
    threshold:
        The paper's ``Threshold``: a chunk written at least this many times
        since MIGRATION_REQUEST is considered *dirty/hot* and is no longer
        pushed; it is deferred to the prioritized prefetch phase.  The
        default of 1 pushes only chunks untouched since the migration
        request — every chunk crosses the wire at most once before control
        transfer, the most conservative reading of the paper's bound (the
        paper does not report its own value; the ablation bench sweeps it).
    push_batch:
        Chunks moved per background-push transfer.  Batching amortizes
        per-transfer control costs (and simulator events); the paper's
        implementation streams chunks back-to-back, which batching models.
    pull_batch:
        Chunks moved per background-prefetch transfer.
    prefetch_policy:
        Order of the destination's prefetch: ``"writecount"`` (the paper —
        decreasing write count), ``"fifo"`` (chunk index order) or
        ``"random"``.  Alternatives exist for the ablation benches.
    precopy_rounds_max:
        Iteration cap for the dirty-block pre-copy baseline before it gives
        up waiting for convergence and forces the final sync.
    precopy_dirty_target:
        The pre-copy baseline keeps iterating until its unsent dirty
        backlog is below this many bytes.
    precopy_force_after:
        Seconds after the migration request at which pre-copy stops
        waiting for its dirty set to drain and accepts a long final flush
        (termination safety valve for endless write pressure).
    ondemand_weight:
        Fair-share weight of on-demand pulls relative to background
        prefetch flows (the paper suspends prefetching entirely; a large
        weight models "serve the read request with priority").
    seed:
        Base RNG seed for any strategy-internal randomness (random
        prefetch order in ablations).
    """

    threshold: int = 1
    push_batch: int = 32
    pull_batch: int = 32
    prefetch_policy: str = "writecount"
    precopy_rounds_max: int = 100
    precopy_dirty_target: float = 16 * 256 * 1024
    precopy_force_after: float = 1800.0
    #: QEMU block migration flattens the backing chain: the bulk phase
    #: carries the allocated base image too (see core.precopy).  False
    #: models a destination that re-opens the shared backing file and
    #: receives only the snapshot layer — this single switch is what
    #: moves the paper's precopy numbers between the Figure 4(b) regime
    #: (flattened, ~2.2 GB per migration) and the Figure 5(b) regime
    #: (snapshot-only, precopy within ~15 % of our-approach).
    precopy_flatten: bool = True
    ondemand_weight: float = 8.0
    #: Per-batch transfer timeout (seconds) for the migration data path.
    #: Infinite by default so fault-free runs take a single attempt with
    #: no timer events — byte-identical to the pre-fault engines (the
    #: golden fixtures pin this).  Fault plans set it finite.
    chunk_timeout: float = float("inf")
    #: Bounded-retry budget after a transfer timeout or a transient
    #: repository failure (0 = give up on the first error).
    retry_max: int = 3
    #: First retry back-off in seconds; doubles on every further attempt.
    retry_backoff: float = 0.5
    #: Watchdog deadline for the pre-control phase: a migration stuck
    #: longer than this (black-holed control message, partitioned memory
    #: stream) is aborted, leaving the VM running on the source.
    migration_timeout: float = float("inf")
    #: Pause between an abort and the next attempt when the middleware
    #: restarts a migration (``CloudMiddleware.migrate(restarts=...)``).
    restart_backoff: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.push_batch < 1 or self.pull_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.prefetch_policy not in ("writecount", "fifo", "random"):
            raise ValueError(f"unknown prefetch policy {self.prefetch_policy!r}")
        if self.ondemand_weight <= 0:
            raise ValueError("ondemand_weight must be positive")
        if self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive")
        if self.retry_max < 0:
            raise ValueError("retry_max must be >= 0")
        if self.retry_backoff <= 0:
            raise ValueError("retry_backoff must be positive")
        if self.migration_timeout <= 0:
            raise ValueError("migration_timeout must be positive")
        if self.restart_backoff < 0:
            raise ValueError("restart_backoff must be >= 0")
