"""BlobSeer-style striped, replicated repository for base disk images.

Chunk ``i`` of an image lives on servers ``(i + k) % N`` for replica
``k < replication``; a fetch picks, per chunk, the replica whose server
currently carries the least outbound repository load, then issues one bulk
transfer per chosen server.  All transfers ride the shared fabric, so
repository reads compete with migrations for NICs and backplane — the
paper's motivation for striping is that this competition is spread thin.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.netsim.flows import Fabric
from repro.netsim.topology import Host
from repro.simkernel.core import Environment, Event

__all__ = ["StripedRepository", "RepositoryUnavailable"]


class RepositoryUnavailable(RuntimeError):
    """Raised when every replica of a requested chunk is on failed
    servers — the content is temporarily unreachable."""


class StripedRepository:
    """A distributed base-image store striped over ``servers``.

    BlobSeer's resilience claim is modeled with explicit fault injection:
    :meth:`fail_server` takes a storage server out of rotation (its
    replicas become unreachable, fetches fail over to surviving replicas)
    and :meth:`recover_server` brings it back.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        servers: list[Host],
        chunk_size: int,
        replication: int = 1,
    ):
        if not servers:
            raise ValueError("need at least one server")
        if replication < 1 or replication > len(servers):
            raise ValueError("replication must be in [1, len(servers)]")
        self.env = env
        self.fabric = fabric
        self.servers = list(servers)
        self.chunk_size = int(chunk_size)
        self.replication = int(replication)
        # Outstanding outbound bytes per server index, for replica choice.
        self._load = np.zeros(len(servers), dtype=np.float64)
        self._failed: set[int] = set()
        #: Total bytes ever served (diagnostics).
        self.bytes_served = 0.0

    def replicas_of(self, chunk: int) -> list[int]:
        """Server indices holding ``chunk`` (failed or not)."""
        n = len(self.servers)
        return [(int(chunk) + k) % n for k in range(self.replication)]

    # -- fault injection -----------------------------------------------------
    def fail_server(self, index: int) -> None:
        """Take server ``index`` out of rotation."""
        if not 0 <= index < len(self.servers):
            raise ValueError(f"no server with index {index}")
        self._failed.add(index)

    def recover_server(self, index: int) -> None:
        self._failed.discard(index)

    @property
    def failed_servers(self) -> frozenset[int]:
        return frozenset(self._failed)

    def _server_alive(self, index: int) -> bool:
        # A stripe server is unreachable both when failed explicitly and
        # when the node hosting it crashed (host-level fault injection).
        return index not in self._failed and not self.servers[index].failed

    def _pick_replicas(self, chunk_ids: np.ndarray) -> list[tuple[int, int]]:
        """``[(server, chunks)]`` to read ``chunk_ids`` from, servers in the
        order they are first picked.

        Each chunk goes to its least-loaded live replica; a tie goes to the
        replica listed first by :meth:`replicas_of`.  Raises
        :class:`RepositoryUnavailable` for the first chunk with no live
        replica.
        """
        n = len(self.servers)
        candidates = (chunk_ids[:, None] + np.arange(self.replication)) % n
        alive = np.array([not s.failed for s in self.servers], dtype=bool)
        alive[list(self._failed)] = False
        live = alive[candidates]
        dead = ~live.any(axis=1)
        if dead.any():
            chunk = int(chunk_ids[int(np.argmax(dead))])
            raise RepositoryUnavailable(
                f"all {self.replication} replica(s) of chunk {chunk} "
                "are on failed servers"
            )
        load = np.where(live, self._load[candidates], np.inf)
        best = candidates[np.arange(len(chunk_ids)), np.argmin(load, axis=1)]
        servers, first, counts = np.unique(best, return_index=True,
                                           return_counts=True)
        order = np.argsort(first)
        return list(zip(servers[order].tolist(), counts[order].tolist()))

    def fetch(
        self,
        chunk_ids: np.ndarray,
        dest: Host,
        weight: float = 1.0,
        tag: str = "repo-fetch",
        cause: str = "repo.fetch",
    ) -> Event:
        """Deliver ``chunk_ids`` to ``dest``; completion = all stripes in."""
        chunk_ids = np.asarray(chunk_ids, dtype=np.intp)
        if len(chunk_ids) == 0:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev

        per_server = self._pick_replicas(chunk_ids)
        p = self.env.probe
        if p.enabled:
            p.repo_fetch(int(len(chunk_ids)), len(per_server), dest)
        transfers = []
        for sidx, count in per_server:
            nbytes = count * self.chunk_size
            self._load[sidx] += nbytes
            self.bytes_served += nbytes
            ev = self.fabric.transfer(
                self.servers[sidx], dest, nbytes, tag=tag, weight=weight,
                cause=cause,
            )
            ev.add_callback(self._make_unloader(sidx, nbytes))
            transfers.append(ev)
        return self.env.all_of(transfers)

    def store(
        self,
        chunk_ids: np.ndarray,
        src: Host,
        tag: str = "repo-store",
        weight: float = 1.0,
        cause: str = "repo.store",
    ) -> Event:
        """Upload chunk contents from ``src`` into the repository.

        Each chunk lands on all of its replica servers (BlobSeer writes
        are replicated); completion = every stripe persisted.  This is the
        write path of repository snapshotting ([26]/BlobCR [27]); the
        evaluation itself only reads from the repository.
        """
        chunk_ids = np.asarray(chunk_ids, dtype=np.intp)
        if len(chunk_ids) == 0:
            ev = Event(self.env)
            ev.succeed(0.0)
            return ev
        per_server: dict[int, int] = defaultdict(int)
        for chunk in chunk_ids:
            for sidx in self.replicas_of(int(chunk)):
                if not self._server_alive(sidx):
                    raise RepositoryUnavailable(
                        f"replica server {sidx} of chunk {int(chunk)} is down"
                    )
                per_server[sidx] += 1
        p = self.env.probe
        if p.enabled:
            p.repo_store(int(len(chunk_ids)), len(per_server), src)
        transfers = [
            self.fabric.transfer(
                src, self.servers[sidx], count * self.chunk_size, tag=tag,
                weight=weight, cause=cause,
            )
            for sidx, count in per_server.items()
        ]
        return self.env.all_of(transfers)

    def _make_unloader(self, sidx: int, nbytes: float):
        def unload(_ev: Event) -> None:
            self._load[sidx] -= nbytes

        return unload

    def __repr__(self) -> str:
        return (
            f"<StripedRepository {len(self.servers)} servers x{self.replication} "
            f"stripe={self.chunk_size // 1024}KiB>"
        )
