"""Hosts, NICs and the capacity arrays the fabric solves over."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Host", "Topology"]


@dataclass
class Host:
    """A compute node's network attachment point.

    NICs are full duplex: ``nic_out`` caps the sum of egress flow rates,
    ``nic_in`` the sum of ingress flow rates, independently.
    """

    name: str
    index: int
    nic_out: float
    nic_in: float
    #: Set by fault injection (node crash / permanent partition): the
    #: fabric refuses new flows touching a failed host.
    failed: bool = False

    def __post_init__(self) -> None:
        if self.nic_out <= 0 or self.nic_in <= 0:
            raise ValueError(f"host {self.name!r}: NIC capacities must be > 0")
        # Undegraded capacities, so link faults can scale and restore.
        self.nic_out_base = self.nic_out
        self.nic_in_base = self.nic_in

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"<Host {self.name}>"


@dataclass
class Topology:
    """A single-switch datacenter topology, as on the paper's testbed.

    Every host hangs off one switch through its full-duplex NIC; the
    only shared constraint beyond the NICs is the switch backplane.

    Parameters
    ----------
    backplane:
        Aggregate switch capacity in bytes/second shared by *all* inter-host
        flows, or ``None`` for a non-blocking switch.
    """

    backplane: float | None = None
    hosts: list[Host] = field(default_factory=list)
    _by_name: dict[str, Host] = field(default_factory=dict)
    _nic_out_cache: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _nic_in_cache: np.ndarray = field(default_factory=lambda: np.zeros(0))
    #: Epoch counter bumped on every capacity-affecting mutation (host
    #: added, NIC degrade/restore, backplane change).  The incremental
    #: max-min solver keys its caches on this: a stale rate surviving a
    #: fault is a correctness bug, not a performance one.
    version: int = 0

    def __post_init__(self) -> None:
        # Configured backplane capacity; fault injection scales from this.
        self._backplane_base = self.backplane

    def add_host(
        self,
        name: str,
        nic_out: float,
        nic_in: float | None = None,
    ) -> Host:
        """Register a host; ``nic_in`` defaults to ``nic_out`` (full duplex)."""
        if name in self._by_name:
            raise ValueError(f"duplicate host name {name!r}")
        host = Host(
            name=name,
            index=len(self.hosts),
            nic_out=float(nic_out),
            nic_in=float(nic_in if nic_in is not None else nic_out),
        )
        self.hosts.append(host)
        self._by_name[name] = host
        self.version += 1
        return host

    def __getitem__(self, name: str) -> Host:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __len__(self) -> int:
        return len(self.hosts)

    def nic_out_array(self) -> np.ndarray:
        """Per-host egress caps, indexed by host index (cached)."""
        if len(self._nic_out_cache) != len(self.hosts):
            self._nic_out_cache = np.array([h.nic_out for h in self.hosts])
        return self._nic_out_cache

    def nic_in_array(self) -> np.ndarray:
        if len(self._nic_in_cache) != len(self.hosts):
            self._nic_in_cache = np.array([h.nic_in for h in self.hosts])
        return self._nic_in_cache

    # -- fault hooks ---------------------------------------------------------

    def _resolve(self, host: "Host | str") -> Host:
        return self._by_name[host] if isinstance(host, str) else host

    def _invalidate_nic_caches(self) -> None:
        # The NIC caches are keyed on *length* only, so a same-size
        # capacity mutation must drop them explicitly.
        self._nic_out_cache = np.zeros(0)
        self._nic_in_cache = np.zeros(0)
        self.version += 1

    def degrade_host(self, host: "Host | str", factor: float) -> Host:
        """Scale a host's NIC capacities to ``factor`` x their base values
        (``0`` = fully partitioned, ``1`` = healthy)."""
        if not 0.0 <= factor <= 1.0:
            raise ValueError("degrade factor must lie in [0, 1]")
        host = self._resolve(host)
        host.nic_out = host.nic_out_base * factor
        host.nic_in = host.nic_in_base * factor
        self._invalidate_nic_caches()
        return host

    def restore_host(self, host: "Host | str") -> Host:
        """Undo any degradation or failure on ``host``."""
        host = self._resolve(host)
        host.failed = False
        return self.degrade_host(host, 1.0)

    # Crash recovery and link restoration are the same operation at the
    # topology level; both names exist for call-site clarity.
    recover_host = restore_host

    def fail_host(self, host: "Host | str") -> Host:
        """Crash ``host``: NICs zeroed and new flows refused (the fabric
        black-holes transfers touching a failed host)."""
        host = self._resolve(host)
        host.failed = True
        return self.degrade_host(host, 0.0)

    def set_backplane_factor(self, factor: float) -> float | None:
        """Scale the backplane to ``factor`` x its configured capacity.

        A non-blocking switch (``backplane is None``) has no finite base
        to scale; the call is a no-op returning ``None``.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError("backplane factor must lie in [0, 1]")
        if self._backplane_base is None:
            return None
        self.backplane = self._backplane_base * factor
        self.version += 1
        return self.backplane
