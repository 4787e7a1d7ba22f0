"""The reference oracle: the simulator with every fast path swapped out.

Production runs one scheduler and one solver.  The oracle is the same
simulator with four production pieces replaced by their obvious,
from-scratch forms:

1. ``Environment._schedule`` pushes every event through the binary heap
   (production sends zero-delay events to per-priority now-buckets);
2. the fabric's solver class, ``repro.netsim.flows.IncrementalMaxMin``,
   becomes :class:`ReferenceMaxMin`, a water-filling solve on the full
   host arrays (no memo, no touched-host compaction);
3. ``Fabric._recompute`` marks the fabric dirty first, so it re-solves on
   every call (production skips a clean recompute);
4. ``Fabric.batch`` does nothing, so every transfer reshares on its own
   (production reshares once per batch of same-instant transfers).

Inside ``kernel_scope("reference")`` all four swaps are in force;
inside ``kernel_scope("fast")`` the production pieces are.  Both deliver
events in the identical ``(time, priority, seq)`` order and produce
bitwise-identical rates, which ``test_differential.py`` checks scenario
by scenario.  Environments and fabrics should be built and run inside
one scope: the solver class is picked when a fabric is constructed.

The solver is swapped by *name* in ``repro.netsim.flows`` rather than by
patching ``IncrementalMaxMin.solve``, so tests that drive the memo
directly keep testing the real one under the oracle.

Loaded as a pytest plugin, the module runs a whole session on the
oracle::

    PYTHONPATH=src python -m pytest -x -q -p tests.differential.oracle

The swaps patch this interpreter only: a simulation a test runs in a
child interpreter runs on production.
"""

from __future__ import annotations

import heapq
from contextlib import ExitStack, contextmanager
from typing import Iterator

import numpy as np

import repro.netsim.flows as flows
from repro.netsim.fairness import maxmin_single_switch
from repro.netsim.flows import Fabric
from repro.netsim.topology import Topology
from repro.simkernel.core import Environment, Event

__all__ = ["KERNELS", "ReferenceMaxMin", "kernel_scope"]

#: ``fast`` is the production simulator, ``reference`` the oracle.
KERNELS = ("fast", "reference")


def _reference_schedule(self: Environment, event: Event, priority: int,
                        delay: float = 0.0) -> None:
    """Every event through the heap, zero-delay ones included."""
    if delay < 0:
        raise ValueError(f"negative delay {delay}")
    self._seq += 1
    heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))
    if self.probe.enabled:
        self.probe.event_queued(now_bucket=False)


class ReferenceMaxMin:
    """From-scratch weighted max-min on the full host arrays, every call."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def solve(self, weights: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
              stats: dict | None = None) -> np.ndarray:
        topo = self.topology
        return maxmin_single_switch(
            weights, srcs, dsts, topo.nic_out_array(), topo.nic_in_array(),
            topo.backplane, stats=stats,
        )


_production_recompute = Fabric._recompute


def _reference_recompute(self: Fabric) -> None:
    """Never take the clean-recompute skip."""
    self._dirty = True
    _production_recompute(self)


@contextmanager
def _reference_batch(self: Fabric) -> Iterator[None]:
    """No batching: each transfer in the scope reshares when it starts."""
    yield


#: ``(owner, attribute, reference value)`` for each swapped piece.
_SWAPS = (
    (Environment, "_schedule", _reference_schedule),
    (flows, "IncrementalMaxMin", ReferenceMaxMin),
    (Fabric, "_recompute", _reference_recompute),
    (Fabric, "batch", _reference_batch),
)


def _installed() -> tuple:
    return tuple(getattr(owner, name) for owner, name, _ in _SWAPS)


def _install(values: tuple) -> None:
    for (owner, name, _), value in zip(_SWAPS, values):
        setattr(owner, name, value)


_PRODUCTION = _installed()
_REFERENCE = tuple(reference for _, _, reference in _SWAPS)


@contextmanager
def kernel_scope(kernel: str) -> Iterator[None]:
    """Run the enclosed code on ``kernel``; scopes nest."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    saved = _installed()
    _install(_REFERENCE if kernel == "reference" else _PRODUCTION)
    try:
        yield
    finally:
        _install(saved)


_session = ExitStack()


def pytest_sessionstart(session: object) -> None:
    """Plugin hook: the whole session runs on the oracle."""
    _session.enter_context(kernel_scope("reference"))


def pytest_sessionfinish(session: object, exitstatus: int) -> None:
    _session.close()
