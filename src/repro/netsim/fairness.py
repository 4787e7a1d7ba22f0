"""Weighted max-min fair rate allocation by progressive filling.

Given ``F`` flows with positive weights and a set of capacity constraints
(each covering a subset of flows), progressive filling raises the rate of
every unfrozen flow proportionally to its weight until some constraint
saturates, freezes the flows crossing saturated constraints, and repeats.
The result is the unique (weighted) max-min fair allocation.

:func:`maxmin_single_switch` runs it on the single-switch topology's
constraints with ``np.bincount`` over hosts.  The generic form over
explicit constraints is its test-side reference
(``tests/differential/oracle.py``).

:class:`IncrementalMaxMin` sits on top of :func:`maxmin_single_switch`
and keeps the water-filling solution alive across recomputations:
repeated flow signatures return memoized rates, and fresh signatures are
solved from scratch on the full host arrays.  A memoized solution is the
one a fresh solve would return, bit for bit — the differential harness
(``tests/differential``) and the hypothesis edit scripts
(``tests/netsim/test_incremental_maxmin.py``) hold it to that.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.netsim.topology import Topology

__all__ = ["maxmin_single_switch", "IncrementalMaxMin"]

_EPS = 1e-12

#: Solutions :class:`IncrementalMaxMin` keeps (least recently used out).
_MEMO_SIZE = 512

# The reductions behind ``ndarray.sum()``, ``.min()`` and ``.any()``,
# called without the method wrappers.
_sum = np.add.reduce
_min = np.minimum.reduce
_any = np.logical_or.reduce


def maxmin_single_switch(
    weights: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    nic_out: np.ndarray,
    nic_in: np.ndarray,
    backplane: float | None,
    stats: dict | None = None,
) -> np.ndarray:
    """Structured fast path of progressive filling for the
    single-switch topology: per-host egress/ingress caps and one
    backplane shared by every flow.

    Mathematically identical to building the explicit constraints and
    running progressive filling, but uses ``np.bincount`` over hosts so
    a rate recomputation costs O(F + H) per water-filling round — the
    fabric's settle runs it on every flow set the memo has not seen, so
    it is the simulator's hottest path.

    Each quantity is computed once: a round starts from the host loads
    and the rate total the previous round ended with (zeros in the
    first), and the saturation thresholds are fixed per call.  The
    reductions are the ufuncs' own (``np.add.reduce`` and friends, what
    ``ndarray.sum()`` and the like call), so the result is bit-identical
    to recomputing everything every round, the reference form in
    ``tests/differential/oracle.py``.

    When ``stats`` is given, ``stats["rounds"]`` and
    ``stats["links_visited"]`` are incremented with the number of
    water-filling rounds and the total capacity constraints examined
    (2 per host in the arrays, 1 backplane, per round).  Collecting them
    is pure integer arithmetic on already-known sizes, so passing
    ``stats`` never changes the returned rates.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n == 0:
        return np.zeros(0)
    if _any(weights <= 0):
        raise ValueError("all flow weights must be positive")
    n_hosts = len(nic_out)
    rates = np.zeros(n)
    active = np.ones(n, dtype=bool)
    bp_active = backplane is not None

    n_constraints = 2 * n_hosts + 2
    links_per_round = 2 * n_hosts + (1 if bp_active else 0)
    # A constraint saturates at its capacity less a relative and an
    # absolute tolerance.
    eg_full = nic_out * (1 - 1e-9) - _EPS
    in_full = nic_in * (1 - 1e-9) - _EPS
    if bp_active:
        bp_full = backplane * (1 - 1e-9) - _EPS
    # The loads and the rate total at the start of round 1: no rate yet.
    eg_load = np.zeros(n_hosts)
    in_load = np.zeros(n_hosts)
    rate_sum = 0.0
    rounds = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_constraints):
            if not _any(active):
                break
            rounds += 1
            w_act = np.where(active, weights, 0.0)
            eg_w = np.bincount(srcs, weights=w_act, minlength=n_hosts)
            in_w = np.bincount(dsts, weights=w_act, minlength=n_hosts)
            eg_inc = np.where(eg_w > 0, (nic_out - eg_load) / eg_w, np.inf)
            in_inc = np.where(in_w > 0, (nic_in - in_load) / in_w, np.inf)
            increment = min(float(_min(eg_inc)), float(_min(in_inc)))
            if bp_active:
                w_sum = _sum(w_act)
                if w_sum > 0:
                    increment = min(increment, (backplane - rate_sum) / w_sum)
            if not math.isfinite(increment):
                break
            increment = max(increment, 0.0)
            rates[active] += increment * weights[active]

            # Freeze flows crossing saturated constraints.
            eg_load = np.bincount(srcs, weights=rates, minlength=n_hosts)
            in_load = np.bincount(dsts, weights=rates, minlength=n_hosts)
            froze = (eg_load >= eg_full)[srcs] | (in_load >= in_full)[dsts]
            if bp_active:
                rate_sum = _sum(rates)
                if rate_sum >= bp_full:
                    froze[:] = True
            if not _any(froze & active):
                break
            active &= ~froze

    if stats is not None:
        stats["rounds"] = stats.get("rounds", 0) + rounds
        stats["links_visited"] = (
            stats.get("links_visited", 0) + rounds * links_per_round
        )
    return rates


class IncrementalMaxMin:
    """Incremental driver for :func:`maxmin_single_switch` over a live
    :class:`~repro.netsim.topology.Topology`.

    The fabric recomputes rates once per simulated instant in which its
    flows or the capacities changed, but a migration oscillates between
    a handful of flow sets (push batch in flight / drained, the memory
    stream joining and leaving, a prefetch train), so most
    recomputations repeat a recently seen problem.  A **solution memo**
    exploits that without changing a single output bit: an LRU keyed on
    ``(capacity signature, flow signature)``.  The capacity signature is
    the byte content of every solver capacity input (NIC arrays and
    backplane), recomputed whenever ``topology.version`` changes: every
    capacity-affecting mutation (degrade, restore, backplane change, host
    added) bumps the version, so a fault instantly invalidates every
    cached solution — serving a stale rate across a fault is the bug the
    fault-path regression tests exist to catch.  Keying on *content*
    rather than the version itself means a restore (degrade undone)
    returns to the pre-fault signature and the pre-fault solutions
    become valid again — which they are, exactly: same inputs, same
    output.

    The memo stores solver *outputs*, so ``solve`` is bitwise identical
    to calling :func:`maxmin_single_switch` on the full host arrays —
    the invariant the differential tests pin down.
    """

    def __init__(self, topology: "Topology") -> None:
        self.topology = topology
        self._memo: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._sig_version = -1
        self._sig: tuple = ()

    def __len__(self) -> int:
        return len(self._memo)

    def _capacity_signature(self) -> tuple:
        """Byte content of every capacity input, cached per topology
        version (the version only tells us *when* to re-derive it)."""
        topo = self.topology
        if self._sig_version != topo.version:
            self._sig = (
                topo.nic_out_array().tobytes(),
                topo.nic_in_array().tobytes(),
                topo.backplane,
            )
            self._sig_version = topo.version
        return self._sig

    def solve(
        self,
        weights: np.ndarray,
        srcs: np.ndarray,
        dsts: np.ndarray,
        stats: dict | None = None,
    ) -> np.ndarray:
        """Weighted max-min rates for flows ``srcs[i] -> dsts[i]``.

        Returns a read-only array (memo hits alias the cached solution).
        ``stats`` (when given) accumulates ``memo_hits``, ``solves`` and
        the ``rounds``/``links_visited`` counters of the underlying
        solver — real solves only, which is exactly what makes the memo's
        win measurable.
        """
        weights = np.asarray(weights, dtype=np.float64)
        srcs = np.asarray(srcs, dtype=np.intp)
        dsts = np.asarray(dsts, dtype=np.intp)
        n = weights.shape[0]
        if n == 0:
            return np.zeros(0)
        topo = self.topology
        key = (self._capacity_signature(), n, srcs.tobytes(), dsts.tobytes(),
               weights.tobytes())
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
            if stats is not None:
                stats["memo_hits"] = stats.get("memo_hits", 0) + 1
            return hit

        rates = maxmin_single_switch(
            weights, srcs, dsts, topo.nic_out_array(), topo.nic_in_array(),
            topo.backplane, stats=stats,
        )
        rates.flags.writeable = False
        self._memo[key] = rates
        if len(self._memo) > _MEMO_SIZE:
            self._memo.popitem(last=False)
        if stats is not None:
            stats["solves"] = stats.get("solves", 0) + 1
        return rates
