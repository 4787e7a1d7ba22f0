"""Weighted max-min fair rate allocation by progressive filling.

Given ``F`` flows with positive weights and a set of capacity constraints
(each covering a subset of flows), progressive filling raises the rate of
every unfrozen flow proportionally to its weight until some constraint
saturates, freezes the flows crossing saturated constraints, and repeats.
The result is the unique (weighted) max-min fair allocation.

The implementation is vectorized with numpy; each round costs
``O(C + total membership)`` and there are at most ``C`` rounds, so it is
cheap enough to re-run on every flow arrival/departure.

:class:`IncrementalMaxMin` sits on top of :func:`maxmin_single_switch`
and keeps the water-filling solution alive across recomputations:
repeated flow signatures return memoized rates, and fresh signatures are
solved on the *touched-host subgraph* only.  Both shortcuts are
constructed to be bitwise identical to a from-scratch solve — the
differential harness (``tests/differential``) and the hypothesis edit
scripts (``tests/netsim/test_incremental_maxmin.py``) hold it to that.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.netsim.topology import Topology

__all__ = ["Constraint", "progressive_filling", "maxmin_single_switch",
           "IncrementalMaxMin"]

_EPS = 1e-12

#: Solutions :class:`IncrementalMaxMin` keeps (least recently used out).
_MEMO_SIZE = 512


@dataclass
class Constraint:
    """A capacity constraint over a set of flows.

    Parameters
    ----------
    capacity:
        Total bytes/second available to the member flows together.
    members:
        Indices (into the flow arrays) of flows that consume this capacity.
    name:
        Diagnostic label ("nic-out:node3", "backplane", ...).
    """

    capacity: float
    members: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"constraint {self.name!r}: capacity must be > 0")
        self.members = np.asarray(self.members, dtype=np.intp)


def progressive_filling(
    weights: np.ndarray,
    constraints: list[Constraint],
) -> np.ndarray:
    """Compute weighted max-min fair rates.

    Parameters
    ----------
    weights:
        Positive per-flow weights, shape ``(F,)``.
    constraints:
        Capacity constraints.  Every flow must appear in at least one
        constraint, otherwise its fair share would be unbounded.

    Returns
    -------
    rates:
        Per-flow rates, shape ``(F,)``, satisfying every constraint with
        the weighted max-min property.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n == 0:
        return np.zeros(0)
    if np.any(weights <= 0):
        raise ValueError("all flow weights must be positive")

    covered = np.zeros(n, dtype=bool)
    for c in constraints:
        covered[c.members] = True
    if not covered.all():
        missing = np.flatnonzero(~covered)
        raise ValueError(f"flows {missing.tolist()} are not covered by any constraint")

    rates = np.zeros(n)
    active = np.ones(n, dtype=bool)

    # At most one constraint saturates per round, so <= len(constraints)
    # rounds; the +1 guard catches numerical stalls.
    for _ in range(len(constraints) + 1):
        if not active.any():
            break
        increment = np.inf
        for c in constraints:
            member_active = active[c.members]
            if not member_active.any():
                continue
            load = rates[c.members].sum()
            wsum = weights[c.members][member_active].sum()
            inc = (c.capacity - load) / wsum
            if inc < increment:
                increment = inc
        if not np.isfinite(increment):
            break
        increment = max(increment, 0.0)
        rates[active] += increment * weights[active]
        # Freeze flows crossing any now-saturated constraint.
        froze = False
        for c in constraints:
            load = rates[c.members].sum()
            if load >= c.capacity * (1 - 1e-9) - _EPS:
                was_active = active[c.members].any()
                active[c.members] = False
                froze = froze or bool(was_active)
        if not froze:
            # Numerical corner: nothing saturated despite a finite increment
            # of ~0.  Freeze everything to guarantee termination.
            break

    return rates


def maxmin_single_switch(
    weights: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    nic_out: np.ndarray,
    nic_in: np.ndarray,
    backplane: float | None,
    stats: dict | None = None,
) -> np.ndarray:
    """Structured fast path of :func:`progressive_filling` for the
    single-switch topology: per-host egress/ingress caps and one
    backplane shared by every flow.

    Mathematically identical to building the explicit constraints and
    running progressive filling, but uses ``np.bincount`` over hosts so
    a rate recomputation costs O(F + H) per water-filling round — this
    runs on every flow arrival/departure, so it is the simulator's
    hottest path.

    When ``stats`` is given, ``stats["rounds"]`` and
    ``stats["links_visited"]`` are incremented with the number of
    water-filling rounds and the total capacity constraints examined
    (2 per host NIC pair, 1 backplane, per round) — the work an
    incremental dirty-link recompute would avoid.  Collecting them is
    pure integer arithmetic on already-known sizes, so passing ``stats``
    never changes the returned rates.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n == 0:
        return np.zeros(0)
    if np.any(weights <= 0):
        raise ValueError("all flow weights must be positive")
    n_hosts = len(nic_out)
    rates = np.zeros(n)
    active = np.ones(n, dtype=bool)
    bp_active = backplane is not None

    n_constraints = 2 * n_hosts + 2
    links_per_round = 2 * n_hosts + (1 if bp_active else 0)
    rounds = 0
    for _ in range(n_constraints):
        if not active.any():
            break
        rounds += 1
        w_act = np.where(active, weights, 0.0)
        eg_w = np.bincount(srcs, weights=w_act, minlength=n_hosts)
        in_w = np.bincount(dsts, weights=w_act, minlength=n_hosts)
        eg_load = np.bincount(srcs, weights=rates, minlength=n_hosts)
        in_load = np.bincount(dsts, weights=rates, minlength=n_hosts)

        with np.errstate(divide="ignore", invalid="ignore"):
            eg_inc = np.where(eg_w > 0, (nic_out - eg_load) / eg_w, np.inf)
            in_inc = np.where(in_w > 0, (nic_in - in_load) / in_w, np.inf)
        increment = min(float(eg_inc.min()), float(in_inc.min()))
        if bp_active:
            w_sum = w_act.sum()
            if w_sum > 0:
                increment = min(increment, (backplane - rates.sum()) / w_sum)
        if not np.isfinite(increment):
            break
        increment = max(increment, 0.0)
        rates[active] += increment * weights[active]

        # Freeze flows crossing saturated constraints.
        eg_load = np.bincount(srcs, weights=rates, minlength=n_hosts)
        in_load = np.bincount(dsts, weights=rates, minlength=n_hosts)
        sat_eg = eg_load >= nic_out * (1 - 1e-9) - _EPS
        sat_in = in_load >= nic_in * (1 - 1e-9) - _EPS
        froze = sat_eg[srcs] | sat_in[dsts]
        if bp_active and rates.sum() >= backplane * (1 - 1e-9) - _EPS:
            froze[:] = True
        if not (froze & active).any():
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

    The fabric recomputes rates on every flow arrival/departure, but a
    migration oscillates between a handful of flow sets (push batch in
    flight / drained, the memory stream joining and leaving, a prefetch
    train), so most recomputations repeat a recently seen problem.  Two
    layers exploit that without changing a single output bit:

    1. **Solution memo** — an LRU keyed on
       ``(capacity signature, flow signature)``.  The capacity signature
       is the byte content of every solver capacity input (NIC arrays
       and backplane), recomputed whenever ``topology.version``
       changes: every capacity-affecting mutation (degrade, restore,
       backplane change, host added) bumps the version, so a fault
       instantly invalidates every cached solution — serving a stale
       rate across a fault is the bug the fault-path regression tests
       exist to catch.  Keying on *content* rather than
       the version itself means a restore (degrade undone) returns to
       the pre-fault signature and the pre-fault solutions become valid
       again — which they are, exactly: same inputs, same output.
    2. **Touched-host compaction** — a fresh signature is solved on the
       subgraph of hosts that actually carry flows.  A host with no
       member flows contributes zero active weight (its per-round
       increment is ``+inf``, never the global minimum) and zero load
       (its NICs never saturate, so it never freezes anyone), so deleting
       it from the solve leaves every round's increment, freeze set and
       float accumulation order untouched: the compacted solve is
       float-for-float the from-scratch solve.  The backplane is kept
       whole.

    The memo stores solver *outputs* and the compaction is exact, so
    ``solve`` is bitwise identical to calling
    :func:`maxmin_single_switch` on the full host arrays — the invariant
    the differential tests pin down.
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
        ``stats`` (when given) accumulates ``memo_hits``, ``solves``,
        ``hosts_solved`` plus the ``rounds``/``links_visited`` counters
        of the underlying solver — real solves only, which is exactly
        what makes the incremental win measurable.
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

        nic_out = topo.nic_out_array()
        nic_in = topo.nic_in_array()
        touched = np.unique(np.concatenate((srcs, dsts)))
        if touched.size < nic_out.shape[0]:
            solve_srcs = np.searchsorted(touched, srcs)
            solve_dsts = np.searchsorted(touched, dsts)
            solve_out = nic_out[touched]
            solve_in = nic_in[touched]
        else:
            solve_srcs, solve_dsts = srcs, dsts
            solve_out, solve_in = nic_out, nic_in
        rates = maxmin_single_switch(
            weights, solve_srcs, solve_dsts, solve_out, solve_in,
            topo.backplane, stats=stats,
        )
        rates.flags.writeable = False
        self._memo[key] = rates
        if len(self._memo) > _MEMO_SIZE:
            self._memo.popitem(last=False)
        if stats is not None:
            stats["solves"] = stats.get("solves", 0) + 1
            stats["hosts_solved"] = (
                stats.get("hosts_solved", 0) + int(touched.size)
            )
        return rates
