"""The reference oracle: the simulator with every fast path swapped out.

Production runs one scheduler and one solver.  The oracle is the same
simulator with five production pieces replaced by their obvious,
from-scratch forms:

1. ``Environment._schedule`` pushes every event through the binary heap
   (production sends zero-delay events to per-priority now-buckets);
2. the fabric's solver class, ``repro.netsim.flows.IncrementalMaxMin``,
   becomes :class:`ReferenceMaxMin`, a water-filling solve on the full
   host arrays at every call (no memo) in its per-round form
   (:func:`per_round_maxmin`: every round recomputes the host loads,
   the rate total and the saturation thresholds, which production
   carries from round to round);
3. ``Fabric._request_settle`` reserves the wakeup's sequence number and
   settles at once, so every transfer, cancel, abort, sync and wakeup
   reshares and re-arms on its own (production settles once per
   simulated instant);
4. the fabric's flow-table arithmetic (``_integrate``, ``_next_eta`` and
   ``host_load``) runs as a per-flow loop over the table at every flow
   count, with one ``TrafficMeter.credit_cell`` per flow (production
   uses whole-array operations above a crossover);
5. ``Fabric._start`` admits each leg of a ``transfer_many`` fan-out by
   itself, with its own integration step and (eager) settle, as k
   ``transfer`` calls would (production admits the k legs in one pass
   and asks for one settle).  The fan-out keeps its one completion
   event, so the two kernels still count the same events.

``Fabric._recompute`` needs no reference form: it hands the table's
per-flow arrays to the solver in one call, which is already the obvious
form.

It also keeps the generic max-min solver, progressive filling over
explicit :class:`Constraint` objects.  ``tests/netsim/test_fairness.py``
compares the production single-switch solver with it to a tolerance,
and with :func:`per_round_maxmin` bit for bit.

Inside ``kernel_scope("reference")`` all five swaps are in force;
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
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

import repro.netsim.flows as flows
from repro.netsim.fairness import _EPS
from repro.netsim.flows import _DONE_EPS, Fabric
from repro.netsim.topology import Host, Topology
from repro.simkernel.core import Environment, Event

__all__ = ["KERNELS", "Constraint", "ReferenceMaxMin", "kernel_scope",
           "per_round_maxmin", "progressive_filling"]

#: ``fast`` is the production simulator, ``reference`` the oracle.
KERNELS = ("fast", "reference")


def _reference_schedule(self: Environment, event: Event, priority: int,
                        delay: float = 0.0, seq: int | None = None) -> None:
    """Every event through the heap, zero-delay ones included."""
    if not 0.0 <= delay < math.inf:
        raise ValueError(f"delay must be finite and non-negative, got {delay}")
    if seq is None:
        self._seq += 1
        seq = self._seq
    heapq.heappush(self._queue, (self.now + delay, priority, seq, event))
    if self.probe.enabled:
        self.probe.event_queued(now_bucket=False)


def per_round_maxmin(
    weights: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    nic_out: np.ndarray,
    nic_in: np.ndarray,
    backplane: float | None,
    stats: dict | None = None,
) -> np.ndarray:
    """``repro.netsim.fairness.maxmin_single_switch`` with every quantity
    recomputed where each round uses it: the host loads and the rate
    total at the start and at the end of the round, the saturation
    thresholds in the freeze test, through the ``ndarray`` reduction
    methods.  Production computes each once and must agree bit for bit,
    ``stats`` included."""
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


class ReferenceMaxMin:
    """From-scratch weighted max-min on the full host arrays, every call,
    in the per-round form."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def solve(self, weights: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
              stats: dict | None = None) -> np.ndarray:
        topo = self.topology
        return per_round_maxmin(
            weights, srcs, dsts, topo.nic_out_array(), topo.nic_in_array(),
            topo.backplane, stats=stats,
        )


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


def _eager_request_settle(self: Fabric) -> None:
    """Settle at every change instead of once per instant: reserve the
    wakeup's number, solve and arm at once, so the rates and the wakeup
    are current after each call."""
    self._timer.cancel()
    if self._n:
        self._wake_seq = self.env.reserve_seq()
    self._recompute()
    self._reschedule()


#: Production's one-pass admission, which the oracle runs leg by leg.
_admit_and_settle = Fabric._start


def _sequential_start(self: Fabric, flows: list) -> None:
    """Admit the legs one at a time, each with its own integration step
    and settle."""
    for flow in flows:
        self._advance()
        _admit_and_settle(self, [flow])


def _reference_integrate(self: Fabric, dt: float) -> list[int]:
    """Integrate flow by flow, crediting the meter one flow at a time."""
    p = self.env.probe
    rate, remaining = self._rate, self._remaining
    finished = []
    for i, fl in enumerate(self._flows):
        moved = min(rate.item(i) * dt, remaining.item(i))
        remaining[i] -= moved
        self._accounted[i] += moved
        self.meter.credit_cell(self._cell.item(i), moved)
        if p.enabled:
            p.net_credit(fl.tag, fl.cause, moved)
        if remaining.item(i) <= _DONE_EPS:
            remaining[i] = 0.0
            finished.append(i)
    return finished


def _reference_next_eta(self: Fabric) -> float | None:
    """Scan every flow for the earliest completion."""
    rate, remaining = self._rate, self._remaining
    return min((remaining.item(i) / rate.item(i) for i in range(self._n)
                if rate.item(i) > 0), default=None)


def _reference_host_load(self: Fabric, host: Host) -> tuple[float, float]:
    """Running sums, in flow order, over the flows touching ``host``.

    An explicit ``+=`` rather than the builtin ``sum()``: from Python 3.12
    ``sum()`` of floats compensates its rounding, which is not the
    sequential addition the table's ``host_load`` promises.
    """
    rate = self._rate
    inbound = outbound = 0.0
    for i, fl in enumerate(self._flows):
        if fl.dst is host:
            inbound += rate.item(i)
        if fl.src is host:
            outbound += rate.item(i)
    return inbound, outbound


#: ``(owner, attribute, reference value)`` for each swapped piece.
_SWAPS = (
    (Environment, "_schedule", _reference_schedule),
    (flows, "IncrementalMaxMin", ReferenceMaxMin),
    (Fabric, "_request_settle", _eager_request_settle),
    (Fabric, "_start", _sequential_start),
    (Fabric, "_integrate", _reference_integrate),
    (Fabric, "_next_eta", _reference_next_eta),
    (Fabric, "host_load", _reference_host_load),
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
