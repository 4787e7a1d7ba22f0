"""Causal wait recording: the happens-before edges behind every resume.

The probe (:mod:`repro.obs.probe`) calls
:meth:`CausalRecorder.record_wait` whenever a process resumes after a
nonzero wait.  The recorder serializes a compact description of the
awaited event *at that moment* (the event graph is mutable and may be
garbage-collected later) into a ``causal.wait`` instant on the process's
trace lane::

    {"p": "migrate:vm0", "t0": 5.0, "t1": 7.25,
     "w": {"k": "net.flow", "d": {"tag": "storage-push", ...},
           "t0": 5.0, "t1": 7.25}}

``t0``/``t1`` are exact simulation-time floats (seconds); the extractor
(:mod:`repro.obs.causal.critical`) converts them to ``Fraction`` so the
decomposition is exact.  Cross-process wakeups additionally emit Chrome
flow events (``ph: "s"``/``"f"``) so Perfetto draws span arrows from the
producer's lane to the consumer's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.tracer import Tracer
    from repro.simkernel.core import Event

__all__ = ["CausalRecorder", "describe"]

_US = 1e6

#: Maximum structural recursion when describing composite events.  Deep
#: enough for any_of(all_of(tagged-flows), timeout) with one level of
#: slack; deeper nests collapse to ``{"k": "deep"}``.
_MAX_DEPTH = 4


def describe(event: "Event", depth: int = 0) -> dict:
    """A JSON-safe description of an event for causal attribution.

    Tagged events (``Probe.causal_tag``) report their resource class +
    detail; structural events (process joins, conditions, timers) report
    their shape and trigger times so the extractor can recurse.  The
    times are the probe's stamps; a timer fires ``delay`` after it was
    created.
    """
    ann = getattr(event, "_causal", None)
    if ann is not None:
        desc: dict = {"k": ann[0]}
        if ann[1]:
            desc["d"] = dict(ann[1])
        _stamp(desc, event)
        return desc
    if depth >= _MAX_DEPTH:
        return {"k": "deep"}

    # Local imports keep repro.obs import-safe (simkernel imports the
    # tracer module at startup; the reverse edge resolves lazily).
    from repro.simkernel.core import Process
    from repro.simkernel.events import AllOf, AnyOf, Timeout

    if isinstance(event, Process):
        desc = {"k": "proc", "p": event.name}
        _stamp(desc, event)
        return desc
    if isinstance(event, (AnyOf, AllOf)):
        desc = {
            "k": "any" if isinstance(event, AnyOf) else "all",
            "c": [describe(child, depth + 1) for child in event._events],
        }
        _stamp(desc, event)
        return desc
    if isinstance(event, Timeout):
        desc = {"k": "timer"}
        _stamp(desc, event)
        return desc
    desc = {"k": "event"}
    by = getattr(event, "succeeded_by", None)
    if by is not None:
        desc["by"] = by
    _stamp(desc, event)
    return desc


def _stamp(desc: dict, event: "Event") -> None:
    from repro.simkernel.events import Timeout

    t0 = getattr(event, "created_at", None)
    if isinstance(event, Timeout):
        t1 = None if t0 is None else t0 + event.delay
    else:
        t1 = getattr(event, "triggered_at", None)
    if t0 is not None:
        desc["t0"] = t0
    if t1 is not None:
        desc["t1"] = t1


class CausalRecorder:
    """Emits ``causal.wait`` instants + ``causal.handoff`` flow arrows."""

    __slots__ = ("_tracer", "_flow_seq")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._flow_seq = 0

    def record_wait(self, proc: str, t0: float, t1: float, woke: "Event") -> None:
        """One finished wait of process ``proc`` over ``[t0, t1]`` on ``woke``.

        Zero-duration waits carry no time and are skipped (they would
        only inflate the trace; the decomposition covers intervals, and a
        zero-length interval contributes nothing).
        """
        if t1 <= t0:
            return
        tr = self._tracer
        tr.instant(
            "causal.wait", cat="causal", tid=f"proc:{proc}",
            args={"p": proc, "t0": t0, "t1": t1, "w": describe(woke)},
        )
        self._emit_handoff(proc, t1, woke)

    def _emit_handoff(self, proc: str, t1: float, woke: "Event") -> None:
        """Flow arrow when another process produced the wakeup."""
        from repro.simkernel.core import Process

        if isinstance(woke, Process):
            producer: Optional[str] = woke.name
        else:
            producer = getattr(woke, "succeeded_by", None)
        if producer is None or producer == proc:
            return
        tr = self._tracer
        start_ts = getattr(woke, "triggered_at", None)
        if start_ts is None:
            start_ts = t1
        self._flow_seq += 1
        ident = self._flow_seq
        pid = tr._pid()
        tr.events.append({
            "name": "causal.handoff",
            "ph": "s",
            "cat": "causal",
            "ts": start_ts * _US,
            "pid": pid,
            "tid": tr._tid(f"proc:{producer}"),
            "id": ident,
        })
        tr.events.append({
            "name": "causal.handoff",
            "ph": "f",
            "bp": "e",
            "cat": "causal",
            "ts": t1 * _US,
            "pid": pid,
            "tid": tr._tid(f"proc:{proc}"),
            "id": ident,
        })
