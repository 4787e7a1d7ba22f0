"""Critical-path extraction over recorded causal waits.

Per migration attempt, walk backwards from completion: the attempt's
wall time is tiled by the spine process's (``migrate:<vm>``) recorded
waits; each wait resolves to a resource class either directly (tagged
events) or by recursing — into the winning branch of a condition, or
into the producer process of a handoff.  All interval arithmetic is done
on :class:`fractions.Fraction` built from the recorder's exact
simulation-time floats, so the conservation check (segment durations sum
to attempt wall time) either passes *exactly* or names the residual.

The attempt window reported by the phase timeline has made a float
round-trip through microsecond trace timestamps (``seconds * 1e6 / 1e6``),
which can differ from the recorder's native seconds by ~1e-10.  The
extractor snaps the window to the nearest wait boundary within
:data:`SNAP_EPS` so those slivers do not pollute the decomposition.
"""

from __future__ import annotations

# simlint: exact -- segment sums must tile the wall clock with zero residual
from fractions import Fraction
from typing import Optional

from repro.obs.render import ratio

__all__ = ["classify", "critical_paths", "extract_waits"]

#: Window-snapping slack (seconds): generous vs. the ~1e-10 µs-roundtrip
#: error, tiny vs. any real segment.
SNAP_EPS = Fraction(1, 1_000_000)

#: Flow cause → resource class.  ``retry.*`` causes map to ``net.retry``
#: before this table is consulted.
_FLOW_CAUSE = {
    "push": "net.push",
    "prefetch": "net.prefetch",
    "pull.demand": "net.demand",
    "memory": "net.memory",
    "repo.fetch": "net.repo",
    "repo.store": "net.repo",
    "mirror": "net.mirror",
    "workload": "net.workload",
    "control": "net.control",
}

#: Annotation classes that map 1:1 onto a resource class.
_DIRECT = {
    "stall.chunk_timeout": "stall.timeout",
    "retry.backoff": "retry.backoff",
    "idle.push_wait": "idle.source",
    "stall.ondemand_suspend": "stall.ondemand",
    "stall.storage_backlog": "stall.storage",
    "net.blackhole": "net.blackhole",
    "net.message": "net.control",
    "timer": "timer",
}


def classify(desc: dict) -> Optional[str]:
    """Resource class for a terminal wait description (None = structural)."""
    k = desc.get("k")
    if k == "net.flow":
        cause = (desc.get("d") or {}).get("cause", "")
        if cause.startswith("retry."):
            return "net.retry"
        return _FLOW_CAUSE.get(cause, "net.other")
    if k == "fluid":
        name = (desc.get("d") or {}).get("name", "")
        if name.startswith("disk:"):
            return "disk"
        if name.startswith("pagecache"):
            return "pagecache"
        return "fluid.other"
    return _DIRECT.get(k)


class _Wait:
    __slots__ = ("t0", "t1", "desc")

    def __init__(self, t0: Fraction, t1: Fraction, desc: dict) -> None:
        self.t0 = t0
        self.t1 = t1
        self.desc = desc


def extract_waits(events: list) -> dict[str, list[_Wait]]:
    """``causal.wait`` instants grouped by process name, time-ordered."""
    out: dict[str, list[_Wait]] = {}
    for ev in events:
        if ev.get("name") != "causal.wait" or ev.get("ph") != "i":
            continue
        args = ev.get("args", {})
        proc = args.get("p")
        if proc is None:
            continue
        out.setdefault(proc, []).append(_Wait(
            Fraction(float(args.get("t0", 0.0))),
            Fraction(float(args.get("t1", 0.0))),
            args.get("w") or {},
        ))
    for waits in out.values():
        waits.sort(key=lambda w: (w.t0, w.t1))
    return out


def _resolve(wbp: dict, desc: dict, lo: Fraction, hi: Fraction,
             stack: frozenset) -> list[tuple[Fraction, Fraction, str]]:
    """Segments tiling ``[lo, hi]`` for one wait on ``desc``."""
    if hi <= lo:
        return []
    res = classify(desc)
    if res is not None:
        return [(lo, hi, res)]
    k = desc.get("k")
    if k == "proc":
        return _into_process(wbp, desc.get("p"), lo, hi, stack)
    if k == "event":
        by = desc.get("by")
        if by is None:
            return [(lo, hi, "unattributed")]
        return _into_process(wbp, by, lo, hi, stack)
    if k in ("any", "all"):
        children = desc.get("c") or []
        winner = _pick(children, first_done=(k == "any"))
        if winner is None:
            return [(lo, hi, "unattributed")]
        return _resolve(wbp, winner, lo, hi, stack)
    return [(lo, hi, "unattributed")]


def _pick(children: list, first_done: bool) -> Optional[dict]:
    """The branch that decided a condition.

    ``AnyOf`` fires with its earliest-triggering child; ``AllOf`` fires
    with its latest.  Ties keep the first child in creation order, which
    matches the kernel's deterministic delivery.
    """
    best = None
    best_t1 = None
    for child in children:
        t1 = child.get("t1")
        if t1 is None:
            continue
        if best_t1 is None or (t1 < best_t1 if first_done else t1 > best_t1):
            best, best_t1 = child, t1
    return best


def _into_process(wbp: dict, proc: Optional[str], lo: Fraction, hi: Fraction,
                  stack: frozenset) -> list[tuple[Fraction, Fraction, str]]:
    """Recurse into a producer process's own waits over the window.

    Gaps in its coverage (the producer was computing at zero sim-time
    boundaries, did not exist yet, or already finished) are charged to
    ``handoff`` — time the consumer spent waiting for scheduling rather
    than a physical resource.
    """
    if not proc or proc in stack or proc not in wbp:
        return [(lo, hi, "handoff")]
    return _cover(wbp, proc, lo, hi, stack | {proc}, gap="handoff")


def _cover(wbp: dict, proc: str, lo: Fraction, hi: Fraction,
           stack: frozenset, gap: str) -> list[tuple[Fraction, Fraction, str]]:
    """Tile ``[lo, hi]`` with ``proc``'s waits; uncovered stretches → ``gap``."""
    segs: list[tuple[Fraction, Fraction, str]] = []
    pos = lo
    for w in wbp.get(proc, []):
        if w.t1 <= pos:
            continue
        if w.t0 >= hi:
            break
        if w.t0 > pos:
            segs.append((pos, w.t0, gap))
            pos = w.t0
        end = min(w.t1, hi)
        segs.extend(_resolve(wbp, w.desc, pos, end, stack))
        pos = end
        if pos >= hi:
            break
    if pos < hi:
        segs.append((pos, hi, gap))
    return segs


def _merge(segs: list) -> list:
    merged: list = []
    for t0, t1, res in segs:
        if t1 <= t0:
            continue
        if merged and merged[-1][2] == res and merged[-1][1] == t0:
            merged[-1] = (merged[-1][0], t1, res)
        else:
            merged.append((t0, t1, res))
    return merged


def _snap(t: Fraction, boundaries: list[Fraction]) -> Fraction:
    best = None
    best_d = SNAP_EPS
    for b in boundaries:
        d = abs(b - t)
        if d <= best_d:
            best, best_d = b, d
    return best if best is not None else t


def critical_paths(events: list, tid_names: dict,
                   timelines: Optional[list] = None) -> list[dict]:
    """Per-attempt critical-path decompositions for one run's events.

    Returns ``[]`` when the trace carries no ``causal.wait`` records
    (plain traced runs) so callers can gate on truthiness.
    """
    wbp = extract_waits(events)
    if not wbp:
        return []
    if timelines is None:
        from repro.obs.analyze.phases import migration_timelines

        timelines = migration_timelines(events, tid_names)
    out = []
    for tl in timelines:
        spine = f"migrate:{tl['vm']}"
        waits = wbp.get(spine)
        lo = Fraction(float(tl["start_s"]))
        hi = Fraction(float(tl["end_s"]))
        if waits:
            boundaries = sorted({w.t0 for w in waits} | {w.t1 for w in waits})
            lo = _snap(lo, boundaries)
            hi = _snap(hi, boundaries)
        segs = _merge(_cover(
            wbp, spine, lo, hi, frozenset({spine}), gap="unattributed",
        ))
        wall = hi - lo
        seg_sum = sum((t1 - t0 for t0, t1, _r in segs), Fraction(0))
        by_res: dict[str, Fraction] = {}
        for t0, t1, res in segs:
            by_res[res] = by_res.get(res, Fraction(0)) + (t1 - t0)
        ranking = [
            {
                "resource": res,
                "seconds": float(secs),
                "share": ratio(secs, wall) if wall > 0 else 0.0,
            }
            for res, secs in sorted(
                by_res.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        out.append({
            "vm": tl["vm"],
            "attempt": tl["attempt"],
            "aborted": tl["aborted"],
            "start_s": float(lo),
            "end_s": float(hi),
            "wall_s": float(wall),
            "segments": [
                {"t0": float(t0), "t1": float(t1), "resource": res}
                for t0, t1, res in segs
            ],
            "by_resource": ranking,
            "conservation": {
                "exact": seg_sum == wall,
                "wall_s": float(wall),
                "segment_sum_s": float(seg_sum),
                "residual_s": float(abs(wall - seg_sum)),
            },
        })
    return out
