"""Per-cause wire time from traced flow spans, and one run's attribution.

Traced flow spans (``flow:<tag>`` async pairs) add the *time* dimension
to the byte attribution of :mod:`repro.obs.analyze.attribution`: how
long each cause kept the wire busy, and when it was active.  Control
messages are metered but not traced as flows, so flow coverage of the
metered total is reported rather than asserted.  Everything here is
float arithmetic on trace timestamps, so it sits outside exact scope;
the exact conservation check stays in the attribution module.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.analyze.attribution import attribution_from_pairs

__all__ = ["flow_stats", "run_attribution"]


def flow_stats(events: list) -> dict:
    """Per-cause wire-time statistics from traced ``flow:<tag>`` spans.

    Matches each async begin (``ph: "b"``) with its end (``ph: "e"``) by
    ``(pid, id, name)``; the begin half carries the flow's args
    (src/dst/bytes/cause).  Returns ``{cause: {...}}`` with byte totals,
    flow counts, summed busy time and the active window — plus the
    cancelled/black-holed counts per cause.
    """
    begins: dict[tuple, dict] = {}
    per_cause: dict[str, dict] = {}
    lost: dict[str, dict] = {}
    for ev in events:
        name = ev.get("name", "")
        ph = ev.get("ph")
        if ph == "b" and name.startswith("flow:"):
            begins[(ev.get("pid"), ev.get("id"), name)] = ev
        elif ph == "e" and name.startswith("flow:"):
            begin = begins.pop((ev.get("pid"), ev.get("id"), name), None)
            if begin is None:
                continue
            args = begin.get("args", {})
            cause = args.get("cause", name[len("flow:"):])
            t0 = begin.get("ts", 0.0) / 1e6
            t1 = ev.get("ts", 0.0) / 1e6
            st = per_cause.setdefault(cause, {
                "bytes": 0.0, "flows": 0, "busy_s": 0.0,
                "t_first": t0, "t_last": t1,
            })
            st["bytes"] += float(args.get("bytes", 0.0))
            st["flows"] += 1
            st["busy_s"] += max(t1 - t0, 0.0)
            st["t_first"] = min(st["t_first"], t0)
            st["t_last"] = max(st["t_last"], t1)
        elif ph == "i" and name in ("flow.cancelled", "flow.blackholed"):
            cause = ev.get("args", {}).get("cause")
            if cause is None:
                continue
            rec = lost.setdefault(cause, {"cancelled": 0, "blackholed": 0})
            rec["cancelled" if name == "flow.cancelled" else "blackholed"] += 1
    for cause, rec in lost.items():
        st = per_cause.setdefault(cause, {
            "bytes": 0.0, "flows": 0, "busy_s": 0.0,
            "t_first": 0.0, "t_last": 0.0,
        })
        st.update(rec)
    return {c: per_cause[c] for c in sorted(per_cause)}


def run_attribution(events: list, pairs: Optional[list]) -> dict:
    """The full attribution block for one run's event lane."""
    flows = flow_stats(events)
    out: dict = {"flows_by_cause": flows}
    if pairs is None:
        out["metered"] = None
        out["flow_coverage"] = None
        return out
    out["metered"] = attribution_from_pairs(pairs)
    total = out["metered"]["total_bytes"]
    traced = sum(st["bytes"] for st in flows.values())
    # Completed flows only — in-flight or cancelled wire bytes are in the
    # meter but have no finished span, so coverage < 1 is informative,
    # not an error.
    out["flow_coverage"] = traced / total if total > 0 else 1.0
    return out
