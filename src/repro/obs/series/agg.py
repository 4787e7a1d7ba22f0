"""Aggregation over recorded series points.

Pure functions over ``[[t, value], ...]`` lists (the recorder's point
format), used by the flight-report panels.  Everything here is
read-side post-processing: nothing feeds back into the simulation, so
plain float arithmetic is fine.
"""

from __future__ import annotations

__all__ = ["rates_from_cumulative"]


def rates_from_cumulative(points: list, bin_width: float) -> list:
    """Per-interval rates from a cumulative curve.

    Each output point is ``[t_i, (c_i - c_prev) / dt]`` with the first
    interval anchored at ``(t_0 - bin_width, 0)`` — the shape the
    stacked-bandwidth report panel draws.
    """
    out = []
    prev_t: float | None = None
    prev_c = 0.0
    for t, c in points:
        t0 = t - bin_width if prev_t is None else prev_t
        dt = t - t0
        out.append([t, (c - prev_c) / dt if dt > 0 else 0.0])
        prev_t, prev_c = t, c
    return out
