"""The delta attributor: decompose a run-to-run delta exactly.

Given two keyed series of the same dimension (bytes by cause, seconds
by resource class, work-counter values by name, ...), decompose

``Δtotal = total(B) - total(A)``

into per-key contributions ``Δ_k = B_k - A_k``.  Both totals are the
exact rational sums of their series and every contribution is computed
on :class:`fractions.Fraction` built from the artifacts' exact binary
floats, so the telescoping conservation invariant

``Σ_k Δ_k == Δtotal``   (exactly, no tolerance)

holds by construction and is *checked*, the same discipline as the byte
attribution (PR 3) and the critical-path tiling (PR 4).  A failure can
only mean the attributor itself is broken, never float noise.

Keys present on one side only are flagged ``new`` / ``vanished`` —
their whole value is their contribution — and contributions are ranked
by absolute delta so the top-N contributors per dimension read straight
off the list.
"""

from __future__ import annotations

# simlint: exact -- per-key contributions must sum to the total delta
from fractions import Fraction
from typing import Mapping, Optional

from repro.obs.render import ratio

__all__ = ["dimension_delta", "merge_conservation"]


def _status(in_a: bool, in_b: bool, delta: Fraction) -> str:
    if not in_a:
        return "new"
    if not in_b:
        return "vanished"
    return "unchanged" if delta == 0 else "changed"


def dimension_delta(name: str, unit: str,
                    a: Mapping[str, float], b: Mapping[str, float]) -> dict:
    """The full delta block for one dimension.

    ``a`` and ``b`` map keys to exact binary floats (bytes, seconds or
    integer counts as emitted by the artifacts).  Returned numbers are
    floats for JSON; the conservation verdict is computed on exact
    rationals before any rounding.
    """
    keys = sorted(set(a) | set(b))
    total_a = Fraction(0)
    total_b = Fraction(0)
    contributions = []
    for key in keys:
        fa = Fraction(a[key]) if key in a else Fraction(0)
        fb = Fraction(b[key]) if key in b else Fraction(0)
        total_a += fa
        total_b += fb
        delta = fb - fa
        contributions.append({
            "key": key,
            "a": float(fa),
            "b": float(fb),
            "delta": float(delta),
            "_delta": delta,
            "status": _status(key in a, key in b, delta),
        })
    total_delta = total_b - total_a
    contribution_sum = sum((c["_delta"] for c in contributions), Fraction(0))
    abs_delta = sum((abs(c["_delta"]) for c in contributions), Fraction(0))
    # Rank by |Δ| descending, key ascending for ties — deterministic.
    contributions.sort(key=lambda c: (-abs(c["_delta"]), c["key"]))
    for rank, c in enumerate(contributions, start=1):
        c["rank"] = rank
        # Share of the *gross* movement, so opposite-sign contributions
        # (one cause grew, another shrank) both register even when the
        # net Δtotal is small or zero.
        c["share"] = ratio(abs(c["_delta"]), abs_delta) if abs_delta else 0.0
        del c["_delta"]
    total_ratio: Optional[float] = (ratio(total_b, total_a)
                                    if total_a != 0 else None)
    return {
        "name": name,
        "unit": unit,
        "total_a": float(total_a),
        "total_b": float(total_b),
        "delta": float(total_delta),
        "ratio": total_ratio,
        "new_keys": sorted(k for k in b if k not in a),
        "vanished_keys": sorted(k for k in a if k not in b),
        "contributions": contributions,
        "conservation": {
            "exact": contribution_sum == total_delta,
            "delta": float(total_delta),
            "contribution_sum": float(contribution_sum),
            "residual": float(abs(contribution_sum - total_delta)),
        },
    }


def merge_conservation(dimensions: list) -> bool:
    """True iff every dimension's contributions sum exactly to its Δtotal."""
    return all(d["conservation"]["exact"] for d in dimensions)
