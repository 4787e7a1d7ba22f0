"""What-if re-pricing of an extracted critical path.

Given one attempt's decomposition, speed one resource class up by a
factor and report the re-priced wall time.  The estimate is a *bound*:
shrinking the current critical path's segments is exact for those
segments, but another path through the DAG may become critical once this
one contracts, so the true new wall time is **at least**
``wall - affected * (1 - 1/factor)`` and the reported speedup is an
upper bound (it is exact when the sped-up resource stays critical).
"""

from __future__ import annotations

# simlint: exact -- re-priced walls reuse the exact decomposition
from fractions import Fraction

from repro.obs.render import ratio

__all__ = ["parse_what_if", "what_if", "RESOURCE_GROUPS"]

#: Convenience groups accepted in ``--what-if`` specs, matched
#: case-insensitively; anything else must name a resource class exactly.
RESOURCE_GROUPS = {
    "nic": lambda r: r.startswith("net."),
    "net": lambda r: r.startswith("net."),
    "storage": lambda r: r in ("disk", "pagecache"),
    "stall": lambda r: r.startswith("stall.") or r == "retry.backoff",
}


def parse_what_if(spec: str) -> "tuple[str, Fraction | _Inf]":
    """``"NIC=2"`` → ``("nic", Fraction(2))``; ``"X=inf"`` allowed.  The
    factor is read exactly: ``"1.1"`` is ``Fraction(11, 10)``."""
    if "=" not in spec:
        raise ValueError(
            f"what-if spec {spec!r} must look like RESOURCE=FACTOR"
        )
    res, _eq, factor_s = spec.partition("=")
    res = res.strip()
    factor_s = factor_s.strip().lower()
    if not res:
        raise ValueError(f"what-if spec {spec!r} names no resource")
    if factor_s in ("inf", "infinity"):
        return res, _INF
    try:
        factor = Fraction(factor_s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad what-if factor in {spec!r}") from exc
    if factor <= 0:
        raise ValueError(f"what-if factor must be positive in {spec!r}")
    return res, factor


class _Inf:
    """Stands in for an infinite speed-up factor (resource time → 0)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "inf"


_INF = _Inf()


def _matches(resource_spec: str, resource: str) -> bool:
    group = RESOURCE_GROUPS.get(resource_spec.lower())
    if group is not None:
        return group(resource)
    return resource == resource_spec


def what_if(attempt: dict, resource_spec: str, factor: "Fraction | _Inf") -> dict:
    """Bounded speedup for one attempt with ``resource_spec`` sped up.

    ``attempt`` is one entry of
    :func:`repro.obs.causal.critical.critical_paths`; ``factor`` comes
    from :func:`parse_what_if` (a Fraction, or the infinity sentinel).
    """
    wall = Fraction(float(attempt["wall_s"]))
    affected = sum(
        (Fraction(float(r["seconds"]))
         for r in attempt["by_resource"] if _matches(resource_spec, r["resource"])),
        Fraction(0),
    )
    if isinstance(factor, _Inf):
        saved = affected
        factor_out: float = float("inf")
    else:
        saved = affected * (1 - Fraction(factor.denominator, factor.numerator))
        factor_out = float(factor)
    new_wall = wall - saved
    if new_wall > 0:
        speedup = ratio(wall, new_wall)
    else:
        speedup = float("inf")
    return {
        "vm": attempt["vm"],
        "attempt": attempt["attempt"],
        "resource": resource_spec,
        "factor": factor_out,
        "affected_s": float(affected),
        "wall_s": float(wall),
        "new_wall_s": float(new_wall),
        "speedup_bound": speedup,
    }
