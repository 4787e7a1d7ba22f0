"""Per-tag, per-cause network traffic accounting.

Every transfer through the fabric carries a tag ("memory", "storage-push",
"storage-pull", "repo-fetch", "pvfs-io", "app", ...).  Bytes are credited as
they *move* (at integration time), so a run cut short still reports the
traffic actually generated — matching how the paper measures "total network
traffic generated during the experiments".

Tags name the *channel* a byte crossed (what the paper's Fig. 4 sums);
causes name *why* it crossed: ``push``, ``prefetch``, ``pull.demand``,
``repo.fetch``, ``memory``, ``workload``, ``retry.<label>``, ...  The meter
keeps one accumulator per ``(tag, cause)`` pair, so the per-tag and
per-cause views are two groupings of the same numbers and attribution is
conservative by construction (see ``repro.obs.analyze.attribution``).
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Accumulates moved bytes keyed by ``(tag, cause)`` pairs."""

    def __init__(self) -> None:
        self._pairs: dict[tuple[str, str], float] = {}

    def add(self, tag: str, nbytes: float, cause: Optional[str] = None) -> None:
        """Credit ``nbytes`` to ``tag``, attributed to ``cause``.

        ``cause`` defaults to the tag itself, so call sites that predate
        cause attribution stay conservative (the pair views still sum to
        the same totals).  Empty/non-string tags are rejected: an
        unlabelled byte cannot be attributed and silently polluting a
        default bucket hides exactly the accounting bugs this meter is
        meant to surface.
        """
        if not isinstance(tag, str) or not tag:
            raise ValueError(f"tag must be a non-empty string, got {tag!r}")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if cause is None:
            cause = tag
        elif not isinstance(cause, str) or not cause:
            raise ValueError(f"cause must be a non-empty string, got {cause!r}")
        key = (tag, cause)
        self._pairs[key] = self._pairs.get(key, 0.0) + nbytes

    def bytes(self, tag: str) -> float:
        """Bytes moved under exactly ``tag`` (summed over causes)."""
        return sum(v for (t, _c), v in self._pairs.items() if t == tag)

    def cause_bytes(self, cause: str) -> float:
        """Bytes attributed to exactly ``cause`` (summed over tags)."""
        return sum(v for (_t, c), v in self._pairs.items() if c == cause)

    def total(self, *, exclude: Iterable[str] = ()) -> float:
        """Total bytes over all tags, optionally excluding some tags.

        ``exclude`` accepts any iterable of tags (tuple, list, set, ...);
        it is normalised to a set internally.
        """
        exclude = frozenset(exclude)
        return sum(v for (t, _c), v in self._pairs.items() if t not in exclude)

    def by_tag(self) -> dict[str, float]:
        """Snapshot ``{tag: bytes}`` (summed over causes)."""
        out: dict[str, float] = {}
        for (tag, _cause), v in self._pairs.items():
            out[tag] = out.get(tag, 0.0) + v
        return out

    def by_cause(self) -> dict[str, float]:
        """Snapshot ``{cause: bytes}`` (summed over tags)."""
        out: dict[str, float] = {}
        for (_tag, cause), v in self._pairs.items():
            out[cause] = out.get(cause, 0.0) + v
        return out

    def by_pair(self) -> dict[tuple[str, str], float]:
        """Snapshot of the raw ``{(tag, cause): bytes}`` matrix."""
        return dict(self._pairs)

    def reset(self) -> None:
        self._pairs.clear()

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={v / 1e6:.1f}MB" for k, v in sorted(self.by_tag().items())
        )
        return f"<TrafficMeter {parts}>"
