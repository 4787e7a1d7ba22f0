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

The accumulators are the cells of one list of floats.  The fabric holds
each in-flight flow's cell index and credits a whole integration step with
:meth:`TrafficMeter.credit`, one ``np.add.at`` over the cells; the views
list the pairs in the order they were first credited, as a dict keyed on
first insertion would.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

__all__ = ["TrafficMeter"]


class TrafficMeter:
    """Accumulates moved bytes keyed by ``(tag, cause)`` pairs."""

    def __init__(self) -> None:
        #: ``(tag, cause) -> cell``, in allocation order.
        self._cells: dict[tuple[str, str], int] = {}
        #: ``cell -> (tag, cause)``.
        self._keys: list[tuple[str, str]] = []
        self._values: list[float] = []
        #: Credited cells in first-credit order: the order of the views.
        self._credited: dict[int, None] = {}

    def cell(self, tag: str, cause: Optional[str] = None) -> int:
        """The accumulator index of ``(tag, cause)``, allocated on first use.

        ``cause`` defaults to the tag itself, so call sites that predate
        cause attribution stay conservative (the pair views still sum to
        the same totals).  Empty/non-string tags are rejected: an
        unlabelled byte cannot be attributed and silently polluting a
        default bucket hides exactly the accounting bugs this meter is
        meant to surface.
        """
        if cause is None:
            cause = tag
        key = (tag, cause)
        c = self._cells.get(key)
        if c is not None:
            return c
        if not isinstance(tag, str) or not tag:
            raise ValueError(f"tag must be a non-empty string, got {tag!r}")
        if not isinstance(cause, str) or not cause:
            raise ValueError(f"cause must be a non-empty string, got {cause!r}")
        c = len(self._keys)
        self._cells[key] = c
        self._keys.append(key)
        self._values.append(0.0)
        return c

    def cell_tags(self) -> list[str]:
        """The tag of every accumulator, indexed by cell."""
        return [tag for tag, _cause in self._keys]

    def add(self, tag: str, nbytes: float, cause: Optional[str] = None) -> None:
        """Credit ``nbytes`` to ``tag``, attributed to ``cause``."""
        # Chained comparisons are False for NaN as well as out of range.
        if not 0 <= nbytes < math.inf:
            raise ValueError("nbytes must be finite and non-negative")
        self.credit_cell(self.cell(tag, cause), nbytes)

    def credit_cell(self, cell: int, nbytes: float) -> None:
        """Credit ``nbytes`` to the accumulator ``cell`` (unchecked)."""
        self._values[cell] += nbytes
        if cell not in self._credited:
            self._credited[cell] = None

    def credit(self, cells: np.ndarray, nbytes: np.ndarray) -> None:
        """Credit ``nbytes[i]`` to ``cells[i]`` for every ``i`` (unchecked).

        ``np.add.at`` adds into each cell sequentially in index order, so
        the result is bit-for-bit the loop of :meth:`credit_cell` calls.
        """
        values = np.array(self._values)
        np.add.at(values, cells, nbytes)
        self._values = values.tolist()
        if len(self._credited) < len(self._keys):
            self._credited.update(dict.fromkeys(cells.tolist()))

    def by_pair(self) -> dict[tuple[str, str], float]:
        """Snapshot of the raw ``{(tag, cause): bytes}`` matrix."""
        values = self._values
        return {self._keys[c]: values[c] for c in self._credited}

    def bytes(self, tag: str) -> float:
        """Bytes moved under exactly ``tag`` (summed over causes)."""
        return sum(v for (t, _c), v in self.by_pair().items() if t == tag)

    def total(self, *, exclude: Iterable[str] = ()) -> float:
        """Total bytes over all tags, optionally excluding some tags.

        ``exclude`` accepts any iterable of tags (tuple, list, set, ...);
        it is normalised to a set internally.
        """
        exclude = frozenset(exclude)
        return sum(v for (t, _c), v in self.by_pair().items()
                   if t not in exclude)

    def by_tag(self) -> dict[str, float]:
        """Snapshot ``{tag: bytes}`` (summed over causes)."""
        out: dict[str, float] = {}
        for (tag, _cause), v in self.by_pair().items():
            out[tag] = out.get(tag, 0.0) + v
        return out

    def by_cause(self) -> dict[str, float]:
        """Snapshot ``{cause: bytes}`` (summed over tags)."""
        out: dict[str, float] = {}
        for (_tag, cause), v in self.by_pair().items():
            out[cause] = out.get(cause, 0.0) + v
        return out

    def reset(self) -> None:
        """Zero every accumulator; cells stay allocated for live flows."""
        self._values = [0.0] * len(self._keys)
        self._credited = {}

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{k}={v / 1e6:.1f}MB" for k, v in sorted(self.by_tag().items())
        )
        return f"<TrafficMeter {parts}>"
