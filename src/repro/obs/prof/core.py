"""The self-profiler proper: scoped host-time attribution + work counters.

:class:`Profiler` attributes *host* wall-clock (``time.perf_counter``)
and optionally net allocations (``tracemalloc``) to a tree of named
scopes, and accumulates integer work counters (heap pushes, solver
rounds, links visited, chunk-set scans).  The simulator opens scopes and
bumps counters through ``env.probe`` (:mod:`repro.obs.probe`), which
names them all.

The scope tree records *inclusive* time (scope entry to exit) and
*exclusive* time (inclusive minus time spent in child scopes).  Exclusive
times telescope: summed over the whole tree they equal the total
inclusive time of the root scopes, which is the conservation invariant
``repro profile --check`` asserts (``tests/test_cli.py`` runs it).

Determinism contract: the profiler only *observes* the host process.  It
never touches simulation state, schedules no events and draws no
randomness, so enabling it cannot change any simulation output — wall
times differ run to run, but the scope structure, call counts and work
counters of a seeded scenario are identical.

This module is the one sanctioned host-side wall-clock boundary in the
tree: simlint's determinism rules (D family) ban ``time``/``datetime``
everywhere else in simulation code and allowlist exactly
``repro.obs.prof`` (see ``repro.lint.config.HOST_TIME_MODULES``).
"""

from __future__ import annotations

import time
import tracemalloc

__all__ = ["ProfNode", "Profiler"]

SCHEMA = "repro.prof/1"

#: Conservation tolerance: exclusive times must sum to the root wall time
#: within this relative fraction (scope bookkeeping itself costs a little
#: time that lands between frames).
CONSERVATION_REL_TOL = 0.01


class ProfNode:
    """Aggregated statistics for one scope name at one tree position."""

    __slots__ = ("name", "calls", "inclusive", "exclusive", "alloc", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.inclusive = 0.0
        self.exclusive = 0.0
        #: Net bytes allocated inside the scope (0 unless alloc tracking).
        self.alloc = 0
        self.children: dict[str, ProfNode] = {}

    def as_dict(self) -> dict:
        """JSON-ready nested dict, children sorted by name."""
        out: dict = {
            "name": self.name,
            "calls": self.calls,
            "inclusive_s": self.inclusive,
            "exclusive_s": self.exclusive,
        }
        if self.alloc:
            out["alloc_bytes"] = self.alloc
        if self.children:
            out["children"] = [
                self.children[k].as_dict() for k in sorted(self.children)
            ]
        return out

    def __repr__(self) -> str:
        return (
            f"<ProfNode {self.name} calls={self.calls} "
            f"incl={self.inclusive:.6f}s excl={self.exclusive:.6f}s>"
        )


class _Frame:
    """One live scope activation on the profiler stack."""

    __slots__ = ("node", "t0", "child", "a0")

    def __init__(self, node: ProfNode, t0: float, a0: int) -> None:
        self.node = node
        self.t0 = t0
        #: Host seconds spent in child scopes of this activation.
        self.child = 0.0
        self.a0 = a0


class _Scope:
    """Context manager pairing ``enter``/``exit`` exception-safely."""

    __slots__ = ("_prof", "_name")

    def __init__(self, prof: "Profiler", name: str) -> None:
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Scope":
        self._prof.enter(self._name)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._prof.exit()
        return False


class Profiler:
    """Scoped host wall-clock + allocation attribution and work counters.

    Parameters
    ----------
    alloc:
        Also attribute net heap allocations per scope via ``tracemalloc``
        (starts it if not already tracing).  Allocation tracking slows
        the host process noticeably; leave it off for timing runs.
    """

    def __init__(self, alloc: bool = False) -> None:
        self._roots: dict[str, ProfNode] = {}
        self._stack: list[_Frame] = []
        self._counters: dict[str, int] = {}
        self.alloc = bool(alloc)
        self._started_tracemalloc = False
        if self.alloc and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True

    def close(self) -> None:
        """Stop tracemalloc if this profiler started it."""
        if self._started_tracemalloc and tracemalloc.is_tracing():
            tracemalloc.stop()
            self._started_tracemalloc = False

    # -- scopes ------------------------------------------------------------
    def enter(self, name: str) -> None:
        """Open scope ``name`` as a child of the innermost open scope."""
        stack = self._stack
        children = stack[-1].node.children if stack else self._roots
        node = children.get(name)
        if node is None:
            node = children[name] = ProfNode(name)
        a0 = tracemalloc.get_traced_memory()[0] if self.alloc else 0
        stack.append(_Frame(node, time.perf_counter(), a0))

    def exit(self) -> None:
        """Close the innermost open scope."""
        t1 = time.perf_counter()
        frame = self._stack.pop()
        dt = t1 - frame.t0
        node = frame.node
        node.calls += 1
        node.inclusive += dt
        node.exclusive += dt - frame.child
        if self.alloc:
            grown = tracemalloc.get_traced_memory()[0] - frame.a0
            if grown > 0:
                node.alloc += grown
        if self._stack:
            self._stack[-1].child += dt

    def scope(self, name: str) -> _Scope:
        """Context manager form of :meth:`enter`/:meth:`exit`."""
        return _Scope(self, name)

    # -- counters ----------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to work counter ``name`` (pure integer arithmetic on
        simulation quantities, so values are deterministic per seed)."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + n

    @property
    def counters(self) -> dict[str, int]:
        """All work counters, sorted by name."""
        return dict(sorted(self._counters.items()))

    # -- aggregation -------------------------------------------------------
    def total_wall_s(self) -> float:
        """Total inclusive time of the root scopes (closed frames only)."""
        return sum(node.inclusive for node in self._roots.values())

    def exclusive_sum_s(self) -> float:
        """Sum of exclusive times over the whole tree."""
        total = 0.0
        stack = list(self._roots.values())
        while stack:
            node = stack.pop()
            total += node.exclusive
            stack.extend(node.children.values())
        return total

    def tree(self) -> list[dict]:
        """The scope tree as JSON-ready nested dicts, roots sorted by name."""
        return [self._roots[k].as_dict() for k in sorted(self._roots)]

    def flat(self) -> dict[str, dict]:
        """``{"a/b/c": {calls, inclusive_s, exclusive_s}}`` for every node."""
        out: dict[str, dict] = {}

        def walk(node: ProfNode, prefix: str) -> None:
            path = f"{prefix}/{node.name}" if prefix else node.name
            entry = {
                "calls": node.calls,
                "inclusive_s": node.inclusive,
                "exclusive_s": node.exclusive,
            }
            if node.alloc:
                entry["alloc_bytes"] = node.alloc
            out[path] = entry
            for key in sorted(node.children):
                walk(node.children[key], path)

        for key in sorted(self._roots):
            walk(self._roots[key], "")
        return out

    def summary(self) -> dict:
        """The whole profile as one JSON-ready dict with the conservation
        verdict (exclusive times must sum to the root wall time)."""
        total = self.total_wall_s()
        excl = self.exclusive_sum_s()
        residual = total - excl
        tol = max(CONSERVATION_REL_TOL * total, 1e-9)
        return {
            "schema": SCHEMA,
            "enabled": True,
            "alloc": self.alloc,
            "total_wall_s": total,
            "exclusive_sum_s": excl,
            "conservation": {
                "residual_s": residual,
                "rel_tol": CONSERVATION_REL_TOL,
                "ok": abs(residual) <= tol,
            },
            "tree": self.tree(),
            "counters": self.counters,
        }

    def __repr__(self) -> str:
        return (
            f"<Profiler roots={len(self._roots)} "
            f"counters={len(self._counters)} wall={self.total_wall_s():.6f}s>"
        )

