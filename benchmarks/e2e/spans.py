"""Host-time spans around each layer's public functions, recorded from outside.

:class:`SpanTracer` monkeypatches the public entry points of every
``src/repro`` layer (see :data:`LAYERS`) with thin timing wrappers.  The
simulator itself is not edited: a span opens when a wrapped function is
entered (or, for a generator, resumed) and closes when it returns (or
yields).  A span stack turns inclusive times into self times: a span's
self time is its duration minus the time covered by spans opened inside
it, so the self times of all layers plus the time outside every span
add up to the traced host time.

Work that no public function reaches stays where the kernel ran it.
Background process bodies that the simulator spawns privately (hybrid
push and pull loops, migration watchdogs, fabric and fluid-share
wake-ups) run inside ``Environment.step`` with no wrapped function on
the stack, so their own cost lands in ``simkernel.self_s``.

Spans are aggregated per function in memory; the individual spans kept
for the Chrome trace are bounded by :data:`KEEP_SPANS` (the first layer
spans, kernel steps excluded), so a long run cannot exhaust memory.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

__all__ = ["LAYERS", "SpanTracer", "layer_metrics"]

#: Spans kept for the Chrome trace; aggregates always cover every span.
KEEP_SPANS = 100_000

#: The kernel step: the root of every event's work, never kept as a span.
STEP = "Environment.step"


def _layer_targets():
    """``[(layer, class, method names)]`` for every wrapped public function.

    Imported lazily: the benchmark parent never imports ``repro``.
    """
    from repro.core.manager import MigrationManager
    from repro.hypervisor.control import LiveMigration
    from repro.hypervisor.memory import (
        AdaptivePrecopyMemory,
        PostcopyMemory,
        PrecopyMemory,
    )
    from repro.hypervisor.pagedirty import PageLevelPrecopyMemory
    from repro.hypervisor.vm import VMInstance
    from repro.netsim.fairness import IncrementalMaxMin
    from repro.netsim.flows import Fabric
    from repro.repository.blobseer import StripedRepository
    from repro.repository.pvfs import PVFS
    from repro.simkernel.core import Environment
    from repro.simkernel.fluid import FluidShare
    from repro.storage.disk import LocalDisk
    from repro.storage.pagecache import PageCache
    from repro.workloads.base import Workload

    def family(base):
        out, todo = [], [base]
        while todo:
            cls = todo.pop()
            out.append(cls)
            todo.extend(cls.__subclasses__())
        return sorted(set(out), key=lambda c: c.__qualname__)

    def hooks(cls):
        return [n for n in ("read", "write") if n in vars(cls)] + sorted(
            n for n in vars(cls) if n.startswith("on_")
        )

    targets = [
        ("simkernel", Environment, ["__init__", "step"]),
        ("netsim.flows", Fabric, ["transfer", "message", "cancel"]),
        ("netsim.fairness", IncrementalMaxMin, ["solve"]),
        ("repository", StripedRepository, ["fetch", "store"]),
        ("repository", PVFS, ["read", "write"]),
        ("storage", LocalDisk, ["io"]),
        ("storage", PageCache, ["read", "write"]),
        ("storage", FluidShare, ["transfer"]),
        ("hypervisor", VMInstance, ["read", "write", "compute"]),
        ("hypervisor", LiveMigration, ["run"]),
    ]
    targets += [("core", cls, hooks(cls)) for cls in family(MigrationManager)]
    for cls in (PrecopyMemory, AdaptivePrecopyMemory, PostcopyMemory,
                PageLevelPrecopyMemory):
        names = [n for n in ("pre_control", "post_control") if n in vars(cls)]
        targets.append(("hypervisor", cls, names))
    targets += [("workloads", cls, ["run"]) for cls in family(Workload)
                if "run" in vars(cls)]
    return [(layer, cls, names) for layer, cls, names in targets if names]


#: Layer names in report order (the ``src/repro`` package each one wraps).
LAYERS = ("simkernel", "netsim.flows", "netsim.fairness", "storage",
          "repository", "core", "hypervisor", "workloads")


class SpanTracer:
    """Span stack, per-function aggregates and the patch/unpatch lifecycle.

    ``clock`` is injectable so tests can drive the self-time arithmetic
    with synthetic timestamps.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: name -> [spans, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        #: name -> invocations (a generator counts once, however often resumed)
        self.calls: Counter = Counter()
        #: (enclosing span name, called name) -> invocations
        self.edges: Counter = Counter()
        #: name -> layer, for every wrapped function
        self.layer_of: dict[str, str] = {}
        #: (name, start, duration, depth) of the first KEEP_SPANS layer spans
        self.spans: list[tuple[str, float, float, int]] = []
        self.dropped = 0
        self.envs: list = []
        self.migrations: list = []
        self.same_instant = 0
        self._last_transfer_at: tuple | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[type, str, object]] = []
        self.t0 = clock()

    # -- span arithmetic ---------------------------------------------------
    def call(self, name: str) -> None:
        """Count one invocation of ``name`` under the innermost open span."""
        self.calls[name] += 1
        parent = self._stack[-1][0] if self._stack else "<root>"
        self.edges[(parent, name)] += 1

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        t1 = self.clock()
        name, t0, child = self._stack.pop()
        dur = t1 - t0
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name != STEP:
            if len(self.spans) < KEEP_SPANS:
                self.spans.append((name, t0, dur, len(self._stack)))
            else:
                self.dropped += 1

    # -- wrappers ----------------------------------------------------------
    def _plain(self, fn, name: str, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.call(name)
            if hook is not None:
                hook(args)
            tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return wrapper

    def _generator(self, fn, name: str, on_return=None):
        """Forwarding generator: every resume of ``fn``'s generator is one
        span; ``send``, ``throw`` and ``close`` pass straight through."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.call(name)
            gen = fn(*args, **kwargs)
            value, exc = None, None
            while True:
                tracer.enter(name)
                try:
                    item = gen.send(value) if exc is None else gen.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    tracer.exit()
                try:
                    value, exc = (yield item), None
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # forwarded into the generator
                    value, exc = None, err
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def wrap(self, cls: type, attr: str, layer: str, hook=None, on_return=None):
        """Replace ``cls.attr`` (defined on ``cls`` itself) by a timed wrapper."""
        fn = vars(cls)[attr]
        name = f"{cls.__name__}.{attr}"
        if inspect.isgeneratorfunction(fn):
            wrapped = self._generator(fn, name, on_return)
        else:
            wrapped = self._plain(fn, name, hook)
        self.layer_of[name] = layer
        self._patched.append((cls, attr, fn))
        setattr(cls, attr, wrapped)

    def install(self) -> "SpanTracer":
        """Wrap every function of :func:`_layer_targets`."""
        special = {
            ("Environment", "__init__"): dict(hook=lambda a: self.envs.append(a[0])),
            ("Fabric", "transfer"): dict(hook=self._note_transfer),
            ("LiveMigration", "run"): dict(on_return=self.migrations.append),
        }
        for layer, cls, names in _layer_targets():
            for attr in names:
                self.wrap(cls, attr, layer, **special.get((cls.__name__, attr), {}))
        return self

    def uninstall(self) -> None:
        for cls, attr, fn in reversed(self._patched):
            setattr(cls, attr, fn)
        self._patched.clear()

    def _note_transfer(self, args) -> None:
        """Count transfers issued at the same sim instant on the same fabric
        as the previous one: each re-solves max-min over a zero-length step."""
        fabric = args[0]
        key = (id(fabric), fabric.env.now)
        if key == self._last_transfer_at:
            self.same_instant += 1
        self._last_transfer_at = key

    # -- export ------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, agg in self.stats.items():
            out[self.layer_of[name]] += agg[2]
        return out

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace JSON (Perfetto, chrome://tracing)."""
        events = [
            {"name": name, "cat": self.layer_of.get(name, "?"), "ph": "X",
             "ts": round((t0 - self.t0) * 1e6, 3), "dur": round(dur * 1e6, 3),
             "pid": 1, "tid": 1, "args": {"depth": depth}}
            for name, t0, dur, depth in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "kept_spans": len(self.spans),
                "dropped_spans": self.dropped,
                "functions": {
                    name: {"layer": self.layer_of.get(name, "?"), "calls":
                           self.calls[name], "spans": agg[0],
                           "inclusive_s": agg[1], "self_s": agg[2]}
                    for name, agg in sorted(self.stats.items())
                },
            },
        }

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: SpanTracer, profiler, host_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run, keyed as in ``BENCHMARK.json``.

    ``profiler`` is the run's :class:`repro.obs.prof.Profiler`, which
    supplies the work counters the simulator already keeps; ``host_s`` is
    the traced run's host wall.  ``trace.overhead_frac`` needs the
    untraced wall and is added by the caller.
    """
    c = profiler.counters
    scope_s: Counter = Counter()
    for path, entry in profiler.flat().items():
        scope_s[path.rsplit("/", 1)[-1]] += entry["inclusive_s"]
    calls = tracer.calls
    by_layer = tracer.layer_self_s()

    def calls_in(layer, attrs=None):
        return sum(n for name, n in calls.items() if tracer.layer_of[name] == layer
                   and (attrs is None or name.rsplit(".", 1)[-1] in attrs))

    events = sum(env.events_processed for env in tracer.envs)
    skips = c.get("kernel.cancelled_skips", 0)
    solves = c.get("maxmin.solves", 0)
    hits = c.get("maxmin.memo_hits", 0)
    repo_calls = calls["StripedRepository.fetch"] + calls["StripedRepository.store"]
    fanout = sum(n for (parent, child), n in tracer.edges.items()
                 if child == "Fabric.transfer" and parent in
                 ("StripedRepository.fetch", "StripedRepository.store"))
    done = [rec for rec in tracer.migrations if not rec.aborted]
    wrapped = sum(by_layer.values())
    return {
        "simkernel.events": events,
        "simkernel.cancelled_skips": skips,
        "simkernel.useful_frac": _ratio(events, events + skips),
        "simkernel.heap_ops": c.get("kernel.heap_push", 0) + c.get("kernel.heap_pop", 0),
        "simkernel.self_s": by_layer["simkernel"],
        "netsim.flows.transfers": calls["Fabric.transfer"],
        "netsim.flows.messages": calls["Fabric.message"],
        "netsim.flows.same_instant_frac": _ratio(tracer.same_instant,
                                                 calls["Fabric.transfer"]),
        "netsim.flows.flows_touched": c.get("fabric.flows_touched", 0),
        "netsim.flows.recompute_s": scope_s["fabric.recompute"],
        "netsim.flows.self_s": by_layer["netsim.flows"],
        "netsim.fairness.solves": calls["IncrementalMaxMin.solve"],
        "netsim.fairness.memo_hit_frac": _ratio(hits, hits + solves),
        "netsim.fairness.links_per_solve": _ratio(c.get("maxmin.links_visited", 0), solves),
        "netsim.fairness.solve_s": by_layer["netsim.fairness"],
        "storage.io_calls": calls_in("storage"),
        "storage.fluid_jobs_touched": c.get("fluid.jobs_touched", 0),
        "storage.fluid_s": scope_s["fluid.advance"] + scope_s["fluid.reschedule"],
        "storage.self_s": by_layer["storage"],
        "repository.fetches": calls["StripedRepository.fetch"],
        "repository.stores": calls["StripedRepository.store"],
        "repository.fanout": _ratio(fanout, repo_calls),
        "repository.pvfs_ops": calls["PVFS.read"] + calls["PVFS.write"],
        "repository.self_s": by_layer["repository"],
        "core.io_ops": calls_in("core", ("read", "write")),
        "core.push_scanned": c.get("chunks.push_scanned", 0),
        "core.pull_scanned": c.get("chunks.pull_scanned", 0),
        "core.aborts": len(tracer.migrations) - len(done),
        "core.self_s": by_layer["core"],
        "hypervisor.memory_rounds": sum(rec.memory_rounds for rec in done),
        "hypervisor.memory_gb": sum(rec.memory_bytes or 0.0 for rec in done) / 2**30,
        "hypervisor.self_s": by_layer["hypervisor"],
        "workloads.ops": sum(calls[f"VMInstance.{op}"] for op in ("read", "write", "compute")),
        "workloads.self_s": by_layer["workloads"],
        "scenario.self_s": max(host_s - wrapped, 0.0),
    }
