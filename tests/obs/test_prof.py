"""The self-profiler's invariants.

Three contracts, in rough order of importance:

1. *Determinism*: enabling the profiler changes no simulation output —
   migration records, stats, and traffic are byte-identical with
   profiling on and off, and the work counters themselves are identical
   across repeated seeded runs.
2. *Conservation*: exclusive times telescope — summed over the tree
   they equal the total inclusive wall of the root scopes (within the
   1% bookkeeping tolerance; exactly, in fact, by construction).
3. *Export shape*: the speedscope document is loadable (schema, frames,
   one sampled profile whose weights/samples align) and collapsed
   stacks follow the ``a;b;c <µs>`` folded format.
"""

import json

import pytest

from repro.obs import Observability
from repro.obs.prof import (
    Profiler,
    collapsed_stacks,
    render_profile_text,
    speedscope_json,
)
from repro.obs.prof.core import CONSERVATION_REL_TOL
from repro.simkernel import Environment


def run_fig2_outputs(profile):
    """fig2 run -> everything the simulation computes, minus host times."""
    from repro.experiments.fig2 import run_fig2

    obs = Observability(trace=False, metrics=False, profile=profile)
    record, stats, traffic = run_fig2(obs=obs)
    return {
        "record": repr(record),
        "stats": stats,
        "traffic": dict(traffic),
        "counters": obs.profiler.counters if profile else {},
    }, obs.profiler


class TestScopeTree:
    def test_exclusive_sums_to_inclusive_root(self):
        prof = Profiler()
        with prof.scope("root"):
            with prof.scope("a"):
                with prof.scope("a1"):
                    sum(range(1000))
            with prof.scope("b"):
                sum(range(1000))
        s = prof.summary()
        assert s["conservation"]["ok"]
        # By construction the telescoping is exact, not just within tol.
        assert abs(s["total_wall_s"] - s["exclusive_sum_s"]) < 1e-12
        assert s["conservation"]["rel_tol"] == CONSERVATION_REL_TOL

    def test_tree_structure_and_calls(self):
        prof = Profiler()
        for _ in range(3):
            with prof.scope("outer"):
                with prof.scope("inner"):
                    pass
        (root,) = prof.tree()
        assert root["name"] == "outer" and root["calls"] == 3
        (child,) = root["children"]
        assert child["name"] == "inner" and child["calls"] == 3
        assert child["inclusive_s"] <= root["inclusive_s"]

    def test_exception_leaves_stack_balanced(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.scope("root"):
                with prof.scope("inner"):
                    raise ValueError("boom")
        assert prof._stack == []
        assert prof.summary()["conservation"]["ok"]

    def test_flat_paths(self):
        prof = Profiler()
        with prof.scope("a"):
            with prof.scope("b"):
                pass
        assert set(prof.flat()) == {"a", "a/b"}

    def test_counters_sorted_and_accumulated(self):
        prof = Profiler()
        prof.count("z")
        prof.count("a", 2)
        prof.count("z", 4)
        assert prof.counters == {"a": 2, "z": 5}
        assert list(prof.counters) == ["a", "z"]


class TestDeterminism:
    def test_profile_changes_no_simulation_output(self):
        plain, _ = run_fig2_outputs(profile=False)
        profiled, prof = run_fig2_outputs(profile=True)
        assert prof is not None
        assert plain["record"] == profiled["record"]
        assert plain["stats"] == profiled["stats"]
        assert plain["traffic"] == profiled["traffic"]

    def test_counters_deterministic_across_seeded_runs(self):
        first, prof1 = run_fig2_outputs(profile=True)
        second, prof2 = run_fig2_outputs(profile=True)
        assert first["counters"] == second["counters"]
        assert first["counters"]  # non-trivial: the hooks actually fired
        # Scope structure and call counts match too; only wall differs.
        strip = _strip_times
        assert strip(prof1.tree()) == strip(prof2.tree())

    def test_expected_kernel_counters_present(self):
        out, _ = run_fig2_outputs(profile=True)
        counters = out["counters"]
        for name in ("kernel.heap_push", "kernel.heap_pop",
                     "kernel.callbacks_run", "maxmin.invocations",
                     "maxmin.rounds", "maxmin.links_visited",
                     "fabric.flows_touched", "fluid.jobs_touched",
                     "chunks.push_scanned", "chunks.pull_scanned"):
            assert counters.get(name, 0) > 0, name
        # Pushes and pops balance: the run drained its queue.
        assert counters["kernel.heap_push"] == counters["kernel.heap_pop"]

    def test_fig2_profile_conserves(self):
        _, prof = run_fig2_outputs(profile=True)
        s = prof.summary()
        assert s["conservation"]["ok"]
        assert s["total_wall_s"] > 0


def _strip_times(tree):
    out = [
        {
            "name": node["name"],
            "calls": node["calls"],
            "children": _strip_times(node.get("children", [])),
        }
        for node in tree
    ]
    return out


class TestExports:
    def make_summary(self):
        prof = Profiler()
        with prof.scope("root"):
            with prof.scope("leaf"):
                sum(range(10000))
        prof.count("work.items", 7)
        return prof.summary()

    def test_speedscope_document_shape(self):
        doc = speedscope_json(self.make_summary(), name="t")
        json.dumps(doc)  # serializable
        assert doc["$schema"] == (
            "https://www.speedscope.app/file-format-schema.json"
        )
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        frames = doc["shared"]["frames"]
        names = {frames[i]["name"] for s in profile["samples"] for i in s}
        assert names == {"root", "leaf"}
        assert all(w >= 0 for w in profile["weights"])

    def test_collapsed_stacks_format(self):
        lines = collapsed_stacks(self.make_summary()).splitlines()
        assert any(line.startswith("root;leaf ") for line in lines)
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            assert stack
            assert int(weight) >= 0

    def test_render_text_mentions_conservation_and_counters(self):
        text = render_profile_text(self.make_summary())
        assert "conservation" in text
        assert "work.items" in text
        assert "root" in text and "leaf" in text


class TestObservabilityWiring:
    def test_profile_flag_installs_live_profiler(self):
        obs = Observability(trace=False, metrics=False, profile=True)
        env = Environment()
        obs.install(env)
        assert env.probe.profiler is obs.profiler
        assert isinstance(obs.profiler, Profiler)

    def test_preconfigured_profiler_is_adopted(self):
        prof = Profiler()
        obs = Observability(trace=False, metrics=False, profile=prof)
        assert obs.profiler is prof

    def test_default_is_null(self):
        obs = Observability(trace=False, metrics=False)
        assert obs.profiler is None
