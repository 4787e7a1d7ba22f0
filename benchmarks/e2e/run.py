"""Figure-level benchmark: the paper's workloads, host time end to end.

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
                                  [--seconds S] [--trace 0|1] [--out DIR]

Each run of a workload happens in a fresh interpreter (``child.py``), one
child at a time, so the benchmark never loads more than one core.  Per
workload it

1. runs timed, untraced children as long as the next one is expected to
   fit in ``--seconds`` of timed runs (default: ``run_seconds`` of
   ``BENCHMARK.json``), and at least one; without ``--seconds``, at least
   ``DEFAULT_RUNS``, so that every workload has a quartile spread;
2. spawns ``SETUP_PROBES`` children that stop once ``repro`` is imported;
   ``setup_s`` is their median.  They go ``PROBES_PER_GAP`` before each
   timed child and the rest after the last, so that one slow spell of a
   shared host cannot skew them all;
3. runs one traced child that wraps every layer's public functions
   (``spans.py``) and writes its spans as Chrome trace JSON.

``--trace 0`` stops after step 2 and reports the end-to-end metrics;
``--trace 1`` runs one timed child (the reference for the output digest
and the tracing overhead) and the traced one, and reports the per-layer
metrics.  Without ``--trace`` both are reported.  Metric names, units and
directions come from ``BENCHMARK.json``.

Every child's outputs are checked (``suite.check``): all requested
migrations complete without aborts, every number is finite, and the
output digest is the same in every run of the workload, traced or not.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``DIR/results.json`` holds
everything, including every sample.  The exit code is 1 if any check
failed, 2 if the benchmark cannot run here at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

DEFAULT_RUNS = 5
SETUP_PROBES = 10
PROBES_PER_GAP = 2
CHILD_TIMEOUT_S = 170

#: One interpreter, one thread: numpy's BLAS pools would otherwise start
#: a thread per core in every child.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spawn(workload: str, seed: int, *extra: str) -> dict:
    """One child run; its JSON record plus ``setup_s`` and ``wall``, or an
    ``error`` when it failed to produce one."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=CHILD_ENV, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s",
                "wall": time.monotonic() - t0}
    wall = time.monotonic() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {' | '.join(tail)}", "wall": wall}
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec.pop("ready") - t0
    rec["wall"] = wall
    return rec


def measure(workload: str, seed: int, seconds: float, min_runs: int,
            trace: int | None, out_dir: Path) -> dict:
    """All runs of one workload, checked and summarised."""
    n_probes = 0 if trace == 1 else SETUP_PROBES
    probes: list[dict] = []
    timed: list[dict] = []
    spent = 0.0

    def probe(n: int) -> None:
        probes.extend(spawn(workload, seed, "--setup-only")
                      for _ in range(min(n, n_probes - len(probes))))

    while True:
        probe(PROBES_PER_GAP)
        timed.append(spawn(workload, seed))
        spent += timed[-1]["wall"]
        if trace == 1 or (len(timed) >= min_runs and spent + timed[-1]["wall"] > seconds):
            break
    probe(n_probes)
    traced = None
    spans_path = out_dir / f"spans-{workload}.json"
    if trace != 0:
        traced = spawn(workload, seed, "--spans", str(spans_path))

    runs = probes + timed + ([traced] if traced else [])
    scenario_runs = [r for r in timed + [traced] if r and "error" not in r]
    reference = scenario_runs[0]["digest"] if scenario_runs else None
    problems = []
    for r in runs:
        issues = [r["error"]] if "error" in r else list(r.get("problems", []))
        if "digest" in r and r["digest"] != reference:
            issues.append(f"digest {r['digest'][:12]} != {reference[:12]}")
        r["ok"] = not issues
        problems += issues
    attempted, failed = len(runs), sum(not r["ok"] for r in runs)

    good_timed = [r for r in timed if r["ok"]]
    samples = {}
    if trace != 1:
        samples = {
            "host_s": [r["host_s"] for r in good_timed],
            "setup_s": [r["setup_s"] for r in probes if r["ok"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in good_timed],
        }
    end_to_end = {}
    for name, values in samples.items():
        if values:
            q1, med, q3 = quartiles(values)
            end_to_end[name] = {"value": med, "q1": q1, "q3": q3,
                                "n": len(values), "samples": values}
    per_layer = {}
    if traced is not None and traced["ok"] and good_timed:
        per_layer = dict(traced["layers"])
        untraced = statistics.median(r["host_s"] for r in good_timed)
        per_layer["trace.overhead_frac"] = traced["host_s"] / untraced - 1
    return {
        "seed": seed,
        "digest": reference,
        "attempted": attempted,
        "failed": failed,
        "errors_frac": failed / attempted,
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "spans": spans_path.name if traced is not None else None,
        "runs": {"setup_probes": probes, "timed": timed, "traced": traced},
    }


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"run.py: needs {SRC}/repro and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=workloads, default=workloads)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="time budget for timed runs (default: run_seconds of "
                         f"BENCHMARK.json, with at least {DEFAULT_RUNS} runs)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--out", type=Path, default=HERE / "out")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    min_runs = DEFAULT_RUNS if args.seconds is None else 1
    wanted = []
    if args.trace != 1:
        wanted += spec["end_to_end"]
    if args.trace != 0:
        wanted += spec["per_layer"]

    args.out.mkdir(parents=True, exist_ok=True)
    results = {
        "schema": "repro.bench.e2e/1",
        "seed": args.seed,
        "seconds": seconds,
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "nproc": os.cpu_count()},
        "workloads": {},
    }
    summary: dict = {}
    attempted = failed = missing = 0
    for workload in args.workload:
        res = measure(workload, args.seed, seconds, min_runs, args.trace, args.out)
        results["workloads"][workload] = res
        found = {**res["end_to_end"], **res["per_layer"]}
        prefix = f"{workload}/" if len(args.workload) > 1 else ""
        for m in wanted:
            if m["name"] not in found:
                res["problems"].append(f"metric {m['name']} not measured")
                missing += 1
                continue
            entry = found[m["name"]]
            value = entry["value"] if isinstance(entry, dict) else entry
            extra = (f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
                     if isinstance(entry, dict) else "")
            print(f"{workload:18s} {m['name']:34s} {value:>14.6g} {m['unit']}{extra}")
            summary[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        for problem in res["problems"]:
            print(f"{workload:18s} FAILED {problem}")
        print(f"{workload:18s} {'errors_frac':34s} {res['errors_frac']:>14.6g} ratio"
              f"  [{res['failed']} of {res['attempted']} runs]")
        attempted += res["attempted"]
        failed += res["failed"]

    (args.out / "results.json").write_text(json.dumps(results, indent=1) + "\n")
    correct = failed == 0 and missing == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
