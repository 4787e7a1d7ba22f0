"""One benchmark run in a fresh interpreter; ``run.py`` spawns it.

    python child.py WORKLOAD SEED                 # timed run
    python child.py WORKLOAD SEED --spans PATH    # traced run, spans to PATH
    python child.py WORKLOAD SEED --setup-only    # stop once set up

Prints one JSON line.  ``ready`` is ``time.monotonic()`` once the
interpreter is up and ``repro`` is imported and initialised; the parent
subtracts its own ``time.monotonic()`` at spawn to get ``setup_s`` (both
read the same system-wide clock).  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import time

import suite  # imports repro: part of the measured set-up

ready = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(suite.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    out: dict = {"ready": ready}
    if not args.setup_only:
        obs = tracer = None
        if args.spans:
            from repro.obs import Observability

            import spans

            obs = Observability(trace=False, metrics=False, profile=True)
            tracer = spans.SpanTracer().install()
        t0 = time.perf_counter()
        cells = suite.run_workload(args.workload, args.seed, obs)
        host_s = time.perf_counter() - t0
        out["digest"], out["problems"] = suite.check(cells)
        out["host_s"] = host_s
        out["cells"] = len(cells)
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = spans.layer_metrics(tracer, obs.profiler, host_s)
            tracer.write_chrome(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
