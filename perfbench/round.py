"""One round in a fresh interpreter: build the world, run it, check it.

Run by ``run.py``, once per round::

    python3 perfbench/round.py --workload tour --seed 1 --t0 <perf_counter>

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this interpreter (a system-wide monotonic clock on Linux), so
``setup_s`` spans interpreter start, imports, keys, world and resources
up to the first launch.  With ``--trace`` the layer shims are installed
before the world is built and the spans go to ``--spans``.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def summarize(out, tracer=None) -> dict:
    from workloads import percentile

    result = {
        "workload": out.workload,
        "seed": out.seed,
        "run_s": out.run_s,
        "ops": out.ops,
        "ops_per_s": out.ops / out.run_s,
        "virtual_n": len(out.latencies),
        "virtual_p50_s": percentile(out.latencies, 50),
        "virtual_p90_s": percentile(out.latencies, 90),
        "call_n": len(out.call_ns),
        "call_p50_ns": statistics.median(out.call_ns),
        "call_p99_ns": percentile(out.call_ns, 99),
        "peak_rss_mb": out.peak_rss_mb,
        "checks": out.checks,
        "attempted": out.attempted,
        "failed": out.failed,
        "counts": out.counts,
        "extra": out.extra,
    }
    if tracer is not None:
        import shims

        result["layers"] = shims.layer_metrics(tracer)
        result["fired"] = tracer.fired
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    # Agents' OS threads run one at a time under the kernel baton, so the
    # program can use one CPU; pinning keeps cross-CPU wake-ups (which
    # swung round times by a quarter) out of the figures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    tracer = None
    if args.trace:
        import shims

        tracer = shims.Tracer()
        shims.install(tracer)
    out = workloads.run_workload(args.workload, args.seed)
    result = summarize(out, tracer)
    result["setup_s"] = out.setup_end - args.t0
    result["traced"] = tracer is not None
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))
    sys.stdout.flush()
    # Parked agent threads are daemon OS threads; skip their teardown.
    os._exit(0)


if __name__ == "__main__":
    sys.exit(main())
