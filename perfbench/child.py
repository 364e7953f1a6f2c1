#!/usr/bin/env python3
"""One workload part in a fresh interpreter; prints one JSON line for run.py.

    python3 perfbench/child.py --workload direct-points --seed 1 --seconds 20
        [--rounds K] [--jobs J] [--setup-only] [--trace-out FILE]

run.py starts it from the checkout root with PYTHONPATH set to src and
perfbench, and BLAS thread variables pinned (see ffbench.envinfo).
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=("direct-points", "spectral-grid", "verify-suite"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()

    import fracfield

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(fracfield.__file__).startswith(src + os.sep):
        print(f"fracfield imported from {fracfield.__file__}, not from ./src", file=sys.stderr)
        return 2

    from ffbench import workloads

    warn = workloads.WarningCounter()
    warn.install()
    tracer = sphere_rule = None
    if args.trace_out:
        from ffbench import tracing

        tracer = tracing.Tracer()
        sphere_rule = tracing.install(tracer)

    marks = {}

    def ready() -> None:
        marks["ready_wall"] = time.time()

    if args.workload == "direct-points":
        result = workloads.run_direct(args.seed, args.seconds, args.rounds, ready, warn,
                                      tracer, args.setup_only)
    elif args.workload == "spectral-grid":
        result = workloads.run_spectral(args.seed, args.seconds, args.rounds, ready, warn,
                                        tracer, args.setup_only)
    else:
        result = workloads.run_verify(args.seed, args.jobs, ready, warn, args.setup_only)

    result["ready_wall"] = marks["ready_wall"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["warnings"] = dict(warn.counts)
    if tracer is not None:
        tracer.enabled = False
        from ffbench import tracing

        result["layer"] = tracing.layer_metrics(tracer, sphere_rule)
        checks = tracing.check_spans(tracer)
        result["check_span_s"] = [s.end - s.start for s in checks]
        result["spans"] = len(tracer.records)
        os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
