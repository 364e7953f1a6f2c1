#!/usr/bin/env python3
"""fracfield benchmark: three workloads timed end to end and traced per module.

    python3 perfbench/run.py --workload direct-points|spectral-grid|verify-suite|all
                             --seed N --seconds S --trace 0|1

Run it from the repository root. Every workload part runs in a fresh
interpreter (perfbench/child.py) with fracfield imported from ./src and the
BLAS/OpenMP thread variables pinned to 1. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines above
it print every metric by name with its unit, the environment record, and the
failures if any.

--trace 0 reports the end-to-end metrics (tracing off):

    setup_s            median over several fresh processes of the time from
                       process start to the first timed call
    peak_rss_mb        peak resident set of the workload process; on
                       verify-suite the jobs=1 one (the jobs=2 peak varies with
                       which checks overlap and is printed beside it)
    throughput_per_s   direct-points: evaluation points per second (median
                       over rounds of the fixed mix); spectral-grid: jobs per
                       second (median over rounds); verify-suite: checks per
                       second over the jobs=1 and jobs=2 suite runs together
    latency_ms.p50     direct-points: calls of at most 16 points;
    latency_ms.tail    spectral-grid: 1024^2 jobs; verify-suite: single checks
                       of both runs. The tail is the highest percentile with at
                       least ten samples beyond it: p90, p90 and p75.

--trace 1 runs the same fixed work untraced and traced (in ABBA order), and
reports the per-layer metrics of BENCHMARK.json; spans go to .perfbench/spans/.
Operations whose output misses its oracle count as failed (failed_frac). On
direct-points, checked points whose error estimate is more than 3x too small
are counted and printed (estimate_dishonest) but do not fail the operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from ffbench import envinfo  # noqa: E402
from ffbench.stats import percentile, samples_beyond, tail_percentile  # noqa: E402
from ffbench.workloads import TAIL_Q  # noqa: E402

WORKLOADS = ("direct-points", "spectral-grid", "verify-suite")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
}
VERIFY_CHECKS = (
    "duality_delta_pair_a0.3", "duality_delta_pair_a0.5", "duality_delta_pair_a0.7",
    "duality_convolved", "duality_smooth_spectral", "leibniz_pointwise",
    "leibniz_zero_mass", "leibniz_global_ibp", "leibniz_l1_bound", "ball_ibp_r0.8",
    "ball_ibp_r1.0", "ball_ibp_r1.3", "mollification", "decay_smooth_pinf",
    "decay_pole_flat", "cantor_scaling", "zero_total", "div_relation",
    "semigroup_spectral", "semigroup_direct", "symbol_factorization", "riesz_square",
    "cross_engine", "convergence_orders",
)
PER_LAYER = (
    [("fields.evals", "count"), ("fields.evals_per_pt", "count"),
     ("fields.ns_per_eval", "ns"), ("fields.mask_ns_per_eval", "ns"), ("fields.s", "s")]
    + [(f"quadrature.{op}_batch.{k}", u)
       for op in ("frac_gradient", "frac_divergence", "nl_divergence",
                  "riesz_potential", "riesz_transform")
       for k, u in (("s", "s"), ("pts", "count"))]
    + [("quadrature.us_per_pt", "us"), ("quadrature.far_pt_share", "ratio"),
       ("quadrature.sphere_rule.hit_ratio", "ratio"),
       ("quadrature.sphere_rule.hits", "count"), ("quadrature.sphere_rule.misses", "count"),
       ("spectral.embed.s", "s"), ("spectral.embed.calls", "count"),
       ("spectral.embed.bytes_computed", "bytes"), ("spectral.rfftn.s", "s"),
       ("spectral.irfftn.s", "s"), ("spectral.symbol.s", "s"),
       ("spectral.fft.bytes_computed", "bytes"), ("spectral.sample_linear.s", "s"),
       ("spectral.sample_linear.ns_per_pt", "ns"),
       ("analytic.duality_pairing.s", "s"), ("analytic.nl_gradient_ball.s", "s"),
       ("analytic.grad_chi_ball_profile.s", "s"),
       ("analytic.spectral_gradient_of.fills", "count"),
       ("analytic.spectral_gradient_of.hits", "count")]
    + [(f"verify.check.{name}.s", "s") for name in VERIFY_CHECKS]
    + [("verify.cache.fills", "count"), ("verify.cache.hits", "count"),
       ("verify.cache.fill_s", "s"), ("verify.jobs2.idle_s", "s"),
       ("verify.critical_check_s", "s"),
       ("norms.besov_seminorm.s", "s"), ("norms.lp_norm.s", "s"),
       ("measures.measure_ball_mass.s", "s"), ("measures.measure_ball_mass.calls", "count"),
       ("quadrature.estimate_dishonest", "count"),
       ("warnings.runtime", "count"), ("trace.overhead_frac", "ratio")]
)
SETUP_SAMPLES = 9          # fresh processes whose set-up time is timed per run
TRACE_ROUNDS = {"direct-points": 2, "spectral-grid": 1}
RUN_LIMIT_S = 170.0        # every child is killed past this point of the run
SPANS_DIR = os.path.join(".perfbench", "spans")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workload parts as child processes under one run deadline."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = envinfo.child_env(root)
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def part(self, workload: str, seed: int, seconds: float, **opts) -> dict:
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
        for key, val in opts.items():
            if val is True:
                cmd.append("--" + key.replace("_", "-"))
            elif val not in (None, False):
                cmd += ["--" + key.replace("_", "-"), str(val)]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline passed before all parts started")
        spawn = time.time()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload} part {opts} exceeded the run deadline")
        if proc.returncode != 0:
            raise BenchError(f"{workload} part {opts} exited with {proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"{workload} part {opts} printed no result")
        result = json.loads(lines[-1])
        result["setup_s"] = result["ready_wall"] - spawn
        return result

    def setups(self, workload: str, seed: int, count: int) -> list[float]:
        return [self.part(workload, seed, 0, setup_only=True)["setup_s"] for _ in range(count)]


# ---------------------------------------------------------------------------
# end-to-end

def _latency(samples: list[float], q: float) -> tuple[float, float]:
    if samples_beyond(len(samples), q) < 10:
        raise BenchError(f"p{q:g} needs ten samples beyond it; got {len(samples)} samples")
    return percentile(samples, 50.0), percentile(samples, q)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    q = TAIL_Q[workload]
    # set-up probes go half before and half after the timed parts, so the
    # median spans the run rather than one stretch of machine load
    probes = SETUP_SAMPLES - (2 if workload == "verify-suite" else 1)
    setups = runner.setups(workload, seed, probes // 2)
    if workload == "verify-suite":
        order = (1, 2) if seed % 2 == 0 else (2, 1)
        runs = {j: runner.part(workload, seed, seconds, jobs=j) for j in order}
        setups += [runs[j]["setup_s"] for j in order]
        lat = runs[1]["latencies_ms"] + runs[2]["latencies_ms"]
        units = runs[1]["units"] + runs[2]["units"]
        wall = runs[1]["timed_s"] + runs[2]["timed_s"]
        parts = list(runs.values())
        throughput = units / wall
        # the jobs=2 peak varies with which checks overlap, so it is only printed
        rss = runs[1]["peak_rss_mb"]
        named = {"suite_s.jobs1": (runs[1]["timed_s"], "s", "run_suite wall, jobs=1"),
                 "suite_s.jobs2": (runs[2]["timed_s"], "s", "run_suite wall, jobs=2"),
                 "peak_rss_mb.jobs2": (runs[2]["peak_rss_mb"], "MB", "jobs=2 process")}
        lat_name = "verify_check_ms"
    else:
        main = runner.part(workload, seed, seconds)
        setups.append(main["setup_s"])
        parts = [main]
        lat = main["latencies_ms"]
        rss = main["peak_rss_mb"]
        throughput = statistics.median(main["round_rates"])
        if workload == "direct-points":
            named = {"direct_pts_per_s": (throughput, "1/s",
                                          f"median of {main['rounds']} rounds, "
                                          f"{main['units']} points, far share "
                                          f"{main['far_share']:.3f}")}
            lat_name = "direct_small_call_ms"
        else:
            named = {"spectral_jobs_per_s": (throughput, "1/s",
                                             f"median of {main['rounds']} rounds, "
                                             f"{main['units']} jobs")}
            lat_name = "spectral_job_ms"
    setups += runner.setups(workload, seed, probes - probes // 2)
    p50, tail = _latency(lat, q)
    named[f"{lat_name}.p50"] = (p50, "ms", f"n={len(lat)}")
    named[f"{lat_name}.p{q:g}"] = (tail, "ms", f"n={len(lat)}; rule allows up to "
                                   f"p{tail_percentile(len(lat)):g}")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "throughput_per_s": throughput,
        "latency_ms.p50": p50,
        "latency_ms.tail": tail,
    }
    named["setup_s"] = (metrics["setup_s"], "s", f"median of {len(setups)} processes")
    named["peak_rss_mb"] = (rss, "MB", "jobs=1 process" if workload == "verify-suite"
                            else "workload process")
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
            "named": named, "parts": parts}


# ---------------------------------------------------------------------------
# traced

def traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    def spans_path(tag: str) -> str:
        return os.path.join(SPANS_DIR, f"{workload}-seed{seed}-{tag}.jsonl")

    # plain and traced parts run in ABBA order, so a linear drift in machine
    # speed cancels out of the overhead
    if workload == "verify-suite":
        plain = [runner.part(workload, seed, seconds, jobs=1)]
        runs = {j: runner.part(workload, seed, seconds, jobs=j, trace_out=spans_path(f"jobs{j}"))
                for j in (1, 2)}
        plain.append(runner.part(workload, seed, seconds, jobs=2))
        layer = dict(runs[1]["layer"])
        checks2 = runs[2]["check_span_s"]
        layer["verify.jobs2.idle_s"] = 2.0 * runs[2]["timed_s"] - sum(checks2)
        layer["verify.critical_check_s"] = max(checks2)
        tr = list(runs.values())
    else:
        rounds = TRACE_ROUNDS[workload]
        plain = [runner.part(workload, seed, seconds, rounds=rounds)]
        tr = [runner.part(workload, seed, seconds, rounds=rounds, trace_out=spans_path(tag))
              for tag in ("a", "b")]
        plain.append(runner.part(workload, seed, seconds, rounds=rounds))
        layer = dict(tr[0]["layer"])
    layer["trace.overhead_frac"] = (sum(p["timed_s"] for p in tr)
                                    / sum(p["timed_s"] for p in plain) - 1.0)
    layer["warnings.runtime"] = float(tr[0]["warnings"].get("RuntimeWarning", 0))
    layer["quadrature.estimate_dishonest"] = float(tr[0].get("dishonest", 0))
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": float(layer.get(name, 0.0)), "unit": unit}
    return {"metrics": metrics, "named": {}, "parts": plain + tr}


# ---------------------------------------------------------------------------

def _print_report(workload: str, seed: int, result: dict) -> None:
    parts = result["parts"]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    print(f"== {workload} (seed {seed})")
    for name, (value, unit, note) in result["named"].items():
        print(f"  {name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} operations missed their oracle or raised")
    for name, m in result["metrics"].items():
        if name not in END_TO_END:
            print(f"  {name:50s} {m['value']:14.6g} {m['unit']}")
    warns = {}
    for p in parts:
        for k, v in p["warnings"].items():
            warns[k] = warns.get(k, 0) + v
    print(f"  warnings counted (not silenced): {warns or 'none'}")
    if workload == "direct-points":
        dishonest = sum(p["dishonest"] for p in parts)
        print(f"  {'estimate_dishonest':34s} {dishonest:14d} {'count':6s} checked points "
              f"whose true error exceeds 3x the error estimate (recorded, not failed)")
    for p in parts:
        for note in p["failures"]:
            print(f"  FAILED {note}")
        for note in p.get("dishonest_notes", ()):
            print(f"  DISHONEST ESTIMATE {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fracfield", "__init__.py")):
        print("run from the repository root: src/fracfield is missing", file=sys.stderr)
        return 2
    env = envinfo.record(root)
    print("# env " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            measure = traced if args.trace else end_to_end
            results[w] = measure(Runner(root), w, args.seed, args.seconds)
            _print_report(w, args.seed, results[w])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    parts = [p for r in results.values() for p in r["parts"]]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
