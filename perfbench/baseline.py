#!/usr/bin/env python3
"""Reproduce the single-call rows of the ROADMAP item 1 baseline table.

    python3 perfbench/baseline.py

Run from the repository root. It uses the point set of the engine comparison
(fracfield bench / scripts/engine_bench.py: seed 0, radii 0.2..1.4 around a
unit Gaussian) and prints the median of five repeats per row. Field
evaluations are counted by the benchmark's tracer. The suite walls of the table
come from the verify-suite workload of run.py.
"""

import math
import os
import statistics
import sys
import time

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402

REPEATS = 5


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    from fracfield.fields import gaussian
    from fracfield.quadrature import QuadratureConfig, frac_gradient_batch
    from fracfield.spectral import embed, spectral_frac_gradient
    from ffbench import tracing

    cfg = QuadratureConfig()
    G = gaussian((0.0, 0.0))
    rng = np.random.default_rng(0)
    ang = rng.uniform(0, 2 * math.pi, 1000)
    rad = rng.uniform(0.2, 1.4, 1000)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)

    grad_s = _median_time(lambda: frac_gradient_batch(G, 0.5, pts, cfg))
    pf = embed(G, 16.0, 1024)
    sp = spectral_frac_gradient(pf, 0.5)
    embed_s = _median_time(lambda: embed(G, 16.0, 1024))
    transform_s = _median_time(lambda: spectral_frac_gradient(pf, 0.5))
    sample_s = _median_time(lambda: sp.sample_linear(pts))
    first, later = [], []
    for _ in range(REPEATS):
        fresh = embed(G, 16.0, 1024)
        t0 = time.perf_counter()
        fresh.eval_fourier(pts[0])  # fills the cached full spectrum
        t1 = time.perf_counter()
        fresh.eval_fourier(pts[1:11])
        first.append(t1 - t0)
        later.append((time.perf_counter() - t1) / 10)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    from fracfield import quadrature

    quadrature.frac_gradient_batch(G, 0.5, pts, cfg)
    evals = tracer.counts["fields.evals"] / pts.shape[0]

    rows = [
        ("frac_gradient_batch, m = 1000", f"{grad_s / 1000 * 1e6:.1f} us per point"),
        ("field evaluations per point", f"{evals:.1f}"),
        ("embed at 1024^2", f"{embed_s * 1e3:.1f} ms"),
        ("spectral_frac_gradient at 1024^2", f"{transform_s * 1e3:.1f} ms"),
        ("sample_linear, 1000 points", f"{sample_s * 1e3:.2f} ms"),
        ("eval_fourier, first point", f"{statistics.median(first) * 1e3:.1f} ms (fills the spectrum)"),
        ("eval_fourier, later points", f"{statistics.median(later) * 1e3:.2f} ms per point"),
    ]
    for name, value in rows:
        print(f"{name:36s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
