"""Command line driver.

    fracfield <op|verify|convergence|decay|bench> --config <path>
              [--out <dir>] [--engine direct|spectral] [--seed <u64>]
              [--jobs <n>]

Declarative experiment configs (TOML, or JSON) in; operator grids and
verification/convergence/decay/bench tables out. Exit codes: 0 success,
1 verification failure, 2 config error, 3 numerical precondition violation.
The FRACFIELD_JOBS environment variable sets the default parallelism.

Besides `kind`, `out` and `jobs`, each kind reads only what its run uses;
any other key, or a flag for one (`decay --seed 3`), exits 2:

    op           engine (default direct), then [quadrature] if direct or
                 [spectral] if spectral, [grid], [op] and its field
    verify       seed, [quadrature], [verify]
    convergence  engine (default spectral), [convergence]; its
                 base_resolution only for the spectral engine
    decay        [decay] and its field
    bench        seed, [quadrature], [spectral], [bench] and its field
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cliconfig import ENGINES, KINDS, OPERATORS, ExperimentConfig, load_config
from .errors import ConfigError, DomainError, FracfieldError, PreconditionError
from .fields import _dist2, _inner
from .fileio import config_digest, write_grid, write_table
from .spectral import embed
from .verify import (
    convergence_sweep_direct,
    convergence_sweep_spectral,
    decay_scan,
    fitted_order,
    run_suite,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracfield",
        description="nonlocal fractional vector calculus: operators and verifiers",
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--config", required=True, help="TOML or JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--engine", default=None, choices=ENGINES)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)
    overrides = {key: v for key, v in (("engine", args.engine), ("seed", args.seed),
                                       ("jobs", args.jobs), ("out", args.out)) if v is not None}
    if args.jobs is None and "FRACFIELD_JOBS" in os.environ:
        overrides["jobs"] = os.environ["FRACFIELD_JOBS"]

    try:
        cfg = ExperimentConfig.from_dict({**load_config(args.config), **overrides}, kind=args.kind)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _RUNNERS[cfg.kind](cfg, out_dir, **cfg.params)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError) as e:  # EmbeddingError too
        print(f"numerical precondition violated: {e}", file=sys.stderr)
        return 3
    except FracfieldError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _digest(cfg: ExperimentConfig) -> str:
    return config_digest(cfg.normalized())


def _apply(engine, operator, field, alpha, pts, quadrature=None, spectral=None):
    """One operator's values and error estimates at pts (m, n) on one engine;
    the spectral engine states no estimate and reads zeros."""
    direct, periodic = OPERATORS[operator]
    if engine == "spectral":
        return periodic(embed(field, *spectral), alpha).sample_linear(pts), np.zeros(pts.shape[0])
    return direct(field, alpha, pts, quadrature)


def run_op(cfg: ExperimentConfig, out_dir: Path, engine, operator, field, alpha, grid,
           quadrature=None, spectral=None) -> int:
    """Apply one operator to one field over an output lattice."""
    pts = grid.center_points().reshape(-1, grid.n)
    vals, errs = _apply(engine, operator, field, alpha, pts, quadrature, spectral)

    planes = {}
    vals = np.asarray(vals)
    if vals.ndim == 2:
        for k in range(vals.shape[1]):
            planes[f"value_{k}"] = vals[:, k].reshape(grid.counts)
    else:
        planes["value"] = vals.reshape(grid.counts)
    planes["error_est"] = np.asarray(errs).reshape(grid.counts)
    path = out_dir / "op_output.bin"
    extra = {"engine": engine, "operator": operator}
    if alpha is not None:  # the transform has no order
        extra["alpha"] = alpha
    write_grid(path, _digest(cfg), grid.lower, grid.upper, grid.counts, planes, extra=extra)
    print(f"wrote {path}")
    return 0


def run_verify(cfg: ExperimentConfig, out_dir: Path, names, seed, quadrature) -> int:
    """Run the named verification checks; exit 1 iff any fails its own bound."""
    reports = run_suite(quadrature, seed=seed, jobs=cfg.jobs, names=names)
    path = out_dir / "verify_report.jsonl"
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json_line() + "\n")
    n_fail = sum(not r.passed for r in reports)
    for r in reports:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:30s} "
              f"abs_err={r.abs_err:.3e} rel_err={r.rel_err:.3e} [{r.branch}]")
    print(f"wrote {path} ({len(reports)} checks, {n_fail} failures)")
    return 1 if n_fail else 0


def run_convergence(cfg: ExperimentConfig, out_dir: Path, engine, alpha, levels,
                    base_resolution) -> int:
    """Resolution sweep; emits level/h/value/error/order columns."""
    if engine == "spectral":
        rows = convergence_sweep_spectral(
            tuple(base_resolution * 2**i for i in range(levels)), alpha)
    else:
        rows = convergence_sweep_direct(levels, alpha)
    order = fitted_order(rows)
    schema = ["level", "h", "value", "err_vs_finest", "observed_order"]
    table = [[r["level"], r["h"], r["value"], r["err_vs_finest"], r["observed_order"]]
             for r in rows]
    path = out_dir / f"convergence_{engine}.csv"
    write_table(path, _digest(cfg), schema, table,
                footer={"fitted_order": order},
                extra={"engine": engine, "alpha": alpha})
    print(f"wrote {path} (fitted order {order:.2f})")
    return 0


def run_decay(cfg: ExperimentConfig, out_dir: Path, source, alpha, p, center, radii,
              expect, target) -> int:
    """Ball-mass scaling table with fitted slope and theoretical floor."""
    rep = decay_scan(source, alpha, p, center, radii, expect=expect, target=target)
    rows = []
    prev = None
    for r, m in zip(radii, rep.params["masses"]):
        lr, lm = math.log(r), math.log(m)
        run_slope = math.nan if prev is None else (lm - prev[1]) / (lr - prev[0])
        rows.append([float(r), m, lr, lm, run_slope])
        prev = (lr, lm)
    path = out_dir / "decay_table.csv"
    write_table(
        path, _digest(cfg),
        ["r", "mass", "log_r", "log_mass", "running_slope"], rows,
        footer={"fitted_slope": rep.lhs, "theoretical_floor": rep.params["floor"],
                "expect": expect, "pass": rep.passed},
        extra={"alpha": alpha, "p": p},
    )
    print(f"wrote {path} (slope {rep.lhs:.4f}, floor {rep.params['floor']:.4f}, "
          f"{'pass' if rep.passed else 'informational'})")
    return 0


def _bench_points(rng, n: int, m: int):
    """m points at radii 0.2..1.4 in uniformly random directions of R^n."""
    ang = rng.uniform(0.0, 2.0 * math.pi, m)
    rad = rng.uniform(0.2, 1.4, m)
    if n == 1:
        dirs = np.sign(np.cos(ang))[:, None]
    elif n == 2:
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        z = rng.uniform(-1.0, 1.0, m)  # uniform z gives uniform area on S^2
        s = np.sqrt(1.0 - z * z)
        dirs = np.stack([s * np.cos(ang), s * np.sin(ang), z], axis=-1)
    return rad[:, None] * dirs


def run_bench(cfg: ExperimentConfig, out_dir: Path, field, alpha, points, seed, quadrature,
              spectral) -> int:
    """Wall-time and agreement comparison of the two engines."""
    pts = _bench_points(np.random.default_rng(seed), field.n, points)
    vals, seconds = {}, {}
    for engine in ENGINES:
        t0 = time.perf_counter()
        vals[engine], _ = _apply(engine, "frac-gradient", field, alpha, pts, quadrature, spectral)
        seconds[engine] = time.perf_counter() - t0
    dv, sv = vals["direct"], vals["spectral"]
    rel = np.sqrt(_dist2(dv, sv)) / np.maximum(np.sqrt(_inner(dv)), 1e-9)
    worst = float(np.max(rel))
    rows = [[engine, points, seconds[engine], worst] for engine in ENGINES]
    path = out_dir / "bench.csv"
    write_table(path, _digest(cfg),
                ["engine", "points", "seconds", "max_rel_disagreement"], rows,
                extra={"alpha": alpha, "operator": "frac-gradient"})
    print(f"wrote {path} (direct {seconds['direct']:.2f}s, spectral {seconds['spectral']:.2f}s, "
          f"max rel disagreement {worst:.2e})")
    return 0


# kind -> its runner, called as runner(cfg, out_dir, **cfg.params)
_RUNNERS = {"op": run_op, "verify": run_verify, "convergence": run_convergence,
            "decay": run_decay, "bench": run_bench}


if __name__ == "__main__":
    sys.exit(main())
