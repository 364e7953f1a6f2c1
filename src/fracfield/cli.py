"""Command line driver.

    fracfield <op|verify|convergence|decay|bench> --config <path>
              [--out <dir>] [--engine direct|spectral|both] [--seed <u64>]
              [--jobs <n>]

Declarative experiment configs (TOML, or JSON) in; operator grids and
verification/convergence/decay/bench tables out. Exit codes: 0 success,
1 verification failure, 2 config error, 3 numerical precondition violation.
The FRACFIELD_JOBS environment variable sets the default parallelism.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from .cliconfig import OPERATORS, ExperimentConfig, load_config
from .errors import ConfigError, DomainError, EmbeddingError, FracfieldError, PreconditionError
from .fields import _dist2, _inner
from .fileio import config_digest, write_grid, write_table
from .measures import RadonMeasure
from .quadrature import frac_gradient_batch
from .spectral import embed, spectral_frac_gradient
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
    parser.add_argument("kind", choices=("op", "verify", "convergence", "decay", "bench"))
    parser.add_argument("--config", required=True, help="TOML or JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--engine", default=None, choices=("direct", "spectral", "both"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    args = parser.parse_args(argv)

    try:
        raw = load_config(args.config)
        cfg = ExperimentConfig.from_dict(raw, kind=args.kind)
        if args.engine is not None:
            cfg.engine = args.engine
            cfg.validate()
        if args.seed is not None:
            cfg.seed = args.seed
        if args.jobs is not None:
            cfg.jobs = args.jobs
        elif "FRACFIELD_JOBS" in os.environ:
            cfg.jobs = int(os.environ["FRACFIELD_JOBS"])
        if args.out is not None:
            cfg.out_dir = args.out
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {
            "op": run_op,
            "verify": run_verify,
            "convergence": run_convergence,
            "decay": run_decay,
            "bench": run_bench,
        }[cfg.kind]
        return runner(cfg, out_dir)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DomainError, PreconditionError, EmbeddingError) as e:
        print(f"numerical precondition violated: {e}", file=sys.stderr)
        return 3
    except FracfieldError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _digest(cfg: ExperimentConfig) -> str:
    return config_digest(cfg.normalized())


def run_op(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Apply one operator to one field over an output lattice."""
    section = cfg.raw["op"]
    operator = section["operator"]
    alpha = float(section.get("alpha", section.get("order", 0.5)))
    field = cfg.build_field(section["field"])
    grid = cfg.grid()
    qcfg = cfg.quadrature()
    pts = grid.center_points().reshape(-1, grid.n)
    if cfg.engine == "both":
        raise ConfigError("op runs take a single engine; use bench to compare")

    direct, spectral = OPERATORS[operator]
    if cfg.engine == "spectral":
        L, N = cfg.spectral_params()
        pf = embed(field, L, N)
        out = spectral(pf, alpha)
        vals = out.sample_linear(pts)
        errs = np.zeros(pts.shape[0])
    else:
        vals, errs = direct(field, alpha, pts, qcfg)

    planes = {}
    vals = np.asarray(vals)
    if vals.ndim == 2:
        for k in range(vals.shape[1]):
            planes[f"value_{k}"] = vals[:, k].reshape(grid.counts)
    else:
        planes["value"] = vals.reshape(grid.counts)
    planes["error_est"] = np.asarray(errs).reshape(grid.counts)
    path = out_dir / "op_output.bin"
    write_grid(path, _digest(cfg), grid.lower, grid.upper, grid.counts, planes,
               extra={"engine": cfg.engine, "operator": operator, "alpha": alpha})
    print(f"wrote {path}")
    return 0


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the named verification checks; exit 1 iff any fails."""
    section = cfg.raw.get("verify", {})
    checks = section.get("checks", "default")
    names = None if checks == "default" else list(checks)
    qcfg = cfg.quadrature()
    reports = run_suite(qcfg, seed=cfg.seed, jobs=cfg.jobs, names=names)
    tol_abs = section.get("tolerance_abs")
    if tol_abs is not None:
        # override: re-decide every pass flag against a single absolute bound
        for r in reports:
            r.passed = r.abs_err <= float(tol_abs)
            r.branch = "abs-override"
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


def run_convergence(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Resolution sweep; emits level/h/value/error/order columns."""
    section = cfg.raw.get("convergence", {})
    engine = section.get("engine", "spectral")
    alpha = float(section.get("alpha", 0.5))
    levels = int(section.get("levels", 4))
    if engine == "spectral":
        base = int(section.get("base_resolution", 32))
        rows = convergence_sweep_spectral(tuple(base * 2**i for i in range(levels)), alpha)
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


def run_decay(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Ball-mass scaling table with fitted slope and theoretical floor."""
    section = cfg.raw["decay"]
    source = cfg.build_field(section["source"])
    alpha = float(section.get("alpha", 0.5))
    p_raw = section.get("p", "inf")
    p = math.inf if p_raw in ("inf", "Inf") else float(p_raw)
    if "radii" in section:
        radii = np.array([float(r) for r in section["radii"]])
    else:
        radii = 3.0 ** -np.arange(0, int(section["pow3_levels"]))
    center = np.array(section.get("center", [0.0] * source.n), dtype=float)
    expect = section.get("expect", "floor")
    rep = decay_scan(source, alpha, p, center, radii, cfg.quadrature(),
                     expect=expect, target=section.get("target"), name="decay")
    # rebuild the mass table for the output file
    meas = source.abs() if isinstance(source, RadonMeasure) else None
    if meas is None and hasattr(source, "measure"):
        meas = source.measure.abs()
    rows = []
    from .measures import measure_ball_mass

    if meas is not None:
        masses = [measure_ball_mass(meas, center, r) for r in radii]
    else:
        masses = None
    prev = None
    for i, r in enumerate(radii):
        m = masses[i] if masses is not None else math.nan
        lr, lm = math.log(r), (math.log(m) if m > 0 else math.nan)
        run_slope = math.nan
        if prev is not None and masses is not None and m > 0 and prev[1] > 0:
            run_slope = (lm - math.log(prev[1])) / (lr - math.log(prev[0]))
        rows.append([float(r), m, lr, lm, run_slope])
        prev = (r, m)
    path = out_dir / "decay_table.csv"
    write_table(
        path, _digest(cfg),
        ["r", "mass", "log_r", "log_mass", "running_slope"], rows,
        footer={"fitted_slope": rep.lhs, "theoretical_floor": rep.params["floor"],
                "expect": expect, "pass": rep.passed},
        extra={"alpha": alpha, "p": p_raw},
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


def run_bench(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Wall-time and agreement comparison of the two engines."""
    section = cfg.raw["bench"]
    field = cfg.build_field(section["field"])
    alpha = float(section.get("alpha", 0.5))
    n_pts = int(section["points"])
    pts = _bench_points(np.random.default_rng(cfg.seed), field.n, n_pts)
    qcfg = cfg.quadrature()

    t0 = time.time()
    dv, _ = frac_gradient_batch(field, alpha, pts, qcfg)
    t_direct = time.time() - t0

    L, N = cfg.spectral_params()
    t0 = time.time()
    pf = embed(field, L, N)
    sp = spectral_frac_gradient(pf, alpha)
    sv = sp.sample_linear(pts)
    t_spectral = time.time() - t0

    rel = np.sqrt(_dist2(dv, sv)) / np.maximum(np.sqrt(_inner(dv)), 1e-9)
    worst = float(np.max(rel))
    rows = [
        ["direct", n_pts, t_direct, worst],
        ["spectral", n_pts, t_spectral, worst],
    ]
    path = out_dir / "bench.csv"
    write_table(path, _digest(cfg),
                ["engine", "points", "seconds", "max_rel_disagreement"], rows,
                extra={"alpha": alpha, "operator": "frac-gradient"})
    print(f"wrote {path} (direct {t_direct:.2f}s, spectral {t_spectral:.2f}s, "
          f"max rel disagreement {worst:.2e})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
