"""Direct evaluation of the nonlocal operators as singular integrals.

Every operator is computed in polar coordinates around the evaluation point
with a three-way split:

* near field [0, delta]: the radial singularity is flattened exactly by the
  substitution u = r^(1+rho) (rho the radial power of the integrand), with
  Gauss-Legendre nodes in u and a uniform antipodally-symmetric angular rule;
* mid field [delta, R_far]: geometrically growing radial panels with
  Gauss-Legendre nodes per panel, times the angular rule: the annulus
  geometry is matched exactly, there are no partially covered cells;
* far field (R_far, inf): closed-form tail bounds from the field's support
  or decay hints, folded into the error estimate. For increment kernels the
  constant part of the increment integrates to exactly zero over full
  annuli (odd kernel), so compactly supported fields have zero tail once
  R_far >= support + |x|.

The error estimate is |fine - coarse| (half node counts) plus the tail bound.
All evaluators are batched over evaluation points: internals broadcast the
shared node template against a batch of centers. Every public operator is one
call of the driver `_run_op` with its kernel order, constant and integrand kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ScalarField, VectorField, _inner
from .special import mu_const, riesz_potential_const, riesz_transform_const, sphere_area

Array = np.ndarray


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and domain split for the singular-integral engine.

    The mid field is resolved by log-spaced radial panels (growth factor
    `mid_panel_growth`, `mid_panel_nodes` Gauss points per panel) times
    `mid_angular_nodes` directions. `far_cutoff=None` derives R_far from the
    field hints (support + |x|, giving an exactly-zero far tail for compactly
    supported fields). `lq_grid_nodes` sets the translate-norm resolution used
    by the Besov seminorm.
    """

    near_radius: float = 0.2
    near_radial_nodes: int = 12
    near_angular_nodes: int = 16
    mid_angular_nodes: int = 32
    mid_panel_nodes: int = 6
    mid_panel_growth: float = 2.0
    far_cutoff: Optional[float] = None
    tol: float = 1e-4
    tail_model: bool = True
    lq_grid_nodes: int = 96

    def __post_init__(self) -> None:
        if self.near_radius <= 0:
            raise ConfigError("near_radius must be positive")
        if self.far_cutoff is not None and self.far_cutoff <= self.near_radius:
            raise ConfigError("far_cutoff must exceed near_radius")
        if self.tol <= 0:
            raise ConfigError("tolerance must be positive")
        if self.mid_panel_growth <= 1.0:
            raise ConfigError("panel growth must exceed 1")
        for name in ("near_radial_nodes", "near_angular_nodes",
                     "mid_angular_nodes", "mid_panel_nodes", "lq_grid_nodes"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2")

    def coarsened(self) -> "QuadratureConfig":
        return replace(
            self,
            near_radial_nodes=max(4, self.near_radial_nodes // 2),
            near_angular_nodes=max(4, self.near_angular_nodes // 2),
            mid_angular_nodes=max(4, self.mid_angular_nodes // 2),
            mid_panel_nodes=max(2, self.mid_panel_nodes // 2),
        )


@dataclass(frozen=True)
class OperatorResult:
    """Value (scalar or n-vector) with a nonnegative error estimate."""

    value: Union[float, Array]
    error: float

    def __post_init__(self) -> None:
        if not (self.error >= 0.0 and math.isfinite(self.error)):
            raise ConfigError("error estimate must be finite and nonnegative")


@lru_cache(maxsize=128)
def _leggauss(m: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    t, w = np.polynomial.legendre.leggauss(int(m))
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=128)
def sphere_rule(n: int, m: int) -> tuple[Array, Array]:
    """Directions and weights integrating over S^(n-1) (weights sum to its area).

    n=1: the two signs. n=2: m equi-spaced angles (rounded up to even).
    n=3: Gauss-Legendre latitudes x uniform longitudes.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    m = int(m) + (int(m) % 2)
    if n == 2:
        th = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    if n == 3:
        lat = max(4, m // 2)
        c, wc = _leggauss(lat)
        s = np.sqrt(1.0 - c**2)
        ph = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack(
            [
                np.outer(s, np.cos(ph)).ravel(),
                np.outer(s, np.sin(ph)).ravel(),
                np.outer(c, np.ones(m)).ravel(),
            ],
            axis=-1,
        )
        w = np.outer(wc, np.full(m, 2.0 * math.pi / m)).ravel()
        return dirs, w
    raise DomainError(f"dimension must be 1, 2 or 3, got {n}")


def singular_radial_rule(r_max: float, rho: float, m: int) -> tuple[Array, Array]:
    """Nodes/weights for int_0^rmax S(r) r^rho dr with the u = r^(1+rho) map.

    The returned weights absorb the r^rho factor: sum S(r_i) w_i is the
    integral. Requires rho > -1 (integrable endpoint).
    """
    p = 1.0 + rho
    if p <= 0:
        raise DomainError(f"radial power {rho} is not integrable at 0")
    t, wt = _leggauss(m)
    U = r_max**p
    u = 0.5 * U * (t + 1.0)
    r = u ** (1.0 / p)
    w = 0.5 * U * wt / p
    return r, w


def panel_radial_rule(r0: float, r1: float, growth: float, m: int) -> tuple[Array, Array]:
    """Gauss-Legendre panels with geometrically growing width on [r0, r1]."""
    edges = [r0]
    while edges[-1] * growth < r1:
        edges.append(edges[-1] * growth)
    edges.append(r1)
    t, wt = _leggauss(m)
    a = np.array(edges[:-1])[:, None]
    half = 0.5 * (np.array(edges[1:])[:, None] - a)
    return (half * (t + 1.0) + a).ravel(), (half * wt).ravel()


# ---------------------------------------------------------------------------
# far-field handling

def _decay_tail_bound(C: float, s: float, xmax: float, R: float, kern: float,
                      n: int) -> float:
    """Bound int_{|y-x|>R} C |y|^-s r^(-1-kern) r^(n-1) dr dOmega using
    |y| >= r - xmax, valid for R > xmax; kern is the operator order (alpha
    for the increment kernels, -beta for the potential).
    """
    ex = s + kern
    if ex <= 0 or R <= xmax:
        return math.inf
    shade = (1.0 - xmax / R) ** (-s)
    return sphere_area(n) * C * shade * R ** (-ex) / ex


def _far_cutoff_for(fields, X: Array, cfg: QuadratureConfig,
                    kern: float = 0.0) -> float:
    """R_far covering every field's support as seen from every batch point.

    Decay-hint fields grow R until the analytic tail bound sits below the
    target tolerance (capped), so truncation never dominates the budget.
    """
    n = X.shape[1]
    xmax = float(np.max(np.sqrt(_inner(X))))
    need = cfg.near_radius * 2.0
    known = False
    for f in fields:
        sup, dec = f.support_radius, f.decay
        if sup is not None:
            need = max(need, sup + xmax + 1e-9)
            known = True
        elif dec is not None:
            R = max(2.0 * xmax + 6.0, need)
            C, s = dec
            cap = 256.0
            while R < cap and _decay_tail_bound(C, s, xmax, R, kern, n) > cfg.tol:
                R *= 1.5
            need = max(need, R)
            known = True
    if cfg.far_cutoff is not None:
        return max(cfg.far_cutoff, need if known else cfg.far_cutoff)
    if not known:
        if cfg.tail_model:
            raise ConfigError(
                "tail model requires a support or decay hint on every field "
                "(or an explicit far_cutoff with tail_model off)"
            )
        raise ConfigError("far_cutoff must be given when fields carry no hints")
    return need


def _tail_bound(fields, X: Array, R: float, order: float, n: int,
                cfg: QuadratureConfig) -> float:
    """Bound on the neglected |y-x| > R part of an operator integral.

    For increment kernels the frozen-value part integrates to exactly zero
    over full annuli (odd kernel); the potential has no frozen part. Either
    way only the field values beyond R contribute.
    """
    xmax = float(np.max(np.sqrt(_inner(X))))
    total = 0.0
    for f in fields:
        sup, dec = f.support_radius, f.decay
        if sup is not None and R >= sup + xmax - 1e-12:
            continue
        if dec is None:
            if not cfg.tail_model:
                return math.nan  # caller extrapolates instead
            raise ConfigError("decaying far field needs a decay hint")
        C, s = dec
        total += _decay_tail_bound(C, s, xmax, R, order, n)
    return total


# ---------------------------------------------------------------------------
# batched polar engine

def _batched_polar(
    n: int,
    X: Array,
    numer: Callable[[Array, Array], Array],
    kern_pow: float,
    near_divide: bool,
    cfg: QuadratureConfig,
    vector: bool,
    far_R: float,
) -> Array:
    """One resolution pass; returns (m,) or (m, n) values (no constant)."""
    m_pts = X.shape[0]
    delta = min(cfg.near_radius, 0.5 * far_R)
    out_shape = (m_pts, n) if vector else (m_pts,)
    acc = np.zeros(out_shape)

    dirs, w_ang = sphere_rule(n, cfg.near_angular_nodes)
    rho = kern_pow + 1.0 if near_divide else kern_pow
    r, w_rad = singular_radial_rule(delta, rho, cfg.near_radial_nodes)
    # difference quotients below r_floor are frozen: pure roundoff guard
    r_floor = 1e-7 * min(1.0, delta)
    r_eff = np.maximum(r, r_floor)
    acc += _polar_sum(X, numer, dirs, w_ang, r_eff, w_rad,
                      divide=near_divide, extra_pow=0.0, vector=vector)

    if far_R > delta * (1.0 + 1e-12):
        dirs2, w_ang2 = sphere_rule(n, cfg.mid_angular_nodes)
        r2, w_rad2 = panel_radial_rule(delta, far_R, cfg.mid_panel_growth,
                                       cfg.mid_panel_nodes)
        acc += _polar_sum(X, numer, dirs2, w_ang2, r2, w_rad2,
                          divide=False, extra_pow=kern_pow, vector=vector)
    return acc


def _polar_sum(X, numer, dirs, w_ang, r, w_rad, divide, extra_pow, vector):
    """Accumulate sum_{r,omega} numer(x + r w, w) * weight, chunked over radii."""
    m_pts, n = X.shape
    out = np.zeros((m_pts, n) if vector else (m_pts,))
    n_ang = dirs.shape[0]
    # chunk radii so the point batch never exceeds ~4M nodes
    chunk = max(1, int(4_000_000 / max(1, m_pts * n_ang)))
    for i0 in range(0, r.shape[0], chunk):
        rc = r[i0 : i0 + chunk]
        wc = w_rad[i0 : i0 + chunk]
        disp = rc[:, None, None] * dirs[None, :, :]          # (R, A, n)
        pts = X[:, None, None, :] + disp[None, :, :, :]      # (m, R, A, n)
        vals = numer(pts, dirs)                              # (m, R, A)
        if divide:
            vals = vals / rc[None, :, None]
        w = wc[:, None] * w_ang[None, :]
        if extra_pow != 0.0:
            w = w * rc[:, None] ** extra_pow
        if vector:
            out += np.einsum("mra,ra,ak->mk", vals, w, dirs)
        else:
            out += np.einsum("mra,ra->m", vals, w)
    return out


def _far_source_eval(src_fn, src_vector: bool, out_vector: bool, expo: float,
                     X: Array, S: float, n: int, cfg: QuadratureConfig):
    """Source-centered rule for points far outside a compact support.

    For |x| > support the increment's frozen part integrates to exactly zero,
    leaving int src(y) K(y - x) dy with a kernel that is smooth over the
    source ball; polar quadrature around the origin resolves it at any
    distance (a rule centered at x would see the source in a shrinking cone).
    expo: kernel power so that K = (y-x) |y-x|^(-expo) (vector kernels) or
    |y-x|^(-expo) (scalar kernel of the Riesz potential).
    """
    def run(m_ang: int, m_panel: int):
        dirs, w_ang = sphere_rule(n, m_ang)
        r0 = S / 16.0
        t, wt = _leggauss(m_panel)
        r_first = 0.5 * r0 * (t + 1.0)
        w_first = 0.5 * r0 * wt
        r_rest, w_rest = panel_radial_rule(r0, S, 1.5, m_panel)
        r = np.concatenate([r_first, r_rest])
        wr = np.concatenate([w_first, w_rest])
        y = (r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        w = ((wr * r ** (n - 1))[:, None] * w_ang[None, :]).reshape(-1)
        sv = src_fn(y)
        out_shape = (X.shape[0], n) if out_vector else (X.shape[0],)
        out = np.zeros(out_shape)
        chunk = max(1, int(4_000_000 / max(1, y.shape[0])))
        for i0 in range(0, X.shape[0], chunk):
            xs = X[i0 : i0 + chunk]
            d = y[None, :, :] - xs[:, None, :]
            rr = np.sqrt(_inner(d))
            ker = rr ** (-expo)
            if out_vector:
                out[i0 : i0 + chunk] = np.einsum("y,xy,xyk,y->xk", sv, ker, d, w)
            elif src_vector:
                out[i0 : i0 + chunk] = np.einsum(
                    "xy,xy->x", np.einsum("yk,xyk->xy", sv, d), ker * w[None, :]
                )
            else:
                out[i0 : i0 + chunk] = np.einsum("y,xy,y->x", sv, ker, w)
        return out

    fine = run(max(cfg.mid_angular_nodes, 32), max(cfg.mid_panel_nodes, 6))
    coarse = run(max(cfg.mid_angular_nodes // 2, 16), max(cfg.mid_panel_nodes // 2, 4))
    return fine, coarse


def _extrapolated_tail(n, X, numer, kern_pow, cfg, vector, far_R) -> float:
    """Truncation estimate when no analytic bound exists: geometric
    extrapolation of the outermost octave's contribution."""
    dirs, w_ang = sphere_rule(n, cfg.mid_angular_nodes)
    r, w_rad = panel_radial_rule(far_R / 2.0, far_R, 2.0, cfg.mid_panel_nodes)
    last = _polar_sum(X, numer, dirs, w_ang, r, w_rad,
                      divide=False, extra_pow=kern_pow, vector=vector)
    mag = float(np.max(np.abs(last)))
    return 2.0 * mag  # sum of a ratio<=1/2 geometric series bounded by first term x2


def _integrand(scalars, vec, X: Array, increment: bool):
    """numer(pts, dirs) of the polar passes around the points X.

    The product of the scalar fields' increments f(y) - f(x), times the
    vector field's increment projected on the direction; with
    increment=False, the single scalar field's values.
    """
    if not increment:
        f, = scalars
        return lambda pts, dirs: f(pts)
    bases = [f(X) for f in scalars]
    vbase = None if vec is None else vec(X)

    def numer(pts, dirs):
        vals = None
        for f, b in zip(scalars, bases):
            d = f(pts) - b[:, None, None]
            vals = d if vals is None else vals * d
        if vec is not None:
            proj = np.einsum("mrak,ak->mra", vec(pts) - vbase[:, None, None, :], dirs)
            vals = proj if vals is None else vals * proj
        return vals

    return numer


def _source(scalars, vec):
    """The product of the field values, the source of the far-point rule."""
    def src(y):
        vals = None
        for f in scalars:
            v = f(y)
            vals = v if vals is None else vals * v
        if vec is not None:
            V = vec(y)
            vals = V if vals is None else vals[..., None] * V
        return vals

    return src


def _run_op(scalars, vec, x, order: float, constant: float, cfg: QuadratureConfig,
            increment: bool = True):
    """The direct engine's one driver: constant * integral of the integrand
    against the kernel of the given order, with its error estimate.

    `scalars` are ScalarFields and `vec` an optional VectorField. Increment
    integrands (the gradients, divergences and Riesz transform) are divided
    by r near the point and integrated against (y-x)|y-x|^(-n-1-order); the
    output is an n-vector unless a vector field is contracted. A value
    integrand (the potential, order -beta) meets |y-x|^(-n-order).
    """
    fields = tuple(scalars) + (() if vec is None else (vec,))
    kinds = (ScalarField,) * len(scalars) + (VectorField,)  # zip drops the last if vec is None
    for f, kind in zip(fields, kinds):
        if not isinstance(f, kind):
            raise ConfigError(f"operator takes a {kind.__name__}, got {type(f).__name__}")
    n = fields[0].n
    if any(f.n != n for f in fields):
        raise ConfigError("fields must share the dimension")
    if not increment:
        f, = fields
        if f.support_radius is None:
            if f.decay is None:
                raise ConfigError("Riesz potential needs a support or decay hint")
            if f.decay[1] <= -order:
                raise DomainError(f"Riesz potential diverges: decay exponent "
                                  f"{f.decay[1]} <= order {-order}")
    X = _points(x, n)
    vector = increment and vec is None
    kern_pow = -1.0 - order
    sups = [f.support_radius for f in fields]
    out_shape = (X.shape[0], n) if vector else (X.shape[0],)
    fine = np.zeros(out_shape)
    coarse = np.zeros(out_shape)
    tails = np.zeros(X.shape[0])
    if all(s is not None for s in sups):
        far = np.sqrt(_inner(X)) > max(sups) + 1.0
    else:
        far = np.zeros(X.shape[0], dtype=bool)
    if np.any(far):
        fine[far], coarse[far] = _far_source_eval(
            _source(scalars, vec), vec is not None, vector,
            n + order + (1.0 if increment else 0.0),
            X[far], max(sups), n, cfg)
    if np.any(~far):
        Xn = X[~far]
        numer = _integrand(scalars, vec, Xn, increment)
        far_R = _far_cutoff_for(fields, Xn, cfg, kern=order)
        fine[~far] = _batched_polar(n, Xn, numer, kern_pow, increment, cfg,
                                    vector, far_R)
        coarse[~far] = _batched_polar(n, Xn, numer, kern_pow, increment,
                                      cfg.coarsened(), vector, far_R)
        tail = _tail_bound(fields, Xn, far_R, order, n, cfg)
        if math.isnan(tail):
            tail = _extrapolated_tail(n, Xn, numer, kern_pow, cfg, vector, far_R)
        tails[~far] = tail
    diff = np.abs(fine - coarse)
    per_point = diff if not vector else np.sqrt(_inner(diff))
    scale = np.abs(fine) if not vector else np.sqrt(_inner(fine))
    errs = abs(constant) * (per_point + tails) + 1e-15 * (1.0 + abs(constant) * scale)
    return constant * fine, errs


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"operator order must lie in (0, 1), got {alpha!r}")
    return alpha


def _points(x, n) -> Array:
    X = np.asarray(x, dtype=float)
    if X.shape == (n,):
        return X[None, :]
    if X.ndim == 2 and X.shape[1] == n:
        return X
    raise ConfigError(f"evaluation points must have shape (n,) or (m, n) with n={n}")


def _first(batch) -> OperatorResult:
    """The single-point form of a batch result."""
    vals, errs = batch
    value = vals[0] if vals.ndim == 2 else float(vals[0])
    return OperatorResult(value, float(errs[0]))


# ---------------------------------------------------------------------------
# public operators

def frac_gradient_batch(xi: ScalarField, alpha: float, x, cfg: QuadratureConfig):
    """Fractional gradient of a scalar field at a batch of points."""
    alpha = _check_alpha(alpha)
    return _run_op((xi,), None, x, alpha, mu_const(xi.n, alpha), cfg)


def frac_gradient(xi: ScalarField, alpha: float, x, cfg: QuadratureConfig) -> OperatorResult:
    return _first(frac_gradient_batch(xi, alpha, x, cfg))


def frac_divergence_batch(F: VectorField, alpha: float, x, cfg: QuadratureConfig):
    """Fractional divergence of a vector field at a batch of points."""
    alpha = _check_alpha(alpha)
    return _run_op((), F, x, alpha, mu_const(F.n, alpha), cfg)


def frac_divergence(F: VectorField, alpha: float, x, cfg: QuadratureConfig) -> OperatorResult:
    return _first(frac_divergence_batch(F, alpha, x, cfg))


def nl_gradient_batch(f: ScalarField, g: ScalarField, alpha: float, x,
                      cfg: QuadratureConfig):
    """Bilinear nonlocal gradient of the couple (f, g)."""
    alpha = _check_alpha(alpha)
    return _run_op((f, g), None, x, alpha, mu_const(f.n, alpha), cfg)


def nl_gradient(f: ScalarField, g: ScalarField, alpha: float, x,
                cfg: QuadratureConfig) -> OperatorResult:
    return _first(nl_gradient_batch(f, g, alpha, x, cfg))


def nl_divergence_batch(g: ScalarField, F: VectorField, alpha: float, x,
                        cfg: QuadratureConfig):
    """Bilinear nonlocal divergence of the couple (g, F)."""
    alpha = _check_alpha(alpha)
    return _run_op((g,), F, x, alpha, mu_const(g.n, alpha), cfg)


def nl_divergence(g: ScalarField, F: VectorField, alpha: float, x,
                  cfg: QuadratureConfig) -> OperatorResult:
    return _first(nl_divergence_batch(g, F, alpha, x, cfg))


def riesz_potential_batch(f: ScalarField, beta: float, x, cfg: QuadratureConfig):
    """Order-beta Riesz potential; requires decay s > beta (or compact support)."""
    beta = float(beta)
    return _run_op((f,), None, x, -beta, riesz_potential_const(f.n, beta), cfg,
                   increment=False)


def riesz_potential(f: ScalarField, beta: float, x, cfg: QuadratureConfig) -> OperatorResult:
    return _first(riesz_potential_batch(f, beta, x, cfg))


def riesz_transform_batch(f: ScalarField, x, cfg: QuadratureConfig):
    """Vector Riesz transform: principal value via symmetric increment shells."""
    return _run_op((f,), None, x, 0.0, riesz_transform_const(f.n), cfg)


def riesz_transform(f: ScalarField, x, cfg: QuadratureConfig) -> OperatorResult:
    return _first(riesz_transform_batch(f, x, cfg))


# ---------------------------------------------------------------------------
# derived fields for nested evaluation

def riesz_potential_field(f: ScalarField, beta: float, cfg: QuadratureConfig,
                          l1_bound: Optional[float] = None) -> ScalarField:
    """I_beta f as a ScalarField whose evaluator runs the batched quadrature.

    The decay hint (potential of finite mass) is |I f|(x) <= const * ||f||_1
    * |x|^(beta-n) far out; l1_bound defaults to a quick midpoint estimate.
    """
    n = f.n
    if l1_bound is None:
        from .norms import lp_norm  # local import: norms depends on this module
        from .fields import GridSpec

        S = f.support_radius if f.support_radius is not None else 8.0
        dom = GridSpec((-S,) * n, (S,) * n, (128,) * n)
        l1_bound = lp_norm(f, 1.0, dom)
    const = riesz_potential_const(n, beta)

    def fn(pts: Array) -> Array:
        P = pts.reshape(-1, n)
        vals, _ = riesz_potential_batch(f, beta, P, cfg)
        return vals.reshape(pts.shape[:-1])

    return ScalarField(
        n=n,
        fn=fn,
        decay=(1.5 * const * l1_bound, n - beta),
        sup_bound=None,
        smooth=f.smooth,
        cache_token=None if f.cache_token is None else f"I_{beta}({f.cache_token})",
    )
