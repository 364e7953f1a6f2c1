"""Direct evaluation of the nonlocal operators as singular integrals.

Every operator is computed in polar coordinates around the evaluation point
with a three-way split:

* near field [0, delta]: u = r^(1+kern+p) flattens the singularity exactly
  (kern the kernel's radial power, p the integrand's vanishing order), with
  Gauss-Legendre nodes in u, weights times r^(-p) and a uniform
  antipodally-symmetric angular rule;
* mid field [delta, R_far]: geometrically growing radial panels with
  Gauss-Legendre nodes per panel, times the angular rule: the annulus
  geometry is matched exactly, there are no partially covered cells;
* far field (R_far, inf): `_far_plan` picks R_far and the tail from the
  field hints, one branch per field. For increment kernels the constant part
  of the increment integrates to exactly zero over full annuli (odd kernel),
  so a compactly supported field has zero tail once R_far >= support + |x|.
  A decay-hinted field adds a closed-form bound to the error estimate. A
  field with neither hint is refused.

The error estimate is |fine - coarse| (half node counts) plus the tail bound.
All evaluators are batched over evaluation points: each pass builds its node
template once and evaluates it around blocks of points sized so a block's
temporaries stay in cache (`_BLOCK_NODES`). Every public operator is one call
of `_run_op` with its fields, order and integrand kind, not a constant; it
takes one point of shape (n,) or a batch of shape (m, n) and returns
`(values, estimates)` with one row per point.

Every polar rule of the package comes from one builder here: `special._gauss`
maps Gauss-Legendre onto [a, b], and `_polar_rule` tensors radii with the
`sphere_rule` directions into offsets r*omega and weights (w_r x w_omega) r^k.
The engine's passes, the verifier's ball integrals, the analytic library's
pole and profile integrals and the Besov seminorm all take their nodes from
it and differ only in how they sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ScalarField, VectorField, _check_points, _inner
from .special import _gauss, _leggauss, _read_only, mu_const, riesz_potential_const, sphere_area

Array = np.ndarray


@dataclass(frozen=True)
class QuadratureConfig:
    """Node budget and domain split for the singular-integral engine.

    The mid field is resolved by log-spaced radial panels (growth factor
    `mid_panel_growth`, `mid_panel_nodes` Gauss points per panel) times
    `mid_angular_nodes` directions. R_far comes from the field hints
    (support + |x|, giving an exactly-zero far tail for compactly supported
    fields, or a decay bound below `tol`). `lq_grid_nodes` sets the
    translate-norm resolution used by the Besov seminorm.
    """

    near_radius: float = 0.2
    near_radial_nodes: int = 12
    near_angular_nodes: int = 16
    mid_angular_nodes: int = 32
    mid_panel_nodes: int = 6
    mid_panel_growth: float = 2.0
    tol: float = 1e-4
    lq_grid_nodes: int = 96

    def __post_init__(self) -> None:
        # every message starts with the field's name
        if self.near_radius <= 0:
            raise ConfigError(f"near_radius must be positive, got {self.near_radius!r}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol!r}")
        if self.mid_panel_growth <= 1.0:
            raise ConfigError(f"mid_panel_growth must exceed 1, got {self.mid_panel_growth!r}")
        for name in ("near_radial_nodes", "near_angular_nodes",
                     "mid_angular_nodes", "mid_panel_nodes", "lq_grid_nodes"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be at least 2, got {getattr(self, name)!r}")

    def coarsened(self) -> "QuadratureConfig":
        """The error estimate's coarse level: half the node counts, floored."""
        return _coarsened(self)


@lru_cache(maxsize=64)
def _coarsened(cfg: QuadratureConfig) -> QuadratureConfig:
    """Built once per config (frozen, so equal configs share the entry)."""
    return replace(
        cfg,
        near_radial_nodes=max(4, cfg.near_radial_nodes // 2),
        near_angular_nodes=max(4, cfg.near_angular_nodes // 2),
        mid_angular_nodes=max(4, cfg.mid_angular_nodes // 2),
        mid_panel_nodes=max(2, cfg.mid_panel_nodes // 2),
    )


@lru_cache(maxsize=128)
def sphere_rule(n: int, m: int) -> tuple[Array, Array]:
    """Directions and weights integrating over S^(n-1) (weights sum to its
    area), shared read-only.

    n=1: the two signs. n=2: m equi-spaced angles (rounded up to even).
    n=3: Gauss-Legendre latitudes x uniform longitudes.
    """
    if n == 1:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    m = int(m) + (int(m) % 2)
    if n == 2:
        th = 2.0 * math.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        return _read_only(dirs, np.full(m, 2.0 * math.pi / m))
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
        return _read_only(dirs, w)
    raise DomainError(f"dimension must be 1, 2 or 3, got {n}")


def singular_radial_rule(r_max: float, rho: float, m: int) -> tuple[Array, Array]:
    """Nodes/weights for int_0^rmax S(r) r^rho dr with the u = r^(1+rho) map.

    The returned weights absorb the r^rho factor: sum S(r_i) w_i is the
    integral. Requires rho > -1 (integrable endpoint).
    """
    p = 1.0 + rho
    if p <= 0:
        raise DomainError(f"radial power {rho} is not integrable at 0")
    u, wu = _gauss(0.0, r_max**p, m)
    return u ** (1.0 / p), wu / p


def panel_radial_rule(r0: float, r1: float, growth: float, m: int) -> tuple[Array, Array]:
    """Gauss-Legendre panels with geometrically growing width on [r0, r1]."""
    edges = [r0]
    while edges[-1] * growth < r1:
        edges.append(edges[-1] * growth)
    edges = np.array(edges + [r1])[:, None]
    r, w = _gauss(edges[:-1], edges[1:], m)
    return r.ravel(), w.ravel()


def _ball_radial_rule(r0: float, R: float, growth: float, m: int) -> tuple[Array, Array]:
    """Radii on [0, R] for a smooth integrand: one Gauss-Legendre panel on
    [0, r0], then geometrically growing panels from r0 to R."""
    (r, w), (r_rest, w_rest) = _gauss(0.0, r0, m), panel_radial_rule(r0, R, growth, m)
    return np.concatenate([r, r_rest]), np.concatenate([w, w_rest])


def _polar_rule(n: int, r: Array, w_r: Array, m_ang: int,
                k: float = 0.0) -> tuple[Array, Array, Array]:
    """The polar tensor rule of radii r (weights w_r) times the m_ang sphere
    rule: its directions (A, n), the offsets r*omega stored component-major,
    (n, R, A), and the weights (w_r x w_omega) r^k, (R, A)."""
    dirs, w_ang = sphere_rule(n, m_ang)
    disp = dirs.T[:, None, :] * r[None, :, None]
    w = w_r[:, None] * w_ang[None, :]
    if k != 0.0:
        w = w * r[:, None] ** k
    return dirs, disp, w


# ---------------------------------------------------------------------------
# far-field handling

def _decay_bound(C: float, s: float, xmax: float, R: float, kern: float, n: int) -> float:
    """Bound int_{|y-x|>R} C |y|^-s r^(-1-kern) r^(n-1) dr dOmega using
    |y| >= r - xmax, valid for R > xmax; kern is the operator order (alpha
    for the increment kernels, -beta for the potential).
    """
    ex = s + kern
    if ex <= 0 or R <= xmax:
        return math.inf
    shade = (1.0 - xmax / R) ** (-s)
    return sphere_area(n) * C * shade * R ** (-ex) / ex


def _far_plan(fields, X: Array, cfg: QuadratureConfig, order: float) -> tuple[float, float]:
    """(R_far, tail): the cutoff covering every field as seen from every batch
    point, and a bound on the neglected |y-x| > R_far part of the integral.

    - A supported field adds no tail: R_far >= support + |x|, and beyond it
      the increment's frozen part integrates to zero over full annuli (odd
      kernel; the potential has no frozen part).
    - A decay-hinted field grows R_far until its closed-form bound sits below
      the tolerance (capped), and adds that bound.
    - A field with neither hint has no bound, and is refused.
    """
    n = X.shape[1]
    xmax = float(np.max(np.sqrt(_inner(X))))
    need = cfg.near_radius * 2.0
    decays = []
    for f in fields:
        if f.support_radius is not None:
            need = max(need, f.support_radius + xmax + 1e-9)
        elif f.decay is not None:
            R = max(2.0 * xmax + 6.0, need)
            while R < 256.0 and _decay_bound(*f.decay, xmax, R, order, n) > cfg.tol:
                R *= 1.5
            need = max(need, R)
            decays.append(f.decay)
        else:
            raise ConfigError("the direct engine needs a support_radius or a decay hint "
                              "on every field")
    return need, sum((_decay_bound(C, s, xmax, need, order, n) for C, s in decays), 0.0)


# ---------------------------------------------------------------------------
# batched polar engine

def _batched_polar(X: Array, numer: Callable[[Array, Array], Array], kern_pow: float,
                   p: float, cfg: QuadratureConfig, vector: bool, far_R: float) -> Array:
    """One pass of numer (vanishing to order p at the point) against r^kern_pow
    dr dOmega, without the constant `_run_op` derives: (m,) or (m, n) values.
    The near zone ends at near_radius, the mid zone at far_R (>= 2 near_radius)."""
    delta = cfg.near_radius
    r, w_rad = singular_radial_rule(delta, kern_pow + p, cfg.near_radial_nodes)
    # difference quotients are frozen below a radius floor: pure roundoff guard
    r = np.maximum(r, 1e-7 * min(1.0, delta))
    near = _polar_sum(X, numer, r, w_rad, cfg.near_angular_nodes, -p, vector)
    r2, w_rad2 = panel_radial_rule(delta, far_R, cfg.mid_panel_growth, cfg.mid_panel_nodes)
    return near + _polar_sum(X, numer, r2, w_rad2, cfg.mid_angular_nodes, kern_pow, vector)


# Nodes per block of evaluation points: a (points, radii, angles, n)
# temporary of 2^15 nodes is 0.5 MB at n = 2, so the working set of each
# elementwise step stays within a 2 MB L2 cache instead of streaming the batch.
_BLOCK_NODES = 1 << 15


def _blocks(m_pts: int, nodes_per_pt: int):
    """Row slices of at most _BLOCK_NODES nodes each (at least one point).

    A point with more nodes than numpy's buffer (np.getbufsize()) gets a
    block of its own: einsum reduces such a row in one piece when it is alone
    in a call and in buffer-sized pieces otherwise, so a shared block would
    make the point's bits depend on its neighbours in the batch.
    """
    step = _BLOCK_NODES // nodes_per_pt if nodes_per_pt <= np.getbufsize() else 1
    step = max(1, step)
    return (slice(i, i + step) for i in range(0, m_pts, step))


def _polar_sum(X, numer, r, w_rad, m_ang, k, vector):
    """Accumulate sum_{r,omega} numer(x + r w, w, rows) * weight over blocks
    of points, with the polar rule of radii r (weights w_rad r^k) and the
    m_ang sphere rule.

    The rule (times the directions for a vector output) is built once per
    pass; each block of points then holds at most _BLOCK_NODES nodes.
    """
    m_pts, n = X.shape
    dirs, disp, w = _polar_rule(n, r, w_rad, m_ang, k)
    if vector:
        w = np.multiply(w, dirs.T[:, None, :], order="C")     # (n, R, A)
    out = np.empty((m_pts, n) if vector else (m_pts,))
    for rows in _blocks(m_pts, r.size * dirs.shape[0]):
        # nodes stored component-major, (n, b, R, A), and seen as (b, R, A, n):
        # every elementwise step then runs over contiguous components
        pts = np.add(X[rows].T[:, :, None, None], disp[:, None], order="C").transpose(1, 2, 3, 0)
        vals = numer(pts, dirs, rows)                            # (b, R, A)
        out[rows] = np.einsum("mra,kra->mk" if vector else "mra,ra->m", vals, w)
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
        r, wr = _ball_radial_rule(S / 16.0, S, 1.5, m_panel)
        _, disp, w = _polar_rule(n, r, wr, m_ang, n - 1)
        # source nodes stored component-major, (n, Y), and seen as (Y, n)
        y = disp.reshape(n, -1).T
        w = w.reshape(-1)
        sv = src_fn(y)
        out = np.empty((X.shape[0], n) if out_vector else (X.shape[0],))
        for rows in _blocks(X.shape[0], y.shape[0]):
            # component-major, so the contraction reads each component contiguously
            dk = np.subtract(y.T[:, None, :], X[rows].T[:, :, None], order="C")  # (n, b, Y)
            d = dk.transpose(1, 2, 0)                         # (b, Y, n) view
            ker = np.sqrt(_inner(d)) ** (-expo)
            if out_vector:
                out[rows] = np.einsum("xy,kxy->xk", ker * (sv * w), dk)
            elif src_vector:
                out[rows] = np.einsum("xy,xy->x", _inner(d, sv), ker * w)
            else:
                out[rows] = np.einsum("y,xy,y->x", sv, ker, w)
        return out

    fine = run(max(cfg.mid_angular_nodes, 32), max(cfg.mid_panel_nodes, 6))
    coarse = run(max(cfg.mid_angular_nodes // 2, 16), max(cfg.mid_panel_nodes // 2, 4))
    return fine, coarse


def _integrand(scalars, vec, X: Array, increment: bool):
    """numer(pts, dirs, rows) of the polar passes around the points X[rows].

    The product of the scalar fields' increments f(y) - f(x), times the
    vector field's increment projected on the direction; with
    increment=False, the single scalar field's values. The base values f(X)
    are computed once and sliced per block of points.
    """
    if not increment:
        f, = scalars
        return lambda pts, _dirs, _rows: f(pts)
    bases = [f(X) for f in scalars]
    vbase = None if vec is None else vec(X).T  # (n, m)

    def numer(pts, dirs, rows):
        vals = None
        for f, b in zip(scalars, bases):
            d = f(pts) - b[rows, None, None]
            vals = d if vals is None else vals * d
        if vec is not None:
            # (V(y) - V(x)) . omega added component by component, the bits of
            # fields._inner, without a (b, R, A, n) difference
            V, dT = vec(pts), np.ascontiguousarray(dirs.T)
            proj = (V[..., 0] - vbase[0, rows, None, None]) * dT[0]
            for k in range(1, len(dT)):
                dk = V[..., k] - vbase[k, rows, None, None]
                dk *= dT[k]
                proj += dk
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


def _run_op(scalars, vec, x, order: float, cfg: QuadratureConfig, increment: bool = True):
    """The direct engine's one operator path: the kernel's constant times the
    integral of the integrand against the kernel of the given order, with its
    error estimate. A public operator passes its fields, order and integrand
    kind; the constant and the integrand's vanishing order p follow from them.

    `scalars` are ScalarFields and `vec` an optional VectorField. Increment
    integrands (p = 1: the gradients, divergences and, at order 0, the Riesz
    transform) meet mu(n, order) (y-x)|y-x|^(-n-1-order); the output is an
    n-vector unless a vector field is contracted. A value integrand (p = 0:
    the potential, order -beta) meets its constant times |y-x|^(-n-order).
    """
    fields = tuple(scalars) + (() if vec is None else (vec,))
    n = fields[0].n  # the constant refuses a bad potential order before any kind check
    constant = mu_const(n, order) if increment else riesz_potential_const(n, -order)
    kinds = (ScalarField,) * len(scalars) + (VectorField,)  # zip drops the last if vec is None
    for f, kind in zip(fields, kinds):
        if not isinstance(f, kind):
            raise ConfigError(f"operator takes a {kind.__name__}, got {type(f).__name__}")
    if any(f.n != n for f in fields):
        raise ConfigError("fields must share the dimension")
    if not increment:
        f, = fields
        if f.support_radius is None and f.decay is not None and f.decay[1] <= -order:
            raise DomainError(f"Riesz potential diverges: decay exponent "
                              f"{f.decay[1]} <= order {-order}")
    X = _points(x, n)
    vector = increment and vec is None
    p = 1.0 if increment else 0.0
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
            _source(scalars, vec), vec is not None, vector, n + order + p,
            X[far], max(sups), n, cfg)
    if np.any(~far):
        Xn = X[~far]
        far_R, tail = _far_plan(fields, Xn, cfg, order)
        numer = _integrand(scalars, vec, Xn, increment)
        fine[~far] = _batched_polar(Xn, numer, kern_pow, p, cfg, vector, far_R)
        coarse[~far] = _batched_polar(Xn, numer, kern_pow, p, cfg.coarsened(), vector, far_R)
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
    _check_points(X, n)
    if X.ndim > 2:
        raise ConfigError(f"evaluation points must have shape (n,) or (m, n) with n={n}")
    return X[None, :] if X.ndim == 1 else X


# ---------------------------------------------------------------------------
# public operators

def frac_gradient_batch(xi: ScalarField, alpha: float, x, cfg: QuadratureConfig):
    """Fractional gradient of a scalar field at a batch of points."""
    alpha = _check_alpha(alpha)
    return _run_op((xi,), None, x, alpha, cfg)


def frac_divergence_batch(F: VectorField, alpha: float, x, cfg: QuadratureConfig):
    """Fractional divergence of a vector field at a batch of points."""
    alpha = _check_alpha(alpha)
    return _run_op((), F, x, alpha, cfg)


def nl_gradient_batch(f: ScalarField, g: ScalarField, alpha: float, x,
                      cfg: QuadratureConfig):
    """Bilinear nonlocal gradient of the couple (f, g)."""
    alpha = _check_alpha(alpha)
    return _run_op((f, g), None, x, alpha, cfg)


def nl_divergence_batch(g: ScalarField, F: VectorField, alpha: float, x,
                        cfg: QuadratureConfig):
    """Bilinear nonlocal divergence of the couple (g, F)."""
    alpha = _check_alpha(alpha)
    return _run_op((g,), F, x, alpha, cfg)


def riesz_potential_batch(f: ScalarField, beta: float, x, cfg: QuadratureConfig):
    """Order-beta Riesz potential; requires decay s > beta (or compact support)."""
    beta = float(beta)
    return _run_op((f,), None, x, -beta, cfg, increment=False)


def riesz_transform_batch(f: ScalarField, x, cfg: QuadratureConfig):
    """Vector Riesz transform, the order-0 gradient: a principal value."""
    return _run_op((f,), None, x, 0.0, cfg)
