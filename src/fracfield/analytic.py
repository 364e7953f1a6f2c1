"""Closed-form fields with known fractional divergence measures.

The library provides:

* delta-pair fields F(x) = mu(n,-a) [ (x-y)/|x-y|^(n+1-a) - (x-z)/|x-z|^(n+1-a) ]
  whose fractional divergence is the atom pair delta_y - delta_z (the a=1
  variant has the same formula and the classical divergence);
* atomic convolutions of the basic pair against a finite measure, whose
  divergence is the measure minus its unit shift;
  both are `PoleField`s: the field, its order and its divergence measure,
  whose atoms are the poles and whose weights are the pole strengths;
* finite-level Cantor measures realizing the |nu|(B_r) <= C r^eps scaling;
* the fractional gradient of a ball indicator as a sphere integral;
* a partition-of-unity pairing integrator for int F . grad^a xi dx against
  pole fields (polar quadrature in smooth windows around each pole, lattice
  sum in the bulk, closed-form far tail);
* the nonlocal gradient of (ball indicator, smooth field) couples via exact
  ray/sphere splitting, used by the ball integration-by-parts verifier.

The pole-window and mollified-kernel integrals use the shared polar rule of
`quadrature`; the ray-split rules share only its Gauss-Legendre map.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ScalarField, VectorField, _dist2, _index_box, _inner, _leading, _trailing, _window, mollifier
from .measures import RadonMeasure
from .quadrature import (
    QuadratureConfig,
    _blocks,
    _polar_rule,
    singular_radial_rule,
    sphere_rule,
)
from .special import _gauss, _mu_raw, mu_const, omega_const
from .spectral import _BOX, PeriodicField, _cached_frac_derivative

Array = np.ndarray

_E1 = {1: np.array([1.0]), 2: np.array([1.0, 0.0]), 3: np.array([1.0, 0.0, 0.0])}
_PROFILE_T_MAX = 48.0  # range of the mollified kernel profile


def _diff(pts: Array, pole: Array) -> Array:
    """x - p for points (..., n), stored component-major: (n, ...)."""
    return np.subtract(_leading(pts), pole.reshape((-1,) + (1,) * (pts.ndim - 1)), order="C")


def _pair_kernel(pts: Array, pole: Array, expo: float) -> Array:
    """(x-p)/|x-p|^expo as (n, ...), zero at the pole itself."""
    d = _diff(pts, pole)
    r2 = _inner(_trailing(d))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(r2 > 0.0, r2 ** (-expo / 2.0), 0.0)
    return d * w


@dataclass(frozen=True)
class PoleField:
    """Vector field whose fractional alpha-divergence is the finite atomic
    measure `measure`: the poles are its atoms, their strengths its weights."""

    field: VectorField
    alpha: float
    measure: RadonMeasure

    @property
    def n(self) -> int:
        return self.field.n


def _pole_radius(poles: Array) -> float:
    """Pole window radius: 0.45 x the closest pole separation, at most 0.5."""
    sep = 1.0
    if poles.shape[0] > 1:
        d2 = _dist2(poles[:, None, :], poles[None, :, :])
        np.fill_diagonal(d2, np.inf)
        sep = math.sqrt(float(np.min(d2)))
    return min(0.45 * sep, 0.5)


def _measured_decay(fn, n: int, s: float, ring: float) -> tuple[float, float]:
    """Empirical decay constant: C = max |F| on a far ring, times margin;
    fn is a vector evaluator, values (n, ...)."""
    dirs, _ = sphere_rule(n, 32)
    vals = fn(ring * dirs)
    mag = float(np.max(np.sqrt(_inner(_trailing(vals)))))
    return (1.3 * mag * ring**s, s)


def _pole_field(ys: Array, zs: Array, ws: Array, alpha: float, ring: float,
                token: str) -> PoleField:
    """F(x) = mu(n,-a) sum_i w_i [K(x-y_i) - K(x-z_i)], K(v) = v/|v|^(n+1-a),
    whose alpha-divergence is sum_i w_i (delta_{y_i} - delta_{z_i}), with
    coincident atoms of that measure merged. The decay constant is measured
    on the sphere of radius `ring`."""
    n = ys.shape[1]
    mu_minus = _mu_raw(n, -alpha)
    expo = n + 1.0 - alpha

    def fn(pts: Array) -> Array:
        acc = np.zeros((n,) + pts.shape[:-1])
        for yi, zi, wi in zip(ys, zs, ws):
            acc += wi * (_pair_kernel(pts, yi, expo) - _pair_kernel(pts, zi, expo))
        return mu_minus * acc

    locs: list[Array] = []
    weights: list[float] = []
    for yi, zi, wi in zip(ys, zs, ws):
        for pt, sgn in ((yi, wi), (zi, -wi)):
            for k, q in enumerate(locs):
                if np.linalg.norm(q - pt) < 1e-12:
                    weights[k] += sgn
                    break
            else:
                locs.append(pt)
                weights.append(sgn)
    keep = [i for i, wt in enumerate(weights) if abs(wt) > 1e-14]
    measure = RadonMeasure(n=n, atom_points=np.array([locs[i] for i in keep]).reshape(-1, n),
                           atom_weights=np.array([weights[i] for i in keep]))
    decay = _measured_decay(fn, n, expo, ring) if len(ws) else (0.0, expo)
    field = VectorField(n=n, fn=fn, decay=decay, cache_token=token)
    return PoleField(field=field, alpha=float(alpha), measure=measure)


def make_delta_pair(y, z, alpha: float) -> PoleField:
    """Explicit field with fractional alpha-divergence delta_y - delta_z.

    alpha in (0, 1]; L^p membership: p in [1, n/(n-alpha)) for alpha < 1 and
    p in (1, n/(n-1)) at alpha = 1.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.shape != y.shape:
        raise ConfigError("pole points must share the dimension")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if float(np.linalg.norm(y - z)) < 1e-12:  # the atoms would merge into none
        raise DomainError("degenerate pole pair (|y - z| < 1e-12) is rejected")
    ring = 10.0 * (1.0 + float(np.linalg.norm(y)) + float(np.linalg.norm(z)))
    return _pole_field(y[None], z[None], np.array([1.0]), alpha, ring,
                       f"deltapair(y={tuple(y.tolist())},z={tuple(z.tolist())},a={float(alpha)})")


def make_convolved(nu: RadonMeasure, alpha: float) -> PoleField:
    """Convolution of the basic pair field F_{0, e1, alpha} with atomic nu.

    Ground truth divergence: sum_i w_i (delta_{y_i} - delta_{y_i + e1}).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if nu.density_grid is not None:
        raise ConfigError("convolved fields support atomic measures only")
    ys = nu.atom_points
    ring = 10.0 * (1.0 + float(np.max(np.abs(ys), initial=0.0)))
    return _pole_field(ys, ys + _E1[nu.n], nu.atom_weights, alpha, ring,
                       f"convolved(a={float(alpha)},k={len(ys)})")


def cantor_measure(level: int, embed_dim: int = 1) -> RadonMeasure:
    """Level-k middle-thirds Cantor approximation: 2^k atoms of mass 2^-k.

    Ball masses obey nu(B_{3^-j}(x)) = 2^-j at Cantor points for j < k, giving
    the log 2 / log 3 scaling exponent down to resolution 3^-k.
    """
    level = int(level)
    if not 0 <= level <= 12:
        raise DomainError("cantor level must lie in [0, 12] (2^k atoms)")
    if embed_dim not in (1, 2):
        raise DomainError("cantor measure embeds in dimension 1 or 2")
    pts = np.zeros(1)
    for j in range(1, level + 1):
        pts = np.concatenate([pts, pts + 2.0 * 3.0 ** (-j)])
    k = pts.shape[0]
    if embed_dim == 2:
        atoms = np.stack([pts, np.zeros(k)], axis=-1)
    else:
        atoms = pts[:, None]
    return RadonMeasure(n=embed_dim, atom_points=atoms,
                        atom_weights=np.full(k, 2.0**-level))


# ---------------------------------------------------------------------------
# fractional gradient of ball indicators (sphere integral form)

def _graded_gl(m: int, kappa: float) -> tuple[Array, Array]:
    """Gauss-Legendre on [0,1] pushed through t -> t^kappa (grades toward 0)."""
    t, w = _gauss(0.0, 1.0, m)
    return t**kappa, kappa * t ** (kappa - 1.0) * w


def grad_chi_ball(r: float, x0, alpha: float, y, surface_nodes: int = 192) -> Array:
    """Fractional gradient of the indicator of B_r(x0) at a point off the sphere.

    Sphere-integral form with the inner normal:
        mu(n,a)/(n+a-1) * int_{bd B_r} nu(z) |z-y|^(1-n-a) dH(z).
    The polar-angle rule is graded toward the near point of the sphere, so
    points with |dist to sphere| down to ~1e-9 r stay accurate (256 nodes
    agree with 2048 to 5e-13 relative in R^2 and 2e-7 in R^3 there). Closer
    points raise a RuntimeWarning.
    """
    r = float(r)
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if r <= 0:
        raise DomainError("ball radius must be positive")
    x0 = np.asarray(x0, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x0.shape[0]
    rho = float(np.linalg.norm(y - x0))
    d = abs(rho - r)
    if d == 0.0:
        raise DomainError("gradient of the indicator is singular on the sphere")
    if d < 1e-9 * r:
        warnings.warn("evaluation point within 1e-9 r of the sphere, below the "
                      "graded rule's accuracy floor", RuntimeWarning, stacklevel=2)
    mu = mu_const(n, alpha)
    if rho == 0.0:
        return np.zeros(n)
    e = (y - x0) / rho
    kappa = float(np.clip(1.0 + math.log10(max(r, rho) / d), 1.0, 9.0))

    if n == 1:
        # boundary = two signed points, inner normal pointing at x0
        g = (mu / alpha) * (abs(x0[0] - r - y[0]) ** (-alpha)
                            - abs(x0[0] + r - y[0]) ** (-alpha))
        return np.array([g])
    if n == 2:
        t, w = _graded_gl(surface_nodes, kappa)
        th = math.pi * t
        w = math.pi * w
        # stable distance: |z-y|^2 = (rho-r)^2 + 4 r rho sin^2(theta/2)
        dist2 = d * d + 4.0 * r * rho * np.sin(0.5 * th) ** 2
        ker = dist2 ** (-(1.0 + alpha) / 2.0)
        integral = 2.0 * float(np.sum(np.cos(th) * ker * w))  # symmetric halves
        g = -(mu * r / (1.0 + alpha)) * integral
        return g * e
    # n == 3: reduce to the polar angle, azimuth integrates to 2 pi
    t, w = _graded_gl(surface_nodes, kappa)
    c = 1.0 - 2.0 * t  # cos(theta), graded toward c = 1 (the near point)
    wc = 2.0 * w
    # stable distance: 1 - c = 2 t exactly, without the cancellation in 1 - c
    dist2 = d * d + 4.0 * r * rho * t
    ker = dist2 ** (-(2.0 + alpha) / 2.0)
    integral = float(np.sum(c * ker * wc))
    g = -(2.0 * math.pi * r * r * mu / (2.0 + alpha)) * integral
    return g * e


def grad_chi_ball_profile(r: float, alpha: float, n: int, radii: Array,
                          surface_nodes: int = 192) -> Array:
    """Radial profile g(rho) with grad chi_{B_r(x0)}(x0 + rho e) = g(rho) e."""
    out = np.zeros(radii.shape[0])
    x0 = np.zeros(n)
    e = _E1[n]
    for i, rho in enumerate(radii):
        if rho == 0.0:
            continue
        out[i] = float(grad_chi_ball(r, x0, alpha, x0 + rho * e, surface_nodes)[0])
    return out


def _ray_sphere(origins: Array, dirs: Array, center: Array, radius: float):
    """Entry/exit parameters of the rays origins[i] + t dirs[a] against a sphere.

    origins (m, n), dirs (A, n). Returns (t_lo, t_hi), each (m, A), clipped to
    t >= 0; rays that miss give t_lo == t_hi. The stacked matmuls give the
    bits of the per-origin products dirs @ oc and oc @ oc.
    """
    oc = origins - center
    b = np.matmul(dirs[None], oc[:, :, None])[..., 0]
    c = np.matmul(oc[:, None, :], oc[:, :, None])[:, 0, 0] - radius * radius
    disc = b * b - c[:, None]
    hit = disc > 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_lo = np.where(hit, -b - sq, 0.0)
    t_hi = np.where(hit, -b + sq, 0.0)
    t_lo = np.maximum(t_lo, 0.0)
    t_hi = np.maximum(t_hi, 0.0)
    return t_lo, t_hi


def nl_gradient_ball(x0, r: float, xi: ScalarField, alpha: float, W,
                     cfg: QuadratureConfig) -> Array:
    """Nonlocal gradient of (indicator of B_r(x0), xi) at points W (..., n),
    returned in W's shape.

    The indicator increment restricts the integral to the ball (points
    outside) or its complement (points inside); ray/sphere intersections give
    the exact radial intervals, log-spaced panels resolve the near-sphere
    kernel. Beyond the far radius the constant increment cancels over the
    angular rule exactly, so compactly supported xi has zero tail.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    Wp = np.asarray(W, dtype=float).reshape(-1, n)
    if xi.support_radius is None:
        raise ConfigError("nl_gradient_ball needs a compactly supported field")
    mu = mu_const(n, alpha)
    dirs, w_ang = sphere_rule(n, cfg.mid_angular_nodes)
    wmax = float(np.max(np.sqrt(_inner(Wp))))
    R_far = max(xi.support_radius + wmax, float(np.linalg.norm(x0)) + r + wmax) + 1.0
    out = np.zeros((Wp.shape[0], n))
    xw = xi(Wp)
    inside = _dist2(Wp, x0) < r * r
    lo, hi = _ray_sphere(Wp, dirs, x0, r)                             # (m, A)
    a = np.where(inside[:, None], np.maximum(hi, 1e-12), np.maximum(lo, 1e-12))
    b = np.where(inside[:, None], R_far, hi)
    sign = np.where(inside, -1.0, 1.0)
    live = b > a
    ratio = np.where(live, b / np.where(live, a, 1.0), 1.0)
    # panels per ray: enough factor-4 steps for the longest ray of the point
    steps = np.ceil(np.log(np.max(ratio, axis=1)) / math.log(4.0))
    panels = np.clip(steps, 3, 24).astype(int)
    panels[~np.any(live, axis=1)] = 0                                 # nothing to add
    for J in np.unique(panels[panels > 0]).tolist():
        idx = np.flatnonzero(panels == J)
        # per-direction log-spaced edges: a * (b/a)^(j/J), degenerate rays collapse
        expo = np.arange(J + 1) / J
        for rows in _blocks(idx.size, dirs.shape[0] * J * cfg.mid_panel_nodes):
            sel = idx[rows]
            edges = a[sel, :, None] * ratio[sel, :, None] ** expo     # (b, A, J+1)
            t, wt = _gauss(edges[..., :-1, None], edges[..., 1:, None],
                           cfg.mid_panel_nodes)                        # (b, A, J, g)
            wt = np.where(live[sel, :, None, None], wt * t ** (-1.0 - alpha), 0.0)
            pts = Wp[sel, None, None, None, :] + t[..., None] * dirs[:, None, None, :]
            inc = xi(pts) - xw[sel, None, None, None]
            radial = np.sum(inc * wt, axis=(2, 3))                    # (b, A)
            out[sel] = (mu * sign[sel])[:, None] * np.einsum("ma,a,ak->mk", radial, w_ang, dirs)
    return out.reshape(np.shape(W))


# ---------------------------------------------------------------------------
# mollified pole fields

@lru_cache(maxsize=1)
def _mollified_kernel_profile(n: int, alpha: float, eps: float) -> tuple[Array, Array]:
    """Radial profile kappa(t) of rho_eps * K, K(v) = mu(n,-a) v |v|^(a-n-1),
    on t in [0, _PROFILE_T_MAX], shared read-only.

    By symmetry the convolution is kappa(|v|) vhat; kappa is computed on a
    dense grid by polar quadrature (singular rule while the kernel point sits
    inside the mollifier support, plain Gauss-Legendre outside) and consumed
    through linear interpolation.
    """
    rho = mollifier(eps, n)
    mu_minus = _mu_raw(n, -alpha)
    ts = np.linspace(0.0, _PROFILE_T_MAX, int(_PROFILE_T_MAX / 2.5e-3) + 2)
    kappa = np.zeros(ts.shape[0])
    e1 = _E1[n]

    near = ts <= 1.5 * eps
    # scaled singular rule: int_0^T S r^(a-1) dr = T^a int_0^1 S(T rhat) ...
    dirs, disp, w = _polar_rule(n, *singular_radial_rule(1.0, alpha - 1.0, 24), 32)
    T = ts[near] + eps
    pts = e1[:, None, None, None] * ts[near][:, None, None] - T[:, None, None] * disp[:, None]
    vals = rho(_trailing(pts))                                # (t, R, A)
    kappa[near] = T**alpha * np.einsum("tra,ra->t", vals * dirs[:, 0], w)

    # beyond the mollifier scale the kernel is smooth over the bump support:
    # integrate around the bump instead (a rule centered at the kernel point
    # would see the bump in a shrinking cone)
    far_idx = np.where(~near)[0]
    _, z_disp, z_w = _polar_rule(n, *_gauss(0.0, eps, 16), 32, n - 1)
    z_pts = _trailing(z_disp)                                 # (R, A, n)
    rho_w = rho(z_pts) * z_w
    expo = alpha - n - 1.0
    for lo_i in range(0, far_idx.shape[0], 2000):
        sel = far_idx[lo_i : lo_i + 2000]
        u = ts[sel][:, None, None, None] * e1 + z_pts[None, :, :, :]
        dist = np.sqrt(_inner(u))
        k1 = u[..., 0] * dist**expo
        kappa[sel] = np.einsum("tra,ra->t", k1, rho_w)

    kappa *= mu_minus
    ts.setflags(write=False)
    kappa.setflags(write=False)
    return ts, kappa


def mollified_pole_field(pole_field: PoleField, eps: float) -> VectorField:
    """rho_eps * F for an analytic pole field, as a smooth VectorField."""
    n = pole_field.n
    alpha = pole_field.alpha
    poles, strengths = pole_field.measure.atom_points, pole_field.measure.atom_weights
    ts, kappa = _mollified_kernel_profile(n, alpha, float(eps))

    def fn(pts: Array) -> Array:
        acc = np.zeros((n,) + pts.shape[:-1])
        for p, s in zip(poles, strengths):
            d = _diff(pts, p)
            dist = np.sqrt(_inner(_trailing(d)))
            k = np.interp(dist, ts, kappa, right=0.0)
            safe = np.where(dist > 0.0, dist, 1.0)
            acc += s * (k / safe) * d
        return acc

    s_dec = n + 1.0 - alpha
    ring = min(10.0 * (1.0 + float(np.max(np.abs(poles)))), 0.8 * _PROFILE_T_MAX)
    field = VectorField(
        n=n,
        fn=fn,
        decay=_measured_decay(fn, n, s_dec, ring),
        cache_token=f"mollified({pole_field.field.cache_token},eps={float(eps)})",
    )
    return field


# ---------------------------------------------------------------------------
# pairing integrals against pole fields

def spectral_gradient_of(xi: ScalarField, alpha: float) -> PeriodicField:
    """Cached spectral fractional gradient of a smooth compact field (_BOX-wide
    box, 1024^n nodes)."""
    return _cached_frac_derivative(xi, float(alpha), 1024)


def _bulk_sums(F: VectorField, G: PeriodicField, poles: Array,
               pole_radius: float) -> tuple[float, float]:
    """Bulk lattice sums of w F . G over every node (fine) and every other
    node (coarse) of G's grid, w the product of 1 - (pole window) over the
    poles and the outer box window.

    One evaluation serves both sums. Each pole's 1 - window is exactly 1.0
    from pole_radius on, and the outer window exactly 1.0 up to L/2 - 3, so
    each is applied only where it can differ from 1.0.
    """
    n = F.n
    L = _BOX
    grid = G.grid
    pts = grid.node_points()
    axes = [grid.axis_nodes(i) for i in range(n)]
    w = np.ones(pts.shape[:-1])
    for p in poles:
        box = _index_box(axes, p, pole_radius)
        dist = np.sqrt(_dist2(pts[box], p))
        w[box] *= 1.0 - _window(dist, 0.5 * pole_radius, pole_radius)
    rad = np.sqrt(_inner(pts))
    edge = rad > L / 2.0 - 3.0
    w[edge] *= _window(rad[edge], L / 2.0 - 3.0, L / 2.0 - 1.0)
    prod = w * _inner(F(pts), _trailing(G.data))
    # numpy sums a strided view in another order than a lattice of its own,
    # so the coarse sum runs over a contiguous copy
    coarse = np.ascontiguousarray(prod[(slice(None, None, 2),) * n])
    return (float(np.sum(prod)) * grid.cell_volume,
            float(np.sum(coarse)) * grid.cell_volume * 2**n)


def duality_pairing(pole_field: PoleField, xi: ScalarField,
                    cfg: QuadratureConfig) -> tuple[float, float]:
    """int F . grad^alpha xi dx for an analytic pole field F.

    Splits the plane by a smooth partition of unity: polar quadrature with the
    exact pole kernel inside each pole window, a lattice sum over the periodic
    grid in the bulk (where grad^alpha xi is spectrally exact at the nodes),
    and closed-form decay bounds outside the box. Returns (value, error est).
    """
    F = pole_field.field
    alpha = pole_field.alpha
    n = F.n
    poles = pole_field.measure.atom_points
    if poles.shape[0] == 0:
        return 0.0, 0.0
    L = _BOX
    if float(np.max(np.abs(poles))) > L / 4.0:
        raise ConfigError("pole constellation must sit within the inner quarter box")
    G = spectral_gradient_of(xi, alpha)
    pole_radius = _pole_radius(poles)

    def pole_part(q: QuadratureConfig) -> float:
        rr, wr = singular_radial_rule(pole_radius, alpha - 1.0, 2 * q.near_radial_nodes)
        _, disp, w = _polar_rule(n, rr, wr, 2 * q.mid_angular_nodes, n - alpha)
        # the bulk carries weight 1 - win, so the pole part integrates win
        w = (w * _window(rr, 0.5 * pole_radius, pole_radius)[:, None]).ravel()
        total = 0.0
        for p in poles:
            pts = (p[:, None, None] + disp).reshape(n, -1).T
            total += float(np.sum(_inner(F(pts), G.sample_linear(pts)) * w))
        return total

    bulk_f, bulk_c = _bulk_sums(F, G, poles, pole_radius)
    pole_f, pole_c = pole_part(cfg), pole_part(cfg.coarsened())
    value = bulk_f + pole_f
    # far tail: |F| ~ C r^-sF beyond the window, |grad xi| ~ C' r^-(n+alpha)
    C_F, s_F = F.decay if F.decay is not None else (0.0, n + 1.0 - alpha)
    R1 = L / 2.0 - 3.0
    ring_pts = R1 * sphere_rule(n, 16)[0]
    C_G = float(np.max(np.abs(G.sample_linear(ring_pts)))) * 2.0 + 1e-12
    tail = (
        omega_const(n) * n * C_F * C_G * R1 ** (-s_F) / max(s_F, 1.0)
    )
    est = abs(bulk_f - bulk_c) + abs(pole_f - pole_c) + tail + 2e-4 * abs(value) + 1e-9
    return value, est
