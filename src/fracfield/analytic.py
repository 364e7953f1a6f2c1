"""Closed-form fields with known fractional divergence measures.

The library provides:

* delta-pair fields F(x) = mu(n,-a) [ (x-y)/|x-y|^(n+1-a) - (x-z)/|x-z|^(n+1-a) ]
  whose fractional divergence is the atom pair delta_y - delta_z (the a=1
  variant has the same formula and the classical divergence);
* atomic convolutions of the basic pair against a finite measure, whose
  divergence is the measure minus its unit shift;
* finite-level Cantor measures realizing the |nu|(B_r) <= C r^eps scaling;
* the fractional gradient of a ball indicator as a sphere integral, and of
  the ramp cutoff h_{eps,r,x} as an annulus integral;
* a partition-of-unity pairing integrator for int F . grad^a xi dx against
  pole fields (polar quadrature in smooth windows around each pole, lattice
  sum in the bulk, closed-form far tail);
* the nonlocal gradient of (ball indicator, smooth field) couples via exact
  ray/sphere splitting, used by the ball integration-by-parts verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError
from .fields import ScalarField, VectorField, _dist2, _inner
from .measures import RadonMeasure
from .quadrature import (
    QuadratureConfig,
    _leggauss,
    panel_radial_rule,
    singular_radial_rule,
    sphere_rule,
)
from .special import _mu_raw, mu_const, omega_const
from .spectral import PeriodicField, embed, spectral_frac_gradient

Array = np.ndarray

_E1 = {1: np.array([1.0]), 2: np.array([1.0, 0.0]), 3: np.array([1.0, 0.0, 0.0])}


def _pair_kernel(pts: Array, pole: Array, expo: float) -> Array:
    """(x-p)/|x-p|^expo, zero at the pole itself."""
    d = pts - pole
    r2 = _inner(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(r2 > 0.0, r2 ** (-expo / 2.0), 0.0)
    return d * w[..., None]


@dataclass(frozen=True)
class DeltaPairField:
    """Pole-pair field with ground truth divergence delta_y - delta_z."""

    field: VectorField
    alpha: float
    poles: Array          # (2, n): [y, z]
    pole_strengths: Array  # (+1, -1)
    measure: RadonMeasure
    lp_upper: float
    lp_lower_inclusive: bool

    @property
    def n(self) -> int:
        return self.field.n


@dataclass(frozen=True)
class ConvolvedField:
    """Atomic convolution of the basic pair field; divergence nu - shift(nu)."""

    field: VectorField
    alpha: float
    poles: Array
    pole_strengths: Array
    measure: RadonMeasure

    @property
    def n(self) -> int:
        return self.field.n


def _measured_decay(fn, n: int, s: float, ring: float) -> tuple[float, float]:
    """Empirical decay constant: C = max |F| on a far ring, times margin."""
    dirs, _ = sphere_rule(n, 32)
    vals = fn(ring * dirs)
    mag = float(np.max(np.sqrt(_inner(vals))))
    return (1.3 * mag * ring**s, s)


def make_delta_pair(y, z, alpha: float) -> DeltaPairField:
    """Explicit field with fractional alpha-divergence delta_y - delta_z.

    alpha in (0, 1]; L^p membership: p in [1, n/(n-alpha)) for alpha < 1 and
    p in (1, n/(n-1)) at alpha = 1.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    n = y.shape[0]
    if z.shape != y.shape:
        raise ConfigError("pole points must share the dimension")
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    if float(np.linalg.norm(y - z)) == 0.0:
        raise DomainError("degenerate pole pair (y == z) is rejected")
    mu_minus = _mu_raw(n, -alpha)
    expo = n + 1.0 - alpha

    def fn(pts: Array) -> Array:
        return mu_minus * (_pair_kernel(pts, y, expo) - _pair_kernel(pts, z, expo))

    s = n + 1.0 - alpha
    ring = 10.0 * (1.0 + float(np.linalg.norm(y)) + float(np.linalg.norm(z)))
    field = VectorField(
        n=n,
        fn=fn,
        decay=_measured_decay(fn, n, s, ring),
        smooth=False,
        cache_token=f"deltapair(y={tuple(y)},z={tuple(z)},a={alpha})",
    )
    measure = RadonMeasure(
        n=n, atom_points=np.stack([y, z]), atom_weights=np.array([1.0, -1.0])
    )
    if alpha < 1.0:
        upper, inclusive = n / (n - alpha), True
    else:
        upper, inclusive = (n / (n - 1.0) if n > 1 else math.inf), False
    return DeltaPairField(
        field=field,
        alpha=float(alpha),
        poles=np.stack([y, z]),
        pole_strengths=np.array([1.0, -1.0]),
        measure=measure,
        lp_upper=upper,
        lp_lower_inclusive=inclusive,
    )


def make_convolved(nu: RadonMeasure, alpha: float) -> ConvolvedField:
    """Convolution of the basic pair field F_{0, e1, alpha} with atomic nu.

    Ground truth divergence: sum_i w_i (delta_{y_i} - delta_{y_i + e1}).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    if nu.density_grid is not None:
        raise ConfigError("convolved fields support atomic measures only")
    n = nu.n
    e1 = _E1[n]
    mu_minus = _mu_raw(n, -alpha)
    expo = n + 1.0 - alpha
    pts_y = nu.atom_points
    w = nu.atom_weights

    def fn(pts: Array) -> Array:
        acc = np.zeros(pts.shape)
        for yi, wi in zip(pts_y, w):
            acc += wi * (_pair_kernel(pts, yi, expo) - _pair_kernel(pts, yi + e1, expo))
        return mu_minus * acc

    # combine coincident atoms of nu - shift(nu)
    locs: list[Array] = []
    weights: list[float] = []
    for yi, wi in zip(pts_y, w):
        for pt, sgn in ((yi, wi), (yi + e1, -wi)):
            for k, q in enumerate(locs):
                if np.linalg.norm(q - pt) < 1e-12:
                    weights[k] += sgn
                    break
            else:
                locs.append(pt)
                weights.append(sgn)
    keep = [i for i, wt in enumerate(weights) if abs(wt) > 1e-14]
    atoms = np.array([locs[i] for i in keep]).reshape(-1, n)
    atom_w = np.array([weights[i] for i in keep])
    measure = RadonMeasure(n=n, atom_points=atoms, atom_weights=atom_w)
    s = n + 1.0 - alpha
    if len(pts_y):
        ring = 10.0 * (1.0 + float(np.max(np.abs(pts_y))))
        decay = _measured_decay(fn, n, s, ring)
    else:
        decay = (0.0, s)
    field = VectorField(n=n, fn=fn, decay=decay, smooth=False,
                        cache_token=f"convolved(a={alpha},k={len(pts_y)})")
    return ConvolvedField(
        field=field,
        alpha=float(alpha),
        poles=atoms,
        pole_strengths=atom_w,
        measure=measure,
    )


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
    t, w = _leggauss(m)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    return t**kappa, kappa * t ** (kappa - 1.0) * w


def grad_chi_ball(r: float, x0, alpha: float, y, surface_nodes: int = 192) -> Array:
    """Fractional gradient of the indicator of B_r(x0) at a point off the sphere.

    Sphere-integral form with the inner normal:
        mu(n,a)/(n+a-1) * int_{bd B_r} nu(z) |z-y|^(1-n-a) dH(z).
    The polar-angle rule is graded toward the near point of the sphere, so
    points with |dist to sphere| down to ~1e-9 r stay accurate. A warning is
    attached within 1e-3 r of the sphere per the evaluation contract.
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
    if d < 1e-3 * r:
        import warnings

        warnings.warn("evaluation point within 1e-3 r of the sphere; "
                      "accuracy degrades", RuntimeWarning, stacklevel=2)
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
    dist2 = d * d + 2.0 * r * rho * (1.0 - c)
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


def ramp_cutoff_field(eps: float, r: float, x0) -> ScalarField:
    """The Lipschitz ramp: 1 on B_r(x0), linear to 0 across [r, r+eps]."""
    x0 = np.asarray(x0, dtype=float)
    eps = float(eps)
    r = float(r)

    def fn(pts: Array) -> Array:
        dist = np.sqrt(_dist2(pts, x0))
        return np.clip((r + eps - dist) / eps, 0.0, 1.0)

    return ScalarField(
        n=x0.shape[0],
        fn=fn,
        support_radius=float(np.linalg.norm(x0)) + r + eps,
        sup_bound=1.0,
        smooth=False,
        cache_token=f"ramp(eps={eps},r={r},x0={tuple(x0)})",
    )


def _ray_sphere(origin: Array, dirs: Array, center: Array, radius: float):
    """Entry/exit parameters of rays origin + t dirs against a sphere.

    Returns (t_lo, t_hi) clipped to t >= 0; rays that miss give t_lo == t_hi.
    """
    oc = origin - center
    b = dirs @ oc
    c = float(oc @ oc) - radius * radius
    disc = b * b - c
    hit = disc > 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_lo = np.where(hit, -b - sq, 0.0)
    t_hi = np.where(hit, -b + sq, 0.0)
    t_lo = np.maximum(t_lo, 0.0)
    t_hi = np.maximum(t_hi, 0.0)
    return t_lo, t_hi


def grad_cutoff_annulus(eps: float, r: float, x0, alpha: float, y,
                        cfg: QuadratureConfig, surface_nodes: int = 192) -> Array:
    """Fractional gradient of the ramp cutoff as an annulus volume integral:

        mu(n,a) / (eps (n+a-1)) *
            int_{B_{r+eps}(x0) \\ B_r(x0)} (x0-z)/|x0-z| |z-y|^(1-n-a) dz

    Points off the shell use polar quadrature around the center with the
    angular rule graded toward the near point (thin annuli stay resolved);
    points inside the shell use ray/sphere splitting around y with the
    singular radial rule at the kernel point.
    """
    eps = float(eps)
    r = float(r)
    alpha = float(alpha)
    if eps <= 0 or r <= 0:
        raise DomainError("ramp parameters must be positive")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    x0 = np.asarray(x0, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x0.shape[0]
    const = mu_const(n, alpha) / (eps * (n + alpha - 1.0))
    rho_y = float(np.linalg.norm(y - x0))
    in_shell = r - 1e-12 <= rho_y <= r + eps + 1e-12

    if not in_shell:
        if rho_y == 0.0:
            return np.zeros(n)
        e = (y - x0) / rho_y
        d = max(min(abs(rho_y - r), abs(rho_y - (r + eps))), 1e-12)
        kappa = float(np.clip(1.0 + math.log10(max(r, rho_y) / d), 1.0, 9.0))
        tg, wg = _leggauss(max(6, cfg.mid_panel_nodes))
        rr = 0.5 * eps * (tg + 1.0) + r
        wr = 0.5 * eps * wg
        if n == 1:
            right = -np.sum(wr * np.abs(x0[0] + rr - y[0]) ** (-alpha))
            left = np.sum(wr * np.abs(x0[0] - rr - y[0]) ** (-alpha))
            return const * np.array([right + left])
        t, wt = _graded_gl(surface_nodes, kappa)
        if n == 2:
            th = math.pi * t
            wt = math.pi * wt
            cth = np.cos(th)
            dist2 = ((rr[:, None] - rho_y) ** 2
                     + 4.0 * rr[:, None] * rho_y * np.sin(0.5 * th[None, :]) ** 2)
            ker = dist2 ** ((1.0 - n - alpha) / 2.0)
            integral = 2.0 * float(np.einsum("i,j,ij->", wr * rr, wt, cth[None, :] * ker))
        else:
            c = 1.0 - 2.0 * t
            wc = 2.0 * wt * (2.0 * math.pi)
            dist2 = ((rr[:, None] - rho_y) ** 2
                     + 2.0 * rr[:, None] * rho_y * (1.0 - c[None, :]))
            ker = dist2 ** ((1.0 - n - alpha) / 2.0)
            integral = float(np.einsum("i,j,ij->", wr * rr**2, wc, c[None, :] * ker))
        return -const * integral * e

    # y inside the shell: ray splitting with the kernel singularity at t = 0
    dirs, w_ang = sphere_rule(n, max(cfg.mid_angular_nodes, 64))
    acc = np.zeros(n)
    for d, wa in zip(dirs, w_ang):
        lo_i, hi_i = _ray_sphere(y, d, x0, r)
        lo_o, hi_o = _ray_sphere(y, d, x0, r + eps)
        segments = []
        if hi_o > lo_o:
            b1 = min(hi_o, lo_i) if hi_i > lo_i else hi_o
            if b1 > lo_o:
                segments.append((lo_o, b1))
            if hi_i > lo_i and hi_o > hi_i:
                segments.append((hi_i, hi_o))
        for a, b in segments:
            if a < 1e-14:
                t, wt = singular_radial_rule(b, -alpha, cfg.near_radial_nodes)
            else:
                tg, wg = _leggauss(cfg.mid_panel_nodes * 2)
                t = 0.5 * (b - a) * (tg + 1.0) + a
                wt = 0.5 * (b - a) * wg * t ** (-alpha)
            z = y + t[:, None] * d[None, :]
            u = x0[None, :] - z
            un = np.sqrt(_inner(u))
            un = np.where(un > 0, un, 1.0)
            acc += wa * np.sum(u / un[:, None] * wt[:, None], axis=0)
    return const * acc


def nl_gradient_ball(x0, r: float, xi: ScalarField, alpha: float, W,
                     cfg: QuadratureConfig) -> Array:
    """Nonlocal gradient of (indicator of B_r(x0), xi) at a batch of points.

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
    tg, wg = _leggauss(cfg.mid_panel_nodes)
    out = np.zeros((Wp.shape[0], n))
    xw = xi(Wp)
    inside = _dist2(Wp, x0) < r * r
    for j, w in enumerate(Wp):
        lo, hi = _ray_sphere(w, dirs, x0, r)  # (A,), (A,)
        if inside[j]:
            a = np.maximum(hi, 1e-12)
            b = np.full_like(a, R_far)
            sign = -1.0
        else:
            a = np.maximum(lo, 1e-12)
            b = hi
            sign = 1.0
        live = b > a
        if not np.any(live):
            continue
        ratio = np.where(live, b / np.where(live, a, 1.0), 1.0)
        J = max(3, min(24, int(math.ceil(math.log(float(np.max(ratio))) / math.log(4.0)))))
        # per-direction log-spaced edges: a * (b/a)^(j/J), degenerate rays collapse
        expo = np.arange(J + 1) / J
        edges = a[:, None] * ratio[:, None] ** expo[None, :]          # (A, J+1)
        e0 = edges[:, :-1][:, :, None]
        e1 = edges[:, 1:][:, :, None]
        t = 0.5 * (e1 - e0) * (tg[None, None, :] + 1.0) + e0          # (A, J, g)
        wt = 0.5 * (e1 - e0) * wg[None, None, :] * t ** (-1.0 - alpha)
        wt = np.where(live[:, None, None], wt, 0.0)
        pts = w[None, None, None, :] + t[..., None] * dirs[:, None, None, :]
        inc = xi(pts) - xw[j]
        radial = np.sum(inc * wt, axis=(1, 2))                        # (A,)
        out[j] = mu * sign * np.einsum("a,a,ak->k", radial, w_ang, dirs)
    return out if np.asarray(W).ndim == 2 else out[0]


def pole_field_divergence(pole_field, x, cfg: QuadratureConfig):
    """Pointwise fractional divergence of an analytic pole field off its atoms.

    The atoms are integrable kernel singularities sitting inside the
    integration domain; a smooth partition of unity splits the increment
    integral into a windowed smooth remainder (standard engine) plus one
    singular polar correction per pole:

        div^a F(x) = div^a G(x) + mu sum_p int w_p(v) F(v) . K(v - x) dv,

    with G = (1 - sum w_p) F and K the divergence kernel. Away from the atoms
    the true value is zero (the divergence measure is purely atomic).
    """
    from .fields import VectorField
    from .quadrature import frac_divergence

    F = pole_field.field
    alpha = pole_field.alpha
    n = F.n
    x = np.asarray(x, dtype=float)
    poles = np.asarray(pole_field.poles, dtype=float)
    if poles.shape[0] > 1:
        d2 = _dist2(poles[:, None, :], poles[None, :, :])
        np.fill_diagonal(d2, np.inf)
        sep = math.sqrt(float(np.min(d2)))
    else:
        sep = 1.0
    d = min(0.45 * sep, 0.5)
    dist_x = float(np.min(np.sqrt(_dist2(poles, x))))
    if dist_x <= d:
        raise DomainError("evaluation point must sit outside the pole windows")

    def wfn(pts: Array) -> Array:
        vals = np.asarray(F(pts))
        w = np.ones(vals.shape[:-1])
        for p in poles:
            dist = np.sqrt(_dist2(pts, p))
            w = w * (1.0 - _window(dist, 0.5 * d, d))
        return w[..., None] * vals

    G = VectorField(n=n, fn=wfn, decay=F.decay, smooth=False)
    base = frac_divergence(G, alpha, x, cfg)

    mu = mu_const(n, alpha)
    dirs, w_ang = sphere_rule(n, cfg.mid_angular_nodes)
    rr, wr = singular_radial_rule(d, alpha - 1.0, 2 * cfg.near_radial_nodes)
    corr = 0.0
    for p in poles:
        pts = p[None, None, :] + rr[:, None, None] * dirs[None, :, :]
        fv = F(pts.reshape(-1, n)).reshape(rr.shape[0], dirs.shape[0], n)
        diff = pts - x[None, None, :]
        dn = np.sqrt(_inner(diff))
        kv = diff * (dn ** (-(n + alpha + 1.0)))[..., None]
        win = _window(rr, 0.5 * d, d)[:, None]
        S = np.einsum("rak,rak->ra", fv, kv) * win * (rr ** (n - alpha))[:, None]
        corr += float(np.einsum("ra,r,a->", S, wr, w_ang))
    value = base.value + mu * corr
    return value, base.error + 1e-3 * abs(mu * corr) + 1e-12


# ---------------------------------------------------------------------------
# mollified pole fields

_MOLLIFIED_PROFILE_CACHE: dict = {}


def _mollified_kernel_profile(n: int, alpha: float, eps: float,
                              t_max: float) -> tuple[Array, Array]:
    """Radial profile kappa(t) of rho_eps * K, K(v) = mu(n,-a) v |v|^(a-n-1).

    By symmetry the convolution is kappa(|v|) vhat; kappa is computed on a
    dense grid by polar quadrature (singular rule while the kernel point sits
    inside the mollifier support, plain Gauss-Legendre outside) and consumed
    through linear interpolation.
    """
    key = (n, round(alpha, 12), round(eps, 12), round(t_max, 6))
    if key in _MOLLIFIED_PROFILE_CACHE:
        return _MOLLIFIED_PROFILE_CACHE[key]
    from .fields import mollifier

    rho = mollifier(eps, n)
    mu_minus = _mu_raw(n, -alpha)
    ts = np.linspace(0.0, t_max, int(t_max / 2.5e-3) + 2)
    kappa = np.zeros(ts.shape[0])
    dirs, w_ang = sphere_rule(n, 32)
    e1 = _E1[n]

    near = ts <= 1.5 * eps
    # scaled singular rule: int_0^T S r^(a-1) dr = T^a int_0^1 S(T rhat) ...
    r_hat, w_hat = singular_radial_rule(1.0, alpha - 1.0, 24)
    T = ts[near] + eps
    r = T[:, None] * r_hat[None, :]
    w = (T ** alpha)[:, None] * w_hat[None, :]
    pts = ts[near][:, None, None, None] * e1 - r[:, :, None, None] * dirs[None, None, :, :]
    vals = rho(pts.reshape(-1, n)).reshape(pts.shape[:-1])
    kappa[near] = np.einsum("tra,tr,a->t", vals * dirs[None, None, :, 0], w, w_ang)

    # beyond the mollifier scale the kernel is smooth over the bump support:
    # integrate around the bump instead (a rule centered at the kernel point
    # would see the bump in a shrinking cone)
    far_idx = np.where(~near)[0]
    tg, wg = _leggauss(16)
    z_r = 0.5 * eps * (tg + 1.0)
    z_w = 0.5 * eps * wg
    z_pts = z_r[:, None, None] * dirs[None, :, :]            # (R, A, n)
    rho_w = rho(z_pts.reshape(-1, n)).reshape(len(z_r), len(dirs)) \
        * (z_w * z_r ** (n - 1))[:, None] * w_ang[None, :]
    expo = alpha - n - 1.0
    for lo_i in range(0, far_idx.shape[0], 2000):
        sel = far_idx[lo_i : lo_i + 2000]
        u = ts[sel][:, None, None, None] * e1 + z_pts[None, :, :, :]
        dist = np.sqrt(_inner(u))
        k1 = u[..., 0] * dist**expo
        kappa[sel] = np.einsum("tra,ra->t", k1, rho_w)

    kappa *= mu_minus
    _MOLLIFIED_PROFILE_CACHE[key] = (ts, kappa)
    return ts, kappa


def mollified_pole_field(pole_field, eps: float, cfg: QuadratureConfig,
                         t_max: float = 48.0) -> VectorField:
    """rho_eps * F for an analytic pole field, as a smooth VectorField."""
    n = pole_field.n
    alpha = pole_field.alpha
    poles = np.asarray(pole_field.poles, dtype=float)
    strengths = np.asarray(pole_field.pole_strengths, dtype=float)
    ts, kappa = _mollified_kernel_profile(n, alpha, float(eps), t_max)

    def fn(pts: Array) -> Array:
        acc = np.zeros(pts.shape)
        for p, s in zip(poles, strengths):
            d = pts - p
            dist = np.sqrt(_inner(d))
            k = np.interp(dist, ts, kappa, right=0.0)
            safe = np.where(dist > 0.0, dist, 1.0)
            acc += s * (k / safe)[..., None] * d
        return acc

    s_dec = n + 1.0 - alpha
    ring = min(10.0 * (1.0 + float(np.max(np.abs(poles)))), 0.8 * t_max)
    field = VectorField(
        n=n,
        fn=fn,
        decay=_measured_decay(fn, n, s_dec, ring),
        sup_bound=float(np.sum(np.abs(strengths)) * np.max(np.abs(kappa))),
        smooth=True,
        cache_token=f"mollified({pole_field.field.cache_token},eps={eps})",
    )
    return field


# ---------------------------------------------------------------------------
# pairing integrals against pole fields

_SPECTRAL_GRAD_CACHE: dict = {}


def spectral_gradient_of(xi: ScalarField, alpha: float, L: float = 16.0,
                         N: int = 1024) -> PeriodicField:
    """Cached spectral fractional gradient of a smooth compact field."""
    key = (xi.cache_token, float(alpha), float(L), int(N))
    if xi.cache_token is None or key not in _SPECTRAL_GRAD_CACHE:
        pf = embed(xi, L, N)
        out = spectral_frac_gradient(pf, alpha)
        if xi.cache_token is None:
            return out
        _SPECTRAL_GRAD_CACHE[key] = out
    return _SPECTRAL_GRAD_CACHE[key]


def _window(dist: Array, inner: float, outer: float) -> Array:
    """Smooth radial window: 1 below inner, 0 above outer."""
    t = (outer - dist) / (outer - inner)
    t = np.clip(t, 0.0, 1.0)
    a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def duality_pairing(pole_field, xi: ScalarField, cfg: QuadratureConfig,
                    L: float = 16.0, N: int = 1024,
                    pole_radius: Optional[float] = None) -> tuple[float, float]:
    """int F . grad^alpha xi dx for an analytic pole field F.

    Splits the plane by a smooth partition of unity: polar quadrature with the
    exact pole kernel inside each pole window, a lattice sum over the periodic
    grid in the bulk (where grad^alpha xi is spectrally exact at the nodes),
    and closed-form decay bounds outside the box. Returns (value, error est).
    """
    F = pole_field.field
    alpha = pole_field.alpha
    n = F.n
    poles = np.asarray(pole_field.poles, dtype=float)
    if poles.shape[0] == 0:
        return 0.0, 0.0
    if float(np.max(np.abs(poles))) > L / 4.0:
        raise ConfigError("pole constellation must sit within the inner quarter box")
    G = spectral_gradient_of(xi, alpha, L, N)
    if pole_radius is None:
        if poles.shape[0] > 1:
            d2 = _dist2(poles[:, None, :], poles[None, :, :])
            np.fill_diagonal(d2, np.inf)
            sep = math.sqrt(float(np.min(d2)))
        else:
            sep = 1.0
        pole_radius = min(0.45 * sep, 0.5)

    def bulk_sum(stride: int) -> float:
        grid = G.grid
        pts = grid.node_points()[(slice(None, None, stride),) * n]
        gv = np.moveaxis(G.data, 0, -1)[(slice(None, None, stride),) * n]
        fv = F(pts)
        w = np.ones(pts.shape[:-1])
        for p in poles:
            dist = np.sqrt(_dist2(pts, p))
            w *= 1.0 - _window(dist, 0.5 * pole_radius, pole_radius)
        rad = np.sqrt(_inner(pts))
        w *= _window(rad, L / 2.0 - 3.0, L / 2.0 - 1.0)
        return float(np.sum(w * _inner(fv, gv))) * grid.cell_volume * stride**n

    def pole_part(m_rad: int, m_ang: int) -> float:
        dirs, w_ang = sphere_rule(n, m_ang)
        total = 0.0
        for p in poles:
            rr, wr = singular_radial_rule(pole_radius, alpha - 1.0, m_rad)
            pts = p[None, None, :] + rr[:, None, None] * dirs[None, :, :]
            fv = F(pts.reshape(-1, n)).reshape(rr.shape[0], dirs.shape[0], n)
            gv = G.sample_linear(pts.reshape(-1, n)).reshape(fv.shape)
            dist = rr[:, None]
            # the bulk carries weight 1 - win, so the pole part integrates win
            win = _window(dist, 0.5 * pole_radius, pole_radius)
            S = _inner(fv, gv) * win * dist ** (n - alpha)
            total += float(np.einsum("ra,r,a->", S, wr, w_ang))
        return total

    bulk_f, bulk_c = bulk_sum(1), bulk_sum(2)
    pole_f = pole_part(cfg.near_radial_nodes * 2, cfg.mid_angular_nodes * 2)
    pole_c = pole_part(cfg.near_radial_nodes, cfg.mid_angular_nodes)
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
