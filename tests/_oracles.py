"""Reference fields and integrators that only the tests use.

Each oracle keeps its own hand-built quadrature rule rather than the
engine's shared polar rule builder, so that a check against it stays an
independent check.
"""

import math
from dataclasses import replace

import numpy as np

from fracfield.analytic import _graded_gl, _pole_radius, _ray_sphere
from fracfield.errors import ConfigError, DomainError
from fracfield.fields import ScalarField, VectorField, _dist2, _inner, _leading, _window
from fracfield.quadrature import (
    QuadratureConfig,
    frac_divergence_batch,
    singular_radial_rule,
    sphere_rule,
)
from fracfield.special import _leggauss, mu_const
from fracfield.spectral import PeriodicField, _freq_grids

Array = np.ndarray


def scaled_nodes(cfg: QuadratureConfig, k: int) -> QuadratureConfig:
    """cfg with every node count times k: a refined run to measure against."""
    return replace(cfg, near_radial_nodes=k * cfg.near_radial_nodes,
                   near_angular_nodes=k * cfg.near_angular_nodes,
                   mid_angular_nodes=k * cfg.mid_angular_nodes,
                   mid_panel_nodes=k * cfg.mid_panel_nodes)


def lin_comb(a: float, f: ScalarField, b: float, g: ScalarField) -> ScalarField:
    """a*f + b*g with conservatively merged support hints."""
    if f.n != g.n:
        raise ConfigError("fields must share the dimension")
    sups = (f.support_radius, g.support_radius)
    support = None if any(s is None for s in sups) else max(sups)
    return ScalarField(
        n=f.n,
        fn=lambda p: a * f.fn(p) + b * g.fn(p),
        support_radius=support,
    )


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
    )


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
    (lo_in, hi_in), (lo_out, hi_out) = (_ray_sphere(y[None], dirs, x0, rad)
                                        for rad in (r, r + eps))
    acc = np.zeros(n)
    for d, wa, lo_i, hi_i, lo_o, hi_o in zip(dirs, w_ang, lo_in[0], hi_in[0],
                                             lo_out[0], hi_out[0]):
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
    F = pole_field.field
    alpha = pole_field.alpha
    n = F.n
    x = np.asarray(x, dtype=float)
    poles = pole_field.measure.atom_points
    d = _pole_radius(poles)
    dist_x = float(np.min(np.sqrt(_dist2(poles, x))))
    if dist_x <= d:
        raise DomainError("evaluation point must sit outside the pole windows")

    def wfn(pts: Array) -> Array:
        vals = _leading(np.asarray(F(pts)))
        w = np.ones(vals.shape[1:])
        for p in poles:
            dist = np.sqrt(_dist2(pts, p))
            w = w * (1.0 - _window(dist, 0.5 * d, d))
        return w * vals

    G = VectorField(n=n, fn=wfn, decay=F.decay)
    base, base_err = frac_divergence_batch(G, alpha, x, cfg)

    mu = mu_const(n, alpha)
    dirs, w_ang = sphere_rule(n, cfg.mid_angular_nodes)
    rr, wr = singular_radial_rule(d, alpha - 1.0, 2 * cfg.near_radial_nodes)
    corr = 0.0
    for p in poles:
        pts = p[None, None, :] + rr[:, None, None] * dirs[None, :, :]
        # einsum sums a contiguous k axis in another order than a strided
        # one, so the contraction reads a (R, A, n) copy of the field values
        fv = np.ascontiguousarray(F(pts.reshape(-1, n)).reshape(rr.shape[0], dirs.shape[0], n))
        diff = pts - x[None, None, :]
        dn = np.sqrt(_inner(diff))
        kv = diff * (dn ** (-(n + alpha + 1.0)))[..., None]
        win = _window(rr, 0.5 * d, d)[:, None]
        S = np.einsum("rak,rak->ra", fv, kv) * win * (rr ** (n - alpha))[:, None]
        corr += float(np.einsum("ra,r,a->", S, wr, w_ang))
    value = base[0] + mu * corr
    return value, base_err[0] + 1e-3 * abs(mu * corr) + 1e-12


def serial_apply_symbol(f: PeriodicField, power: float, gradient: bool) -> PeriodicField:
    """`spectral._apply_symbol` as one serial loop over components, each taking
    fresh arrays from `np.fft.rfftn`/`irfftn`: the reference for the engine's
    fanned-out, in-place steps."""
    grid = f.grid
    ks, mag = _freq_grids(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = mag ** power
    amp[(0,) * grid.n] = 0.0
    axes = tuple(range(grid.n))
    spec = None if f.vector else np.fft.rfftn(f.data)
    comps, acc = [], None
    for j in range(grid.n) if gradient else (None,):
        sj = np.fft.rfftn(f.data[j]) if f.vector else spec
        if j is not None:
            sj = sj * (2j * math.pi * ks[j])
        sj = sj * amp
        sj[(0,) * grid.n] = 0.0
        if j is not None:
            sj[(slice(None),) * j + (grid.counts[j] // 2,)] = 0.0
        if not f.vector:
            comps.append(np.fft.irfftn(sj, s=grid.counts, axes=axes))
        elif acc is None:
            acc = sj
        else:
            acc += sj
    if f.vector:
        return PeriodicField(grid, np.fft.irfftn(acc, s=grid.counts, axes=axes))
    return PeriodicField(grid, np.stack(comps) if gradient else comps[0])
