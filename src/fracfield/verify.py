"""Executable checks for the nonlocal calculus identities.

Each check computes a left and right side by quadrature (direct singular
integrals, the spectral engine, or exact atom arithmetic), assembles a
VerifyReport, and decides pass/fail through one centralized tolerance policy:

    pass  iff  |lhs - rhs| <= max(abs_tol, rel_tol * scale, est_factor * est)

with the binding branch recorded. Ground-truth right sides over atoms are
exact arithmetic; quadrature appears on left sides only, so the error
accounting is one-sided. All randomness is seeded; node layouts are fixed;
pass flags are reproducible bit for bit for a given configuration.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .analytic import (
    cantor_measure,
    duality_pairing,
    grad_chi_ball_profile,
    make_convolved,
    make_delta_pair,
    nl_gradient_ball,
    spectral_gradient_of,
)
from .errors import ConfigError
from .fields import GridSpec, ScalarField, VectorField, _dist2, _inner, gaussian, gaussian_vector, mollifier, scalar_times_vector
from .measures import RadonMeasure, measure_ball_mass
from .norms import besov_seminorm, lp_norm
from .quadrature import (
    QuadratureConfig,
    _leggauss,
    frac_divergence_batch,
    frac_gradient_batch,
    nl_divergence_batch,
    panel_radial_rule,
    riesz_potential_batch,
    riesz_potential_field,
    singular_radial_rule,
    sphere_rule,
)
from .special import mu_const
from .spectral import (
    PeriodicField,
    embed,
    spectral_frac_divergence,
    spectral_frac_gradient,
    spectral_riesz_potential,
    spectral_riesz_transform,
)

Array = np.ndarray


@dataclass(frozen=True)
class TolerancePolicy:
    abs_tol: float = 1e-3
    rel_tol: float = 0.0
    est_factor: float = 5.0

    def decide(self, abs_err: float, scale: float, est: float) -> tuple[bool, str]:
        bounds = {
            "abs": self.abs_tol,
            "rel": self.rel_tol * scale,
            "est": self.est_factor * est,
        }
        branch = max(bounds, key=lambda k: bounds[k])
        return abs_err <= bounds[branch], branch


@dataclass
class VerifyReport:
    name: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    est_err: float
    passed: bool
    seconds: float
    branch: str = ""
    notes: str = ""

    def to_json_line(self) -> str:
        rec = {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "est_err": self.est_err,
            "pass": self.passed,
            "seconds": round(self.seconds, 4),
            "branch": self.branch,
            "notes": self.notes,
        }
        return json.dumps(rec, sort_keys=True)


def _report(name, params, lhs, rhs, est, policy, t0, scale=None, notes="") -> VerifyReport:
    abs_err = abs(lhs - rhs)
    if scale is None:
        scale = max(abs(lhs), abs(rhs), 1e-30)
    rel_err = abs_err / max(scale, 1e-30)
    passed, branch = policy.decide(abs_err, scale, est)
    return VerifyReport(
        name=name,
        params=params,
        lhs=float(lhs),
        rhs=float(rhs),
        abs_err=float(abs_err),
        rel_err=float(rel_err),
        est_err=float(est),
        passed=bool(passed),
        seconds=time.time() - t0,
        branch=branch,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# shared quadrature helpers

def polar_integral(fn_batch: Callable[[Array], tuple[Array, Array]], n: int,
                   R: float, cfg: QuadratureConfig,
                   center=None) -> tuple[float, float]:
    """Integral over B_R(center) of a smooth decaying integrand.

    fn_batch maps points (m, n) to (values (m,), error estimates (m,)).
    Returns (value, est): est combines per-point estimates with a coarse
    angular/radial Richardson delta.
    """
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)

    def run(m_ang: int, m_panel: int) -> tuple[float, float]:
        dirs, w_ang = sphere_rule(n, m_ang)
        r, w_r = panel_radial_rule(R / 64.0, R, cfg.mid_panel_growth, m_panel)
        t, wt = _leggauss(m_panel)
        r = np.concatenate([0.5 * R / 64.0 * (t + 1.0), r])
        w_r = np.concatenate([0.5 * R / 64.0 * wt, w_r])
        pts = (c[None, None, :] + r[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        vals, ests = fn_batch(pts)
        vals = vals.reshape(r.shape[0], dirs.shape[0])
        ests = ests.reshape(vals.shape)
        w = (w_r * r ** (n - 1))[:, None] * w_ang[None, :]
        return float(np.sum(vals * w)), float(np.sum(ests * w))

    v_f, e_f = run(cfg.mid_angular_nodes, cfg.mid_panel_nodes)
    v_c, _ = run(max(4, cfg.mid_angular_nodes // 2), max(2, cfg.mid_panel_nodes // 2))
    return v_f, abs(v_f - v_c) + e_f


def _support(*fields, default: float = 8.0) -> float:
    out = 0.0
    found = False
    for f in fields:
        if f.support_radius is not None:
            out = max(out, f.support_radius)
            found = True
    return out if found else default


_EMBED_CACHE: dict = {}


def spectral_divergence_of(F: VectorField, alpha: float, L: float = 16.0,
                           N: int = 1024) -> PeriodicField:
    key = ("div", F.cache_token, float(alpha), float(L), int(N))
    if F.cache_token is None or key not in _EMBED_CACHE:
        out = spectral_frac_divergence(embed(F, L, N), alpha)
        if F.cache_token is None:
            return out
        _EMBED_CACHE[key] = out
    return _EMBED_CACHE[key]


# ---------------------------------------------------------------------------
# duality checks

def check_duality(F, xi: ScalarField, alpha: float, cfg: QuadratureConfig,
                  policy: Optional[TolerancePolicy] = None,
                  name: str = "duality") -> VerifyReport:
    """int F . grad^a xi dx  ==  - int xi d(div^a F).

    F is either an analytic pole field carrying its ground-truth measure, or
    a smooth VectorField (right side from the spectral divergence density).
    """
    t0 = time.time()
    policy = policy or TolerancePolicy(rel_tol=1e-2)
    if hasattr(F, "measure"):  # analytic pole field
        lhs, est = duality_pairing(F, xi, cfg)
        mu = F.measure
        rhs = -float(np.sum(mu.atom_weights * xi(mu.atom_points)))
        params = {"alpha": F.alpha, "n": F.n, "field": F.field.cache_token,
                  "xi": xi.cache_token}
        return _report(name, params, lhs, rhs, est, policy, t0,
                       scale=max(abs(rhs), 1e-6))
    n = F.n
    R = _support(F)

    def lhs_fn(pts):
        gv, ge = frac_gradient_batch(xi, alpha, pts, cfg)
        fv = F(pts)
        return _inner(fv, gv), ge * np.sqrt(_inner(fv))

    lhs, est_l = polar_integral(lhs_fn, n, R, cfg)
    dens = spectral_divergence_of(F, alpha)

    def rhs_fn(pts):
        dv = dens.sample_linear(pts)
        return xi(pts) * dv, np.full(pts.shape[0], 1e-6)

    rhs_int, est_r = polar_integral(rhs_fn, n, _support(xi), cfg)
    rhs = -rhs_int
    params = {"alpha": alpha, "n": n, "field": F.cache_token, "xi": xi.cache_token}
    return _report(name, params, lhs, rhs, est_l + est_r, policy, t0,
                   scale=max(abs(lhs), abs(rhs), 1e-6))


# ---------------------------------------------------------------------------
# Leibniz rule family

def check_leibniz_pointwise(g: ScalarField, F: VectorField, alpha: float,
                            points, cfg: QuadratureConfig,
                            policy: Optional[TolerancePolicy] = None,
                            name: str = "leibniz_pointwise") -> VerifyReport:
    """Pointwise residual of div^a(gF) = g div^a F + F.grad^a g + div^a_NL(g,F).

    Each linear term is also cross-checked against the spectral engine; the
    bilinear term is compared with the spectral residual of the other three.
    """
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=0.0, est_factor=5.0)
    X = np.asarray(points, dtype=float)
    gF = scalar_times_vector(g, F)
    t_prod, e1 = frac_divergence_batch(gF, alpha, X, cfg)
    t_div, e2 = frac_divergence_batch(F, alpha, X, cfg)
    t_grad, e3 = frac_gradient_batch(g, alpha, X, cfg)
    t_nl, e4 = nl_divergence_batch(g, F, alpha, X, cfg)
    gX = g(X)
    FX = F(X)
    residual = t_prod - gX * t_div - _inner(FX, t_grad) - t_nl
    est = float(np.max(e1 + np.abs(gX) * e2
                       + e3 * np.sqrt(_inner(FX)) + e4))
    lhs = float(np.max(np.abs(residual)))

    # spectral cross-checks of each term
    sp_prod = spectral_divergence_of(gF, alpha).sample_linear(X)
    sp_div = spectral_divergence_of(F, alpha).sample_linear(X)
    sp_grad = np.stack(
        [spectral_gradient_of(g, alpha).sample_linear(X)[..., k] for k in range(g.n)],
        axis=-1,
    )
    sp_nl = sp_prod - gX * sp_div - _inner(FX, sp_grad)
    cross = max(
        float(np.max(np.abs(sp_prod - t_prod))),
        float(np.max(np.abs(sp_div - t_div))),
        float(np.max(np.abs(sp_grad - t_grad))),
        float(np.max(np.abs(sp_nl - t_nl))),
    )
    params = {"alpha": alpha, "n": g.n, "points": len(X),
              "g": g.cache_token, "F": F.cache_token}
    return _report(name, params, lhs, 0.0, est, policy, t0,
                   scale=float(np.max(np.abs(t_prod))) + 1e-30,
                   notes=f"max spectral cross-term deviation {cross:.3e}")


def check_zero_mass_nl(g: ScalarField, F: VectorField, alpha: float,
                       cfg: QuadratureConfig,
                       policy: Optional[TolerancePolicy] = None,
                       name: str = "leibniz_zero_mass") -> VerifyReport:
    """int div^a_NL(g, F) dx == 0 over an expanding ball with decay tail."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    n = g.n
    R = _support(g, F) + 18.0
    # area-integrated values amplify per-point bias: refine the inner rule
    inner = replace(cfg, near_radial_nodes=max(16, cfg.near_radial_nodes),
                    near_angular_nodes=max(24, cfg.near_angular_nodes),
                    mid_panel_nodes=max(10, cfg.mid_panel_nodes),
                    mid_angular_nodes=max(48, cfg.mid_angular_nodes))

    def fn(pts):
        return nl_divergence_batch(g, F, alpha, pts, inner)

    val, est = polar_integral(fn, n, R, cfg)
    params = {"alpha": alpha, "n": n, "R": R, "g": g.cache_token, "F": F.cache_token}
    return _report(name, params, val, 0.0, est, policy, t0, scale=1.0)


def check_global_ibp(g: ScalarField, F: VectorField, alpha: float,
                     cfg: QuadratureConfig,
                     policy: Optional[TolerancePolicy] = None,
                     name: str = "leibniz_global_ibp") -> VerifyReport:
    """int F . grad^a g dx == - int g d(div^a F) for smooth fields."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-6, rel_tol=1e-3, est_factor=0.0)
    n = g.n

    def lhs_fn(pts):
        gv, ge = frac_gradient_batch(g, alpha, pts, cfg)
        fv = F(pts)
        return _inner(fv, gv), ge * np.sqrt(_inner(fv))

    lhs, est_l = polar_integral(lhs_fn, n, _support(F), cfg)

    def rhs_fn(pts):
        dv, de = frac_divergence_batch(F, alpha, pts, cfg)
        gv = g(pts)
        return gv * dv, np.abs(gv) * de

    rhs_int, est_r = polar_integral(rhs_fn, n, _support(g), cfg)
    rhs = -rhs_int
    params = {"alpha": alpha, "n": n, "g": g.cache_token, "F": F.cache_token}
    return _report(name, params, lhs, rhs, est_l + est_r, policy, t0,
                   scale=max(abs(lhs), abs(rhs), 1e-6))


def check_nl_l1_bound(g: ScalarField, F: VectorField, alpha: float, p: float,
                      cfg: QuadratureConfig,
                      policy: Optional[TolerancePolicy] = None,
                      name: str = "leibniz_l1_bound") -> VerifyReport:
    """||div^a_NL(g,F)||_L1 <= mu(n,a) [g]_{B^a_{q,1}} ||F||_Lp.

    The report's lhs/rhs are the two sides; pass iff ratio <= 1 + tol. The
    stated constant is asserted; the proof-side constant 2 mu is a known
    caveat recorded in the notes.
    """
    t0 = time.time()
    policy = policy or TolerancePolicy()
    n = g.n
    q = p / (p - 1.0) if p > 1.0 else math.inf
    if math.isinf(q):
        raise ConfigError("the L1 bound check needs q < inf (p > 1)")
    R = _support(g, F) + 10.0

    def fn(pts):
        v, e = nl_divergence_batch(g, F, alpha, pts, cfg)
        return np.abs(v), e

    lhs, est = polar_integral(fn, n, R, cfg)
    # analytic continuation of the |x|^-(n+alpha) tail from a measured ring
    from .special import sphere_area

    dirs, _ = sphere_rule(n, 16)
    ring, _ = nl_divergence_batch(g, F, alpha, R * dirs, cfg)
    c_ring = float(np.mean(np.abs(ring))) * R ** (n + alpha)
    tail = c_ring * sphere_area(n) * R ** (-alpha) / alpha
    lhs += tail
    S = _support(g, F)
    dom = GridSpec((-S,) * n, (S,) * n, (192,) * n) if n <= 2 else GridSpec((-S,) * 3, (S,) * 3, (48,) * 3)
    rhs = mu_const(n, alpha) * besov_seminorm(g, alpha, q, cfg) * lp_norm(F, p, dom)
    ratio = lhs / rhs if rhs > 0 else math.inf
    t = time.time() - t0
    passed = ratio <= 1.0 + 0.02
    return VerifyReport(
        name=name,
        params={"alpha": alpha, "n": n, "p": p, "q": q,
                "g": g.cache_token, "F": F.cache_token},
        lhs=float(lhs),
        rhs=float(rhs),
        abs_err=float(max(0.0, lhs - rhs)),
        rel_err=float(ratio),
        est_err=float(est + 0.2 * tail),
        passed=bool(passed),
        seconds=t,
        branch="ratio",
        notes=f"ratio {ratio:.4f}; stated constant asserted, proof-side "
              f"constant 2*mu would double the right side",
    )


# ---------------------------------------------------------------------------
# ball integration by parts

def check_ball_ibp(F: VectorField, xi: ScalarField, x0, r: float, alpha: float,
                   cfg: QuadratureConfig,
                   policy: Optional[TolerancePolicy] = None,
                   name: str = "ball_ibp") -> VerifyReport:
    """Four-term balance on a ball:

    int_{B_r} F.grad^a xi + int xi F.grad^a chi_B + int F.gradNL^a(chi_B, xi)
        == - int_{B_r} xi d(div^a F).
    """
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-4, rel_tol=1e-2, est_factor=0.0)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]

    # term 1: over the ball
    def t1_fn(pts):
        gv, ge = frac_gradient_batch(xi, alpha, pts, cfg)
        fv = F(pts)
        return _inner(fv, gv), ge * np.sqrt(_inner(fv))

    t1, e1 = _ball_polar_integral(t1_fn, n, x0, r, cfg)

    # term 2: radial profile of grad chi against the angular average of xi F . w
    t2, e2 = _term2_sphere_gradient(F, xi, x0, r, alpha, cfg)

    # term 3: nonlocal gradient of the (indicator, xi) couple
    t3, e3 = _term3_nl_integral(F, xi, x0, r, alpha, cfg)

    # right side: spectral divergence density over the ball
    dens = spectral_divergence_of(F, alpha, L=16.0, N=1024)

    def t4_fn(pts):
        return xi(pts) * dens.sample_linear(pts), np.full(pts.shape[0], 1e-6)

    t4_int, e4 = _ball_polar_integral(t4_fn, n, x0, r, cfg)
    rhs = -t4_int
    lhs = t1 + t2 + t3
    est = e1 + e2 + e3 + e4
    scale = max(abs(t1), abs(t2), abs(t3), abs(rhs), 1e-6)
    params = {"alpha": alpha, "n": n, "r": r, "x0": tuple(x0),
              "F": F.cache_token, "xi": xi.cache_token,
              "terms": [round(t1, 6), round(t2, 6), round(t3, 6), round(rhs, 6)]}
    return _report(name, params, lhs, rhs, est, policy, t0, scale=scale)


def _ball_polar_integral(fn_batch, n, x0, r, cfg) -> tuple[float, float]:
    def run(m_ang, m_rad):
        dirs, w_ang = sphere_rule(n, m_ang)
        t, wt = _leggauss(m_rad)
        rr = 0.5 * r * (t + 1.0)
        wr = 0.5 * r * wt
        pts = (x0[None, None, :] + rr[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        vals, ests = fn_batch(pts)
        w = (wr * rr ** (n - 1))[:, None] * w_ang[None, :]
        return (float(np.sum(vals.reshape(len(rr), -1) * w)),
                float(np.sum(ests.reshape(len(rr), -1) * w)))

    v_f, e_f = run(cfg.mid_angular_nodes, 4 * cfg.mid_panel_nodes)
    v_c, _ = run(max(4, cfg.mid_angular_nodes // 2), 2 * cfg.mid_panel_nodes)
    return v_f, abs(v_f - v_c) + e_f


def _term3_nl_integral(F, xi, x0, r, alpha, cfg) -> tuple[float, float]:
    """int F . gradNL^a(chi_{B_r(x0)}, xi) with radial grading at the sphere.

    The integrand is bounded but only Hoelder-1-alpha across the boundary;
    geometric panels toward rho = r keep the outer rule accurate.
    """
    n = x0.shape[0]
    R_out = _support(F) + float(np.linalg.norm(x0)) + 1.0

    def radial_nodes(m):
        s_min = r * 2.0**-12
        s_in, w_in = panel_radial_rule(s_min, r, 2.0, m)
        s0 = min(r, 1.0)
        s_on, w_on = panel_radial_rule(s_min, s0, 2.0, m)
        far, w_far = panel_radial_rule(r + s0, R_out, cfg.mid_panel_growth, m)
        rho = np.concatenate([
            r - s_in,                      # inside, graded toward the sphere
            np.array([r - 0.5 * s_min]),   # inner strip, midpoint
            np.array([r + 0.5 * s_min]),   # outer strip, midpoint
            r + s_on,                      # outside, graded away
            far,
        ])
        w = np.concatenate([w_in, [s_min], [s_min], w_on, w_far])
        return rho, w

    def run(m_rad, m_ang, inner_cfg):
        rho, w_rho = radial_nodes(m_rad)
        dirs, w_ang = sphere_rule(n, m_ang)
        pts = (x0[None, None, :] + rho[:, None, None] * dirs[None, :, :]).reshape(-1, n)
        nl = nl_gradient_ball(x0, r, xi, alpha, pts, inner_cfg)
        fv = F(pts)
        vals = _inner(fv, nl).reshape(len(rho), len(dirs))
        w = (w_rho * rho ** (n - 1))[:, None] * w_ang[None, :]
        return float(np.sum(vals * w))

    from dataclasses import replace

    v_f = run(cfg.mid_panel_nodes, cfg.mid_angular_nodes, cfg)
    v_c = run(max(2, cfg.mid_panel_nodes - 2), max(8, cfg.mid_angular_nodes // 2),
              replace(cfg, mid_angular_nodes=max(16, cfg.mid_angular_nodes // 2)))
    return v_f, abs(v_f - v_c)


def _term2_sphere_gradient(F, xi, x0, r, alpha, cfg) -> tuple[float, float]:
    """int xi F . grad^a chi_{B_r(x0)} via the radial profile g(rho).

    grad^a chi is radial, singular like |rho - r|^(-alpha): both sides of the
    sphere use the u-substitution rule in s = |rho - r|, the outer region
    continues with geometric panels.
    """
    n = x0.shape[0]
    R_out = _support(xi) + float(np.linalg.norm(x0)) + 1.0

    def angular_avg(rhos, m_ang):
        dirs, w_ang = sphere_rule(n, m_ang)
        pts = x0[None, None, :] + rhos[:, None, None] * dirs[None, :, :]
        fv = F(pts.reshape(-1, n)).reshape(len(rhos), len(dirs), n)
        xv = xi(pts.reshape(-1, n)).reshape(len(rhos), len(dirs))
        proj = np.einsum("rak,ak->ra", fv, dirs)
        return np.einsum("ra,ra,a->r", xv, proj, w_ang)

    def run(m_s, m_ang, m_surf):
        # inside: s = r - rho in (0, r]
        s_in, w_in = singular_radial_rule(r, -alpha, m_s)
        rho_in = r - s_in
        # outside near: s = rho - r in (0, s0]; outside far: panels
        s0 = min(r, 1.0)
        s_on, w_on = singular_radial_rule(s0, -alpha, m_s)
        rho_on = r + s_on
        rho_of, w_of = panel_radial_rule(r + s0, R_out, cfg.mid_panel_growth,
                                         cfg.mid_panel_nodes)
        rhos = np.concatenate([rho_in, rho_on, rho_of])
        g = grad_chi_ball_profile(r, alpha, n, rhos, m_surf)
        avg = angular_avg(rhos, m_ang)
        dens = g * avg * rhos ** (n - 1)
        k = len(rho_in)
        k2 = k + len(rho_on)
        # the singular rules integrate S(s) s^(-alpha); here S = dens * s^alpha
        val = float(np.sum(dens[:k] * (s_in**alpha) * w_in))
        val += float(np.sum(dens[k:k2] * (s_on**alpha) * w_on))
        val += float(np.sum(dens[k2:] * w_of))
        return val

    # the profile g carries the |rho-r|^(-alpha) singularity; the rules above
    # integrate S(s) s^(-alpha) with S = dens * s^alpha smooth
    v_f = run(24, cfg.mid_angular_nodes, 256)
    v_c = run(12, max(4, cfg.mid_angular_nodes // 2), 128)
    return v_f, abs(v_f - v_c)


# ---------------------------------------------------------------------------
# mollification, decay, totals

def check_mollification(pole_field, eps: float, points, cfg: QuadratureConfig,
                        policy: Optional[TolerancePolicy] = None,
                        name: str = "mollification") -> VerifyReport:
    """div^a (rho_eps * F) matches rho_eps * (div^a F) pointwise.

    For pole fields the right side is exact atom arithmetic:
    sum_i w_i rho_eps(x - p_i).
    """
    from .analytic import mollified_pole_field

    t0 = time.time()
    X = np.asarray(points, dtype=float)
    n = X.shape[1]
    rho = mollifier(eps, n)
    scale = rho((0.0,) * n)
    policy = policy or TolerancePolicy(abs_tol=0.02 * scale, est_factor=0.0)
    F_eps = mollified_pole_field(pole_field, eps, cfg)
    vals, ests = frac_divergence_batch(F_eps, pole_field.alpha, X, cfg)
    mu = pole_field.measure
    rhs = np.zeros(len(X))
    for pt, w in zip(mu.atom_points, mu.atom_weights):
        rhs += w * rho(X - pt[None, :])
    worst = int(np.argmax(np.abs(vals - rhs)))
    params = {"alpha": pole_field.alpha, "n": n, "eps": eps, "points": len(X),
              "scale": scale}
    return _report(name, params, float(vals[worst]), float(rhs[worst]),
                   float(np.max(ests)), policy, t0, scale=scale)


def decay_scan(source, alpha: float, p: float, center, radii,
               cfg: QuadratureConfig, expect: str = "floor",
               target: Optional[float] = None,
               policy: Optional[TolerancePolicy] = None,
               name: str = "decay_scan") -> VerifyReport:
    """Log-log slope of r -> |div^a F|(B_r(center)) against the n/q - alpha floor.

    source: a smooth VectorField (density created spectrally), an analytic
    pole field (atom masses, exact), or a RadonMeasure scanned directly.
    expect: "floor" asserts slope >= n/q - alpha - 0.1; "flat" asserts
    |slope| <= 0.05 (the no-absolute-continuity regime); "exponent" asserts
    |slope - target| <= 0.05 (self-similar measures).

    A remark, not a computation: the same ball-mass bound forces a
    nonnegative divergence measure to vanish identically in the subcritical
    range (the exponent is negative, so letting r grow kills the total mass);
    that rigidity is a pure consequence and is not exercised numerically.
    """
    t0 = time.time()
    policy = policy or TolerancePolicy()
    c = np.asarray(center, dtype=float)
    n = c.shape[0]
    radii = np.asarray(radii, dtype=float)
    if isinstance(source, RadonMeasure):
        meas = source.abs()
    elif hasattr(source, "measure"):
        meas = source.measure.abs()
    else:
        dens = spectral_divergence_of(source, alpha, L=16.0, N=2048)
        h = dens.grid.spacing
        grid = GridSpec(
            tuple(l - 0.5 * hh for l, hh in zip(dens.grid.lower, h)),
            tuple(u - 0.5 * hh for u, hh in zip(dens.grid.upper, h)),
            dens.grid.counts,
        )
        meas = RadonMeasure(n=n, atom_points=np.zeros((0, n)),
                            atom_weights=np.zeros(0), density_grid=grid,
                            density_values=np.abs(dens.data))
    masses = np.array([measure_ball_mass(meas, c, r) for r in radii])
    if np.any(masses <= 0):
        raise ConfigError("ball masses must be positive on the radius list")
    slope = float(np.polyfit(np.log(radii), np.log(masses), 1)[0])
    q = p / (p - 1.0) if (p > 1.0 and not math.isinf(p)) else (1.0 if math.isinf(p) else math.inf)
    floor = (n / q if not math.isinf(q) else 0.0) - alpha
    t = time.time() - t0
    if expect == "flat":
        passed = abs(slope) <= 0.05
        rhs, abs_err = 0.0, abs(slope)
    elif expect == "exponent":
        if target is None:
            raise ConfigError("expect='exponent' needs a target slope")
        passed = abs(slope - target) <= 0.05
        rhs, abs_err = float(target), abs(slope - target)
    else:
        passed = slope >= floor - 0.1
        rhs, abs_err = floor, max(0.0, floor - slope)
    return VerifyReport(
        name=name,
        params={"alpha": alpha, "n": n, "p": p, "center": tuple(c),
                "radii": [float(r) for r in radii], "expect": expect,
                "floor": floor},
        lhs=slope,
        rhs=rhs,
        abs_err=float(abs_err),
        rel_err=float(abs_err / max(abs(floor), 1.0)),
        est_err=0.0,
        passed=bool(passed),
        seconds=t,
        branch="slope",
        notes=f"fitted slope {slope:.4f}; theoretical floor {floor:.4f}",
    )


def check_zero_total(F: VectorField, alpha: float, cfg: QuadratureConfig,
                     R: float = 12.0,
                     policy: Optional[TolerancePolicy] = None,
                     name: str = "zero_total") -> VerifyReport:
    """div^a F (R^n) == 0 for compact smooth fields in the subcritical range."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=2e-3, est_factor=0.0)
    inner = replace(cfg, near_radial_nodes=max(16, cfg.near_radial_nodes),
                    near_angular_nodes=max(24, cfg.near_angular_nodes),
                    mid_panel_nodes=max(10, cfg.mid_panel_nodes),
                    mid_angular_nodes=max(48, cfg.mid_angular_nodes))

    def fn(pts):
        return frac_divergence_batch(F, alpha, pts, inner)

    val, est = polar_integral(fn, F.n, R, cfg)
    # tail correction: the monopole far term integrates to zero over full
    # annuli; the isotropic remainder is the rim's angular mean continued as
    # m(r) = m(R) (R/r)^(n+alpha+1), integrating to mean * |S| R^n / (alpha+1)
    from .special import sphere_area

    dirs, wd = sphere_rule(F.n, 32)
    rim, _ = frac_divergence_batch(F, alpha, R * dirs, inner)
    mean_rim = float(np.sum(rim * wd)) / sphere_area(F.n)
    corr = mean_rim * sphere_area(F.n) * R**F.n / (alpha + 1.0)
    params = {"alpha": alpha, "n": F.n, "R": R, "F": F.cache_token,
              "tail_correction": corr}
    return _report(name, params, val + corr, 0.0, est + 0.2 * abs(corr),
                   policy, t0, scale=1.0)


def check_div_relation(F: VectorField, phi: ScalarField, alpha: float,
                       cfg: QuadratureConfig,
                       policy: Optional[TolerancePolicy] = None,
                       name: str = "div_relation") -> VerifyReport:
    """int F . grad^a phi == int (I_{1-a} F) . grad phi (two pipelines)."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-6, rel_tol=1e-2, est_factor=0.0)
    n = F.n

    def lhs_fn(pts):
        gv, ge = frac_gradient_batch(phi, alpha, pts, cfg)
        fv = F(pts)
        return _inner(fv, gv), ge * np.sqrt(_inner(fv))

    lhs, est_l = polar_integral(lhs_fn, n, _support(F), cfg)
    comps = [riesz_potential_field(F.component(k), 1.0 - alpha, cfg) for k in range(n)]

    def rhs_fn(pts):
        if phi.grad_fn is not None:
            gp = phi.gradient(pts)
        else:
            h = 1e-6
            gp = np.stack(
                [(phi(pts + h * np.eye(n)[k]) - phi(pts - h * np.eye(n)[k])) / (2 * h)
                 for k in range(n)],
                axis=-1,
            )
        acc = np.zeros(pts.shape[0])
        ests = np.zeros(pts.shape[0])
        for k in range(n):
            v, e = riesz_potential_batch(F.component(k), 1.0 - alpha, pts, cfg)
            acc += v * gp[..., k]
            ests += e * np.abs(gp[..., k])
        return acc, ests

    rhs, est_r = polar_integral(rhs_fn, n, _support(phi), cfg)
    params = {"alpha": alpha, "n": n, "F": F.cache_token, "phi": phi.cache_token}
    return _report(name, params, lhs, rhs, est_l + est_r, policy, t0,
                   scale=max(abs(lhs), abs(rhs), 1e-6))


# ---------------------------------------------------------------------------
# spectral identity checks

def _mean_free(pf: PeriodicField) -> PeriodicField:
    """The field minus its mean: the symbols drop the zero mode either way,
    so this changes the result only at roundoff and raises no mean-bias
    warning."""
    return PeriodicField(pf.grid, pf.data - pf.mean())


def check_semigroup_spectral(cfg: QuadratureConfig,
                             policy: Optional[TolerancePolicy] = None,
                             name: str = "semigroup_spectral") -> VerifyReport:
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    pf = _mean_free(embed(gaussian((0.0, 0.0)), 16.0, 1024))
    a = spectral_riesz_potential(spectral_riesz_potential(pf, 0.4), 0.3)
    b = spectral_riesz_potential(pf, 0.7)
    diff = float(np.max(np.abs(a.data - b.data)))
    return _report(name, {"orders": [0.3, 0.4], "grid": "16/1024"},
                   diff, 0.0, 0.0, policy, t0, scale=1.0)


def check_semigroup_direct(cfg: QuadratureConfig,
                           policy: Optional[TolerancePolicy] = None,
                           name: str = "semigroup_direct") -> VerifyReport:
    """I_0.3 (I_0.4 f) == I_0.7 f at sample points by nested direct quadrature."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    G = gaussian((0.0, 0.0))
    X = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.9], [-1.3, 0.0], [1.0, 1.0]])
    inner = riesz_potential_field(G, 0.4, cfg)
    lhs, e1 = riesz_potential_batch(inner, 0.3, X, cfg)
    rhs, e2 = riesz_potential_batch(G, 0.7, X, cfg)
    worst = int(np.argmax(np.abs(lhs - rhs)))
    params = {"orders": [0.3, 0.4], "points": X.shape[0]}
    return _report(name, params, float(lhs[worst]), float(rhs[worst]),
                   float(np.max(e1 + e2)), policy, t0, scale=1.0)


def check_symbol_factorization(cfg: QuadratureConfig,
                               policy: Optional[TolerancePolicy] = None,
                               name: str = "symbol_factorization") -> VerifyReport:
    """Spectral grad^a f == spectral gradient of I_{1-a} f at roundoff."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    pf = _mean_free(embed(gaussian((0.0, 0.0)), 16.0, 512))
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        a = spectral_frac_gradient(pf, alpha)
        b = spectral_frac_gradient(spectral_riesz_potential(pf, 1.0 - alpha), 1.0)
        worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    return _report(name, {"alphas": [0.1, 0.5, 0.9]}, worst, 0.0, 0.0,
                   policy, t0, scale=1.0)


def check_riesz_square(cfg: QuadratureConfig,
                       policy: Optional[TolerancePolicy] = None,
                       name: str = "riesz_square") -> VerifyReport:
    """sum_i R_i^2 == -Id on mean-zero band-limited fields (spectral)."""
    from .spectral import random_band_limited

    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    grid = GridSpec((-8.0, -8.0), (8.0, 8.0), (128, 128), periodic=True)
    f = random_band_limited(grid, 6, seed=7)
    R = spectral_riesz_transform(f)
    acc = np.zeros_like(f.data)
    for j in range(2):
        acc += spectral_riesz_transform(PeriodicField(grid, R.data[j])).data[j]
    diff = float(np.max(np.abs(acc + f.data)))
    return _report(name, {"grid": "16/128", "kmax": 6}, diff, 0.0, 0.0,
                   policy, t0, scale=1.0)


def check_cross_engine(cfg: QuadratureConfig, seed: int = 0,
                       policy: Optional[TolerancePolicy] = None,
                       name: str = "cross_engine") -> VerifyReport:
    """Master oracle contract: direct vs spectral on a Gaussian point suite."""
    t0 = time.time()
    policy = policy or TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    rng = np.random.default_rng(seed)
    G = gaussian((0.0, 0.0))
    angles = rng.uniform(0, 2 * math.pi, 10)
    raddi = rng.uniform(0.3, 1.2, 10)
    X = np.stack([raddi * np.cos(angles), raddi * np.sin(angles)], axis=-1)
    worst = 0.0
    est_max = 0.0
    for alpha in (0.3, 0.5, 0.7):
        gpf = spectral_gradient_of(G, alpha, 16.0, 1024)
        sv = gpf.sample_linear(X)
        dv, de = frac_gradient_batch(G, alpha, X, cfg)
        rel = np.sqrt(_dist2(sv, dv)) / np.maximum(
            np.sqrt(_inner(dv)), 1e-6
        )
        worst = max(worst, float(np.max(rel)))
        est_max = max(est_max, float(np.max(de)))
    params = {"alphas": [0.3, 0.5, 0.7], "points": 10, "seed": seed}
    return _report(name, params, worst, 0.0, 3.0 * est_max, policy, t0,
                   scale=1.0, notes="max relative disagreement across ops/points")


def convergence_sweep_spectral(levels: Sequence[int] = (32, 64, 128, 256),
                               alpha: float = 0.5) -> list[dict]:
    """Spectral self-convergence on a narrow Gaussian; rows per level."""
    G = gaussian((0.0, 0.0), width=1.1)
    L = 16.0
    finest = max(levels)
    ref = spectral_frac_gradient(embed(G, L, finest), alpha)
    rows = []
    for N in levels:
        out = spectral_frac_gradient(embed(G, L, N), alpha)
        stride = finest // N
        sub = ref.data[:, ::stride, ::stride]
        err = float(np.max(np.abs(out.data - sub))) if N != finest else 0.0
        rows.append({"level": int(math.log2(N)), "h": L / N,
                     "value": float(out.data[0, N // 2 + N // 8, N // 2]),
                     "err_vs_finest": err})
    _attach_orders(rows)
    return rows


def convergence_sweep_direct(levels: int = 4, alpha: float = 0.5) -> list[dict]:
    """Direct-engine self-convergence by doubling every node count."""
    G = gaussian((0.0, 0.0))
    X = np.array([[0.5, 0.0], [0.2, 0.3], [-0.7, 0.4], [0.0, 1.1], [1.2, -0.2]])
    cfgs = []
    for i in range(levels):
        s = 2**i
        cfgs.append(QuadratureConfig(
            near_radial_nodes=3 * s, near_angular_nodes=4 * s,
            mid_angular_nodes=6 * s, mid_panel_nodes=2 * s,
        ))
    vals = [frac_gradient_batch(G, alpha, X, c)[0] for c in cfgs]
    ref = vals[-1]
    rows = []
    for i, v in enumerate(vals):
        err = float(np.max(np.abs(v - ref))) if i != levels - 1 else 0.0
        rows.append({"level": i, "h": 1.0 / 2**i, "value": float(v[0, 0]),
                     "err_vs_finest": err})
    _attach_orders(rows)
    return rows


def _attach_orders(rows: list[dict]) -> None:
    for i, row in enumerate(rows):
        if i + 1 < len(rows) and rows[i + 1]["err_vs_finest"] > 0 and row["err_vs_finest"] > 0:
            row["observed_order"] = math.log2(row["err_vs_finest"] / rows[i + 1]["err_vs_finest"])
        else:
            row["observed_order"] = float("nan")


def fitted_order(rows: list[dict], noise_floor: float = 1e-12) -> float:
    """Max observed order over transitions above the noise floor."""
    orders = [r["observed_order"] for r in rows
              if not math.isnan(r.get("observed_order", math.nan))
              and r["err_vs_finest"] > noise_floor]
    return max(orders) if orders else float("nan")


def check_convergence_orders(cfg: QuadratureConfig,
                             policy: Optional[TolerancePolicy] = None,
                             name: str = "convergence_orders") -> VerifyReport:
    t0 = time.time()
    rows_s = convergence_sweep_spectral()
    rows_d = convergence_sweep_direct()
    o_s = fitted_order(rows_s)
    o_d = fitted_order(rows_d)
    passed = (o_s >= 4.0) and (o_d >= 1.8)
    return VerifyReport(
        name=name,
        params={"spectral_levels": [r["level"] for r in rows_s],
                "direct_levels": [r["level"] for r in rows_d]},
        lhs=float(o_s),
        rhs=float(o_d),
        abs_err=0.0,
        rel_err=0.0,
        est_err=0.0,
        passed=bool(passed),
        seconds=time.time() - t0,
        branch="orders",
        notes=f"spectral order {o_s:.2f} (>=4), direct order {o_d:.2f} (>=1.8)",
    )


# ---------------------------------------------------------------------------
# default suite

def default_suite_registry(cfg: QuadratureConfig, seed: int = 0) -> dict[str, Callable[[], VerifyReport]]:
    """Named thunks for the standard verification battery (n = 2)."""
    y = np.array([0.0, 0.0])
    z = np.array([1.0, 0.0])
    xi = gaussian((0.4, 0.2))
    g = gaussian((0.0, 0.0))
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    rng = np.random.default_rng(seed)
    pts10 = rng.uniform(-0.9, 0.9, size=(10, 2))

    reg: dict[str, Callable[[], VerifyReport]] = {}
    for a in (0.3, 0.5, 0.7):
        reg[f"duality_delta_pair_a{a}"] = (
            lambda a=a: check_duality(make_delta_pair(y, z, a), xi, a, cfg,
                                      name=f"duality_delta_pair_a{a}")
        )
    nu = RadonMeasure(n=2, atom_points=np.array([[-1.2, -0.3], [0.4, 0.8], [-0.1, -1.0]]),
                      atom_weights=np.array([0.7, -0.4, 1.1]))
    reg["duality_convolved"] = lambda: check_duality(
        make_convolved(nu, 0.6), gaussian((0.2, 0.0), width=1.2), 0.6, cfg,
        name="duality_convolved")
    reg["duality_smooth_spectral"] = lambda: check_duality(
        F, xi, 0.5, cfg, name="duality_smooth_spectral")
    reg["leibniz_pointwise"] = lambda: check_leibniz_pointwise(g, F, 0.5, pts10, cfg)
    reg["leibniz_zero_mass"] = lambda: check_zero_mass_nl(g, F, 0.5, cfg)
    reg["leibniz_global_ibp"] = lambda: check_global_ibp(g, F, 0.5, cfg)
    reg["leibniz_l1_bound"] = lambda: check_nl_l1_bound(g, F, 0.5, 2.0, cfg)
    for r in (0.8, 1.0, 1.3):
        reg[f"ball_ibp_r{r}"] = (
            lambda r=r: check_ball_ibp(F, xi, np.zeros(2), r, 0.5, cfg,
                                       name=f"ball_ibp_r{r}")
        )
    reg["mollification"] = lambda: check_mollification(
        make_delta_pair(y, z, 0.5), 0.3,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.15, -0.2], [2.0, 1.5]]),
        cfg)
    reg["decay_smooth_pinf"] = lambda: decay_scan(
        F, 0.5, math.inf, (0.3, 0.2), np.geomspace(0.1, 0.8, 6), cfg,
        expect="floor", name="decay_smooth_pinf")
    reg["decay_pole_flat"] = lambda: decay_scan(
        make_delta_pair(y, z, 0.5), 0.5, 1.2, y,
        np.geomspace(0.02, 0.4, 6), cfg, expect="flat", name="decay_pole_flat")
    reg["cantor_scaling"] = lambda: decay_scan(
        cantor_measure(10, 1), 0.5, 1.0, (0.0,), 3.0 ** -np.arange(0, 10), cfg,
        expect="exponent", target=math.log(2.0) / math.log(3.0),
        name="cantor_scaling")
    reg["zero_total"] = lambda: check_zero_total(F, 0.6, cfg)
    reg["div_relation"] = lambda: check_div_relation(F, xi, 0.5, cfg)
    reg["semigroup_spectral"] = lambda: check_semigroup_spectral(cfg)
    reg["semigroup_direct"] = lambda: check_semigroup_direct(cfg)
    reg["symbol_factorization"] = lambda: check_symbol_factorization(cfg)
    reg["riesz_square"] = lambda: check_riesz_square(cfg)
    reg["cross_engine"] = lambda: check_cross_engine(cfg, seed=seed)
    reg["convergence_orders"] = lambda: check_convergence_orders(cfg)
    return reg


def run_suite(cfg: Optional[QuadratureConfig] = None, seed: int = 0,
              jobs: int = 1, names: Optional[Sequence[str]] = None) -> list[VerifyReport]:
    """Run the default battery (optionally filtered by name substring)."""
    cfg = cfg or QuadratureConfig()
    reg = default_suite_registry(cfg, seed=seed)
    selected = {
        k: v for k, v in reg.items()
        if names is None or any(s in k for s in names)
    }
    if not selected:
        raise ConfigError(f"no checks match the filter {names!r}")
    if jobs <= 1:
        reports = [thunk() for thunk in selected.values()]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(lambda kv: kv[1](), selected.items()))
    return sorted(reports, key=lambda r: r.name)
