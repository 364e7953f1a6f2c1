"""Executable checks for the nonlocal calculus identities.

Each check computes a left and right side by quadrature (direct singular
integrals, the spectral engine, or exact atom arithmetic), assembles a
VerifyReport, and decides pass/fail through one centralized tolerance policy:

    pass  iff  abs_err <= max(abs_tol, rel_tol * scale, est_factor * est)

with the binding branch recorded; nothing re-decides a report after its check
returns. An identity's abs_err is |lhs - rhs|. An inequality's is its signed
gap, negative by its margin inside the bound: lhs - rhs for the L1 bound,
floor - slope for the decay floor, and the larger shortfall of the two
orders below their floors for the convergence check. Ground-truth right
sides over atoms are exact arithmetic; quadrature appears on left sides
only, so the error accounting is one-sided. All randomness is seeded; node
layouts are fixed; pass flags are reproducible bit for bit for a given
configuration. Ball and polar integrals take their nodes and weights from
the shared polar rule of `quadrature` and only sum the integrand over them.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .analytic import (
    cantor_measure,
    duality_pairing,
    grad_chi_ball_profile,
    make_convolved,
    make_delta_pair,
    mollified_pole_field,
    nl_gradient_ball,
    spectral_gradient_of,
)
from .errors import ConfigError, DomainError
from .fields import GridSpec, ScalarField, VectorField, _dist2, _inner, gaussian, gaussian_vector, mollifier, scalar_times_vector
from .measures import RadonMeasure, measure_ball_mass
from .norms import besov_seminorm, lp_norm
from .quadrature import (
    QuadratureConfig,
    _ball_radial_rule,
    _polar_rule,
    frac_divergence_batch,
    frac_gradient_batch,
    nl_divergence_batch,
    panel_radial_rule,
    riesz_potential_batch,
    singular_radial_rule,
    sphere_rule,
)
from .special import FracParams, _gauss, mu_const, riesz_potential_const, sphere_area
from .spectral import (
    _BOX,
    _NODES,
    PeriodicField,
    _cached_frac_derivative,
    _fan_out,
    embed,
    random_band_limited,
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


@dataclass(frozen=True)
class VerifyReport:
    """A check's verdict; `seconds` is 0.0 unless the suite registry timed it."""
    name: str
    params: dict
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    est_err: float
    passed: bool
    seconds: float = 0.0
    branch: str = ""
    notes: str = ""

    def to_json_line(self) -> str:
        rec = asdict(self)
        rec["pass"] = rec.pop("passed")
        rec["seconds"] = round(self.seconds, 4)
        return json.dumps(rec, sort_keys=True)


def _report(name, params, lhs, rhs, est, policy, scale, notes="", gap=None) -> VerifyReport:
    """The report that policy decides on abs_err: |lhs - rhs|, or the signed
    gap an inequality passes as `gap`."""
    abs_err = abs(lhs - rhs) if gap is None else gap
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
        branch=branch,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# shared quadrature helpers

def _fine_coarse(c: Array, rule, cfg: QuadratureConfig) -> tuple[float, float]:
    """A polar integral around c at the levels cfg and cfg.coarsened(), in
    that order. rule(q) builds a level from its config q alone: the integrand
    fn (points -> values, estimates), the radii, their weights and the
    angular node count; the Jacobian r^(n-1) is added here. Returns the fine
    value and the estimate |fine - coarse| + the fine level's summed
    estimates."""
    n = c.shape[0]

    def level(q):
        fn, r, w_r, m_ang = rule(q)
        _, disp, w = _polar_rule(n, r, w_r, m_ang, n - 1)
        vals, ests = fn((c[:, None, None] + disp).reshape(n, -1).T)
        return float(np.sum(vals.reshape(w.shape) * w)), float(np.sum(ests.reshape(w.shape) * w))

    (v_f, e_f), (v_c, _) = level(cfg), level(cfg.coarsened())
    return v_f, abs(v_f - v_c) + e_f


def polar_integral(fn_batch: Callable[[Array], tuple[Array, Array]], n: int,
                   R: float, cfg: QuadratureConfig) -> tuple[float, float]:
    """Integral over B_R(0) of a smooth decaying integrand.

    fn_batch maps points (m, n) to (values (m,), error estimates (m,)).
    Returns (value, est): est combines per-point estimates with a coarse
    angular/radial Richardson delta.
    """
    return _fine_coarse(np.zeros(n), lambda q: (
        fn_batch, *_ball_radial_rule(R / 64.0, R, q.mid_panel_growth, q.mid_panel_nodes),
        q.mid_angular_nodes), cfg)


def _pairing(F: VectorField, xi: ScalarField, alpha: float, cfg: QuadratureConfig):
    """Integrand F . grad^a xi with estimate |F| times grad^a xi's estimate."""
    def fn(pts):
        gv, ge = frac_gradient_batch(xi, alpha, pts, cfg)
        fv = F(pts)
        return _inner(fv, gv), ge * np.sqrt(_inner(fv))
    return fn


def _pairing_report(name, params, F: VectorField, phi: ScalarField, alpha: float,
                    rhs_fn, policy, cfg: QuadratureConfig) -> VerifyReport:
    """Report on int F . grad^a phi dx == - int rhs_fn dx, the right side
    integrated over phi's support."""
    lhs, est_l = polar_integral(_pairing(F, phi, alpha, cfg), F.n, _support(F), cfg)
    rhs_int, est_r = polar_integral(rhs_fn, F.n, _support(phi), cfg)
    rhs = -rhs_int
    return _report(name, params, lhs, rhs, est_l + est_r, policy,
                   scale=max(abs(lhs), abs(rhs), 1e-6))


def _density_pairing(F: VectorField, xi: ScalarField, alpha: float):
    """Integrand xi times the spectral divergence density of F, with a fixed
    1e-6 estimate."""
    dens = spectral_divergence_of(F, alpha)

    def fn(pts):
        return xi(pts) * dens.sample_linear(pts), np.full(pts.shape[0], 1e-6)
    return fn


def _refined(cfg: QuadratureConfig) -> QuadratureConfig:
    """Inner rule for area-integrated values, which amplify per-point bias."""
    return replace(cfg, near_radial_nodes=max(16, cfg.near_radial_nodes),
                   near_angular_nodes=max(24, cfg.near_angular_nodes),
                   mid_panel_nodes=max(10, cfg.mid_panel_nodes),
                   mid_angular_nodes=max(48, cfg.mid_angular_nodes))


def _support(*fields, default: float = 8.0) -> float:
    """The largest support radius the fields declare, else default."""
    radii = [f.support_radius for f in fields if f.support_radius is not None]
    return max(radii) if radii else default


def spectral_divergence_of(F: VectorField, alpha: float) -> PeriodicField:
    """Cached spectral fractional divergence of a smooth compact field
    (_BOX-wide box, _NODES^n nodes)."""
    return _cached_frac_derivative(F, float(alpha), _NODES)


# ---------------------------------------------------------------------------
# duality checks

def check_duality(F, xi: ScalarField, alpha: float, cfg: QuadratureConfig) -> VerifyReport:
    """int F . grad^a xi dx  ==  - int xi d(div^a F).

    F is either an analytic pole field carrying its ground-truth measure, or
    a smooth VectorField (right side from the spectral divergence density).
    """
    policy = TolerancePolicy(rel_tol=1e-2)
    if hasattr(F, "measure"):  # analytic pole field
        lhs, est = duality_pairing(F, xi, cfg)
        mu = F.measure
        rhs = -float(np.sum(mu.atom_weights * xi(mu.atom_points)))
        return _report("duality", {"alpha": F.alpha, "n": F.n}, lhs, rhs, est, policy,
                       scale=max(abs(rhs), 1e-6))
    return _pairing_report("duality", {"alpha": alpha, "n": F.n}, F, xi, alpha,
                           _density_pairing(F, xi, alpha), policy, cfg)


# ---------------------------------------------------------------------------
# Leibniz rule family

def check_leibniz_pointwise(g: ScalarField, F: VectorField, alpha: float,
                            points, cfg: QuadratureConfig) -> VerifyReport:
    """Pointwise residual of div^a(gF) = g div^a F + F.grad^a g + div^a_NL(g,F).

    Each linear term is also cross-checked against the spectral engine; the
    bilinear term is compared with the spectral residual of the other three.
    """
    policy = TolerancePolicy(abs_tol=0.0, est_factor=5.0)
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
    sp_grad = spectral_gradient_of(g, alpha).sample_linear(X)
    sp_nl = sp_prod - gX * sp_div - _inner(FX, sp_grad)
    cross = max(
        float(np.max(np.abs(sp_prod - t_prod))),
        float(np.max(np.abs(sp_div - t_div))),
        float(np.max(np.abs(sp_grad - t_grad))),
        float(np.max(np.abs(sp_nl - t_nl))),
    )
    params = {"alpha": alpha, "n": g.n, "points": len(X)}
    return _report("leibniz_pointwise", params, lhs, 0.0, est, policy,
                   scale=float(np.max(np.abs(t_prod))) + 1e-30,
                   notes=f"max spectral cross-term deviation {cross:.3e}")


def check_zero_mass_nl(g: ScalarField, F: VectorField, alpha: float,
                       cfg: QuadratureConfig) -> VerifyReport:
    """int div^a_NL(g, F) dx == 0 over an expanding ball with decay tail."""
    policy = TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    n = g.n
    R = _support(g, F) + 18.0
    inner = _refined(cfg)

    def fn(pts):
        return nl_divergence_batch(g, F, alpha, pts, inner)

    val, est = polar_integral(fn, n, R, cfg)
    return _report("leibniz_zero_mass", {"alpha": alpha, "n": n, "R": R}, val, 0.0, est, policy,
                   scale=1.0)


def check_global_ibp(g: ScalarField, F: VectorField, alpha: float,
                     cfg: QuadratureConfig) -> VerifyReport:
    """int F . grad^a g dx == - int g d(div^a F) for smooth fields."""
    policy = TolerancePolicy(abs_tol=1e-6, rel_tol=1e-3, est_factor=0.0)

    def rhs_fn(pts):
        dv, de = frac_divergence_batch(F, alpha, pts, cfg)
        gv = g(pts)
        return gv * dv, np.abs(gv) * de

    return _pairing_report("leibniz_global_ibp", {"alpha": alpha, "n": g.n}, F, g, alpha,
                           rhs_fn, policy, cfg)


def check_nl_l1_bound(g: ScalarField, F: VectorField, alpha: float, p: float,
                      cfg: QuadratureConfig) -> VerifyReport:
    """||div^a_NL(g,F)||_L1 <= mu(n,a) [g]_{B^a_{q,1}} ||F||_Lp.

    The report's lhs/rhs are the two sides; pass iff lhs - rhs <= 0.02 rhs,
    that is, the ratio is at most 1.02. The stated constant is asserted; the
    proof-side constant 2 mu is a known caveat recorded in the notes.
    """
    n = g.n
    q = FracParams(alpha, n, p).q
    if math.isinf(q):
        raise ConfigError("the L1 bound check needs q < inf (p > 1)")
    R = _support(g, F) + 10.0

    def fn(pts):
        v, e = nl_divergence_batch(g, F, alpha, pts, cfg)
        return np.abs(v), e

    lhs, est = polar_integral(fn, n, R, cfg)
    # analytic continuation of the |x|^-(n+alpha) tail from a measured ring
    dirs, _ = sphere_rule(n, 16)
    ring, _ = nl_divergence_batch(g, F, alpha, R * dirs, cfg)
    c_ring = float(np.mean(np.abs(ring))) * R ** (n + alpha)
    tail = c_ring * sphere_area(n) * R ** (-alpha) / alpha
    lhs += tail
    S = _support(g, F)
    dom = GridSpec((-S,) * n, (S,) * n, (192,) * n) if n <= 2 else GridSpec((-S,) * 3, (S,) * 3, (48,) * 3)
    rhs = mu_const(n, alpha) * besov_seminorm(g, alpha, q, cfg) * lp_norm(F, p, dom)
    ratio = lhs / rhs if rhs > 0 else math.inf
    params = {"alpha": alpha, "n": n, "p": p, "q": q}
    return _report("leibniz_l1_bound", params, lhs, rhs, est + 0.2 * tail,
                   TolerancePolicy(abs_tol=0.0, rel_tol=0.02, est_factor=0.0), scale=rhs,
                   notes=f"ratio {ratio:.4f}; stated constant asserted, proof-side "
                         f"constant 2*mu would double the right side", gap=lhs - rhs)


# ---------------------------------------------------------------------------
# ball integration by parts

def check_ball_ibp(F: VectorField, xi: ScalarField, x0, r: float, alpha: float,
                   cfg: QuadratureConfig) -> VerifyReport:
    """Four-term balance on a ball:

    int_{B_r} F.grad^a xi + int xi F.grad^a chi_B + int F.gradNL^a(chi_B, xi)
        == - int_{B_r} xi d(div^a F).
    """
    policy = TolerancePolicy(abs_tol=1e-4, rel_tol=1e-2, est_factor=0.0)
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]

    # term 1: over the ball
    t1, e1 = _ball_polar_integral(_pairing(F, xi, alpha, cfg), x0, r, cfg)

    # term 2: radial profile of grad chi against the angular average of xi F . w
    t2, e2 = _term2_sphere_gradient(F, xi, x0, r, alpha, cfg)

    # term 3: nonlocal gradient of the (indicator, xi) couple
    t3, e3 = _term3_nl_integral(F, xi, x0, r, alpha, cfg)

    # right side: spectral divergence density over the ball
    t4_int, e4 = _ball_polar_integral(_density_pairing(F, xi, alpha), x0, r, cfg)
    rhs = -t4_int
    lhs = t1 + t2 + t3
    est = e1 + e2 + e3 + e4
    scale = max(abs(t1), abs(t2), abs(t3), abs(rhs), 1e-6)
    params = {"alpha": alpha, "n": n, "r": r, "x0": tuple(x0.tolist()),
              "terms": [round(t1, 6), round(t2, 6), round(t3, 6), round(rhs, 6)]}
    return _report("ball_ibp", params, lhs, rhs, est, policy, scale=scale)


def _ball_polar_integral(fn_batch, x0, r, cfg) -> tuple[float, float]:
    """Integral over B_r(x0) with Gauss-Legendre radii on [0, r]."""
    return _fine_coarse(x0, lambda q: (
        fn_batch, *_gauss(0.0, r, 4 * q.mid_panel_nodes), q.mid_angular_nodes), cfg)


def _sphere_radii(r, R_out, alpha, m, q) -> tuple[Array, Array]:
    """Radii across the sphere rho = r, out to R_out: the u-substitution rule
    of m nodes in s = |rho - r| on each side (inside up to r, outside up to
    s0 = min(r, 1)), then geometric panels from r + s0. The singular rules
    integrate S(s) s^(-alpha); their weights take s^alpha back, so the
    radii integrate a function of rho."""
    s0 = min(r, 1.0)
    s_in, w_in = singular_radial_rule(r, -alpha, m)
    s_on, w_on = singular_radial_rule(s0, -alpha, m)
    rho_of, w_of = panel_radial_rule(r + s0, R_out, q.mid_panel_growth, q.mid_panel_nodes)
    return (np.concatenate([r - s_in, r + s_on, rho_of]),
            np.concatenate([w_in * s_in**alpha, w_on * s_on**alpha, w_of]))


def _term3_nl_integral(F, xi, x0, r, alpha, cfg) -> tuple[float, float]:
    """int F . gradNL^a(chi_{B_r(x0)}, xi): the integrand is bounded but only
    Hoelder-(1 - alpha) across the sphere. It takes twice term 2's nodes a
    side; at term 2's count the fine-coarse estimate can undercut the error."""
    R_out = _support(F) + float(np.linalg.norm(x0)) + 1.0

    def rule(q):
        def fn(pts):
            nl = nl_gradient_ball(x0, r, xi, alpha, pts, q)
            return _inner(F(pts), nl), np.zeros(pts.shape[0])
        return (fn, *_sphere_radii(r, R_out, alpha, 4 * q.near_radial_nodes, q),
                q.mid_angular_nodes)

    return _fine_coarse(x0, rule, cfg)


def _term2_sphere_gradient(F, xi, x0, r, alpha, cfg) -> tuple[float, float]:
    """int xi F . grad^a chi_{B_r(x0)} via the radial profile g(rho):
    grad^a chi(x0 + rho omega) = g(rho) omega, singular like |rho - r|^(-alpha)."""
    n = x0.shape[0]
    R_out = _support(xi) + float(np.linalg.norm(x0)) + 1.0

    def rule(q):
        rhos, w_r = _sphere_radii(r, R_out, alpha, 2 * q.near_radial_nodes, q)
        dirs, _ = sphere_rule(n, q.mid_angular_nodes)
        g = grad_chi_ball_profile(r, alpha, n, rhos, 8 * q.mid_angular_nodes)
        grad_chi = (g[:, None, None] * dirs[None]).reshape(-1, n)

        def fn(pts):
            return xi(pts) * _inner(F(pts), grad_chi), np.zeros(pts.shape[0])
        return fn, rhos, w_r, q.mid_angular_nodes

    return _fine_coarse(x0, rule, cfg)


# ---------------------------------------------------------------------------
# mollification, decay, totals

def check_mollification(pole_field, eps: float, points, cfg: QuadratureConfig) -> VerifyReport:
    """div^a (rho_eps * F) matches rho_eps * (div^a F) pointwise.

    For pole fields the right side is exact atom arithmetic:
    sum_i w_i rho_eps(x - p_i).
    """
    X = np.asarray(points, dtype=float)
    n = X.shape[1]
    rho = mollifier(eps, n)
    scale = rho((0.0,) * n)
    policy = TolerancePolicy(abs_tol=0.02 * scale, est_factor=0.0)
    F_eps = mollified_pole_field(pole_field, eps)
    vals, ests = frac_divergence_batch(F_eps, pole_field.alpha, X, cfg)
    mu = pole_field.measure
    rhs = np.zeros(len(X))
    for pt, w in zip(mu.atom_points, mu.atom_weights):
        rhs += w * rho(X - pt[None, :])
    worst = int(np.argmax(np.abs(vals - rhs)))
    params = {"alpha": pole_field.alpha, "n": n, "eps": eps, "points": len(X),
              "scale": scale}
    return _report("mollification", params, float(vals[worst]), float(rhs[worst]),
                   float(np.max(ests)), policy, scale=scale)


def decay_scan(source, alpha: float, p: float, center, radii, expect: str = "floor",
               target: Optional[float] = None) -> VerifyReport:
    """Log-log slope of r -> |div^a F|(B_r(center)) against the n/q - alpha floor.

    source: a smooth VectorField on R^1 or R^2 (density created spectrally), an
    analytic pole field (atom masses, exact), or a RadonMeasure scanned directly.
    expect: "floor" asserts slope >= n/q - alpha - 0.1; "flat" asserts
    |slope| <= 0.05 (the no-absolute-continuity regime); "exponent" asserts
    |slope - target| <= 0.05 (self-similar measures). params["masses"] holds
    the ball masses the slope is fitted to. Another `expect`, a missing
    target, fewer than 3 distinct positive radii or a center of another
    dimension than the source raise ConfigError before anything is computed.

    A remark, not a computation: the same ball-mass bound forces a
    nonnegative divergence measure to vanish identically in the subcritical
    range (the exponent is negative, so letting r grow kills the total mass);
    that rigidity is a pure consequence and is not exercised numerically.
    """
    if expect not in ("floor", "flat", "exponent"):
        raise ConfigError(f"expect must be 'floor', 'flat' or 'exponent', got {expect!r}")
    if expect == "exponent" and target is None:
        raise ConfigError("expect='exponent' needs a target slope")
    radii = np.asarray(radii, dtype=float)
    if not (radii.ndim == 1 and radii.size >= 3 and np.all(radii > 0)
            and np.unique(np.log(radii)).size == radii.size):  # distinct logs: finite slopes
        raise ConfigError(f"radii must hold at least 3 distinct positive radii, got {radii}")
    c = np.asarray(center, dtype=float)
    if c.shape != (source.n,):
        raise ConfigError(f"center must have the source's {source.n} coordinates, got {center!r}")
    n = c.shape[0]
    floor = FracParams(alpha, n, p).decay_exponent_floor()
    if isinstance(source, RadonMeasure):
        meas = source.abs()
    elif hasattr(source, "measure"):
        meas = source.measure.abs()
    elif source.n == 3:  # its _NODES^3 box would need tens of GB
        raise DomainError("a smooth decay source must lie in R^1 or R^2, got R^3")
    else:
        dens = spectral_divergence_of(source, alpha)
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
    rhs = {"flat": 0.0, "exponent": target, "floor": floor}[expect]
    params = {"alpha": alpha, "n": n, "p": p, "center": tuple(c.tolist()),
              "radii": [float(r) for r in radii], "expect": expect,
              "floor": floor, "masses": [float(m) for m in masses]}
    return _report("decay_scan", params, slope, rhs, 0.0,
                   TolerancePolicy(abs_tol=0.1 if expect == "floor" else 0.05, est_factor=0.0),
                   scale=max(abs(floor), 1.0),
                   notes=f"fitted slope {slope:.4f}; theoretical floor {floor:.4f}",
                   gap=floor - slope if expect == "floor" else None)


def check_zero_total(F: VectorField, alpha: float, cfg: QuadratureConfig) -> VerifyReport:
    """div^a F (R^n) == 0 for compact smooth fields in the subcritical range,
    integrated over the ball of radius R = 12 plus a rim-fitted tail."""
    R = 12.0
    policy = TolerancePolicy(abs_tol=2e-3, est_factor=0.0)
    inner = _refined(cfg)

    def fn(pts):
        return frac_divergence_batch(F, alpha, pts, inner)

    val, est = polar_integral(fn, F.n, R, cfg)
    # tail correction: the monopole far term integrates to zero over full
    # annuli; the isotropic remainder is the rim's angular mean continued as
    # m(r) = m(R) (R/r)^(n+alpha+1), integrating to mean * |S| R^n / (alpha+1)
    dirs, wd = sphere_rule(F.n, 32)
    rim, _ = frac_divergence_batch(F, alpha, R * dirs, inner)
    mean_rim = float(np.sum(rim * wd)) / sphere_area(F.n)
    corr = mean_rim * sphere_area(F.n) * R**F.n / (alpha + 1.0)
    params = {"alpha": alpha, "n": F.n, "R": R, "tail_correction": corr}
    return _report("zero_total", params, val + corr, 0.0, est + 0.2 * abs(corr),
                   policy, scale=1.0)


def check_div_relation(F: VectorField, phi: ScalarField, alpha: float,
                       cfg: QuadratureConfig) -> VerifyReport:
    """int F . grad^a phi == int (I_{1-a} F) . grad phi (two pipelines)."""
    policy = TolerancePolicy(abs_tol=1e-6, rel_tol=1e-2, est_factor=0.0)

    def rhs_fn(pts):  # negated: the helper's right side is - int rhs_fn
        gp = phi.gradient(pts)
        acc = np.zeros(pts.shape[0])
        ests = np.zeros(pts.shape[0])
        for k in range(F.n):
            v, e = riesz_potential_batch(F.component(k), 1.0 - alpha, pts, cfg)
            acc += v * gp[..., k]
            ests += e * np.abs(gp[..., k])
        return -acc, ests

    return _pairing_report("div_relation", {"alpha": alpha, "n": F.n}, F, phi, alpha, rhs_fn,
                           policy, cfg)


# ---------------------------------------------------------------------------
# spectral identity checks

def _mean_free(pf: PeriodicField) -> PeriodicField:
    """The field minus its mean: the symbols drop the zero mode either way,
    so this changes the result only at roundoff and raises no mean-bias
    warning."""
    return PeriodicField(pf.grid, pf.data - pf.mean())


def check_semigroup_spectral() -> VerifyReport:
    policy = TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    pf = _mean_free(embed(gaussian((0.0, 0.0)), _BOX, _NODES))
    a = spectral_riesz_potential(spectral_riesz_potential(pf, 0.4), 0.3)
    b = spectral_riesz_potential(pf, 0.7)
    diff = float(np.max(np.abs(a.data - b.data)))
    return _report("semigroup_spectral", {"orders": [0.3, 0.4], "grid": f"{_BOX:g}/{_NODES}"},
                   diff, 0.0, 0.0, policy, scale=1.0)


def riesz_potential_field(f: ScalarField, beta: float, cfg: QuadratureConfig) -> ScalarField:
    """I_beta f as a ScalarField whose evaluator runs the batched quadrature.

    The decay hint (potential of finite mass) is |I f|(x) <= const * ||f||_1
    * |x|^(beta-n) far out, with ||f||_1 from a quick midpoint estimate over
    the box of half-width `_support(f)`.
    """
    n = f.n
    S = _support(f)
    l1_bound = lp_norm(f, 1.0, GridSpec((-S,) * n, (S,) * n, (128,) * n))
    const = riesz_potential_const(n, beta)

    def fn(pts: Array) -> Array:
        P = pts.reshape(-1, n)
        vals, _ = riesz_potential_batch(f, beta, P, cfg)
        return vals.reshape(pts.shape[:-1])

    return ScalarField(n=n, fn=fn, decay=(1.5 * const * l1_bound, n - beta))


def check_semigroup_direct(cfg: QuadratureConfig) -> VerifyReport:
    """I_0.3 (I_0.4 f) == I_0.7 f at sample points by nested direct quadrature."""
    policy = TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    G = gaussian((0.0, 0.0))
    X = np.array([[0.0, 0.0], [0.4, 0.0], [0.0, 0.9], [-1.3, 0.0], [1.0, 1.0]])
    inner = riesz_potential_field(G, 0.4, cfg)
    lhs, e1 = riesz_potential_batch(inner, 0.3, X, cfg)
    rhs, e2 = riesz_potential_batch(G, 0.7, X, cfg)
    worst = int(np.argmax(np.abs(lhs - rhs)))
    params = {"orders": [0.3, 0.4], "points": X.shape[0]}
    return _report("semigroup_direct", params, float(lhs[worst]), float(rhs[worst]),
                   float(np.max(e1 + e2)), policy, scale=1.0)


def check_symbol_factorization() -> VerifyReport:
    """Spectral grad^a f == spectral gradient of I_{1-a} f at roundoff."""
    policy = TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    pf = _mean_free(embed(gaussian((0.0, 0.0)), _BOX, 512))
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9):
        a = spectral_frac_gradient(pf, alpha)
        b = spectral_frac_gradient(spectral_riesz_potential(pf, 1.0 - alpha), 1.0)
        worst = max(worst, float(np.max(np.abs(a.data - b.data))))
    return _report("symbol_factorization", {"alphas": [0.1, 0.5, 0.9]}, worst, 0.0, 0.0,
                   policy, scale=1.0)


def check_riesz_square() -> VerifyReport:
    """sum_i R_i^2 == -Id on mean-zero band-limited fields (spectral)."""
    policy = TolerancePolicy(abs_tol=1e-10, est_factor=0.0)
    grid = GridSpec((-_BOX / 2.0,) * 2, (_BOX / 2.0,) * 2, (128, 128))
    f = random_band_limited(grid, 6, seed=7)
    R = spectral_riesz_transform(f)
    acc = np.zeros_like(f.data)
    for j in range(2):
        acc += spectral_riesz_transform(PeriodicField(grid, R.data[j])).data[j]
    diff = float(np.max(np.abs(acc + f.data)))
    return _report("riesz_square", {"grid": f"{_BOX:g}/128", "kmax": 6}, diff, 0.0, 0.0,
                   policy, scale=1.0)


def check_cross_engine(cfg: QuadratureConfig, seed: int = 0) -> VerifyReport:
    """Master oracle contract: direct vs spectral on a Gaussian point suite."""
    policy = TolerancePolicy(abs_tol=1e-3, est_factor=0.0)
    rng = np.random.default_rng(seed)
    G = gaussian((0.0, 0.0))
    angles = rng.uniform(0, 2 * math.pi, 10)
    raddi = rng.uniform(0.3, 1.2, 10)
    X = np.stack([raddi * np.cos(angles), raddi * np.sin(angles)], axis=-1)
    worst = 0.0
    est_max = 0.0
    for alpha in (0.3, 0.5, 0.7):
        gpf = spectral_gradient_of(G, alpha)
        sv = gpf.sample_linear(X)
        dv, de = frac_gradient_batch(G, alpha, X, cfg)
        rel = np.sqrt(_dist2(sv, dv)) / np.maximum(
            np.sqrt(_inner(dv)), 1e-6
        )
        worst = max(worst, float(np.max(rel)))
        est_max = max(est_max, float(np.max(de)))
    params = {"alphas": [0.3, 0.5, 0.7], "points": 10, "seed": seed}
    return _report("cross_engine", params, worst, 0.0, 3.0 * est_max, policy,
                   scale=1.0, notes="max relative disagreement across ops/points")


def convergence_sweep_spectral(levels: Sequence[int] = (32, 64, 128, 256),
                               alpha: float = 0.5) -> list[dict]:
    """Spectral self-convergence on a narrow Gaussian; rows per level."""
    G = gaussian((0.0, 0.0), width=1.1)
    L = _BOX
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


def fitted_order(rows: list[dict]) -> float:
    """Max observed order over transitions above the 1e-12 noise floor."""
    orders = [r["observed_order"] for r in rows
              if not math.isnan(r.get("observed_order", math.nan))
              and r["err_vs_finest"] > 1e-12]
    return max(orders) if orders else float("nan")


def check_convergence_orders() -> VerifyReport:
    rows_s = convergence_sweep_spectral()
    rows_d = convergence_sweep_direct()
    o_s = fitted_order(rows_s)
    o_d = fitted_order(rows_d)
    params = {"spectral_levels": [r["level"] for r in rows_s],
              "direct_levels": [r["level"] for r in rows_d]}
    return _report("convergence_orders", params, o_s, o_d, 0.0,
                   TolerancePolicy(abs_tol=0.0, est_factor=0.0), scale=1.0,
                   notes=f"spectral order {o_s:.2f} (>=4), direct order {o_d:.2f} (>=1.8)",
                   gap=np.max([4.0 - o_s, 1.8 - o_d]))  # a NaN order fails


# ---------------------------------------------------------------------------
# default suite

def default_suite_registry(cfg: QuadratureConfig, seed: int = 0) -> dict[str, Callable[[], VerifyReport]]:
    """Named thunks for the standard verification battery (n = 2); each
    report carries its registry key as its name and the wall time of its
    thunk as its seconds."""
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
            lambda a=a: check_duality(make_delta_pair(y, z, a), xi, a, cfg))
    nu = RadonMeasure(n=2, atom_points=np.array([[-1.2, -0.3], [0.4, 0.8], [-0.1, -1.0]]),
                      atom_weights=np.array([0.7, -0.4, 1.1]))
    reg["duality_convolved"] = lambda: check_duality(
        make_convolved(nu, 0.6), gaussian((0.2, 0.0), width=1.2), 0.6, cfg)
    reg["duality_smooth_spectral"] = lambda: check_duality(F, xi, 0.5, cfg)
    reg["leibniz_pointwise"] = lambda: check_leibniz_pointwise(g, F, 0.5, pts10, cfg)
    reg["leibniz_zero_mass"] = lambda: check_zero_mass_nl(g, F, 0.5, cfg)
    reg["leibniz_global_ibp"] = lambda: check_global_ibp(g, F, 0.5, cfg)
    reg["leibniz_l1_bound"] = lambda: check_nl_l1_bound(g, F, 0.5, 2.0, cfg)
    for r in (0.8, 1.0, 1.3):
        reg[f"ball_ibp_r{r}"] = lambda r=r: check_ball_ibp(F, xi, np.zeros(2), r, 0.5, cfg)
    reg["mollification"] = lambda: check_mollification(
        make_delta_pair(y, z, 0.5), 0.3,
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.1], [0.15, -0.2], [2.0, 1.5]]),
        cfg)
    reg["decay_smooth_pinf"] = lambda: decay_scan(
        F, 0.5, math.inf, (0.3, 0.2), np.geomspace(0.1, 0.8, 6), expect="floor")
    reg["decay_pole_flat"] = lambda: decay_scan(
        make_delta_pair(y, z, 0.5), 0.5, 1.2, y, np.geomspace(0.02, 0.4, 6), expect="flat")
    reg["cantor_scaling"] = lambda: decay_scan(
        cantor_measure(10, 1), 0.5, 1.0, (0.0,), 3.0 ** -np.arange(0, 10),
        expect="exponent", target=math.log(2.0) / math.log(3.0))
    reg["zero_total"] = lambda: check_zero_total(F, 0.6, cfg)
    reg["div_relation"] = lambda: check_div_relation(F, xi, 0.5, cfg)
    reg["semigroup_spectral"] = check_semigroup_spectral
    reg["semigroup_direct"] = lambda: check_semigroup_direct(cfg)
    reg["symbol_factorization"] = check_symbol_factorization
    reg["riesz_square"] = check_riesz_square
    reg["cross_engine"] = lambda: check_cross_engine(cfg, seed=seed)
    reg["convergence_orders"] = check_convergence_orders

    def named_and_timed(name, thunk):  # the one clock: inputs built and check run
        t0 = time.perf_counter()
        return replace(thunk(), name=name, seconds=time.perf_counter() - t0)

    return {k: (lambda k=k, thunk=thunk: named_and_timed(k, thunk)) for k, thunk in reg.items()}


def run_suite(cfg: Optional[QuadratureConfig] = None, seed: int = 0,
              jobs: int = 1, names: Optional[Sequence[str]] = None) -> list[VerifyReport]:
    """Run the default battery (optionally filtered by name substring).

    The checks run through `spectral._fan_out` on min(jobs, checks) threads,
    inline at jobs=1. A check on such a thread runs its spectral steps
    inline: parallelism never nests."""
    cfg = cfg or QuadratureConfig()
    reg = default_suite_registry(cfg, seed=seed)
    thunks = [v for k, v in reg.items() if names is None or any(s in k for s in names)]
    if not thunks:
        raise ConfigError(f"no checks match the filter {names!r}")
    reports = _fan_out(lambda i: thunks[i](), len(thunks), jobs)
    return sorted(reports, key=lambda r: r.name)
