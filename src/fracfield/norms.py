"""L^p norms and the translate-modulus Besov seminorm.

lp_norm: composite midpoint over a box domain (chunked so large grids never
materialize), plus an analytic envelope tail when the field carries a decay
hint. p = inf takes the grid max refined by a local shrinking pattern search.

besov_seminorm: integral over the translation vector h of
||g(.+h) - g||_{L^q} / |h|^(n+alpha), in polar form with the same
u = r^(1-alpha) near-field flattening as the operator kernels. For compactly
supported g the far part is exact: once the supports of g and its translate
are disjoint the L^q distance equals 2^(1/q) ||g||_q, so the tail integrates
in closed form and is added to the value.
"""

from __future__ import annotations

import math
from typing import Union

import numpy as np

from .errors import DomainError
from .fields import GridSpec, ScalarField, VectorField, _inner
from .quadrature import QuadratureConfig, _polar_rule, panel_radial_rule, singular_radial_rule
from .special import sphere_area

Array = np.ndarray


def _abs_values(f, pts: Array) -> Array:
    vals = np.asarray(f(pts))
    if isinstance(f, VectorField):
        return np.sqrt(_inner(vals))
    return np.abs(vals)


def lp_norm(f: Union[ScalarField, VectorField], p: float, domain: GridSpec) -> float:
    """||f||_{L^p(domain)} by midpoint quadrature (+ decay tail if hinted),
    64 rows of the first axis at a time."""
    p = float(p)
    if not p >= 1.0:
        raise DomainError(f"p must lie in [1, inf], got {p!r}")
    if math.isinf(p):
        return _sup_norm(f, domain)
    n = domain.n
    vol = domain.cell_volume
    axes = [domain.axis_centers(i) for i in range(n)]
    total = 0.0
    for lo in range(0, domain.counts[0], 64):
        pts = domain._mesh([axes[0][lo : lo + 64]] + axes[1:])
        total += float(np.sum(_abs_values(f, pts) ** p)) * vol
    if f.decay is not None:
        C, s = f.decay
        R = min(min(abs(l) for l in domain.lower), min(abs(u) for u in domain.upper))
        if s * p > n and R > 0:
            total += sphere_area(n) * C**p * R ** (n - s * p) / (s * p - n)
    return total ** (1.0 / p)


def _sup_norm(f, domain: GridSpec) -> float:
    """Grid max plus a derivative-free local refinement around the argmax."""
    n = domain.n
    pts = domain.center_points()
    vals = _abs_values(f, pts)
    at = np.unravel_index(int(np.argmax(vals)), vals.shape)
    best = float(vals[at])
    x = pts[at].copy()
    step = np.array(domain.spacing)
    for _ in range(40):
        offs = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * n, indexing="ij")).reshape(n, -1).T
        cand = x[None, :] + offs * step[None, :]
        cv = _abs_values(f, cand)
        j = int(np.argmax(cv))
        if cv[j] > best:
            best = float(cv[j])
            x = cand[j]
        else:
            step *= 0.5
            if np.max(step) < 1e-12:
                break
    return best


def translate_distance(g: ScalarField, h: Array, q: float,
                       resolution: int) -> float:
    """||g(.+h) - g||_{L^q} by midpoint over a box covering both supports."""
    n = g.n
    S = g.support_radius
    if S is None:
        raise DomainError("translate distance needs a support radius")
    half = S + 0.5 * float(np.linalg.norm(h)) + 1e-6
    center = -0.5 * np.asarray(h, dtype=float)
    lo = center - half
    up = center + half
    grid = GridSpec(tuple(lo), tuple(up), (resolution,) * n)
    pts = grid.center_points()
    diff = np.abs(g(pts + np.asarray(h)) - g(pts))
    return float(np.sum(diff**q) * grid.cell_volume) ** (1.0 / q)


def besov_seminorm(g: ScalarField, alpha: float, q: float,
                   cfg: QuadratureConfig) -> float:
    """Seminorm [g] with inner exponent q and outer exponent 1.

    Requires a compact support hint (decay-hint-only fields are rejected;
    their far part has no closed form here).
    """
    alpha = float(alpha)
    q = float(q)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"Besov order must lie in (0, 1), got {alpha!r}")
    if not 1.0 <= q < math.inf:
        raise DomainError(f"inner exponent must lie in [1, inf), got {q!r}")
    S = g.support_radius
    if S is None:
        raise DomainError("besov_seminorm requires a compact support hint")
    n = g.n
    res = cfg.lq_grid_nodes if n > 1 else max(cfg.lq_grid_nodes, 16384)
    if n == 3:
        res = min(res, 48)

    h_floor = 5.0 * (2.0 * S) / res  # translate grid cannot resolve smaller shifts
    m_ang = cfg.mid_angular_nodes if n > 1 else 2
    # near field: int_0^r0 (phi(r w)/r) r^(-alpha) dr, u-substitution, with
    # shifts below h_floor taken at h_floor
    r0 = min(0.5, 0.5 * S)
    rn, wn = singular_radial_rule(r0, -alpha, cfg.near_radial_nodes)
    near = _polar_rule(n, np.maximum(rn, h_floor), wn, m_ang, -1.0)
    # mid field up to guaranteed support separation
    R0 = 2.0 * S + 0.5
    rm, wm = panel_radial_rule(r0, R0, cfg.mid_panel_growth, cfg.mid_panel_nodes)
    mid = _polar_rule(n, rm, wm, m_ang, -1.0 - alpha)
    total = 0.0
    for _, disp, w in (near, mid):
        for h, wh in zip(disp.reshape(n, -1).T, w.ravel()):
            total += wh * translate_distance(g, h, q, res)
    # far field, exact for disjoint supports: phi == 2^(1/q) ||g||_q
    dom = GridSpec((-S - 0.1,) * n, (S + 0.1,) * n, (res,) * n)
    gq = lp_norm(g, q, dom)
    total += sphere_area(n) * (2.0 ** (1.0 / q)) * gq * R0 ** (-alpha) / alpha
    return total
