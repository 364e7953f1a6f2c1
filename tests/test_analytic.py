import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.analytic import (
    _bulk_sums,
    _pole_radius,
    cantor_measure,
    duality_pairing,
    grad_chi_ball,
    make_convolved,
    make_delta_pair,
    mollified_pole_field,
    nl_gradient_ball,
    spectral_gradient_of,
)
from fracfield.errors import DomainError
from fracfield.fields import _window, gaussian
from fracfield.measures import RadonMeasure, measure_ball_mass
from fracfield.quadrature import (
    QuadratureConfig,
    frac_gradient_batch,
    nl_gradient_batch,
    sphere_rule,
)
from fracfield.special import _mu_raw, mu_const, omega_const

from _oracles import grad_cutoff_annulus, ramp_cutoff_field

Y = np.array([0.0, 0.0])
Z = np.array([1.0, 0.0])


# ---------------------------------------------------------------------------
# delta pair

def test_delta_pair_antisymmetry():
    a = make_delta_pair(Y, Z, 0.5)
    b = make_delta_pair(Z, Y, 0.5)
    pts = np.random.default_rng(0).uniform(-2, 2, (20, 2))
    assert np.allclose(a.field(pts) + b.field(pts), 0.0, atol=1e-14)


def test_delta_pair_near_pole_blowup():
    alpha, n = 0.5, 2
    dp = make_delta_pair(Y, Z, alpha)
    mu_minus = _mu_raw(n, -alpha)
    for r in (1e-2, 1e-4, 1e-6):
        x = Y + np.array([r, 0.0])
        lead = mu_minus * r ** (alpha - n)
        assert np.linalg.norm(dp.field(x)) == pytest.approx(lead, rel=0.05 + 2 * r)


def test_delta_pair_degenerate_rejected():
    with pytest.raises(DomainError):
        make_delta_pair(Y, Y, 0.5)
    with pytest.raises(DomainError):  # closer than the atom merge tolerance
        make_delta_pair(Y, Y + 1e-13, 0.5)
    with pytest.raises(DomainError):
        make_delta_pair(Y, Z, 1.5)


def test_delta_pair_alpha_one_classical():
    dp = make_delta_pair(Y, Z, 1.0)
    # kernel exponent n + 1 - alpha = n, constant mu(n, -1)
    x = np.array([0.0, 0.3])
    expect = _mu_raw(2, -1.0) * (
        (x - Y) / np.linalg.norm(x - Y) ** 2 - (x - Z) / np.linalg.norm(x - Z) ** 2
    )
    assert np.allclose(dp.field(x), expect, rtol=1e-12)


def test_delta_pair_lp_membership_scan():
    """|F|^p is integrable at the poles iff p < n/(n-alpha) = 4/3.

    Pole-ball integrals over shrinking exclusion radii: stable for p = 1.2,
    growing like rho^(2 - 1.5 p) for p = 1.5.
    """
    alpha = 0.5
    dp = make_delta_pair(Y, Z, alpha)
    dirs, w_ang = sphere_rule(2, 64)

    from fracfield.quadrature import panel_radial_rule

    def pole_ball_integral(p, rho_excl):
        # integral of |F|^p over B_0.4(Y) minus the exclusion ball,
        # log-spaced panels resolving every scale down to the exclusion
        r, wr = panel_radial_rule(rho_excl, 0.4, 1.6, 12)
        pts = Y[None, None, :] + r[:, None, None] * dirs[None, :, :]
        vals = np.linalg.norm(dp.field(pts.reshape(-1, 2)).reshape(len(r), len(dirs), 2), axis=-1)
        return float(np.einsum("ra,r,a->", vals**p, wr * r, w_ang))

    stable = [pole_ball_integral(1.2, e) for e in (1e-2, 1e-4, 1e-6)]
    inc1, inc2 = stable[1] - stable[0], stable[2] - stable[1]
    # remainder contracts by rho^0.2 = 0.398 per 100x shrink
    assert 0 <= inc2 < 0.45 * inc1
    growing = [pole_ball_integral(1.5, e) for e in (1e-2, 1e-4, 1e-6)]
    # divergence ~ rho^-0.25: a factor ~10^0.5 per 100x shrink
    assert growing[1] > 2.0 * growing[0]
    assert growing[2] > 2.0 * growing[1]


# ---------------------------------------------------------------------------
# convolved fields

def test_convolved_single_atom_equals_pair():
    nu = RadonMeasure(n=2, atom_points=np.array([[0.0, 0.0]]), atom_weights=np.array([1.0]))
    cv = make_convolved(nu, 0.6)
    dp = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.6)
    pts = np.random.default_rng(1).uniform(-2, 2, (10, 2))
    assert np.allclose(cv.field(pts), dp.field(pts), atol=1e-14)


def test_convolved_two_atoms_linearity():
    w_pt = np.array([0.5, 0.5])
    nu = RadonMeasure(n=2, atom_points=np.array([[0.0, 0.0], w_pt]),
                      atom_weights=np.array([1.0, 1.0]))
    cv = make_convolved(nu, 0.6)
    d1 = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.6)
    d2 = make_delta_pair(w_pt, w_pt + [1.0, 0.0], 0.6)
    pts = np.random.default_rng(2).uniform(-2, 2, (10, 2))
    assert np.allclose(cv.field(pts), d1.field(pts) + d2.field(pts), atol=1e-13)


def test_convolved_empty_measure():
    nu = RadonMeasure(n=2, atom_points=np.zeros((0, 2)), atom_weights=np.zeros(0))
    cv = make_convolved(nu, 0.5)
    assert np.allclose(cv.field(np.array([[0.3, 0.2]])), 0.0)


def test_convolved_shift_chain_combines_atoms():
    # y2 = y1 + e1 makes the middle atom cancel partially
    nu = RadonMeasure(n=2, atom_points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                      atom_weights=np.array([1.0, 1.0]))
    cv = make_convolved(nu, 0.5)
    # measure: delta_0 + (1 - 1) delta_e1 - delta_2e1 -> two atoms survive
    assert cv.measure.atom_points.shape[0] == 2
    assert np.sum(cv.measure.atom_weights) == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# cantor measure

def test_cantor_total_mass_and_count():
    for k in (0, 4, 8):
        mu = cantor_measure(k, 1)
        assert mu.atom_points.shape[0] == 2**k
        assert np.sum(mu.atom_weights) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        cantor_measure(13, 1)


def test_cantor_embedding_2d():
    mu = cantor_measure(6, 2)
    assert mu.n == 2
    assert np.allclose(mu.atom_points[:, 1], 0.0)
    assert measure_ball_mass(mu, (0.0, 0.0), 3.0**-3) == pytest.approx(2.0**-3)


def test_cantor_loglog_slope():
    mu = cantor_measure(10, 1)
    radii = 3.0 ** -np.arange(0, 10)
    masses = np.array([measure_ball_mass(mu, (0.0,), r) for r in radii])
    slope = np.polyfit(np.log(radii), np.log(masses), 1)[0]
    assert abs(slope - math.log(2) / math.log(3)) < 0.05


# ---------------------------------------------------------------------------
# sphere gradient of ball indicators

def test_grad_chi_ball_center_zero():
    assert np.allclose(grad_chi_ball(1.0, (0.0, 0.0), 0.5, (0.0, 0.0)), 0.0)


def test_grad_chi_ball_far_field():
    r, alpha = 1.0, 0.5
    y = np.array([50.0, 0.0])
    g = grad_chi_ball(r, (0.0, 0.0), alpha, y)
    pred = -mu_const(2, alpha) * omega_const(2.0) * r**2 * 50.0 ** (-2 - alpha)
    assert g[0] == pytest.approx(pred, rel=0.05)
    assert abs(g[1]) < 1e-14
    # direction is -(y - x0)/|y - x0|
    assert g[0] < 0.0


def test_grad_chi_ball_scaling():
    v = np.array([0.6, 0.3])
    lam = 2.0
    g1 = grad_chi_ball(1.0, (0.0, 0.0), 0.5, v)
    g2 = grad_chi_ball(lam, (0.0, 0.0), 0.5, lam * v)
    assert np.allclose(g2, lam**-0.5 * g1, rtol=0.01)


def test_grad_chi_ball_near_sphere_stability():
    for d in (1e-2, 1e-5, 1e-8):
        g1 = grad_chi_ball(1.0, (0.0, 0.0), 0.7, (1.0 + d, 0.0), 192)
        g2 = grad_chi_ball(1.0, (0.0, 0.0), 0.7, (1.0 + d, 0.0), 384)
        assert np.isfinite(g1).all()
        assert np.linalg.norm(g1 - g2) <= 1e-4 * np.linalg.norm(g1) + 1e-12


def test_grad_chi_ball_sphere_warning():
    with pytest.warns(RuntimeWarning, match="sphere"):
        grad_chi_ball(1.0, (0.0, 0.0), 0.5, (1.0 + 1e-10, 0.0))
    with pytest.warns(RuntimeWarning, match="sphere"):
        grad_chi_ball(1.3, (0.0, 0.0, 0.0), 0.5, (1.3 * (1.0 - 1e-10), 0.0, 0.0))
    with pytest.raises(DomainError):
        grad_chi_ball(1.0, (0.0, 0.0), 0.5, (1.0, 0.0))


@pytest.mark.parametrize("n, rel", [(2, 1e-12), (3, 1e-8)])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_grad_chi_ball_accurate_and_quiet_above_floor(n, rel, side):
    """At 1e-8 r from the sphere, above the 1e-9 r floor, the 256-node rule
    raises no warning and agrees with a 2048-node reference."""
    r = 1.3
    y = np.zeros(n)
    y[0] = r * (1.0 + side * 1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = grad_chi_ball(r, np.zeros(n), 0.5, y, 256)
    ref = grad_chi_ball(r, np.zeros(n), 0.5, y, 2048)
    assert np.linalg.norm(g - ref) <= rel * np.linalg.norm(ref)


def test_grad_chi_ball_vs_mollified_indicator(cfg):
    """Direct gradient of the ramp mollification (eps = r/50) matches the
    sphere-integral formula within 2% at 5 points off the sphere."""
    r, alpha = 1.0, 0.5
    ramp = ramp_cutoff_field(r / 50.0, r - r / 100.0, (0.0, 0.0))
    # panels dense enough to resolve the eps-thin transition shell
    dense = QuadratureConfig(near_radial_nodes=16, near_angular_nodes=24,
                             mid_angular_nodes=64, mid_panel_nodes=8,
                             mid_panel_growth=1.25)
    pts = [(1.7, 0.4), (0.5, 0.1), (0.0, 2.2), (-1.4, 0.2), (0.3, -0.6)]
    for pt in pts:
        direct = frac_gradient_batch(ramp, alpha, np.array(pt), dense)[0][0]
        surf = grad_chi_ball(r, (0.0, 0.0), alpha, np.array(pt), 384)
        assert np.linalg.norm(direct - surf) <= 0.02 * np.linalg.norm(surf) + 1e-4


@pytest.mark.parametrize("y", [-2.0, -0.6, 1.1, 3.5])
def test_grad_chi_ball_1d_matches_kernel_integral(y):
    """In R^1 the boundary is two points; the closed form equals the kernel
    mu sign(t-y)|t-y|^(-1-a) integrated over the interval, off the interval."""
    from scipy.integrate import quad

    x0, r, alpha = 0.25, 0.8, 0.4
    ref, _ = quad(lambda t: math.copysign(abs(t - y) ** (-1.0 - alpha), t - y),
                  x0 - r, x0 + r, epsabs=0.0, epsrel=1e-12)
    g = grad_chi_ball(r, (x0,), alpha, (y,))
    assert g.shape == (1,)
    assert g[0] == pytest.approx(mu_const(1, alpha) * ref, rel=1e-10)


def test_grad_chi_ball_3d_far_field():
    r, alpha = 1.0, 0.5
    y = np.array([40.0, 0.0, 0.0])
    g = grad_chi_ball(r, (0.0, 0.0, 0.0), alpha, y)
    pred = -mu_const(3, alpha) * omega_const(3.0) * r**3 * 40.0 ** (-3 - alpha)
    assert g[0] == pytest.approx(pred, rel=0.05)


# ---------------------------------------------------------------------------
# annulus gradient

def test_grad_cutoff_annulus_center_zero(cfg):
    assert np.allclose(
        grad_cutoff_annulus(0.25, 1.0, (0.0, 0.0), 0.5, (0.0, 0.0), cfg), 0.0)


def test_grad_cutoff_annulus_eps_limit(cfg):
    """Richardson extrapolation over eps in {r/8, r/16, r/32} recovers the
    indicator gradient within 1%."""
    y = np.array([1.7, 0.4])
    ref = grad_chi_ball(1.0, (0.0, 0.0), 0.5, y, 384)
    vals = [grad_cutoff_annulus(1.0 / k, 1.0, (0.0, 0.0), 0.5, y, cfg)
            for k in (8, 16, 32)]
    rich = 2.0 * vals[2] - vals[1]
    assert np.linalg.norm(rich - ref) <= 0.01 * np.linalg.norm(ref)


def test_grad_cutoff_annulus_direct_consistency(cfg):
    eps, r, alpha = 0.25, 1.0, 0.5
    ramp = ramp_cutoff_field(eps, r, (0.0, 0.0))
    for pt in [(1.7, 0.4), (0.5, 0.1), (1.1, 0.0)]:
        direct = frac_gradient_batch(ramp, alpha, np.array(pt), cfg)[0][0]
        ann = grad_cutoff_annulus(eps, r, (0.0, 0.0), alpha, np.array(pt), cfg)
        assert np.linalg.norm(direct - ann) <= 0.02 * np.linalg.norm(ann) + 1e-6


# ---------------------------------------------------------------------------
# nonlocal gradient against ball indicators

def test_nl_gradient_ball_center_symmetry(cfg, gauss2d):
    v = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, np.zeros(2), cfg)
    assert np.allclose(v, 0.0, atol=1e-12)


def test_nl_gradient_ball_vs_mollified_indicator(cfg, gauss2d):
    """gradNL(chi_B, xi) is the eps -> 0 limit of gradNL(ramp_eps, xi);
    Richardson over eps in {1/16, 1/32} verifies the ray-split routine."""
    W = np.array([[0.3, 0.2], [1.4, -0.3], [0.6, 0.6]])
    sharp = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, W, cfg)
    vals = []
    for k in (16, 32):
        ramp = ramp_cutoff_field(1.0 / k, 1.0, (0.0, 0.0))
        rows = [nl_gradient_batch(ramp, gauss2d, 0.5, w, cfg)[0][0] for w in W]
        vals.append(np.array(rows))
    rich = 2.0 * vals[1] - vals[0]
    for i in range(len(W)):
        scale = max(np.linalg.norm(sharp[i]), 1e-3)
        assert np.linalg.norm(rich[i] - sharp[i]) <= 0.03 * scale + 2e-4


def _nl_gradient_ball_reference(x0, r, xi, alpha, W, cfg):
    """The per-point loop that nl_gradient_ball batches: the bit reference."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    Wp = np.asarray(W, dtype=float).reshape(-1, n)
    mu = mu_const(n, alpha)
    dirs, w_ang = sphere_rule(n, cfg.mid_angular_nodes)
    wmax = float(np.max(np.sqrt(np.sum(Wp * Wp, axis=-1))))
    R_far = max(xi.support_radius + wmax, float(np.linalg.norm(x0)) + r + wmax) + 1.0
    tg, wg = np.polynomial.legendre.leggauss(cfg.mid_panel_nodes)
    out = np.zeros((Wp.shape[0], n))
    xw = xi(Wp)
    inside = np.sum((Wp - x0) ** 2, axis=-1) < r * r
    for j, w in enumerate(Wp):
        oc = w - x0
        bq = dirs @ oc
        disc = bq * bq - (float(oc @ oc) - r * r)
        hit = disc > 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        lo = np.maximum(np.where(hit, -bq - sq, 0.0), 0.0)
        hi = np.maximum(np.where(hit, -bq + sq, 0.0), 0.0)
        if inside[j]:
            a, b, sign = np.maximum(hi, 1e-12), np.full_like(hi, R_far), -1.0
        else:
            a, b, sign = np.maximum(lo, 1e-12), hi, 1.0
        live = b > a
        if not np.any(live):
            continue
        ratio = np.where(live, b / np.where(live, a, 1.0), 1.0)
        J = max(3, min(24, int(math.ceil(math.log(float(np.max(ratio))) / math.log(4.0)))))
        expo = np.arange(J + 1) / J
        edges = a[:, None] * ratio[:, None] ** expo[None, :]
        e0 = edges[:, :-1][:, :, None]
        e1 = edges[:, 1:][:, :, None]
        t = 0.5 * (e1 - e0) * (tg[None, None, :] + 1.0) + e0
        wt = 0.5 * (e1 - e0) * wg[None, None, :] * t ** (-1.0 - alpha)
        wt = np.where(live[:, None, None], wt, 0.0)
        pts = w[None, None, None, :] + t[..., None] * dirs[:, None, None, :]
        inc = xi(pts) - xw[j]
        radial = np.sum(inc * wt, axis=(1, 2))
        out[j] = mu * sign * np.einsum("a,a,ak->k", radial, w_ang, dirs)
    return out


def _ball_batch(n, r, kind, m=60, seed=0):
    """m points inside B_r(0), outside it, or both, in R^n."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(m, n))
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    lo, hi = {"inside": (0.0, 0.98), "outside": (1.02, 3.0), "mixed": (0.0, 3.0)}[kind]
    return u * (r * rng.uniform(lo, hi, m))[:, None]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["inside", "outside", "mixed"])
def test_nl_gradient_ball_bit_identical_to_point_loop(cfg, n, kind):
    xi = gaussian(np.linspace(0.4, 0.1, n))
    x0 = np.linspace(0.1, -0.05, n)
    W = x0 + _ball_batch(n, 1.0, kind, seed=n)
    got = nl_gradient_ball(x0, 1.0, xi, 0.5, W, cfg)
    assert np.array_equal(got, _nl_gradient_ball_reference(x0, 1.0, xi, 0.5, W, cfg))


def test_nl_gradient_ball_all_rays_miss(cfg, gauss2d):
    """Seen from (0, 20), the unit ball lies between two of the 32 rule
    directions: no ray hits it, so the value is exactly zero."""
    W = np.array([[0.0, 20.0], [0.3, 0.2]])
    got = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, W, cfg)
    assert np.array_equal(got[0], np.zeros(2))
    assert np.array_equal(got, _nl_gradient_ball_reference((0.0, 0.0), 1.0, gauss2d, 0.5, W, cfg))
    assert np.any(got[1] != 0.0)


def test_nl_gradient_ball_single_point(cfg, gauss2d):
    w = np.array([1.4, -0.3])
    got = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, w, cfg)
    assert got.shape == (2,)
    ref = _nl_gradient_ball_reference((0.0, 0.0), 1.0, gauss2d, 0.5, w, cfg)
    assert np.array_equal(got, ref[0])


def test_nl_gradient_ball_keeps_every_point_of_a_grid_shaped_batch(cfg, gauss2d):
    W = np.random.default_rng(3).uniform(-1.6, 1.6, (2, 2, 2))
    got = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, W, cfg)
    flat = nl_gradient_ball((0.0, 0.0), 1.0, gauss2d, 0.5, W.reshape(4, 2), cfg)
    assert got.shape == (2, 2, 2)
    assert np.array_equal(got, flat.reshape(2, 2, 2))


_PERM_BATCH = _ball_batch(2, 1.0, "mixed", m=24, seed=7)
_PERM_OUT = nl_gradient_ball((0.0, 0.0), 1.0, gaussian((0.4, 0.2)), 0.5, _PERM_BATCH,
                             QuadratureConfig())


@settings(max_examples=15, deadline=None)
@given(st.permutations(range(len(_PERM_BATCH))))
def test_nl_gradient_ball_permutation_property(perm):
    """Permuting the batch permutes the output bit for bit: a point's value
    does not depend on its panel group or block neighbours."""
    perm = np.array(perm)
    got = nl_gradient_ball((0.0, 0.0), 1.0, gaussian((0.4, 0.2)), 0.5, _PERM_BATCH[perm],
                           QuadratureConfig())
    assert np.array_equal(got, _PERM_OUT[perm])


# ---------------------------------------------------------------------------
# mollified pole fields

def test_mollified_profile_far_field_matches_kernel():
    dp = make_delta_pair(Y, Z, 0.5)
    F_eps = mollified_pole_field(dp, 0.3)
    # far from both poles the mollification is invisible
    pts = np.array([[4.0, 1.0], [-3.0, 2.0]])
    # rtol covers the genuine O(eps^2/t^2) mollification correction
    assert np.allclose(F_eps(pts), dp.field(pts), rtol=5e-3, atol=1e-10)


def test_mollified_field_smooth_at_pole():
    dp = make_delta_pair(Y, Z, 0.5)
    F_eps = mollified_pole_field(dp, 0.3)
    vals = F_eps(np.array([[0.0, 0.0], [1e-4, 0.0], [0.0, 1e-4]]))
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 10.0  # bounded near the mollified pole


# ---------------------------------------------------------------------------
# duality pairing

def test_duality_pairing_zero_test_function(cfg, gauss2d):
    dp = make_delta_pair(Y, Z, 0.5)
    zero = gaussian((0.0, 0.0), amplitude=0.0)
    val, est = duality_pairing(dp, zero, cfg)
    assert val == pytest.approx(0.0, abs=1e-10)


def _bulk_sum_reference(F, G, poles, pole_radius, stride):
    """The per-stride bulk lattice sum that _bulk_sums fuses: the windows and
    the field evaluated over the whole strided lattice."""
    n = F.n
    L = 16.0
    pts = G.grid.node_points()[(slice(None, None, stride),) * n]
    gv = np.moveaxis(G.data, 0, -1)[(slice(None, None, stride),) * n]
    w = np.ones(pts.shape[:-1])
    for p in poles:
        dist = np.sqrt(np.sum((pts - p) ** 2, axis=-1))
        w *= 1.0 - _window(dist, 0.5 * pole_radius, pole_radius)
    w *= _window(np.sqrt(np.sum(pts * pts, axis=-1)), L / 2.0 - 3.0, L / 2.0 - 1.0)
    return float(np.sum(w * np.sum(F(pts) * gv, axis=-1))) * G.grid.cell_volume * stride**n


@pytest.mark.parametrize("kind", ["delta_pair", "convolved"])
def test_bulk_sums_bit_identical_to_per_stride_sums(kind):
    if kind == "delta_pair":
        pf, xi = make_delta_pair(Y, Z, 0.5), gaussian((0.4, 0.2))
    else:
        nu = RadonMeasure(n=2, atom_points=np.array([[-1.2, -0.3], [0.4, 0.8], [-0.1, -1.0]]),
                          atom_weights=np.array([0.7, -0.4, 1.1]))
        pf, xi = make_convolved(nu, 0.6), gaussian((0.2, 0.0), width=1.2)
    G = spectral_gradient_of(xi, pf.alpha)
    poles = pf.measure.atom_points
    radius = _pole_radius(poles)
    fine, coarse = _bulk_sums(pf.field, G, poles, radius)
    assert fine == _bulk_sum_reference(pf.field, G, poles, radius, 1)
    assert coarse == _bulk_sum_reference(pf.field, G, poles, radius, 2)
