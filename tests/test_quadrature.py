import math

import numpy as np
import pytest

from fracfield.errors import ConfigError, DomainError
from fracfield.fields import GridSpec, ScalarField, ball_indicator, gaussian, gaussian_vector, lin_comb
from fracfield.norms import besov_seminorm, lp_norm
from fracfield.quadrature import (
    OperatorResult,
    QuadratureConfig,
    frac_divergence,
    frac_divergence_batch,
    frac_gradient,
    frac_gradient_batch,
    nl_divergence,
    nl_gradient,
    riesz_potential,
    riesz_potential_batch,
    riesz_transform,
    riesz_transform_batch,
    _leggauss,
    panel_radial_rule,
    singular_radial_rule,
    sphere_rule,
)

# whole-space references for G(x) = exp(-pi |x|^2): Hankel-transform
# quadratures at 25-digit precision, frozen offline
GRAD06_AT_05 = -0.8788693883677705       # x-comp of grad^0.6 G at (0.5, 0)
DIV05_AT_03_04 = -0.46857676573521875    # div^0.5 [G e1] at (0.3, 0.4)
I05_AT_0 = 0.65085062986601583
I05_AT_07 = 0.23329247455846574
I07_REFS = {0.0: 0.57103413015065338, 0.4: 0.41802152240009516,
            0.9: 0.16229417237040114, 1.3: 0.085192749222258955,
            2.0: 0.044936027912948328}
RT_AT_1 = -0.21711238065951852           # x-comp of R G at (1, 0)
PSIP03_AT_08 = -0.4004767900745917       # x-comp of grad^0.3 G at (0.8, 0)


def constant_field(n, c):
    """Constant field; increments vanish identically, so its zero decay hint
    only enters the (zero) tail bound."""
    return ScalarField(n=n, fn=lambda p: np.full(p.shape[:-1], c), decay=(0.0, 1.0))


# ---------------------------------------------------------------------------
# rules

def test_sphere_rule_measures():
    for n, area in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        dirs, w = sphere_rule(n, 16)
        assert np.sum(w) == pytest.approx(area, rel=1e-12)
        assert np.allclose(np.einsum("a,ak->k", w, dirs), 0.0, atol=1e-12)


def test_singular_radial_rule_exactness():
    # integrates r^1.3 * r^-0.5 on [0, 2] exactly up to GL accuracy
    r, w = singular_radial_rule(2.0, -0.5, 16)
    val = float(np.sum(r**1.3 * w))
    exact = 2.0 ** (1.8) / 1.8
    assert val == pytest.approx(exact, rel=1e-8)
    with pytest.raises(DomainError):
        singular_radial_rule(1.0, -1.2, 8)


@pytest.mark.parametrize("r0,r1,growth,m", [(0.2, 9.0, 2.0, 6), (0.2, 9.0, 2.0, 3),
                                             (0.05, 3.0, 1.5, 4), (1.0, 1.5, 2.0, 12)])
def test_panel_radial_rule_matches_panel_loop(r0, r1, growth, m):
    edges = [r0]
    while edges[-1] * growth < r1:
        edges.append(edges[-1] * growth)
    edges.append(r1)
    t, wt = np.polynomial.legendre.leggauss(m)
    ref_r = np.concatenate([0.5 * (b - a) * (t + 1.0) + a for a, b in zip(edges[:-1], edges[1:])])
    ref_w = np.concatenate([0.5 * (b - a) * wt for a, b in zip(edges[:-1], edges[1:])])
    r, w = panel_radial_rule(r0, r1, growth, m)
    assert np.array_equal(r, ref_r) and np.array_equal(w, ref_w)


def test_cached_gauss_legendre_rule_is_read_only():
    t, w = _leggauss(8)
    assert _leggauss(8)[0] is t
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def test_config_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(near_radius=-1.0)
    with pytest.raises(ConfigError):
        QuadratureConfig(tol=0.0)
    with pytest.raises(ConfigError):
        QuadratureConfig(far_cutoff=0.1, near_radius=0.2)
    with pytest.raises(ConfigError):
        OperatorResult(1.0, -1.0)


# ---------------------------------------------------------------------------
# trivial structure

def test_constant_field_maps_to_zero(cfg):
    c = constant_field(2, 3.7)
    r = frac_gradient(c, 0.5, (0.4, -0.2), cfg)
    assert np.allclose(r.value, 0.0, atol=1e-14)
    rt = riesz_transform(c, (0.4, -0.2), cfg)
    assert np.allclose(rt.value, 0.0, atol=1e-14)


def test_odd_symmetry_zero_at_center(cfg, gauss2d):
    r = frac_gradient(gauss2d, 0.5, (0.0, 0.0), cfg)
    assert np.allclose(r.value, 0.0, atol=1e-12)
    rt = riesz_transform(gauss2d, (0.0, 0.0), cfg)
    assert np.allclose(rt.value, 0.0, atol=1e-12)


def test_nl_ops_vanish_on_constants(cfg, gauss2d, gauss_vec2d):
    zero = gauss2d.scaled(0.0)
    r = nl_gradient(zero, gauss2d, 0.5, (0.3, 0.1), cfg)
    assert np.allclose(r.value, 0.0, atol=1e-14)
    r2 = nl_divergence(zero, gauss_vec2d, 0.5, (0.3, 0.1), cfg)
    assert r2.value == pytest.approx(0.0, abs=1e-14)
    r3 = nl_gradient(gauss2d, gauss2d, 0.5, (0.0, 0.0), cfg)
    assert np.allclose(r3.value, 0.0, atol=1e-12)  # odd integrand by symmetry


def test_alpha_domain_errors(cfg, gauss2d):
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            frac_gradient(gauss2d, bad, (0.0, 0.0), cfg)


def test_missing_hints_config_error(cfg):
    bare = ScalarField(n=2, fn=lambda p: np.exp(-np.sum(p * p, -1)))
    with pytest.raises(ConfigError):
        frac_gradient(bare, 0.5, (0.0, 0.0), cfg)


def test_extrapolated_tail_without_hints():
    """tail_model=False with an explicit far cutoff runs a hintless field and
    agrees with the hinted run within the returned estimate."""
    from dataclasses import replace

    hinted = gaussian((0.0, 0.0))
    bare = replace(hinted, support_radius=None)
    pts = np.array([[0.3, 0.1], [0.7, -0.4], [1.2, 0.5]])
    fallback = QuadratureConfig(tail_model=False, far_cutoff=6.0)
    v, e = frac_gradient_batch(bare, 0.5, pts, fallback)
    ref, _ = frac_gradient_batch(hinted, 0.5, pts, QuadratureConfig())
    assert np.all(np.isfinite(e)) and np.all(e > 0.0)
    assert np.all(np.sqrt(np.sum((v - ref) ** 2, axis=-1)) <= e)
    with pytest.raises(ConfigError):
        frac_gradient_batch(bare, 0.5, pts, QuadratureConfig(far_cutoff=6.0))


@pytest.mark.parametrize("call", [
    lambda G, F, pair, cfg: frac_divergence_batch(G, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: frac_gradient_batch(F, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: frac_gradient(pair, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_potential_batch(F, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_transform_batch(pair, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: nl_divergence(F, G, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: nl_gradient(G, F, 0.5, (0.3, 0.1), cfg),
], ids=["div-of-scalar", "grad-of-vector", "grad-of-pair", "potential-of-vector",
        "transform-of-pair", "nl-div-swapped", "nl-grad-of-vector"])
def test_wrong_field_kind_config_error(cfg, call):
    from fracfield.analytic import make_delta_pair

    G = gaussian((0.0, 0.0))
    F = gaussian_vector((0.0, 0.0))
    pair = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    with pytest.raises(ConfigError, match="takes a"):
        call(G, F, pair, cfg)


# ---------------------------------------------------------------------------
# frozen whole-space references

def test_frac_gradient_reference(cfg, gauss2d):
    r = frac_gradient(gauss2d, 0.6, (0.5, 0.0), cfg)
    assert abs(r.value[0] - GRAD06_AT_05) < 1e-6
    assert abs(r.value[1]) < 1e-12
    assert abs(r.value[0] - GRAD06_AT_05) <= 3.0 * r.error
    r2 = frac_gradient(gauss2d, 0.3, (0.8, 0.0), cfg)
    assert abs(r2.value[0] - PSIP03_AT_08) < 1e-6


def test_frac_divergence_reference(cfg):
    F = gaussian_vector((0.0, 0.0), amplitudes=(1.0, 0.0))
    r = frac_divergence(F, 0.5, (0.3, 0.4), cfg)
    assert abs(r.value - DIV05_AT_03_04) < 1e-6


def test_riesz_potential_reference(cfg, gauss2d):
    r = riesz_potential(gauss2d, 0.5, (0.0, 0.0), cfg)
    assert abs(r.value - I05_AT_0) < 1e-6
    r2 = riesz_potential(gauss2d, 0.5, (0.7, 0.0), cfg)
    assert abs(r2.value - I05_AT_07) < 1e-6
    assert r.value >= 0.0  # positive kernel on a nonnegative field


def test_riesz_potential_semigroup_direct_light(cfg, gauss2d):
    # I_0.3 I_0.4 = I_0.7 at two points through the nested field wrapper
    from fracfield.quadrature import riesz_potential_field

    inner = riesz_potential_field(gauss2d, 0.4, cfg)
    for r_t, ref in ((0.0, I07_REFS[0.0]), (1.3, I07_REFS[1.3])):
        v, e = riesz_potential_batch(inner, 0.3, np.array([[r_t, 0.0]]), cfg)
        assert abs(v[0] - ref) < 1e-3


def test_riesz_potential_domain_errors(cfg, gauss2d):
    with pytest.raises(DomainError):
        riesz_potential(gauss2d, 2.0, (0.0, 0.0), cfg)  # beta >= n
    slow = ScalarField(n=2, fn=lambda p: (1 + np.sum(p * p, -1)) ** -0.2,
                       decay=(1.0, 0.4))
    with pytest.raises(DomainError):
        riesz_potential(slow, 0.5, (0.0, 0.0), cfg)  # decay 0.4 <= order 0.5


def test_riesz_transform_reference(cfg, gauss2d):
    r = riesz_transform(gauss2d, (1.0, 0.0), cfg)
    assert abs(r.value[0] - RT_AT_1) < 1e-5
    assert abs(r.value[1]) < 1e-10


def test_riesz_transform_squares_direct(cfg, gauss2d):
    # applying the transform twice and summing returns -f (1e-2 here;
    # the spectral module checks it at roundoff)
    comps = []
    for k in range(2):
        def fn(p, k=k):
            v, _ = riesz_transform_batch(gauss2d, p.reshape(-1, 2), cfg)
            return v[:, k].reshape(p.shape[:-1])

        comps.append(ScalarField(n=2, fn=fn, decay=(1.0, 2.0), smooth=True))
    x = np.array([0.4, 0.3])
    total = sum(riesz_transform(c, x, cfg).value[k] for k, c in enumerate(comps))
    assert total == pytest.approx(-gauss2d(x), abs=1e-2)


# ---------------------------------------------------------------------------
# structural invariants

def test_linearity(cfg):
    rng = np.random.default_rng(42)
    f1 = gaussian((0.0, 0.0))
    f2 = gaussian((0.6, -0.2), width=0.8)
    x = np.array([0.25, 0.1])
    for _ in range(3):
        a, b = rng.uniform(-2, 2, 2)
        combo = lin_comb(a, f1, b, f2)
        r_combo = frac_gradient(combo, 0.5, x, cfg)
        r1 = frac_gradient(f1, 0.5, x, cfg)
        r2 = frac_gradient(f2, 0.5, x, cfg)
        lhs = r_combo.value
        rhs = a * r1.value + b * r2.value
        tol = 2.0 * (r_combo.error + abs(a) * r1.error + abs(b) * r2.error)
        assert np.linalg.norm(lhs - rhs) <= tol + 1e-12


def test_alpha_homogeneity(cfg):
    # xi_lam(x) = xi(lam x): grad^a xi_lam(x) = lam^a grad^a xi(lam x)
    lam, alpha = 2.0, 0.5
    xi = gaussian((0.0, 0.0))
    xi_lam = gaussian((0.0, 0.0), width=1.0 / lam)  # xi(lam x)
    x = np.array([0.3, 0.15])
    lhs = frac_gradient(xi_lam, alpha, x, cfg)
    rhs = frac_gradient(xi, alpha, lam * x, cfg)
    assert np.linalg.norm(lhs.value - lam**alpha * rhs.value) <= \
        2.0 * (lhs.error + lam**alpha * rhs.error) + 1e-10


def test_translation_invariance(cfg):
    v = np.array([0.7, -0.3])
    xi = gaussian((0.0, 0.0))
    xi_shift = gaussian(v)  # xi(. - v)
    x = np.array([0.2, 0.5])
    a = frac_gradient(xi, 0.5, x, cfg)
    b = frac_gradient(xi_shift, 0.5, x + v, cfg)
    assert np.linalg.norm(a.value - b.value) <= 2.0 * (a.error + b.error) + 1e-10


def test_error_estimate_honesty_20_cases(cfg):
    """True error vs a double-resolution oracle stays below 3x the estimate."""
    dense = QuadratureConfig(
        near_radial_nodes=2 * cfg.near_radial_nodes,
        near_angular_nodes=2 * cfg.near_angular_nodes,
        mid_angular_nodes=2 * cfg.mid_angular_nodes,
        mid_panel_nodes=2 * cfg.mid_panel_nodes,
    )
    G = gaussian((0.0, 0.0))
    F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.2, 1.2, (5, 2))
    cases = 0
    for alpha in (0.3, 0.5, 0.7):
        v, e = frac_gradient_batch(G, alpha, pts, cfg)
        vd, _ = frac_gradient_batch(G, alpha, pts, dense)
        true = np.sqrt(np.sum((v - vd) ** 2, axis=-1))
        assert np.all(true <= 3.0 * e + 1e-12)
        cases += len(pts)
    for alpha in (0.4,):
        v, e = frac_divergence_batch(F, alpha, pts, cfg)
        vd, _ = frac_divergence_batch(F, alpha, pts, dense)
        assert np.all(np.abs(v - vd) <= 3.0 * e + 1e-12)
        cases += len(pts)
    assert cases >= 20


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_indicator_area():
    ind = ball_indicator((0.0, 0.0), 1.0)
    dom = GridSpec((-1.1, -1.1), (1.1, 1.1), (2048, 2048))
    assert lp_norm(ind, 1.0, dom) == pytest.approx(math.pi, abs=1e-3)


def test_lp_norm_gaussian_l2(gauss2d):
    dom = GridSpec((-4.5, -4.5), (4.5, 4.5), (1024, 1024))
    assert lp_norm(gauss2d, 2.0, dom) == pytest.approx(2.0**-0.5, abs=1e-6)


def test_sup_norm_dominates_samples(gauss2d):
    dom = GridSpec((-2.0, -2.0), (2.0, 2.0), (64, 64))
    sup = lp_norm(gauss2d, math.inf, dom)
    pts = np.random.default_rng(1).uniform(-2, 2, (100, 2))
    assert np.all(sup >= gauss2d(pts) - 1e-12)
    assert sup == pytest.approx(1.0, abs=1e-6)


def test_besov_indicator_analytic(cfg):
    # ||chi(.+h) - chi||_1 = 2 min(|h|, 1) gives 4 (1/(1-a) + 1/a) = 16
    chi = ball_indicator((0.5,), 0.5)
    val = besov_seminorm(chi, 0.5, 1.0, cfg)
    assert val == pytest.approx(16.0, rel=0.02)


def test_besov_zero_field(cfg, gauss2d):
    zero = gauss2d.scaled(0.0)
    assert besov_seminorm(zero, 0.4, 2.0, cfg) == pytest.approx(0.0, abs=1e-12)


def test_besov_gaussian_vs_dense_oracle(cfg, gauss2d):
    from dataclasses import replace

    dense = replace(cfg, lq_grid_nodes=160, near_radial_nodes=20,
                    mid_panel_nodes=10, mid_angular_nodes=48)
    a = besov_seminorm(gauss2d, 0.4, 2.0, cfg)
    b = besov_seminorm(gauss2d, 0.4, 2.0, dense)
    assert a == pytest.approx(b, rel=2e-2)


def test_besov_requires_bounded(cfg):
    from fracfield.analytic import make_delta_pair

    pair = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    with pytest.raises(DomainError):
        besov_seminorm(pair.field.component(0), 0.5, 2.0, cfg)


# ---------------------------------------------------------------------------
# batching

def test_batch_matches_single(cfg, gauss2d):
    pts = np.array([[0.3, 0.1], [0.7, -0.4], [1.2, 0.5]])
    vals, errs = frac_gradient_batch(gauss2d, 0.5, pts, cfg)
    for i, p in enumerate(pts):
        single = frac_gradient(gauss2d, 0.5, p, cfg)
        # batch evaluation shares one far cutoff across points
        assert np.allclose(single.value, vals[i], rtol=1e-8, atol=1e-9)


def test_constant_vector_field_divergence_zero(cfg):
    from fracfield.fields import VectorField

    const_vec = VectorField(n=2, fn=lambda p: np.broadcast_to(
        np.array([1.5, -0.5]), p.shape).copy(), decay=(0.0, 1.0))
    r = frac_divergence(const_vec, 0.5, (0.3, -0.1), cfg)
    assert r.value == pytest.approx(0.0, abs=1e-14)


def test_delta_pair_divergence_vanishes_off_atoms(cfg):
    """The pair field's divergence measure is purely atomic: the pointwise
    density away from both poles is zero within 10x the tolerance (the atoms
    are interior kernel singularities, handled by the pole-aware splitting)."""
    from fracfield.analytic import make_delta_pair, pole_field_divergence

    pair = make_delta_pair((0.0, 0.0), (1.0, 0.0), 0.5)
    for pt in [(0.5, 0.8), (-0.7, -0.6), (1.9, 0.3)]:
        val, est = pole_field_divergence(pair, np.array(pt), cfg)
        assert abs(val) <= 10.0 * cfg.tol, (pt, val, est)


def test_nl_divergence_brute_force_oracle(cfg, gauss2d):
    """Dense log-radial tensor quadrature, independent of the engine's
    node layout, reproduces the bilinear divergence at (0.2, 0)."""
    F = gaussian_vector((0.0, 0.0), amplitudes=(1.0, 0.0))
    x = np.array([0.2, 0.0])
    alpha = 0.5
    engine = nl_divergence(gauss2d, F, alpha, x, cfg)

    r = np.geomspace(1e-6, 30.0, 4000)
    th = 2.0 * math.pi * (np.arange(256) + 0.5) / 256
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pts = x[None, None, :] + r[:, None, None] * dirs[None, :, :]
    dg = gauss2d(pts) - gauss2d(x)
    dF = F(pts) - F(x)
    proj = np.einsum("rak,ak->ra", dF, dirs)
    integrand = np.einsum("ra,ra->r", dg, proj) * r ** (-1.0 - alpha)
    # trapezoid in log r against measure r dlog r
    brute = float(np.trapezoid(integrand * r, np.log(r))) * (2.0 * math.pi / 256)
    from fracfield.special import mu_const

    brute *= mu_const(2, alpha)
    assert engine.value == pytest.approx(brute, abs=max(1e-4, 5.0 * engine.error))
