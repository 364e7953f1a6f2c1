import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield import quadrature
from fracfield.errors import ConfigError, DomainError
from fracfield.fields import (GridSpec, ScalarField, VectorField, _inner, ball_indicator,
                              gaussian, gaussian_vector, mollifier, scalar_times_vector)
from fracfield.norms import besov_seminorm, lp_norm
from fracfield.quadrature import (
    QuadratureConfig,
    frac_divergence_batch,
    frac_gradient_batch,
    nl_divergence_batch,
    nl_gradient_batch,
    riesz_potential_batch,
    riesz_transform_batch,
    panel_radial_rule,
    singular_radial_rule,
    sphere_rule,
)
from fracfield.special import _gauss, _leggauss

from _oracles import lin_comb, pole_field_divergence, scaled_nodes

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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_sphere_rule_is_read_only(n):
    dirs, w = sphere_rule(n, 16)
    assert sphere_rule(n, 16)[0] is dirs
    with pytest.raises(ValueError):
        dirs[0, 0] = 0.0
    with pytest.raises(ValueError):
        w *= 2.0


def test_gauss_reproduces_the_inline_affine_maps():
    """_gauss gives the bits of the hand-written maps it replaced: the
    singular rule's u-map, the panels, and the far-source rule's first panel
    with its zero left end; array ends broadcast one rule per entry."""
    m = 7
    t, wt = _leggauss(m)
    p = 1.0 + 0.6
    U = 0.37**p
    r, w = singular_radial_rule(0.37, 0.6, m)
    assert np.array_equal(r, (0.5 * U * (t + 1.0)) ** (1.0 / p))
    assert np.array_equal(w, 0.5 * U * wt / p)
    edges = np.array([0.2, 0.4, 0.8, 1.3])
    a = edges[:-1, None]
    half = 0.5 * (edges[1:, None] - a)
    r, w = panel_radial_rule(0.2, 1.3, 2.0, m)
    assert np.array_equal(r, (half * (t + 1.0) + a).ravel())
    assert np.array_equal(w, (half * wt).ravel())
    S = 2.9
    r, w = quadrature._ball_radial_rule(S / 16.0, S, 1.5, m)
    assert np.array_equal(r[:m], 0.5 * (S / 16.0) * (t + 1.0))
    assert np.array_equal(w[:m], 0.5 * (S / 16.0) * wt)
    assert np.array_equal(r[m:], panel_radial_rule(S / 16.0, S, 1.5, m)[0])
    e0 = np.random.default_rng(5).uniform(0.1, 1.0, (3, 4, 1))
    e1 = 2.5 * e0
    r, w = _gauss(e0, e1, m)
    assert np.array_equal(r, 0.5 * (e1 - e0) * (t + 1.0) + e0)
    assert np.array_equal(w, 0.5 * (e1 - e0) * wt)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polar_rule_integrates_radial_powers(n):
    """|x - c|^j over B_R(c) and over an annulus from the shared tensor rule
    equals sphere_area(n) (R^(n+j) - R0^(n+j)) / (n+j) at every radial power
    k a caller uses (0, the Jacobian n - 1, the kernel powers): the integrand
    is sampled as r^(j+n-1-k), so a wrong power of r in the weights fails."""
    from fracfield.special import sphere_area

    alpha = 0.4
    c = np.array([0.3, -0.2, 0.1])[:n]
    radial = [(0.0, 1.7, _gauss(0.0, 1.7, 8)),
              (0.0, 1.7, quadrature._ball_radial_rule(1.7 / 16.0, 1.7, 1.5, 6)),
              (0.4, 2.5, panel_radial_rule(0.4, 2.5, 2.0, 6))]
    for k in (0.0, n - 1.0, -1.0 - alpha, n - alpha):
        for j in (0, 1, 2):
            for r0, R, (r, w_r) in radial:
                dirs, disp, w = quadrature._polar_rule(n, r, w_r, 8, k)
                assert disp.shape == (n, r.size, len(dirs)) and w.shape == (r.size, len(dirs))
                dist = np.sqrt(_inner(np.moveaxis(c[:, None, None] + disp, 0, -1) - c))
                exact = sphere_area(n) * (R ** (n + j) - r0 ** (n + j)) / (n + j)
                assert np.sum(dist ** (j + n - 1 - k) * w) == pytest.approx(exact, rel=1e-13)


def test_shared_rule_pieces_are_read_only_where_cached():
    """The polar rule hands out the cached sphere rule itself, and the cached
    mollified-kernel profile built from it is frozen too."""
    from fracfield.analytic import _mollified_kernel_profile

    r, w_r = panel_radial_rule(0.2, 1.0, 2.0, 4)
    dirs, disp, w = quadrature._polar_rule(2, r, w_r, 16, 1.0)
    assert dirs is sphere_rule(2, 16)[0] and not dirs.flags.writeable
    ts, kappa = _mollified_kernel_profile(2, 0.5, 0.3)
    assert _mollified_kernel_profile(2, 0.5, 0.3)[1] is kappa
    for a in (ts, kappa):
        with pytest.raises(ValueError):
            a[0] = 1.0


def test_config_validation():
    with pytest.raises(ConfigError):
        QuadratureConfig(near_radius=-1.0)
    with pytest.raises(ConfigError):
        QuadratureConfig(tol=0.0)


@pytest.mark.parametrize("cfg", [
    QuadratureConfig(),
    QuadratureConfig(near_radial_nodes=9, near_angular_nodes=5, mid_angular_nodes=7,
                     mid_panel_nodes=3),
])
def test_coarsened_is_built_once_per_config(cfg):
    """Half the node counts with their floors, as a replace of cfg would
    build them, and the same object on every call."""
    want = replace(cfg, near_radial_nodes=max(4, cfg.near_radial_nodes // 2),
                   near_angular_nodes=max(4, cfg.near_angular_nodes // 2),
                   mid_angular_nodes=max(4, cfg.mid_angular_nodes // 2),
                   mid_panel_nodes=max(2, cfg.mid_panel_nodes // 2))
    assert cfg.coarsened() == want
    assert cfg.coarsened() is cfg.coarsened()
    assert replace(cfg).coarsened() is cfg.coarsened()  # keyed on the value


# ---------------------------------------------------------------------------
# trivial structure

def test_constant_field_maps_to_zero(cfg):
    c = constant_field(2, 3.7)
    r, _ = frac_gradient_batch(c, 0.5, (0.4, -0.2), cfg)
    assert np.allclose(r[0], 0.0, atol=1e-14)
    rt, _ = riesz_transform_batch(c, (0.4, -0.2), cfg)
    assert np.allclose(rt[0], 0.0, atol=1e-14)


def test_odd_symmetry_zero_at_center(cfg, gauss2d):
    r, _ = frac_gradient_batch(gauss2d, 0.5, (0.0, 0.0), cfg)
    assert np.allclose(r[0], 0.0, atol=1e-12)
    rt, _ = riesz_transform_batch(gauss2d, (0.0, 0.0), cfg)
    assert np.allclose(rt[0], 0.0, atol=1e-12)


def test_nl_ops_vanish_on_constants(cfg, gauss2d, gauss_vec2d):
    zero = gaussian((0.0, 0.0), amplitude=0.0)
    r, _ = nl_gradient_batch(zero, gauss2d, 0.5, (0.3, 0.1), cfg)
    assert np.allclose(r[0], 0.0, atol=1e-14)
    r2, _ = nl_divergence_batch(zero, gauss_vec2d, 0.5, (0.3, 0.1), cfg)
    assert r2[0] == pytest.approx(0.0, abs=1e-14)
    r3, _ = nl_gradient_batch(gauss2d, gauss2d, 0.5, (0.0, 0.0), cfg)
    assert np.allclose(r3[0], 0.0, atol=1e-12)  # odd integrand by symmetry


def test_alpha_domain_errors(cfg, gauss2d):
    for bad in (0.0, 1.0, 1.3, -0.2):
        with pytest.raises(DomainError):
            frac_gradient_batch(gauss2d, bad, (0.0, 0.0), cfg)


def test_missing_hints_config_error(cfg):
    bare = ScalarField(n=2, fn=lambda p: np.exp(-np.sum(p * p, -1)))
    with pytest.raises(ConfigError):
        frac_gradient_batch(bare, 0.5, (0.0, 0.0), cfg)


@pytest.mark.parametrize("call", [
    lambda g, bare, bare_F, X, cfg: frac_gradient_batch(bare, 0.5, X, cfg),
    lambda g, bare, bare_F, X, cfg: frac_divergence_batch(bare_F, 0.5, X, cfg),
    lambda g, bare, bare_F, X, cfg: nl_gradient_batch(g, bare, 0.5, X, cfg),
    lambda g, bare, bare_F, X, cfg: nl_divergence_batch(g, bare_F, 0.5, X, cfg),
    lambda g, bare, bare_F, X, cfg: riesz_potential_batch(bare, 0.5, X, cfg),
    lambda g, bare, bare_F, X, cfg: riesz_transform_batch(bare, X, cfg),
], ids=["frac-gradient", "frac-divergence", "nl-gradient", "nl-divergence",
        "riesz-potential", "riesz-transform"])
def test_far_plan_refuses_a_hintless_field(cfg, call):
    """A field with neither a support nor a decay hint has no far-field
    bound: every direct operator refuses it, beside a hinted field too."""
    g = gaussian((0.1, 0.0))
    bare = replace(g, support_radius=None)
    bare_F = replace(gaussian_vector((0.0, 0.2), 0.9), support_radius=None)
    X = np.array([[0.3, 0.1], [0.7, -0.4]])
    with pytest.raises(ConfigError, match="needs a support_radius or a decay hint"):
        call(g, bare, bare_F, X, cfg)


def test_product_of_decay_only_fields_carries_the_product_hint(cfg):
    """gF of two decay-only factors has the envelope C_g C_F |x|^-(s_g + s_F),
    so the direct engine bounds its far field and runs on it."""
    g = ScalarField(n=2, fn=lambda p: 1.0 / (1.0 + _inner(p)), decay=(1.0, 2.0))
    F = VectorField(n=2, fn=lambda p: np.stack([(1.0 + _inner(p)) ** -1.5,
                                                0.5 * (1.0 + _inner(p)) ** -1.5]),
                    decay=(1.2, 3.0))
    gF = scalar_times_vector(g, F)
    assert gF.support_radius is None and gF.decay == (1.2, 5.0)
    X = np.array([[0.3, 0.1], [0.7, -0.4]])
    v, e = frac_divergence_batch(gF, 0.5, X, cfg)
    assert np.all(np.isfinite(v)) and np.all(np.isfinite(e))
    assert np.all(e > 0.0) and np.all(e < 10.0 * cfg.tol)


def test_far_plan_adds_a_bound_per_decay_hinted_field():
    """Supported fields add no tail; each decay-hinted one adds its bound at
    the common R_far. R_far is at least twice the near radius whatever the
    hints, so every pass has a mid zone beyond its near zone."""
    g = gaussian((0.0, 0.0))
    decaying = ScalarField(n=2, fn=lambda p: 1.0 / (1.0 + _inner(p)) ** 2, decay=(1.0, 4.0))
    X = np.array([[0.5, 0.0]])
    cfg = QuadratureConfig()
    far_R, tail = quadrature._far_plan((g, decaying, decaying), X, cfg, 0.5)
    one = quadrature._decay_bound(1.0, 4.0, 0.5, far_R, 0.5, 2)
    assert far_R >= g.support_radius + 0.5 and tail == 0.0 + one + one
    assert quadrature._far_plan((g,), X, cfg, 0.5) == (g.support_radius + 0.5 + 1e-9, 0.0)
    tiny = mollifier(0.05, 2)  # support well inside either near radius
    origin, mixed = np.zeros((1, 2)), np.array([[0.0, 0.0], [0.5, 0.0], [-2.5, 1.0]])
    for near_radius in (0.2, 3.0):
        cfg = QuadratureConfig(near_radius=near_radius)
        for fields, X in [((tiny,), origin), ((decaying,), origin), ((tiny,), mixed),
                          ((tiny, decaying), mixed)]:
            far_R, _ = quadrature._far_plan(fields, X, cfg, 0.5)
            assert far_R >= 2.0 * cfg.near_radius, (near_radius, len(fields), X)


@pytest.mark.parametrize("call", [
    lambda G, F, pair, cfg: frac_divergence_batch(G, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: frac_gradient_batch(F, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: frac_gradient_batch(pair, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_potential_batch(F, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_transform_batch(pair, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: nl_divergence_batch(F, G, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: nl_gradient_batch(G, F, 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_potential_batch(np.zeros(2), 0.5, (0.3, 0.1), cfg),
    lambda G, F, pair, cfg: riesz_transform_batch(None, (0.3, 0.1), cfg),
], ids=["div-of-scalar", "grad-of-vector", "grad-of-pair", "potential-of-vector",
        "transform-of-pair", "nl-div-swapped", "nl-grad-of-vector", "potential-of-array",
        "transform-of-none"])
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
    r, e = frac_gradient_batch(gauss2d, 0.6, (0.5, 0.0), cfg)
    assert abs(r[0, 0] - GRAD06_AT_05) < 1e-6
    assert abs(r[0, 1]) < 1e-12
    assert abs(r[0, 0] - GRAD06_AT_05) <= 3.0 * e[0]
    r2, _ = frac_gradient_batch(gauss2d, 0.3, (0.8, 0.0), cfg)
    assert abs(r2[0, 0] - PSIP03_AT_08) < 1e-6


def test_frac_divergence_reference(cfg):
    F = gaussian_vector((0.0, 0.0), amplitudes=(1.0, 0.0))
    r, _ = frac_divergence_batch(F, 0.5, (0.3, 0.4), cfg)
    assert abs(r[0] - DIV05_AT_03_04) < 1e-6


def test_riesz_potential_reference(cfg, gauss2d):
    r, _ = riesz_potential_batch(gauss2d, 0.5, (0.0, 0.0), cfg)
    assert abs(r[0] - I05_AT_0) < 1e-6
    r2, _ = riesz_potential_batch(gauss2d, 0.5, (0.7, 0.0), cfg)
    assert abs(r2[0] - I05_AT_07) < 1e-6
    assert r[0] >= 0.0  # positive kernel on a nonnegative field


def test_riesz_potential_semigroup_direct_light(cfg, gauss2d):
    # I_0.3 I_0.4 = I_0.7 at two points through the nested field wrapper
    from fracfield.verify import riesz_potential_field

    inner = riesz_potential_field(gauss2d, 0.4, cfg)
    for r_t, ref in ((0.0, I07_REFS[0.0]), (1.3, I07_REFS[1.3])):
        v, e = riesz_potential_batch(inner, 0.3, np.array([[r_t, 0.0]]), cfg)
        assert abs(v[0] - ref) < 1e-3


def test_riesz_potential_domain_errors(cfg, gauss2d):
    with pytest.raises(DomainError):
        riesz_potential_batch(gauss2d, 2.0, (0.0, 0.0), cfg)  # beta >= n
    slow = ScalarField(n=2, fn=lambda p: (1 + np.sum(p * p, -1)) ** -0.2,
                       decay=(1.0, 0.4))
    with pytest.raises(DomainError):
        riesz_potential_batch(slow, 0.5, (0.0, 0.0), cfg)  # decay 0.4 <= order 0.5


def test_riesz_transform_reference(cfg, gauss2d):
    r, _ = riesz_transform_batch(gauss2d, (1.0, 0.0), cfg)
    assert abs(r[0, 0] - RT_AT_1) < 1e-5
    assert abs(r[0, 1]) < 1e-10


def test_riesz_transform_squares_direct(cfg, gauss2d):
    # applying the transform twice and summing returns -f (1e-2 here;
    # the spectral module checks it at roundoff)
    comps = []
    for k in range(2):
        def fn(p, k=k):
            v, _ = riesz_transform_batch(gauss2d, p.reshape(-1, 2), cfg)
            return v[:, k].reshape(p.shape[:-1])

        comps.append(ScalarField(n=2, fn=fn, decay=(1.0, 2.0)))
    x = np.array([0.4, 0.3])
    total = sum(riesz_transform_batch(c, x, cfg)[0][0, k] for k, c in enumerate(comps))
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
        v_combo, e_combo = frac_gradient_batch(combo, 0.5, x, cfg)
        v1, e1 = frac_gradient_batch(f1, 0.5, x, cfg)
        v2, e2 = frac_gradient_batch(f2, 0.5, x, cfg)
        lhs = v_combo[0]
        rhs = a * v1[0] + b * v2[0]
        tol = 2.0 * (e_combo[0] + abs(a) * e1[0] + abs(b) * e2[0])
        assert np.linalg.norm(lhs - rhs) <= tol + 1e-12


def test_alpha_homogeneity(cfg):
    # xi_lam(x) = xi(lam x): grad^a xi_lam(x) = lam^a grad^a xi(lam x)
    lam, alpha = 2.0, 0.5
    xi = gaussian((0.0, 0.0))
    xi_lam = gaussian((0.0, 0.0), width=1.0 / lam)  # xi(lam x)
    x = np.array([0.3, 0.15])
    lhs, lhs_err = frac_gradient_batch(xi_lam, alpha, x, cfg)
    rhs, rhs_err = frac_gradient_batch(xi, alpha, lam * x, cfg)
    assert np.linalg.norm(lhs[0] - lam**alpha * rhs[0]) <= \
        2.0 * (lhs_err[0] + lam**alpha * rhs_err[0]) + 1e-10


def test_translation_invariance(cfg):
    v = np.array([0.7, -0.3])
    xi = gaussian((0.0, 0.0))
    xi_shift = gaussian(v)  # xi(. - v)
    x = np.array([0.2, 0.5])
    a, a_err = frac_gradient_batch(xi, 0.5, x, cfg)
    b, b_err = frac_gradient_batch(xi_shift, 0.5, x + v, cfg)
    assert np.linalg.norm(a[0] - b[0]) <= 2.0 * (a_err[0] + b_err[0]) + 1e-10


def test_error_estimate_honesty_20_cases(cfg):
    """True error vs a double-resolution oracle stays below 3x the estimate."""
    dense = scaled_nodes(cfg, 2)
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_points_just_outside_a_small_support_match_a_tripled_rule(cfg, n):
    """Beyond S + min(1, S) of a support S < 1 the source-centered rule takes
    over. From S + 0.31 to S + 0.99, a rule centered at the point sees the
    source in a narrow cone and is off by up to 13%."""
    f = mollifier(0.3, n)
    X = np.zeros((3, n))
    X[:, 0] = (0.61, 1.0, 1.29)
    for op in (lambda c: frac_gradient_batch(f, 0.5, X, c)[0][:, 0],
               lambda c: riesz_potential_batch(f, 0.5, X, c)[0]):
        ref = op(scaled_nodes(cfg, 3))
        assert np.all(np.abs(op(cfg) - ref) <= 1e-4 * np.abs(ref))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: fine and coarse agree by accident "
                   "here, and the estimate is 21.5x below the true error")
def test_round_29_potential_estimate_is_honest(cfg):
    """The Riesz potential point that direct-points flagged (round 29 of its
    seed-11 run) meets the bound of test_error_estimate_honesty_20_cases:
    true error against doubled node counts within 3x the estimate."""
    f = gaussian((-0.18911366662726364,), 0.9201627689128381, 1.2337686987237153)
    beta, x = 0.2561496081638188, (-1.25634754,)
    v, e = riesz_potential_batch(f, beta, x, cfg)
    vd, _ = riesz_potential_batch(f, beta, x, scaled_nodes(cfg, 2))
    assert abs(v[0] - vd[0]) <= 3.0 * e[0] + 1e-12


# ---------------------------------------------------------------------------
# norms

def test_lp_norm_indicator_area():
    ind = ball_indicator((0.0, 0.0), 1.0)
    dom = GridSpec((-1.1, -1.1), (1.1, 1.1), (2048, 2048))
    assert lp_norm(ind, 1.0, dom) == pytest.approx(math.pi, abs=1e-3)


def test_lp_norm_gaussian_l2(gauss2d):
    dom = GridSpec((-4.5, -4.5), (4.5, 4.5), (1024, 1024))
    assert lp_norm(gauss2d, 2.0, dom) == pytest.approx(2.0**-0.5, abs=1e-6)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lp_norm_decay_tail_bounds_wider_box(p):
    """The decay hint's tail bound makes the norm on a box an upper bound:
    it covers the unhinted norm on a box four times wider."""
    fn = lambda x: (1.0 + _inner(x)) ** -1.5  # <= |x|^-3
    hinted = ScalarField(n=2, fn=fn, decay=(1.0, 3.0))
    bare = ScalarField(n=2, fn=fn)
    narrow = GridSpec((-2.0, -2.0), (2.0, 2.0), (128, 128))
    wide = GridSpec((-8.0, -8.0), (8.0, 8.0), (512, 512))
    assert lp_norm(hinted, p, narrow) >= lp_norm(bare, p, wide) > lp_norm(bare, p, narrow)


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
    zero = gaussian((0.0, 0.0), amplitude=0.0)
    assert besov_seminorm(zero, 0.4, 2.0, cfg) == pytest.approx(0.0, abs=1e-12)


def test_besov_gaussian_vs_dense_oracle(cfg, gauss2d):
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
        single, _ = frac_gradient_batch(gauss2d, 0.5, p, cfg)
        # batch evaluation shares one far cutoff across points
        assert np.allclose(single[0], vals[i], rtol=1e-8, atol=1e-9)
    with pytest.raises(ConfigError, match=r"shape \(n,\) or \(m, n\) with n=2"):
        frac_gradient_batch(gauss2d, 0.5, pts[None], cfg)


def test_constant_vector_field_divergence_zero(cfg):
    from fracfield.fields import VectorField

    const_vec = VectorField(n=2, fn=lambda p: np.multiply.outer(
        np.array([1.5, -0.5]), np.ones(p.shape[:-1])), decay=(0.0, 1.0))
    r, _ = frac_divergence_batch(const_vec, 0.5, (0.3, -0.1), cfg)
    assert r[0] == pytest.approx(0.0, abs=1e-14)


def test_delta_pair_divergence_vanishes_off_atoms(cfg):
    """The pair field's divergence measure is purely atomic: the pointwise
    density away from both poles is zero within 10x the tolerance (the atoms
    are interior kernel singularities, handled by the pole-aware splitting)."""
    from fracfield.analytic import make_delta_pair

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
    engine, engine_err = nl_divergence_batch(gauss2d, F, alpha, x, cfg)

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
    assert engine[0] == pytest.approx(brute, abs=max(1e-4, 5.0 * engine_err[0]))


# ---------------------------------------------------------------------------
# blocked passes

def _unblocked_polar_sum(X, numer, r, w_rad, m_ang, extra_pow, vector):
    """The polar pass over the whole batch at once: the reference the
    point-blocked quadrature._polar_sum is compared against."""
    dirs, w_ang = sphere_rule(X.shape[1], m_ang)
    pts = X[:, None, None, :] + r[:, None, None] * dirs[None, :, :]
    vals = numer(pts, dirs, slice(None))
    w = w_rad[:, None] * w_ang[None, :]
    if extra_pow != 0.0:
        w = w * r[:, None] ** extra_pow
    if vector:
        return np.einsum("mra,kra->mk", vals, np.multiply(w, dirs.T[:, None, :], order="C"))
    return np.einsum("mra,ra->m", vals, w)


def _operator_calls(n):
    rng = np.random.default_rng(40 + n)
    f = gaussian(rng.uniform(-0.3, 0.3, n), 0.9, 1.3)
    g = gaussian(rng.uniform(-0.3, 0.3, n), 1.05)
    F = gaussian_vector(rng.uniform(-0.3, 0.3, n), 0.95, tuple(rng.uniform(0.5, 1.5, n)))
    cfg = QuadratureConfig()
    return f.support_radius, {
        "frac_gradient": lambda X: frac_gradient_batch(f, 0.4, X, cfg),
        "frac_divergence": lambda X: frac_divergence_batch(F, 0.6, X, cfg),
        "nl_gradient": lambda X: nl_gradient_batch(f, g, 0.5, X, cfg),
        "nl_divergence": lambda X: nl_divergence_batch(g, F, 0.3, X, cfg),
        "riesz_potential": lambda X: riesz_potential_batch(f, 0.7, X, cfg),
        "riesz_transform": lambda X: riesz_transform_batch(f, X, cfg),
    }


def _batches(n, support, m, seed):
    """Near, far (beyond support + 1: the far-source rule) and mixed points."""
    rng = np.random.default_rng(seed)
    near = rng.uniform(-1.5, 1.5, (m, n))
    dirs = rng.normal(size=(m, n))
    far = dirs / np.sqrt(_inner(dirs))[:, None] * rng.uniform(support + 1.5, support + 4.0, (m, 1))
    mixed = np.where(rng.uniform(size=(m, 1)) < 0.3, far, near)
    return {"near": near, "far": far, "mixed": mixed}


@pytest.mark.parametrize("block_nodes", [1, 700, quadrature._BLOCK_NODES],
                         ids=["one-point", "partial-last", "default"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_blocked_passes_match_unblocked(monkeypatch, n, block_nodes):
    """Every operator's values and estimates from the point-blocked passes
    equal a whole-batch evaluation: bit for bit at n <= 2, within 1e-13 of
    the batch's largest value at n = 3, where einsum's reduction order
    depends on the rows per call."""
    support, calls = _operator_calls(n)
    batches = _batches(n, support, 29, seed=n)
    ref = {}
    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "_polar_sum", _unblocked_polar_sum)
        mp.setattr(quadrature, "_BLOCK_NODES", 1 << 40)   # far rule in one block
        for (bn, X), (op, call) in itertools.product(batches.items(), calls.items()):
            ref[bn, op] = call(X)
    monkeypatch.setattr(quadrature, "_BLOCK_NODES", block_nodes)
    for (bn, X), (op, call) in itertools.product(batches.items(), calls.items()):
        (vals, errs), (ref_vals, ref_errs) = call(X), ref[bn, op]
        if n <= 2:
            assert np.array_equal(vals, ref_vals) and np.array_equal(errs, ref_errs), (bn, op)
        else:
            # an estimate is |fine - coarse|: value roundoff lands on it in absolute terms
            atol = 1e-13 * np.max(np.abs(ref_vals))
            np.testing.assert_allclose(vals, ref_vals, rtol=1e-13, atol=atol, err_msg=f"{bn} {op}")
            np.testing.assert_allclose(errs, ref_errs, rtol=1e-13, atol=atol, err_msg=f"{bn} {op}")


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([1, 2, 3]), op=st.sampled_from(sorted(_operator_calls(1)[1])),
       block_nodes=st.sampled_from([700, quadrature._BLOCK_NODES]),
       seed=st.integers(0, 2**16), data=st.data())
def test_permuted_batch_permutes_results(n, op, block_nodes, seed, data):
    """Results do not depend on a point's position in the batch, whichever
    block it falls in, and every estimate is finite and nonnegative."""
    support, calls = _operator_calls(n)
    X = _batches(n, support, 13, seed)["mixed"]
    perm = np.array(data.draw(st.permutations(range(len(X)))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quadrature, "_BLOCK_NODES", block_nodes)
        vals, errs = calls[op](X)
        pvals, perrs = calls[op](X[perm])
    assert np.array_equal(pvals, vals[perm]) and np.array_equal(perrs, errs[perm])
    assert np.all(np.isfinite(errs)) and np.all(errs >= 0)
