import math

import numpy as np
import pytest

from fracfield.errors import ConfigError, DomainError, EmbeddingError
from fracfield.fields import GridSpec, ball_indicator, gaussian
from fracfield.quadrature import QuadratureConfig, frac_gradient_batch, riesz_potential_batch
from fracfield.spectral import (
    PeriodicField,
    _freq_grids,
    embed,
    random_band_limited,
    spectral_frac_divergence,
    spectral_frac_gradient,
    spectral_riesz_potential,
    spectral_riesz_transform,
)


@pytest.fixture(scope="module")
def small_grid():
    return GridSpec((-8.0, -8.0), (8.0, 8.0), (128, 128))


@pytest.fixture(scope="module")
def gauss_pf():
    return embed(gaussian((0.0, 0.0)), 16.0, 512)


def test_power_of_two_required():
    g = GridSpec((-8.0, -8.0), (8.0, 8.0), (100, 100))
    with pytest.raises(ConfigError):
        PeriodicField(g, np.zeros((100, 100)))
    with pytest.raises(ConfigError):
        embed(gaussian((0.0, 0.0)), 16.0, 100)


def test_periodic_field_kind_is_the_data_shape(small_grid):
    """Data of the grid's shape is a scalar field, (n,) + that shape a vector
    field; any other shape is refused."""
    counts = small_grid.counts
    assert not PeriodicField(small_grid, np.zeros(counts)).vector
    assert PeriodicField(small_grid, np.zeros((2,) + counts)).vector
    for shape in ((3,) + counts, (1,) + counts, (128, 64), (128,), (2, 2) + counts):
        with pytest.raises(ConfigError, match="data shape"):
            PeriodicField(small_grid, np.zeros(shape))


def test_spectral_operator_argument_errors(small_grid):
    f = random_band_limited(small_grid, 3, seed=4)
    F = random_band_limited(small_grid, 3, seed=5, vector=True)
    with pytest.raises(ConfigError, match="takes a scalar field"):
        spectral_frac_gradient(F, 0.5)
    for alpha in (-0.1, 1.5):
        with pytest.raises(DomainError, match="divergence order"):
            spectral_frac_divergence(F, alpha)
    with pytest.raises(ConfigError, match="takes a vector field"):
        spectral_frac_divergence(f, 0.5)
    for beta in (0.0, -1.0):
        with pytest.raises(DomainError, match="order must be positive"):
            spectral_riesz_potential(f, beta)
    with pytest.raises(ConfigError, match="takes a scalar field"):
        spectral_riesz_potential(F, 0.5)
    with pytest.raises(ConfigError, match="takes a scalar field"):
        spectral_riesz_transform(F)


def test_embed_margins():
    # support 6 fits the side-16 box; indicator of B_1 in a side-4 box does not
    wide = gaussian((0.0, 0.0), width=1.5)  # support 6
    pf = embed(wide, 16.0, 256)
    assert pf.grid.counts == (256, 256)
    with pytest.raises(EmbeddingError):
        embed(ball_indicator((0.0, 0.0), 1.0), 4.0, 64)
    bare = gaussian((0.0, 0.0))
    object.__setattr__(bare, "support_radius", None)
    with pytest.raises(EmbeddingError):
        embed(bare, 16.0, 64)


def test_cached_frequency_grids_are_read_only(small_grid):
    ks, mag = _freq_grids(small_grid)
    assert _freq_grids(small_grid)[1] is mag
    with pytest.raises(ValueError):
        mag[0, 0] = 1.0
    for k in ks:
        with pytest.raises(ValueError):
            k *= 2.0


def test_roundtrip_and_sampling(gauss_pf):
    g = gaussian((0.0, 0.0))
    node = np.array([gauss_pf.grid.axis_nodes(0)[300], gauss_pf.grid.axis_nodes(1)[260]])
    assert gauss_pf.sample_linear(node) == pytest.approx(g(node), rel=1e-12)
    assert gauss_pf.eval_fourier(np.array([0.337, -0.112])) == pytest.approx(
        g((0.337, -0.112)), abs=1e-10)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (3, 1)])
@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
def test_sample_linear_refuses_points_of_another_dimension(small_grid, vector, shape):
    """Points whose trailing axis is not n raise the field evaluator's
    ConfigError in both samplers, not a numpy reshape error or a silent
    reshape."""
    pf = PeriodicField(small_grid, np.zeros(((2,) if vector else ()) + small_grid.counts))
    pts = np.zeros(shape)
    with pytest.raises(ConfigError) as ref:
        gaussian((0.0, 0.0))(pts)
    assert str(ref.value) == f"points must have trailing dimension 2, got shape {shape}"
    for sample in (pf.sample_linear, pf.eval_fourier):
        with pytest.raises(ConfigError) as err:
            sample(pts)
        assert str(err.value) == str(ref.value)


def test_constant_field_zero(small_grid):
    pf = PeriodicField(small_grid, np.full(small_grid.counts, 2.5))
    out = spectral_frac_gradient(pf, 0.5)
    assert np.max(np.abs(out.data)) < 1e-12
    outv = spectral_riesz_transform(pf)
    assert np.max(np.abs(outv.data)) < 1e-12


def test_alpha_endpoints(small_grid):
    f = random_band_limited(small_grid, 5, seed=1)
    # alpha = 0 equals the Riesz transform
    g0 = spectral_frac_gradient(f, 0.0)
    rt = spectral_riesz_transform(f)
    assert np.max(np.abs(g0.data - rt.data)) < 1e-13
    # alpha = 1 equals the plain spectral derivative
    g1 = spectral_frac_gradient(f, 1.0)
    k = np.fft.fftfreq(128, d=16.0 / 128)
    dx = np.real(np.fft.ifft2(np.fft.fft2(f.data) * 2j * math.pi * k[:, None]))
    assert np.max(np.abs(g1.data[0] - dx)) < 1e-12
    with pytest.raises(DomainError):
        spectral_frac_gradient(f, 1.2)


def test_discrete_adjoint_duality(small_grid):
    # sum F . grad^a xi h^2 + sum xi div^a F h^2 = 0 at roundoff, 50 pairs
    h2 = small_grid.cell_volume
    worst = 0.0
    for seed in range(50):
        xi = random_band_limited(small_grid, 5, seed=2 * seed)
        F = random_band_limited(small_grid, 5, seed=2 * seed + 1, vector=True)
        ga = spectral_frac_gradient(xi, 0.5)
        da = spectral_frac_divergence(F, 0.5)
        res = np.sum(F.data * ga.data) * h2 + np.sum(xi.data * da.data) * h2
        scale = max(1.0, abs(np.sum(F.data * ga.data) * h2))
        worst = max(worst, abs(res) / scale)
    assert worst < 1e-10


def test_div_of_grad_is_fractional_laplacian(small_grid):
    f = random_band_limited(small_grid, 5, seed=9)
    alpha = 0.5
    dd = spectral_frac_divergence(spectral_frac_gradient(f, alpha), alpha)
    k = np.fft.fftfreq(128, d=16.0 / 128)
    K = 2 * math.pi * np.sqrt(k[:, None] ** 2 + k[None, :] ** 2)
    ref = np.real(np.fft.ifft2(-(K ** (2 * alpha)) * np.fft.fft2(f.data)))
    assert np.max(np.abs(dd.data - ref)) < 1e-12


def test_semigroup_roundoff(gauss_pf):
    with pytest.warns(RuntimeWarning, match="non-negligible mean"):
        a = spectral_riesz_potential(spectral_riesz_potential(gauss_pf, 0.4), 0.3)
        b = spectral_riesz_potential(gauss_pf, 0.7)
    assert np.max(np.abs(a.data - b.data)) < 1e-12


def test_potential_zero_mean_output(small_grid):
    f = random_band_limited(small_grid, 4, seed=3)
    out = spectral_riesz_potential(f, 0.5)
    assert abs(out.mean()) < 1e-14


def test_potential_warnings(gauss_pf, small_grid):
    with pytest.warns(RuntimeWarning, match="mean"):
        spectral_riesz_potential(gauss_pf, 0.5)
    f = random_band_limited(small_grid, 4, seed=4)
    with pytest.warns(RuntimeWarning, match="torus"):
        spectral_riesz_potential(f, 2.0)


def test_symbol_factorization_roundoff(gauss_pf):
    for alpha in (0.1, 0.5, 0.9):
        a = spectral_frac_gradient(gauss_pf, alpha)
        with pytest.warns(RuntimeWarning):
            pot = spectral_riesz_potential(gauss_pf, 1.0 - alpha)
        b = spectral_frac_gradient(pot, 1.0)
        assert np.max(np.abs(a.data - b.data)) < 1e-11


def test_riesz_square_identity(small_grid):
    f = random_band_limited(small_grid, 6, seed=7)
    R = spectral_riesz_transform(f)
    acc = np.zeros_like(f.data)
    for j in range(2):
        acc += spectral_riesz_transform(PeriodicField(small_grid, R.data[j])).data[j]
    assert np.max(np.abs(acc + f.data)) < 1e-12


def test_master_oracle_contract(cfg):
    """Direct vs spectral within max(1e-3, 3x estimate) at 10 random points."""
    G = gaussian((0.0, 0.0))
    pf = embed(G, 16.0, 1024)
    sp = spectral_frac_gradient(pf, 0.5)
    rng = np.random.default_rng(11)
    ang = rng.uniform(0, 2 * math.pi, 10)
    rad = rng.uniform(0.3, 1.3, 10)
    pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=-1)
    dv, de = frac_gradient_batch(G, 0.5, pts, cfg)
    sv = sp.sample_linear(pts)
    diff = np.sqrt(np.sum((dv - sv) ** 2, axis=-1))
    assert np.all(diff <= np.maximum(1e-3, 3.0 * de))


def test_periodization_bias_decays(cfg):
    """Doubling the box at fixed per-unit resolution shrinks the whole-space
    disagreement with empirical order >= alpha."""
    alpha = 0.3
    G = gaussian((0.0, 0.0))
    pts = np.array([[0.6, 0.0], [0.2, 0.8], [-0.5, -0.4]])
    tight = QuadratureConfig(near_radial_nodes=20, near_angular_nodes=24,
                             mid_angular_nodes=48, mid_panel_nodes=10)
    ref, _ = frac_gradient_batch(G, alpha, pts, tight)
    biases = []
    for L, N in ((8.0, 512), (16.0, 1024)):
        # margin relaxed on purpose: the small box measures the bias itself
        sp = spectral_frac_gradient(embed(G, L, N, margin=0.0), alpha)
        sv = sp.sample_linear(pts)
        biases.append(float(np.max(np.sqrt(np.sum((sv - ref) ** 2, axis=-1)))))
    assert biases[1] <= biases[0] * 2.0**-alpha * 1.3  # order >= alpha with slack


def test_potential_value_differences_match_whole_space(cfg):
    """The torus potential carries a constant zero-mode offset; value
    differences are the whole-space-comparable quantity."""
    G = gaussian((0.0, 0.0))
    pf = embed(G, 16.0, 1024)
    with pytest.warns(RuntimeWarning):
        sp = spectral_riesz_potential(pf, 0.5)
    pts = np.array([[0.0, 0.0], [0.7, 0.0], [0.0, 1.1]])
    dv, _ = riesz_potential_batch(G, 0.5, pts, cfg)
    sv = sp.sample_linear(pts)
    d_diff = dv - dv[0]
    s_diff = sv - sv[0]
    assert np.max(np.abs(d_diff - s_diff)) < 1e-3


def test_one_dimensional_engines(cfg):
    """n = 1: direct vs spectral agreement for the fractional derivative."""
    g = gaussian((0.0,))
    pf = embed(g, 16.0, 2048)
    sp = spectral_frac_gradient(pf, 0.5)
    pts = np.array([[0.4], [0.9], [-0.6]])
    dv, de = frac_gradient_batch(g, 0.5, pts, cfg)
    sv = sp.sample_linear(pts)
    assert np.max(np.abs(dv[:, 0] - sv[:, 0])) < 1e-3


def test_three_dimensional_engines(cfg):
    """n = 3: direct vs spectral agreement at one off-center point."""
    g = gaussian((0.0, 0.0, 0.0))
    pf = embed(g, 16.0, 128)
    sp = spectral_frac_gradient(pf, 0.5)
    pt = np.array([[0.5, 0.25, 0.0]])
    dv, de = frac_gradient_batch(g, 0.5, pt, cfg)
    sv = sp.sample_linear(pt)
    # 128^3 grid: h = 0.125, trilinear sampling dominates the comparison
    assert np.linalg.norm(dv[0] - sv[0]) < 5e-3
