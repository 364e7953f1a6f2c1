import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracfield.errors import ConfigError, DomainError
from fracfield.fields import (
    GridSpec,
    _dist2,
    _inner,
    ball_indicator,
    compact_bump,
    cutoff,
    gaussian,
    gaussian_vector,
    grid_field,
    lin_comb,
    mollifier,
    scalar_times_vector,
    vector_from_components,
)


def test_gridspec_validation():
    with pytest.raises(ConfigError):
        GridSpec((0.0,), (1.0,), (3,))  # too few samples
    with pytest.raises(ConfigError):
        GridSpec((1.0,), (0.0,), (8,))  # inverted bounds
    with pytest.raises(ConfigError):
        GridSpec((0.0,) * 4, (1.0,) * 4, (8,) * 4)  # n > 3
    g = GridSpec((-1.0, 0.0), (1.0, 2.0), (8, 16))
    assert g.n == 2
    assert g.spacing == (0.25, 0.125)
    assert g.cell_volume == pytest.approx(0.25 * 0.125)


def test_grid_nodes_and_centers():
    g = GridSpec((0.0,), (1.0,), (4,))
    assert np.allclose(g.axis_nodes(0), [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875])


def test_gaussian_eval_and_gradient():
    g = gaussian((0.5, -0.5), width=2.0, amplitude=3.0)
    x = np.array([1.0, 0.0])
    d2 = 0.5
    assert g(x) == pytest.approx(3.0 * math.exp(-math.pi * d2 / 4.0), rel=1e-12)
    num = (g(x + [1e-6, 0]) - g(x - [1e-6, 0])) / 2e-6
    assert g.gradient(x)[0] == pytest.approx(num, rel=1e-5)


def test_support_mask_exact():
    g = gaussian((0.0, 0.0))
    R = g.support_radius
    assert g(np.array([R + 0.01, 0.0])) == 0.0
    b = compact_bump((0.0, 0.0), 1.0)
    assert b((1.0, 0.0)) == 0.0
    assert b((0.999, 0.0)) > 0.0
    ind = ball_indicator((0.0, 0.0), 1.0)
    assert ind((0.5, 0.5)) == 1.0
    assert ind((1.0, 0.0)) == 0.0


@pytest.mark.parametrize("eps", [0.1, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mollifier_unit_mass(eps, n):
    rho = mollifier(eps, n)
    if n == 1:
        xs = np.linspace(-eps, eps, 20001)[:, None]
        mass = float(np.sum(rho(xs))) * (xs[1, 0] - xs[0, 0])
    elif n == 2:
        m = 900
        g = GridSpec((-eps, -eps), (eps, eps), (m, m))
        mass = float(np.sum(rho(g.center_points()))) * g.cell_volume
    else:
        # dense radial trapezoid: independent of the builder's Gauss rule
        r = np.linspace(0.0, eps, 40001)
        pts = np.zeros((r.shape[0], 3))
        pts[:, 0] = r
        vals = rho(pts) * r**2
        mass = 4.0 * math.pi * float(np.trapezoid(vals, r))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_mollifier_support_and_scaling():
    rho = mollifier(0.3, 2)
    assert rho((0.31, 0.0)) == 0.0
    rho1 = mollifier(1.0, 2)
    # rho_eps(0) = eps^-n rho(0)
    assert rho((0.0, 0.0)) == pytest.approx(rho1((0.0, 0.0)) / 0.09, rel=1e-12)
    with pytest.raises(DomainError):
        mollifier(0.0, 2)


def test_cutoff_shape():
    eta = cutoff(1.0, 2)
    assert eta((0.0, 0.0)) == 1.0
    assert eta((0.99, 0.0)) == 1.0
    assert eta((2.0, 0.0)) == 0.0
    assert eta((2.5, 0.0)) == 0.0
    rr = np.linspace(1.0, 2.0, 101)
    vals = eta(np.stack([rr, np.zeros(101)], axis=-1))
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_grid_field_interpolation():
    g = gaussian((0.0, 0.0))
    grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (256, 256))
    f = grid_field(grid, g(grid.node_points()))
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, (50, 2))
    assert np.max(np.abs(f(pts) - g(pts))) < 2e-4  # O(h^2) bilinear error
    # exact at nodes
    node = np.array([grid.axis_nodes(0)[40], grid.axis_nodes(1)[77]])
    assert f(node) == pytest.approx(g(node), rel=1e-14)
    # zero outside the box
    assert f(np.array([3.0, 0.0])) == 0.0


def test_vector_field_components():
    F = gaussian_vector((0.0, 0.0), amplitudes=(1.0, -2.0))
    x = np.array([0.3, 0.4])
    v = F(x)
    assert v[1] == pytest.approx(-2.0 * v[0], rel=1e-12)
    c1 = F.component(1)
    assert c1(x) == pytest.approx(v[1], rel=1e-12)


def test_combinators_hints():
    f = gaussian((0.0, 0.0))
    g = gaussian((1.0, 0.0), width=0.5)
    h = lin_comb(2.0, f, -1.0, g)
    x = np.array([0.2, 0.1])
    assert h(x) == pytest.approx(2 * f(x) - g(x), rel=1e-12)
    assert h.support_radius == max(f.support_radius, g.support_radius)
    F = gaussian_vector((0.0, 0.0))
    gF = scalar_times_vector(g, F)
    assert np.allclose(gF(x), g(x) * F(x))
    assert gF.support_radius == min(g.support_radius, F.support_radius)


def test_vector_from_components_validation():
    f = gaussian((0.0, 0.0))
    with pytest.raises(ConfigError):
        vector_from_components([f])  # 1 component for n=2


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5), st.floats(min_value=-1.5, max_value=1.5))
def test_scaled_field_property(x, y):
    f = gaussian((0.0, 0.0))
    assert f.scaled(-2.5)((x, y)) == pytest.approx(-2.5 * f((x, y)), rel=1e-12)


# products of these stay finite, so both sums see the same finite terms
_FINITE = st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False)


@st.composite
def _operand_pair(draw):
    n = draw(st.integers(1, 3))
    lead = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=5))
    a = draw(hnp.arrays(float, lead + (n,), elements=_FINITE))
    b = draw(hnp.arrays(float, lead + (n,), elements=_FINITE))
    return a, b


def _strided(a):
    """Same values, trailing axis with stride 2 elements."""
    return np.repeat(a, 2, axis=-1)[..., ::2]


def _trailing_major(a):
    """Same values, trailing axis the slowest in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


@settings(max_examples=200, deadline=None)
@given(_operand_pair())
def test_inner_and_dist2_bit_identical_to_numpy_sum(pair):
    a, b = pair
    ref = np.sum(a * b, axis=-1)
    assert np.array_equal(_inner(a, b), ref)
    assert np.array_equal(_inner(a), np.sum(a * a, axis=-1))
    dist = np.sum((a - b) ** 2, axis=-1)
    assert np.array_equal(_dist2(a, b), dist)
    centre = b.reshape(-1, b.shape[-1])[0] if b.size else np.zeros(b.shape[-1])
    assert np.array_equal(_dist2(a, centre), np.sum((a - centre) ** 2, axis=-1))
    for layout in (_strided, _trailing_major):
        assert np.array_equal(_inner(layout(a), layout(b)), ref)
        assert np.array_equal(_inner(layout(a), b), ref)
        assert np.array_equal(_dist2(layout(a), layout(b)), dist)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_vector_bit_identical_to_component_stack(n):
    center = np.linspace(0.3, -0.2, n)
    amps = np.linspace(-1.5, 2.0, n)
    F = gaussian_vector(center, 0.7, amps)
    ref = vector_from_components([gaussian(center, 0.7, float(a)) for a in amps])
    pts = np.random.default_rng(n).uniform(-3.5, 3.5, (40, 7, n))
    assert np.array_equal(F(pts), ref(pts))
    assert np.array_equal(F.fn(pts), ref.fn(pts))
    for hint in ("n", "support_radius", "decay", "sup_bound", "smooth", "cache_token"):
        assert getattr(F, hint) == getattr(ref, hint), hint
    default = gaussian_vector(center)
    assert default.cache_token == vector_from_components([gaussian(center)] * n).cache_token
    with pytest.raises(ConfigError):
        gaussian_vector(center, 0.7, np.ones(n + 1))
