import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fracfield.analytic import nl_gradient_ball
from fracfield.errors import ConfigError, DomainError
from fracfield.fields import (
    GridSpec,
    VectorField,
    _dist2,
    _inner,
    ball_indicator,
    compact_bump,
    cutoff,
    gaussian,
    gaussian_vector,
    mollifier,
    scalar_times_vector,
)

from fracfield.measures import RadonMeasure, measure_ball_mass
from fracfield.quadrature import QuadratureConfig, frac_gradient_batch

from _oracles import lin_comb


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


def test_gaussian_gradient_shapes_and_mask():
    """gradient returns (n,) at one point and (..., n) on a batch, masked to
    0 outside the support like the field itself."""
    g = gaussian((0.2, -0.1), width=0.5, amplitude=2.0)
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, (3, 4, 2))
    pts[0, 0] = (3.0, 0.0)  # beyond the support radius
    grad = g.gradient(pts)
    assert grad.shape == (3, 4, 2) and np.all(grad[0, 0] == 0.0)
    assert np.array_equal(g.gradient(pts[1, 2]), grad[1, 2])
    d = pts[1, 2] - (0.2, -0.1)
    assert np.allclose(grad[1, 2], -2.0 * math.pi / 0.25 * d * g(pts[1, 2]), rtol=1e-14)
    with pytest.raises(DomainError, match="no closed-form gradient"):
        compact_bump((0.0, 0.0), 1.0).gradient(pts)


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 1)), np.float64(0.5)],
                         ids=["one-point", "batch", "scalar"])
def test_field_calls_refuse_points_of_another_dimension(x):
    """Field calls, the direct engine, which evaluates fields at the points,
    a measure's ball mass and the ball indicator's gradient give the same
    refusal."""
    g = gaussian((0.0, 0.0))
    direct = lambda x: frac_gradient_batch(g, 0.5, x, QuadratureConfig())
    mu = RadonMeasure(n=2, atom_points=[[0.5, 0.0]], atom_weights=[1.0])
    ball_mass = lambda x: measure_ball_mass(mu, x, 1.0)
    ball_gradient = lambda x: nl_gradient_ball(np.zeros(2), 0.5, g, 0.5, x, QuadratureConfig())
    for call in (g, g.gradient, gaussian_vector((0.0, 0.0)), direct, ball_mass, ball_gradient):
        with pytest.raises(ConfigError, match="trailing dimension 2"):
            call(x)


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


def _vector_from_components_reference(components):
    """The vector field whose k-th component is components[k], with the
    hints merged conservatively: the reference for gaussian_vector."""
    sups = [c.support_radius for c in components]
    decays = [c.decay for c in components]
    return VectorField(
        n=components[0].n,
        fn=lambda p: np.stack([np.asarray(c.fn(p)) for c in components]),
        support_radius=None if any(s is None for s in sups) else max(sups),
        decay=None if any(d is None for d in decays)
        else (sum(d[0] for d in decays), min(d[1] for d in decays)),
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gaussian_vector_bit_identical_to_component_stack(n):
    center = np.linspace(0.3, -0.2, n)
    amps = np.linspace(-1.5, 2.0, n)
    F = gaussian_vector(center, 0.7, amps)
    ref = _vector_from_components_reference([gaussian(center, 0.7, float(a)) for a in amps])
    pts = np.random.default_rng(n).uniform(-3.5, 3.5, (40, 7, n))
    assert np.array_equal(F(pts), ref(pts))
    assert np.array_equal(F.fn(pts), ref.fn(pts))
    for hint in ("n", "support_radius", "decay"):
        assert getattr(F, hint) == getattr(ref, hint), hint
    default = gaussian_vector(center)
    default_ref = _vector_from_components_reference([gaussian(center)] * n)
    assert np.array_equal(default(pts), default_ref(pts))
    with pytest.raises(ConfigError):
        gaussian_vector(center, 0.7, np.ones(n + 1))
