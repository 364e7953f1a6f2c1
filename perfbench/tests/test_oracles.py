"""The Hankel oracle against whole-space references for exp(-pi |x|^2),
frozen at 25-digit precision in tests/test_quadrature.py."""

import numpy as np
import pytest

from ffbench import oracles as o

G = o.Gauss((0.0, 0.0), 1.0, 1.0)


def test_gradient_and_divergence_references():
    assert o.frac_gradient(G, 0.6, np.array([[0.5, 0.0]]))[0, 0] == pytest.approx(
        -0.8788693883677705, abs=1e-12)
    assert o.frac_gradient(G, 0.3, np.array([[0.8, 0.0]]))[0, 0] == pytest.approx(
        -0.4004767900745917, abs=1e-12)
    assert o.frac_divergence(G, (1.0, 0.0), 0.5, np.array([[0.3, 0.4]]))[0] == pytest.approx(
        -0.46857676573521875, abs=1e-12)


def test_potential_and_transform_references():
    pot = o.riesz_potential(G, 0.5, np.array([[0.0, 0.0], [0.7, 0.0]]))
    np.testing.assert_allclose(pot, [0.65085062986601583, 0.23329247455846574], atol=1e-12)
    rt = o.riesz_transform(G, np.array([[1.0, 0.0]]))
    assert rt[0, 0] == pytest.approx(-0.21711238065951852, abs=1e-12)
    assert rt[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_gaussian_product_is_exact():
    a = o.Gauss((0.1, -0.2), 0.9, 1.3)
    b = o.Gauss((-0.3, 0.25), 1.2, 0.7)
    X = np.random.default_rng(0).uniform(-2, 2, (7, 2))
    np.testing.assert_allclose(a.times(b).value(X), a.value(X) * b.value(X), rtol=1e-13)


def test_one_dimensional_case_matches_the_cosine_transform():
    # n = 1: I_b G(x) = 2 int_0^inf (2 pi k)^-b exp(-pi k^2) cos(2 pi k x) dk
    from scipy.integrate import quad

    g1 = o.Gauss((0.0,), 1.0, 1.0)
    x = 0.6
    ref, _ = quad(lambda k: 2 * (2 * np.pi * k) ** -0.4 * np.exp(-np.pi * k * k)
                  * np.cos(2 * np.pi * k * x), 0, 12, limit=400)
    assert o.riesz_potential(g1, 0.4, np.array([[x]]))[0] == pytest.approx(ref, rel=1e-8)


def test_tolerance_is_relative_with_an_absolute_floor():
    ref = np.array([1.0, 2e-5, 0.0])
    ok = ref + np.array([0.9e-3, 0.9e-6, 0.9e-6])
    bad = ref + np.array([1.2e-3, 2e-6, 2e-6])
    assert np.all(o.excess(ok, ref) <= 1.0)
    assert np.all(o.excess(bad, ref) > 1.0)
    vec_ref = np.array([[0.6, 0.8]])
    assert o.excess(vec_ref + [[0.0, 1.5e-3]], vec_ref)[0] > 1.0
