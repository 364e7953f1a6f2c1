import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.errors import DomainError
from fracfield.special import (
    FracParams,
    gamma_fn,
    mu_const,
    omega_const,
    riesz_potential_const,
    riesz_transform_const,
)

# frozen high-precision references (30-digit arithmetic, computed once offline)
GAMMA_REFS = {
    0.1: 9.5135076986687313,
    0.25: 3.6256099082219083,
    0.5: 1.772453850905516,
    0.75: 1.2254167024651776,
    1.0: 1.0,
    1.25: 0.90640247705547708,
    1.5: 0.88622692545275801,
    2.0: 1.0,
    2.5: 1.329340388179137,
    3.7: 4.170651783796604,
    5.5: 52.34277778455352,
    7.25: 1155.3810139199897,
    10.0: 362880.0,
    15.5: 334838609873.55646,
    20.25: 2.5604013332847647e17,
    30.0: 8.841761993739702e30,
}


def test_gamma_against_frozen_references():
    for x, ref in GAMMA_REFS.items():
        assert abs(gamma_fn(x) - ref) / ref <= 1e-12


def test_gamma_classical_values():
    assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_gamma_domain_error():
    for bad in (0.0, -1.0, -0.5, -3.2, math.nan):
        with pytest.raises(DomainError):
            gamma_fn(bad)


def test_gamma_recurrence_sweep():
    # Gamma(x+1) = x Gamma(x) on x = 0.1, 0.2, ..., 5.0
    for k in range(1, 51):
        x = k / 10.0
        lhs = gamma_fn(x + 1.0)
        rhs = x * gamma_fn(x)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-10


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.05, max_value=40.0))
def test_gamma_recurrence_property(x):
    assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-10)


def test_mu_const_values():
    assert mu_const(2, 0.5) == pytest.approx(0.11411141979370156, rel=1e-12)
    assert mu_const(1, -0.5) == pytest.approx(0.39894228040143268, rel=1e-12)
    assert mu_const(2, 0.3) == pytest.approx(0.13853979210529713, rel=1e-12)


def test_mu_const_vanishes_toward_one():
    # Gamma((1-a)/2) -> inf forces the limit 0
    prev = mu_const(2, 0.9)
    for a in (0.99, 0.999, 0.9999):
        cur = mu_const(2, a)
        assert 0.0 < cur < prev
        prev = cur
    assert mu_const(2, 0.9999) < 1e-3


def test_mu_const_domain():
    for bad in (-1.0, 1.0, 1.5, -2.0):
        with pytest.raises(DomainError):
            mu_const(2, bad)


def test_mu_times_gamma_positive_and_continuous():
    # mu(n, a) * Gamma((1-a)/2) has no spurious poles on [-0.9, 0.9]
    import numpy as np

    alphas = np.linspace(-0.9, 0.9, 181)
    vals = [mu_const(2, a) * gamma_fn((1.0 - a) / 2.0) for a in alphas]
    assert all(v > 0.0 for v in vals)
    diffs = np.abs(np.diff(vals))
    assert np.max(diffs) < 0.1  # smooth variation on this grid


def test_omega_values():
    assert omega_const(2.0) == pytest.approx(math.pi, rel=1e-13)
    assert omega_const(1.0) == pytest.approx(2.0, rel=1e-13)
    assert omega_const(1.5) == pytest.approx(2.5675407531904468, rel=1e-12)
    with pytest.raises(DomainError):
        omega_const(0.0)


def test_riesz_constants():
    assert riesz_potential_const(2, 0.5) == pytest.approx(0.076074279862467708, rel=1e-12)
    assert riesz_transform_const(2) > 0
    with pytest.raises(DomainError):
        riesz_potential_const(2, 2.5)


def test_frac_params_regimes():
    fp = FracParams(0.5, 2, math.inf)
    assert fp.q == 1.0
    assert fp.decay_exponent_floor() == pytest.approx(1.5)


def test_frac_params_validation():
    with pytest.raises(DomainError):
        FracParams(0.0, 2, 2.0)
    with pytest.raises(DomainError):
        FracParams(0.5, 4, 2.0)
    with pytest.raises(DomainError):
        FracParams(0.5, 2, 0.5)
