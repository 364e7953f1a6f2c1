"""Reference values that share no code with fracfield's quadrature engine.

Every direct-points input is a Gaussian A exp(-pi |x - c|^2 / w^2) (scalar) or
a vector a * exp(...) with the same profile, so each operator reduces to a
one-dimensional Hankel integral of the Gaussian's radial Fourier transform,
evaluated adaptively by scipy. Symbols follow fracfield.spectral:

    frac gradient   (2 pi i k) |2 pi k|^(alpha-1)   = grad of I_(1-alpha)
    Riesz transform (2 pi i k) |2 pi k|^(-1)        = grad of I_1
    Riesz potential |2 pi k|^(-beta)

For a radial phi(|k|) the inverse transform on R^n is
u(rho) = 2 pi rho^(1-n/2) int phi(k) J_(n/2-1)(2 pi k rho) k^(n/2) dk, and
u'(rho) swaps J_(n/2-1) for -2 pi k J_(n/2). scipy is imported lazily so it
never counts towards a workload's set-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The substitution k = t^5 smooths the k^(n-1-beta) endpoint singularity of
# the potential (exponent >= -0.8 here) and the k^(alpha+n-1) one of the
# gradient. The t-integral is then taken with composite Gauss-Legendre rules
# (see _composite_rule) at two resolutions; a disagreement above _SELF_TOL raises instead of
# returning an unconverged reference.
_SUBST_POWER = 5.0
_PANELS = (48, 96)
_PANEL_NODES = 24
_GRADED_LEVELS = 40
_SELF_TOL = 1e-9


class OracleError(RuntimeError):
    pass


@dataclass(frozen=True)
class Gauss:
    """A exp(-pi |x - c|^2 / w^2) on R^n."""

    center: tuple
    width: float
    amplitude: float

    @property
    def n(self) -> int:
        return len(self.center)

    def value(self, X: np.ndarray) -> np.ndarray:
        d = X - np.asarray(self.center)
        return self.amplitude * np.exp(-math.pi * np.sum(d * d, axis=-1) / self.width**2)

    def times(self, other: "Gauss") -> "Gauss":
        """The product of two Gaussians is a Gaussian."""
        c1, c2 = np.asarray(self.center), np.asarray(other.center)
        w1, w2 = self.width, other.width
        inv = 1.0 / w1**2 + 1.0 / w2**2
        c = (c1 / w1**2 + c2 / w2**2) / inv
        amp = self.amplitude * other.amplitude * math.exp(
            -math.pi * float(np.sum((c1 - c2) ** 2)) / (w1**2 + w2**2))
        return Gauss(tuple(float(v) for v in c), 1.0 / math.sqrt(inv), amp)


def _composite_rule(tmax: float, panels: int):
    """Gauss-Legendre panels: `panels` uniform ones on [tmax/8, tmax] for the
    Bessel oscillation, and ones halving towards 0 below for the remaining
    t^(5s+4) endpoint behaviour."""
    from scipy.special import roots_legendre

    x, w = roots_legendre(_PANEL_NODES)
    low = tmax / 8.0
    graded = low * 2.0 ** -np.arange(_GRADED_LEVELS + 1.0)
    edges = np.concatenate([graded[::-1], np.linspace(low, tmax, panels + 1)[1:]])
    half = 0.5 * np.diff(edges)
    nodes = (edges[:-1, None] + half[:, None] * (x[None, :] + 1.0)).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _radial_integral(g: Gauss, power: float, rho: np.ndarray, derivative: bool) -> np.ndarray:
    """u(rho) or u'(rho) for the multiplier |2 pi k|^power applied to g."""
    from scipy.special import gamma, jv

    n = g.n
    nu = n / 2.0 - 1.0
    w = g.width
    kmax = math.sqrt(40.0 / (math.pi * w * w))  # exp(-pi w^2 k^2) < 5e-18 beyond
    tmax = kmax ** (1.0 / _SUBST_POWER)
    rho = np.asarray(rho, dtype=float)
    at_zero = rho < 1e-12
    safe = np.where(at_zero, 1.0, rho)[None, :]
    area = 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)

    def integral(panels: int) -> np.ndarray:
        t, wt = _composite_rule(tmax, panels)
        k = (t**_SUBST_POWER)[:, None]
        dk = (_SUBST_POWER * t ** (_SUBST_POWER - 1.0) * wt)[:, None]
        phi = (2.0 * math.pi * k) ** power * g.amplitude * w**n * np.exp(-math.pi * w * w * k * k) * dk
        z = 2.0 * math.pi * k * safe
        if derivative:
            vals = 2.0 * math.pi * safe ** (-nu) * phi * k ** (n / 2.0) * (-2.0 * math.pi * k) * jv(nu + 1.0, z)
            vals = np.where(at_zero[None, :], 0.0, vals)
        else:
            vals = 2.0 * math.pi * safe ** (-nu) * phi * k ** (n / 2.0) * jv(nu, z)
            vals = np.where(at_zero[None, :], area * phi * k ** (n - 1.0), vals)
        return np.sum(vals, axis=0)

    coarse, fine = (integral(p) for p in _PANELS)
    if np.any(np.abs(fine - coarse) > _SELF_TOL * (1.0 + np.abs(fine))):
        raise OracleError(f"Hankel integral not converged: {np.max(np.abs(fine - coarse)):.2e}")
    return fine


def _gradient_of_potential(g: Gauss, power: float, X: np.ndarray) -> np.ndarray:
    d = X - np.asarray(g.center)
    rho = np.sqrt(np.sum(d * d, axis=-1))
    du = _radial_integral(g, power, rho, derivative=True)
    unit = d / np.where(rho > 0, rho, 1.0)[:, None]
    return du[:, None] * unit


def frac_gradient(g: Gauss, alpha: float, X: np.ndarray) -> np.ndarray:
    return _gradient_of_potential(g, alpha - 1.0, X)


def riesz_transform(g: Gauss, X: np.ndarray) -> np.ndarray:
    return _gradient_of_potential(g, -1.0, X)


def riesz_potential(g: Gauss, beta: float, X: np.ndarray) -> np.ndarray:
    d = X - np.asarray(g.center)
    return _radial_integral(g, -beta, np.sqrt(np.sum(d * d, axis=-1)), derivative=False)


def frac_divergence(g: Gauss, amps, alpha: float, X: np.ndarray) -> np.ndarray:
    """div^alpha of the vector field amps * g."""
    return frac_gradient(g, alpha, X) @ np.asarray(amps, dtype=float)


def nl_divergence(s: Gauss, g: Gauss, amps, alpha: float, X: np.ndarray) -> np.ndarray:
    """div_NL(s, F) = div(sF) - s div F - F . grad s, for F = amps * g."""
    amps = np.asarray(amps, dtype=float)
    prod = frac_divergence(s.times(g), amps, alpha, X)
    div_f = frac_divergence(g, amps, alpha, X)
    grad_s = frac_gradient(s, alpha, X)
    F = g.value(X)[:, None] * amps[None, :]
    return prod - s.value(X) * div_f - np.sum(F * grad_s, axis=-1)


# |value - reference| <= ABS_TOL + REL_TOL * |reference|: 1e-3 relative is the
# master-oracle contract of verify.check_cross_engine; 1e-6 absolute is the
# tolerance of the frozen Hankel references in tests/test_quadrature.py, and
# keeps the rule meaningful where an operator crosses zero.
REL_TOL = 1e-3
ABS_TOL = 1e-6


def excess(value: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """|value - reference| / (ABS_TOL + REL_TOL |reference|), Euclidean over
    components; a point passes when this is at most 1."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    diff = value - reference
    if value.ndim == 2:
        err = np.sqrt(np.sum(diff * diff, axis=-1))
        mag = np.sqrt(np.sum(reference * reference, axis=-1))
    else:
        err = np.abs(diff)
        mag = np.abs(reference)
    return err / (ABS_TOL + REL_TOL * mag)
