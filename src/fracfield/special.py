"""Special functions and normalization constants for the nonlocal operators.

Everything downstream multiplies by these constants. The gamma function is
the standard library's `math.gamma` behind a positive-axis guard, accurate to
about 1e-15 relative, far below any quadrature error in the package. The
Gauss-Legendre rule every radial integral is built from lives here too, so
`fields` and `quadrature` both take it from a module that imports neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

Array = np.ndarray


def _read_only(*arrays: Array) -> tuple[Array, ...]:
    """The arrays, frozen: a cached rule is shared by every later call."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=128)
def _leggauss(m: int) -> tuple[Array, Array]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared read-only."""
    return _read_only(*np.polynomial.legendre.leggauss(int(m)))


def _gauss(a, b, m: int) -> tuple[Array, Array]:
    """m Gauss-Legendre nodes and weights on [a, b]. The ends broadcast
    against the nodes: ends of shape (..., 1) give one rule per entry."""
    t, wt = _leggauss(m)
    half = 0.5 * (b - a)
    return half * (t + 1.0) + a, half * wt


def gamma_fn(x: float) -> float:
    """Euler Gamma for x > 0; DomainError otherwise (poles at 0, -1, ...)."""
    x = float(x)
    if not x > 0.0 or not math.isfinite(x):
        raise DomainError(f"gamma_fn requires a positive finite argument, got {x!r}")
    return math.gamma(x)


def _mu_raw(n: int, alpha: float) -> float:
    """Gradient normalization without the domain guard (finite for alpha < 1)."""
    return (
        2.0**alpha
        * math.pi ** (-n / 2.0)
        * gamma_fn((n + alpha + 1.0) / 2.0)
        / gamma_fn((1.0 - alpha) / 2.0)
    )


def mu_const(n: int, alpha: float) -> float:
    """Normalization constant of the fractional gradient/divergence kernels.

    mu(n, alpha) = 2^alpha pi^(-n/2) Gamma((n+alpha+1)/2) / Gamma((1-alpha)/2),
    defined for alpha in (-1, 1); negative orders appear in the explicit
    delta-divergence example fields. At alpha = 0 it is the Riesz transform's
    constant, pi^(-(n+1)/2) Gamma((n+1)/2).
    """
    if not -1.0 < alpha < 1.0:
        raise DomainError(f"mu_const requires alpha in (-1, 1), got {alpha!r}")
    return _mu_raw(int(n), float(alpha))


def omega_const(s: float) -> float:
    """Volume of the unit ball in (possibly fractional) dimension s > 0."""
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"omega_const requires s > 0, got {s!r}")
    return math.pi ** (s / 2.0) / gamma_fn((s + 2.0) / 2.0)


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere boundary in R^n (n*omega_n)."""
    return n * omega_const(float(n))


def riesz_potential_const(n: int, beta: float) -> float:
    """Kernel constant of the order-beta Riesz potential on R^n."""
    beta = float(beta)
    if not 0.0 < beta < n:
        raise DomainError(f"Riesz potential order must lie in (0, n), got {beta!r}")
    return (
        2.0**-beta
        * math.pi ** (-n / 2.0)
        * gamma_fn((n - beta) / 2.0)
        / gamma_fn(beta / 2.0)
    )


@dataclass(frozen=True)
class FracParams:
    """Order/dimension/integrability bundle of the decay checks.

    q is the conjugate exponent of p; p may be math.inf.
    """

    alpha: float
    n: int
    p: float
    q: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError(f"alpha must lie in (0, 1], got {self.alpha!r}")
        if self.n not in (1, 2, 3):
            raise DomainError(f"dimension must be 1, 2 or 3, got {self.n!r}")
        if not self.p >= 1.0:
            raise DomainError(f"p must lie in [1, inf], got {self.p!r}")
        if math.isinf(self.p):
            q = 1.0
        elif self.p == 1.0:
            q = math.inf
        else:
            q = self.p / (self.p - 1.0)
        object.__setattr__(self, "q", q)

    def decay_exponent_floor(self) -> float:
        """One-sided lower bound n/q - alpha for ball-mass log-log slopes."""
        nq = 0.0 if math.isinf(self.q) else self.n / self.q
        return nq - self.alpha
