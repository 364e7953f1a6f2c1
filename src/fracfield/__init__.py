"""Numerical fractional vector calculus.

Two engines for the nonlocal increment operators (fractional gradient and
divergence, Riesz potential and transform, bilinear nonlocal corrections):
a direct singular-integral quadrature engine on R^n and an exact-to-roundoff
Fourier multiplier engine on periodic grids, cross-checked by an executable
suite of duality, Leibniz, Gauss-Green, mollification and decay identities.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DomainError, EmbeddingError, FracfieldError, PreconditionError
from .fields import GridSpec, ScalarField, VectorField, cutoff, gaussian, gaussian_vector, mollifier
from .measures import RadonMeasure, measure_ball_mass
from .quadrature import QuadratureConfig
from .special import FracParams, gamma_fn, mu_const, omega_const

__all__ = [
    "ConfigError",
    "DomainError",
    "EmbeddingError",
    "FracfieldError",
    "FracParams",
    "GridSpec",
    "PreconditionError",
    "QuadratureConfig",
    "RadonMeasure",
    "ScalarField",
    "VectorField",
    "cutoff",
    "gamma_fn",
    "gaussian",
    "gaussian_vector",
    "measure_ball_mass",
    "mollifier",
    "mu_const",
    "omega_const",
    "__version__",
]
