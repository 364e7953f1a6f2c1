"""Grids, scalar/vector fields, and the canonical bump profiles.

Fields are immutable value objects wrapping a vectorized evaluator, plus the
two hints the quadrature engine reads for its far field: a hard support
radius about the origin, or a decay envelope |f(x)| <= C |x|^(-s). A field
with neither needs an explicit far cutoff. Scalar evaluators map points
(..., n) to values (...). Vector evaluators, and a scalar field's
gradient `grad_fn`, return their values component-major, (n, ...), so every
elementwise step runs over contiguous component planes; calling a
VectorField or `ScalarField.gradient` still returns (..., n), as a
transposed view of that storage.
Grid points are stored the same way: one (n, *counts) array seen as
(*counts, n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .special import _gauss, sphere_area

Array = np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Uniform rectilinear discretization of a box in R^n, n <= 3.

    `nodes` are left-aligned samples lower + j*h (periodic sampling);
    `centers` are cell midpoints lower + (j+1/2)*h (midpoint quadrature,
    measure densities).
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lower)
        up = tuple(float(v) for v in self.upper)
        ct = tuple(int(v) for v in self.counts)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "counts", ct)
        n = len(lo)
        if n not in (1, 2, 3) or len(up) != n or len(ct) != n:
            raise ConfigError(f"GridSpec needs matching axis tuples of length 1..3, got {self!r}")
        for a, b, c in zip(lo, up, ct):
            if not (math.isfinite(a) and math.isfinite(b) and a < b):
                raise ConfigError(f"GridSpec axis bounds must satisfy lower < upper, got [{a}, {b}]")
            if c < 4:
                raise ConfigError(f"GridSpec needs >= 4 samples per axis, got {c}")

    @property
    def n(self) -> int:
        return len(self.lower)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((u - l) / c for l, u, c in zip(self.lower, self.upper, self.counts))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_nodes(self, i: int) -> Array:
        h = self.spacing[i]
        return self.lower[i] + h * np.arange(self.counts[i])

    def axis_centers(self, i: int) -> Array:
        h = self.spacing[i]
        return self.lower[i] + h * (np.arange(self.counts[i]) + 0.5)

    def _mesh(self, axes: list[Array]) -> Array:
        """The points of the lattice axes[0] x ... x axes[n-1], stored
        component-major in one (n, *counts) array and returned as its
        (*counts, n) view."""
        n = len(axes)
        out = np.empty((n,) + tuple(len(a) for a in axes))
        for k, a in enumerate(axes):
            out[k] = a.reshape((-1,) + (1,) * (n - 1 - k))
        return _trailing(out)

    def node_points(self) -> Array:
        return self._mesh([self.axis_nodes(i) for i in range(self.n)])

    def center_points(self) -> Array:
        return self._mesh([self.axis_centers(i) for i in range(self.n)])


def _index_box(axes: list[Array], center: Sequence[float], radius: float) -> tuple[slice, ...]:
    """Index slices of a rectilinear lattice (one sorted coordinate array per
    axis) covering every node within `radius` of `center`, with one node to
    spare on each side against rounding."""
    box = []
    for ax, ck in zip(axes, center):
        lo = int(np.searchsorted(ax, ck - radius)) - 1
        hi = int(np.searchsorted(ax, ck + radius, side="right")) + 1
        box.append(slice(max(lo, 0), min(hi, ax.shape[0])))
    return tuple(box)


def _inner(a: Array, b: Optional[Array] = None) -> Array:
    """sum_k a[..., k] * b[..., k] over the trailing (space) axis; |a|^2
    when b is omitted.

    Added component by component: for a trailing length n <= 3 the values
    equal np.sum(a * b, axis=-1) bit for bit (only a sum of negative zeros
    comes out -0.0 instead of 0.0), without numpy's slow short-axis reduction.
    """
    b = a if b is None else b
    out = a[..., 0] * b[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * b[..., k]
    return out


def _dist2(p: Array, c: Array) -> Array:
    """|p - c|^2 over the trailing axis: the bits of _inner(p - c), without
    forming the (..., n) difference."""
    out = p[..., 0] - c[..., 0]
    out *= out
    for k in range(1, p.shape[-1]):
        d = p[..., k] - c[..., k]
        d *= d
        out += d
    return out


def _trailing(v: Array) -> Array:
    """(n, ...) -> (..., n): the component axis moved last, as a view."""
    return v.transpose(*range(1, v.ndim), 0)


def _leading(v: Array) -> Array:
    """(..., n) -> (n, ...): the component axis moved first, as a view."""
    return v.transpose(v.ndim - 1, *range(v.ndim - 1))


def _evaluate(field, fn: Callable[[Array], Array], x, vector: bool):
    """The one evaluation of every field call: fn at one point (n,) or at
    points (..., n), 0 outside the support ball; fn's (...) values come back
    as they are, its (n, ...) ones (`vector`) as (..., n). A single point
    gives a float, or an (n,) array."""
    pts = np.asarray(x, dtype=float)
    single = pts.shape == (field.n,)
    if single:
        pts = pts[None, :]
    elif pts.ndim == 0 or pts.shape[-1] != field.n:
        raise ConfigError(f"points must have trailing dimension {field.n}, got shape {pts.shape}")
    vals = np.asarray(fn(pts), dtype=float)
    if field.support_radius is not None:
        vals = np.where(_inner(pts) <= field.support_radius**2, vals, 0.0)
    if vector:
        return vals[:, 0] if single else _trailing(vals)
    return float(vals[0]) if single else vals


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on R^n with evaluator and tail hints."""

    n: int
    fn: Callable[[Array], Array]
    support_radius: Optional[float] = None
    decay: Optional[tuple[float, float]] = None  # (C, s): |f| <= C |x|^-s far out
    grad_fn: Optional[Callable[[Array], Array]] = None  # (..., n) -> (n, ...)
    cache_token: Optional[str] = None

    def __call__(self, x) -> Array:
        return _evaluate(self, self.fn, x, vector=False)

    def gradient(self, x) -> Array:
        if self.grad_fn is None:
            raise DomainError("field has no closed-form gradient")
        return _evaluate(self, self.grad_fn, x, vector=True)


@dataclass(frozen=True)
class VectorField:
    """n-component field sharing one set of tail hints.

    `fn` maps points (..., n) to values stored component-major, (n, ...);
    calling the field masks those values and returns them as (..., n).
    """

    n: int
    fn: Callable[[Array], Array]  # (..., n) -> (n, ...)
    support_radius: Optional[float] = None
    decay: Optional[tuple[float, float]] = None
    cache_token: Optional[str] = None

    def __call__(self, x) -> Array:
        return _evaluate(self, self.fn, x, vector=True)

    def component(self, i: int) -> ScalarField:
        return ScalarField(
            n=self.n,
            fn=lambda p, i=i: np.asarray(self.fn(p))[i],
            support_radius=self.support_radius,
            decay=self.decay,
            cache_token=None if self.cache_token is None else f"{self.cache_token}[{i}]",
        )


def scalar_times_vector(g: ScalarField, F: VectorField) -> VectorField:
    """Product field gF; support hints combined for the Leibniz checks."""
    if g.n != F.n:
        raise ConfigError("fields must share the dimension")
    sups = (g.support_radius, F.support_radius)
    support = None if all(s is None for s in sups) else min(s for s in sups if s is not None)
    return VectorField(
        n=g.n,
        fn=lambda p: np.asarray(g(p)) * _leading(np.asarray(F(p))),
        support_radius=support,
        cache_token=None
        if g.cache_token is None or F.cache_token is None
        else f"({g.cache_token})*({F.cache_token})",
    )


# ---------------------------------------------------------------------------
# closed-form templates

def gaussian(center: Sequence[float], width: float = 1.0, amplitude: float = 1.0) -> ScalarField:
    """A exp(-pi |x-c|^2 / w^2); support hint at 4w (value < 3e-22 there)."""
    c = np.asarray(center, dtype=float)
    n = c.shape[0]
    w = float(width)
    a = float(amplitude)
    if w <= 0:
        raise DomainError("gaussian width must be positive")

    def fn(p: Array) -> Array:
        return a * np.exp(-math.pi * _dist2(p, c) / w**2)

    def grad(p: Array) -> Array:
        return (-2.0 * math.pi / w**2) * _leading(p - c) * fn(p)

    return ScalarField(
        n=n,
        fn=fn,
        support_radius=float(np.linalg.norm(c)) + 4.0 * w,
        grad_fn=grad,
        cache_token=f"gaussian(c={tuple(c.tolist())},w={w},a={a})",
    )


def gaussian_vector(center: Sequence[float], width: float = 1.0,
                    amplitudes: Optional[Sequence[float]] = None) -> VectorField:
    """Vector field (a_1, ..., a_n) * exp(-pi |x-c|^2 / w^2).

    One exp per point, scaled by the amplitude vector into (n, ...)
    storage: the same bits and hints as the stack of the n component
    Gaussians.
    """
    c = np.asarray(center, dtype=float)
    n = c.shape[0]
    amps = np.ones(n) if amplitudes is None else np.array(amplitudes, dtype=float)
    if amps.shape != (n,):
        raise ConfigError(f"gaussian_vector needs {n} amplitudes, got shape {amps.shape}")
    unit = gaussian(center, width)  # amplitude 1: its values are the bare exp
    w = float(width)
    return VectorField(
        n=n,
        fn=lambda p: np.multiply.outer(amps, unit.fn(p)),
        support_radius=unit.support_radius,
        cache_token="vec(" + ",".join(
            f"gaussian(c={tuple(c.tolist())},w={w},a={a})" for a in amps.tolist()) + ")",
    )


def compact_bump(center: Sequence[float], radius: float, amplitude: float = 1.0) -> ScalarField:
    """C^inf bump A exp(1 - 1/(1-|x-c|^2/R^2)) on B_R(c), peak value A."""
    c = np.asarray(center, dtype=float)
    n = c.shape[0]
    R = float(radius)
    a = float(amplitude)
    if R <= 0:
        raise DomainError("bump radius must be positive")

    def fn(p: Array) -> Array:
        t2 = _dist2(p, c) / R**2
        inside = t2 < 1.0
        out = np.zeros(t2.shape)
        safe = np.where(inside, t2, 0.0)
        out[inside] = a * np.exp(1.0 - 1.0 / (1.0 - safe[inside]))
        return out

    return ScalarField(
        n=n,
        fn=fn,
        support_radius=float(np.linalg.norm(c)) + R,
        cache_token=f"bump(c={tuple(c.tolist())},R={R},a={a})",
    )


def ball_indicator(center: Sequence[float], radius: float) -> ScalarField:
    """Indicator of the open ball B_R(c); not smooth."""
    c = np.asarray(center, dtype=float)
    R = float(radius)
    if R <= 0:
        raise DomainError("indicator radius must be positive")

    def fn(p: Array) -> Array:
        return (_dist2(p, c) < R**2).astype(float)

    return ScalarField(
        n=c.shape[0],
        fn=fn,
        support_radius=float(np.linalg.norm(c)) + R,
        cache_token=f"indicator(c={tuple(c.tolist())},R={R})",
    )


# ---------------------------------------------------------------------------
# mollifier and cutoff profiles

@lru_cache(maxsize=1)
def _bump_normalizer(n: int) -> float:
    """1 / integral_{B_1} exp(-1/(1-|x|^2)) dx, via radial Gauss-Legendre."""
    r, wr = _gauss(0.0, 1.0, 200)
    prof = np.exp(-1.0 / (1.0 - r**2))
    integral = sphere_area(n) * float(np.sum(prof * r ** (n - 1) * wr))
    return 1.0 / integral


def mollifier(eps: float, n: int) -> ScalarField:
    """Unit-mass radial mollifier rho_eps = eps^-n rho(x/eps), supp in B_eps.

    rho(x) = c_n exp(1/(|x|^2-1)) on B_1; c_n is computed once per dimension
    by quadrature and cached, so construction has no observable mutability.
    """
    eps = float(eps)
    if eps <= 0:
        raise DomainError("mollifier scale must be positive")
    c = _bump_normalizer(n)

    def fn(p: Array) -> Array:
        t2 = _inner(p) / eps**2
        inside = t2 < 1.0
        out = np.zeros(t2.shape)
        out[inside] = c * np.exp(-1.0 / (1.0 - t2[inside])) / eps**n
        return out

    return ScalarField(
        n=n,
        fn=fn,
        support_radius=eps,
        cache_token=f"mollifier(eps={eps},n={n})",
    )


def _smoothstep(t: Array) -> Array:
    """C^inf ramp: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.clip(t, 0.0, 1.0)
    a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
    b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _window(dist: Array, inner: float, outer: float) -> Array:
    """Smooth radial window: 1 below inner, 0 above outer."""
    return _smoothstep((outer - dist) / (outer - inner))


def cutoff(R: float, n: int) -> ScalarField:
    """Smooth radial cutoff: 1 on B_R, 0 outside B_2R, radially decreasing."""
    R = float(R)
    if R <= 0:
        raise DomainError("cutoff radius must be positive")

    def fn(p: Array) -> Array:
        r = np.sqrt(_inner(p))
        return _smoothstep(2.0 - r / R)

    return ScalarField(
        n=n,
        fn=fn,
        support_radius=2.0 * R,
        cache_token=f"cutoff(R={R},n={n})",
    )
