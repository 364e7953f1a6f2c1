"""Grids, scalar/vector fields, and the canonical bump profiles.

Fields are immutable value objects wrapping a vectorized evaluator
(points shaped (..., n) -> values shaped (...)), plus the metadata the
quadrature engine needs for tails and error bounds: a hard support radius
about the origin, or a decay envelope |f(x)| <= C |x|^(-s), and a sup bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError
from .special import sphere_area

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
    periodic: bool = False

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
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1)

    def node_points(self) -> Array:
        return self._mesh([self.axis_nodes(i) for i in range(self.n)])

    def center_points(self) -> Array:
        return self._mesh([self.axis_centers(i) for i in range(self.n)])


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


def _as_points(x, n: int) -> Array:
    pts = np.asarray(x, dtype=float)
    if pts.shape == (n,):
        return pts[None, :]
    if pts.ndim >= 1 and pts.shape[-1] == n:
        return pts
    raise ConfigError(f"points must have trailing dimension {n}, got shape {pts.shape}")


@dataclass(frozen=True)
class ScalarField:
    """Scalar field on R^n with evaluator and tail/regularity hints."""

    n: int
    fn: Callable[[Array], Array]
    support_radius: Optional[float] = None
    decay: Optional[tuple[float, float]] = None  # (C, s): |f| <= C |x|^-s far out
    sup_bound: Optional[float] = None
    grad_fn: Optional[Callable[[Array], Array]] = None
    smooth: bool = True
    cache_token: Optional[str] = None

    def __call__(self, x) -> Array:
        pts = _as_points(x, self.n)
        single = np.asarray(x, dtype=float).shape == (self.n,)
        vals = np.asarray(self.fn(pts), dtype=float)
        if self.support_radius is not None:
            r2 = _inner(pts)
            vals = np.where(r2 <= self.support_radius**2, vals, 0.0)
        return float(vals[0]) if single else vals

    def gradient(self, x) -> Array:
        if self.grad_fn is None:
            raise DomainError("field has no closed-form gradient")
        pts = _as_points(x, self.n)
        single = np.asarray(x, dtype=float).shape == (self.n,)
        g = np.asarray(self.grad_fn(pts), dtype=float)
        if self.support_radius is not None:
            r2 = _inner(pts)
            g = np.where(r2[..., None] <= self.support_radius**2, g, 0.0)
        return g[0] if single else g

    def scaled(self, a: float) -> "ScalarField":
        a = float(a)
        base = self.fn
        gf = self.grad_fn
        return replace(
            self,
            fn=lambda p: a * base(p),
            grad_fn=(lambda p: a * gf(p)) if gf is not None else None,
            sup_bound=None if self.sup_bound is None else abs(a) * self.sup_bound,
            decay=None if self.decay is None else (abs(a) * self.decay[0], self.decay[1]),
            cache_token=None if self.cache_token is None else f"{a}*({self.cache_token})",
        )


@dataclass(frozen=True)
class VectorField:
    """n-component field sharing one set of metadata hints."""

    n: int
    fn: Callable[[Array], Array]  # (..., n) -> (..., n)
    support_radius: Optional[float] = None
    decay: Optional[tuple[float, float]] = None
    sup_bound: Optional[float] = None
    smooth: bool = True
    cache_token: Optional[str] = None

    def __call__(self, x) -> Array:
        pts = _as_points(x, self.n)
        single = np.asarray(x, dtype=float).shape == (self.n,)
        vals = np.asarray(self.fn(pts), dtype=float)
        if self.support_radius is not None:
            r2 = _inner(pts)
            vals = np.where(r2[..., None] <= self.support_radius**2, vals, 0.0)
        return vals[0] if single else vals

    def component(self, i: int) -> ScalarField:
        return ScalarField(
            n=self.n,
            fn=lambda p, i=i: np.asarray(self.fn(p))[..., i],
            support_radius=self.support_radius,
            decay=self.decay,
            sup_bound=self.sup_bound,
            smooth=self.smooth,
            cache_token=None if self.cache_token is None else f"{self.cache_token}[{i}]",
        )


def vector_from_components(components: Sequence[ScalarField]) -> VectorField:
    n = components[0].n
    if len(components) != n or any(c.n != n for c in components):
        raise ConfigError("need exactly n scalar components sharing the dimension")
    sups = [c.support_radius for c in components]
    support = None if any(s is None for s in sups) else max(sups)
    decays = [c.decay for c in components]
    if any(d is None for d in decays):
        decay = None
    else:
        s_min = min(d[1] for d in decays)
        decay = (sum(d[0] for d in decays), s_min)
    sups_b = [c.sup_bound for c in components]
    toks = [c.cache_token for c in components]
    return VectorField(
        n=n,
        fn=lambda p: np.stack([np.asarray(c.fn(p)) for c in components], axis=-1),
        support_radius=support,
        decay=decay,
        sup_bound=None if any(v is None for v in sups_b) else max(sups_b),
        smooth=all(c.smooth for c in components),
        cache_token=None if any(t is None for t in toks) else "vec(" + ",".join(toks) + ")",
    )


def lin_comb(a: float, f: ScalarField, b: float, g: ScalarField) -> ScalarField:
    """a*f + b*g with conservatively merged hints."""
    if f.n != g.n:
        raise ConfigError("fields must share the dimension")
    sups = (f.support_radius, g.support_radius)
    support = None if any(s is None for s in sups) else max(sups)
    return ScalarField(
        n=f.n,
        fn=lambda p: a * f.fn(p) + b * g.fn(p),
        support_radius=support,
        sup_bound=None
        if f.sup_bound is None or g.sup_bound is None
        else abs(a) * f.sup_bound + abs(b) * g.sup_bound,
        smooth=f.smooth and g.smooth,
    )


def scalar_times_vector(g: ScalarField, F: VectorField) -> VectorField:
    """Product field gF; hints combined for the Leibniz checks."""
    if g.n != F.n:
        raise ConfigError("fields must share the dimension")
    sups = (g.support_radius, F.support_radius)
    support = None if all(s is None for s in sups) else min(s for s in sups if s is not None)
    return VectorField(
        n=g.n,
        fn=lambda p: np.asarray(g(p))[..., None] * np.asarray(F(p)),
        support_radius=support,
        sup_bound=None
        if g.sup_bound is None or F.sup_bound is None
        else g.sup_bound * F.sup_bound,
        smooth=g.smooth and F.smooth,
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
        d = p - c
        val = a * np.exp(-math.pi * _inner(d) / w**2)
        return (-2.0 * math.pi / w**2) * d * val[..., None]

    return ScalarField(
        n=n,
        fn=fn,
        support_radius=float(np.linalg.norm(c)) + 4.0 * w,
        sup_bound=abs(a),
        grad_fn=grad,
        smooth=True,
        cache_token=f"gaussian(c={tuple(c)},w={w},a={a})",
    )


def gaussian_vector(center: Sequence[float], width: float = 1.0,
                    amplitudes: Optional[Sequence[float]] = None) -> VectorField:
    """Vector field (a_1, ..., a_n) * exp(-pi |x-c|^2 / w^2).

    One exp per point, scaled by the amplitude vector: the same bits and
    hints as the stack of the n component Gaussians.
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
        fn=lambda p: unit.fn(p)[..., None] * amps,
        support_radius=unit.support_radius,
        sup_bound=float(np.max(np.abs(amps))),
        smooth=True,
        cache_token="vec(" + ",".join(
            f"gaussian(c={tuple(c)},w={w},a={float(a)})" for a in amps) + ")",
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
        sup_bound=abs(a),
        smooth=True,
        cache_token=f"bump(c={tuple(c)},R={R},a={a})",
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
        sup_bound=1.0,
        smooth=False,
        cache_token=f"indicator(c={tuple(c)},R={R})",
    )


def grid_field(grid: GridSpec, values: Array, **hints) -> ScalarField:
    """Multilinear interpolation of node samples; zero outside the box."""
    values = np.asarray(values, dtype=float)
    if values.shape != grid.counts:
        raise ConfigError(f"values shape {values.shape} != grid counts {grid.counts}")

    def fn(p: Array) -> Array:
        return _multilinear(grid, values, p)

    return ScalarField(n=grid.n, fn=fn, smooth=False, **hints)


def _multilinear(grid: GridSpec, values: Array, pts: Array) -> Array:
    """Separable linear interpolation on node samples (zero beyond the box)."""
    n = grid.n
    h = grid.spacing
    idx = []
    frac = []
    valid = np.ones(pts.shape[:-1], dtype=bool)
    for i in range(n):
        t = (pts[..., i] - grid.lower[i]) / h[i]
        j = np.floor(t).astype(int)
        f = t - j
        valid &= (t >= 0.0) & (t <= grid.counts[i] - 1)
        j = np.clip(j, 0, grid.counts[i] - 2)
        idx.append(j)
        frac.append(f)
    out = np.zeros(pts.shape[:-1])
    for corner in range(2**n):
        w = np.ones(pts.shape[:-1])
        sel = []
        for i in range(n):
            bit = (corner >> i) & 1
            w = w * (frac[i] if bit else (1.0 - frac[i]))
            sel.append(np.clip(idx[i] + bit, 0, grid.counts[i] - 1))
        out += w * values[tuple(sel)]
    return np.where(valid, out, 0.0)


# ---------------------------------------------------------------------------
# mollifier and cutoff profiles

_BUMP_NORM_CACHE: dict[int, float] = {}


def _bump_normalizer(n: int) -> float:
    """1 / integral_{B_1} exp(-1/(1-|x|^2)) dx, via radial Gauss-Legendre."""
    if n not in _BUMP_NORM_CACHE:
        from .quadrature import _leggauss  # local import: quadrature depends on this module

        t, w = _leggauss(200)
        r = 0.5 * (t + 1.0)
        wr = 0.5 * w
        prof = np.exp(-1.0 / (1.0 - r**2))
        integral = sphere_area(n) * float(np.sum(prof * r ** (n - 1) * wr))
        _BUMP_NORM_CACHE[n] = 1.0 / integral
    return _BUMP_NORM_CACHE[n]


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
        sup_bound=c * math.exp(-1.0) / eps**n,
        smooth=True,
        cache_token=f"mollifier(eps={eps},n={n})",
    )


def _smoothstep(t: Array) -> Array:
    """C^inf ramp: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    a = np.zeros(t.shape)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros(t.shape)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


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
        sup_bound=1.0,
        smooth=True,
        cache_token=f"cutoff(R={R},n={n})",
    )
