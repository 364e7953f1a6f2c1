"""Fourier-multiplier operators on periodic grids.

Exact-to-roundoff realizations of the fractional gradient/divergence,
Riesz potential and Riesz transform for smooth fields embedded in a large
periodic box. Frequency convention: modes k live on the integer lattice
scaled by 1/L_i (cycles per unit length), multipliers use the angular form
|2 pi k|. Symbols:

    frac gradient   (2 pi i k_j) |2 pi k|^(alpha-1)   (alpha=1: gradient,
                                                       alpha=0: Riesz transform)
    frac divergence  contraction of the gradient symbol
    Riesz potential |2 pi k|^(-beta)
    Riesz transform  i k_j / |k|

The zero mode is always forced to 0 (the increment operators annihilate
constants; the torus symbol is singular there). Nyquist planes are zeroed for
the odd (i k_j) symbol components so real fields map to real fields.

The per-component steps of a gradient, divergence or Riesz transform run
concurrently on threads that live for one call, one per component up to the
usable CPUs; numpy's FFTs release the GIL. Steps stay inline on such a
thread or a `verify.run_suite` worker, so parallelism never nests. No thread
outlives a call, so there is no shared state to guard or to rebuild in a
forked child. Every output has the bits of the serial loop at any worker
count.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import threading
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ConfigError, DomainError, EmbeddingError
from .fields import GridSpec, VectorField, _index_box, _leading

Array = np.ndarray
_BOX = 16.0  # side of the box the cached spectral results are embedded in


def _is_pow2(m: int) -> bool:
    return m >= 2 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class PeriodicField:
    """Real samples on a periodic power-of-two grid (scalar or n-vector).

    Scalar data has the grid's shape (N_1, ..., N_n); vector data carries the
    component axis first, (n, N_1, ..., N_n).
    """

    grid: GridSpec
    data: Array

    def __post_init__(self) -> None:
        counts = self.grid.counts
        if any(not _is_pow2(c) for c in counts):
            raise ConfigError(f"sample counts must be powers of two, got {counts}")
        data = np.asarray(self.data, dtype=float)
        shapes = (counts, (self.grid.n,) + counts)  # scalar, vector
        if data.shape not in shapes:
            raise ConfigError(f"data shape {data.shape} is not one of {shapes}")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def vector(self) -> bool:
        return self.data.ndim == self.grid.n + 1

    def mean(self) -> float:
        return float(np.mean(self.data))

    def sample_linear(self, x) -> Array:
        """Periodic multilinear interpolation at arbitrary points.

        Each corner's weight and wrapped index are built once and applied to
        every component; vector values are stored component-major and
        returned as (..., n).
        """
        pts = np.asarray(x, dtype=float)
        single = pts.shape == (self.n,)
        P = pts.reshape(-1, self.n)
        counts = self.grid.counts
        h = self.grid.spacing
        idx, frac = [], []
        for i in range(self.n):
            t = (P[:, i] - self.grid.lower[i]) / h[i]
            j = np.floor(t).astype(int)
            frac.append(t - j)
            idx.append(np.mod(j, counts[i]))
        comps = self.data if self.vector else self.data[None, ...]
        out = np.zeros((comps.shape[0], P.shape[0]))
        for corner in range(2**self.n):
            w = np.ones(P.shape[0])
            sel = [slice(None)]
            for i in range(self.n):
                bit = (corner >> i) & 1
                w = w * (frac[i] if bit else (1.0 - frac[i]))
                sel.append(np.mod(idx[i] + bit, counts[i]))
            out += w * comps[tuple(sel)]
        if not self.vector:
            return out[0, 0] if single else out[0].reshape(pts.shape[:-1])
        return out[:, 0] if single else out.T.reshape(pts.shape[:-1] + (self.n,))

    @cached_property
    def _spectrum(self) -> Array:
        """Normalized full spectrum, computed on the first eval_fourier call."""
        return np.fft.fftn(self.data) / float(np.prod(self.grid.counts))

    def eval_fourier(self, x) -> Array:
        """Exact trigonometric interpolation (scalar fields, n <= 3)."""
        if self.vector:
            raise ConfigError("eval_fourier supports scalar fields; take components")
        pts = np.asarray(x, dtype=float)
        single = pts.shape == (self.n,)
        P = pts.reshape(-1, self.n)
        spec = self._spectrum
        out = np.empty(P.shape[0])
        # fftfreq(c, d=h) returns cycles per unit length on the box lattice
        freqs = [np.fft.fftfreq(c, d=h)
                 for c, h in zip(self.grid.counts, self.grid.spacing)]
        for j, p in enumerate(P):
            phases = [np.exp(2j * math.pi * freqs[i] * (p[i] - self.grid.lower[i]))
                      for i in range(self.n)]
            acc = spec
            for ph in phases:
                acc = np.tensordot(acc, ph, axes=([0], [0]))
            out[j] = float(np.real(acc))
        return out[0] if single else out.reshape(pts.shape[:-1])


@lru_cache(maxsize=32)
def _freq_grids(grid: GridSpec) -> tuple[tuple[Array, ...], Array]:
    """Sparse per-axis frequency grids (cycles/length) on the rfft layout,
    plus |2 pi k| with the zero mode left at 0."""
    axes = []
    for i, (c, h) in enumerate(zip(grid.counts, grid.spacing)):
        if i == grid.n - 1:
            axes.append(np.fft.rfftfreq(c, d=h))
        else:
            axes.append(np.fft.fftfreq(c, d=h))
    ks = np.meshgrid(*axes, indexing="ij", sparse=True)
    mag = np.sqrt(sum(k**2 for k in ks)) * (2.0 * math.pi)
    for a in (*ks, mag):  # shared by every later call: read-only
        a.setflags(write=False)
    return tuple(ks), mag


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


_fan_out_thread = threading.local()


def _serial_thread() -> None:
    """Mark the calling thread as a fan-out worker: the spectral steps it
    runs stay inline, so parallelism never nests. The initializer of
    `_fan_out`'s threads and of `verify.run_suite`'s."""
    _fan_out_thread.worker = True


def _fan_out(step, n: int) -> list:
    """[step(0), ..., step(n - 1)], run on min(n, usable CPUs) threads that
    live for this call, or inline when n is 1, there is one CPU, or the
    caller is itself a fan-out worker. numpy's FFTs release the GIL, so the
    steps overlap; each writes only its own arrays, so the bits do not
    depend on the thread count."""
    workers = 1 if n == 1 or getattr(_fan_out_thread, "worker", False) else min(n, _cpus())
    if workers == 1:
        return list(map(step, range(n)))
    # imported here: importing the package loads and starts nothing new
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers, thread_name_prefix="fracfield-fft",
                            initializer=_serial_thread) as pool:
        return list(pool.map(step, range(n)))


def _apply_symbol(f: PeriodicField, power: float, gradient: bool) -> PeriodicField:
    """The spectral engine's one driver: multiply by |2 pi k|^power.

    With `gradient`, component j also takes the factor 2 pi i k_j and has its
    Nyquist plane zeroed; a scalar input then gives the n-vector of
    components and a vector input is contracted (the divergence), its
    component spectra summed in j order. The zero mode is always set to 0.
    The per-component steps run through `_fan_out`: symbol and inverse
    transform of each gradient component, forward transform and symbol of
    each divergence component. Each step transforms in place in an array of
    its own, so a step holds one spectrum however many run at once.
    """
    grid = f.grid
    ks, mag = _freq_grids(grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = mag ** power
    amp[(0,) * grid.n] = 0.0  # mag vanishes only at the zero mode
    axes = tuple(range(grid.n))

    def symbol(sj, j, out=None):
        """sj times component j's symbol (j None: |2 pi k|^power alone)."""
        sj = np.multiply(sj, amp if j is None else 2j * math.pi * ks[j], out=out)
        if j is not None:
            sj *= amp
        sj[(0,) * grid.n] = 0.0
        if j is not None:
            sj[(slice(None),) * j + (grid.counts[j] // 2,)] = 0.0
        return sj

    if f.vector:  # the divergence
        def part(j):
            sj = np.fft.rfftn(f.data[j], axes=axes, out=np.empty(amp.shape, dtype=complex))
            return symbol(sj, j, out=sj)

        # summed in j order; only the sum outlives the reduction
        acc = reduce(operator.iadd, _fan_out(part, grid.n))
        return PeriodicField(grid, np.fft.irfftn(acc, s=grid.counts, axes=axes))
    spec = np.fft.rfftn(f.data)
    if not gradient:
        return PeriodicField(grid, np.fft.irfftn(symbol(spec, None, out=spec),
                                                 s=grid.counts, axes=axes))
    out = np.empty((grid.n,) + grid.counts)

    def component(j):
        sj = symbol(spec, j)  # its own array: spec is shared
        for ax in axes[:-1]:  # irfftn's passes, in place
            np.fft.ifft(sj, axis=ax, out=sj)
        np.fft.irfft(sj, n=grid.counts[-1], axis=-1, out=out[j])

    _fan_out(component, grid.n)
    return PeriodicField(grid, out)


def spectral_frac_gradient(f: PeriodicField, alpha: float) -> PeriodicField:
    """Fractional gradient, alpha in [0, 1]; endpoints are the Riesz transform
    and the classical spectral gradient."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"spectral gradient order must lie in [0, 1], got {alpha!r}")
    if f.vector:
        raise ConfigError("frac gradient takes a scalar field")
    return _apply_symbol(f, alpha - 1.0, gradient=True)


def spectral_frac_divergence(F: PeriodicField, alpha: float) -> PeriodicField:
    """Fractional divergence of a vector field (adjoint symbol contraction)."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"spectral divergence order must lie in [0, 1], got {alpha!r}")
    if not F.vector:
        raise ConfigError("frac divergence takes a vector field")
    return _apply_symbol(F, alpha - 1.0, gradient=True)


def spectral_riesz_potential(f: PeriodicField, beta: float) -> PeriodicField:
    """Riesz potential multiplier |2 pi k|^(-beta); zero mode forced to 0.

    A non-negligible mean is reported as a warning (constant-offset blind
    spot); beta >= n is computed on the torus but flagged, since the
    whole-space kernel formula is invalid there.
    """
    beta = float(beta)
    if beta <= 0.0:
        raise DomainError(f"Riesz potential order must be positive, got {beta!r}")
    if f.vector:
        raise ConfigError("riesz potential takes a scalar field; map components")
    if beta >= f.n:
        warnings.warn(
            f"Riesz potential order {beta} >= dimension {f.n}: whole-space "
            "formula invalid, torus analogue returned",
            RuntimeWarning,
            stacklevel=2,
        )
    scale = 1.0 + float(np.max(np.abs(f.data)))
    if abs(f.mean()) > 1e-10 * scale:
        warnings.warn(
            "Riesz potential input has a non-negligible mean; the zero mode "
            "is dropped (documented constant bias)",
            RuntimeWarning,
            stacklevel=2,
        )
    return _apply_symbol(f, -beta, gradient=False)


def spectral_riesz_transform(f: PeriodicField) -> PeriodicField:
    """Vector Riesz transform, symbol i k_j / |k| per component: the alpha = 0
    fractional gradient."""
    return spectral_frac_gradient(f, 0.0)


def embed(field, L: float, N: int, margin: float = 2.0) -> PeriodicField:
    """Sample a compactly supported field on a centered periodic box.

    The field is called only on the index box of its support. Requires
    support_radius < L/2 - margin so the periodic images of the
    |x|^(-n-alpha) operator tails stay controlled.
    """
    L = float(L)
    N = int(N)
    n = field.n
    if not _is_pow2(N):
        raise ConfigError(f"embedding resolution must be a power of two, got {N}")
    sup = field.support_radius
    if sup is None:
        raise EmbeddingError("embedding requires a declared support radius")
    if sup > L / 2.0 - margin:
        raise EmbeddingError(
            f"support radius {sup} exceeds L/2 - margin = {L / 2.0 - margin}"
        )
    grid = GridSpec((-L / 2.0,) * n, (L / 2.0,) * n, (N,) * n)
    # every node outside the support's index box has some |x_i| > sup, where
    # the support mask gives +0.0: only the box is evaluated
    axes = [grid.axis_nodes(i) for i in range(n)]
    box = _index_box(axes, (0.0,) * n, sup)
    vals = field(grid._mesh([a[s] for a, s in zip(axes, box)]))
    if isinstance(field, VectorField):  # (n, ...) storage
        data = np.zeros((n,) + grid.counts)
        data[(slice(None),) + box] = _leading(vals)
    else:
        data = np.zeros(grid.counts)
        data[box] = vals
    return PeriodicField(grid, data)


@lru_cache(maxsize=2)
def _cached_frac_derivative(field, alpha: float, N: int) -> PeriodicField:
    """grad^alpha of a ScalarField or div^alpha of a VectorField in the
    _BOX-wide box at N^n nodes, keyed on the field itself (frozen: hints by
    value, evaluator by identity), so two different fields never share an
    entry. Callers pass float(alpha) and int(N) positionally."""
    pf = embed(field, _BOX, N)
    if isinstance(field, VectorField):
        return spectral_frac_divergence(pf, alpha)
    return spectral_frac_gradient(pf, alpha)


def random_band_limited(grid: GridSpec, kmax: int, seed: int,
                        vector: bool = False) -> PeriodicField:
    """Mean-zero real field with modes only below |k_int| <= kmax (per axis)."""
    rng = np.random.default_rng(seed)
    counts = grid.counts

    def one() -> Array:
        spec = np.zeros(counts, dtype=complex)
        for mode in itertools.product(range(-kmax, kmax + 1), repeat=grid.n):
            if any(mode):  # the zero mode stays 0
                spec[tuple(m % c for m, c in zip(mode, counts))] = rng.normal() + 1j * rng.normal()
        out = np.real(np.fft.ifftn(spec))
        out -= out.mean()
        return out / (1.0 + np.max(np.abs(out)))

    return PeriodicField(grid, np.stack([one() for _ in range(grid.n)]) if vector else one())
