"""Finite signed measures as atoms plus an absolutely continuous density.

The density part lives on a GridSpec (cell-center samples against Lebesgue
measure). Ball masses use midpoint sums with 4^n subsampling of cells cut by
the ball boundary, which keeps the geometric error well below the package's
quadrature tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .fields import GridSpec, _check_points, _dist2, _index_box

Array = np.ndarray


@dataclass(frozen=True)
class RadonMeasure:
    """Atoms (points, weights) plus optional grid density."""

    n: int
    atom_points: Array = field(default_factory=lambda: np.zeros((0, 1)))
    atom_weights: Array = field(default_factory=lambda: np.zeros(0))
    density_grid: Optional[GridSpec] = None
    density_values: Optional[Array] = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.atom_points, dtype=float)
        if pts.size == 0:  # no atoms, whatever the layout
            pts = pts.reshape(0, self.n)
        _check_points(pts, self.n)
        if pts.ndim != 2:
            raise ConfigError(f"atom points must be a (k, {self.n}) array, got shape {pts.shape}")
        w = np.asarray(self.atom_weights, dtype=float).reshape(-1)
        if pts.shape[0] != w.shape[0]:
            raise ConfigError("atom points and weights must have equal length")
        if pts.shape[0] > 1:
            # pairwise-distinct atoms; k is small in every use here
            d2 = _dist2(pts[:, None, :], pts[None, :, :])
            np.fill_diagonal(d2, np.inf)
            if np.min(d2) <= 0.0:
                raise ConfigError("atom points must be pairwise distinct")
        object.__setattr__(self, "atom_points", pts)
        object.__setattr__(self, "atom_weights", w)
        if (self.density_grid is None) != (self.density_values is None):
            raise ConfigError("density grid and values must be given together")
        if self.density_grid is not None:
            vals = np.asarray(self.density_values, dtype=float)
            if vals.shape != self.density_grid.counts:
                raise ConfigError("density values must match the grid counts")
            if self.density_grid.n != self.n:
                raise ConfigError("density grid dimension mismatch")
            object.__setattr__(self, "density_values", vals)
        tv = self.total_variation()
        if not math.isfinite(tv):
            raise ConfigError("measure must have finite total variation")

    def total_variation(self) -> float:
        tv = float(np.sum(np.abs(self.atom_weights)))
        if self.density_grid is not None:
            tv += float(np.sum(np.abs(self.density_values))) * self.density_grid.cell_volume
        return tv

    def abs(self) -> "RadonMeasure":
        return RadonMeasure(
            n=self.n,
            atom_points=self.atom_points,
            atom_weights=np.abs(self.atom_weights),
            density_grid=self.density_grid,
            density_values=None if self.density_values is None else np.abs(self.density_values),
        )


def measure_ball_mass(mu: RadonMeasure, center, r: float) -> float:
    """Measure of the open ball B_r(center): atom sum + density integral.

    Cells cut by the sphere are weighted by a 4^n-subsample coverage fraction.
    """
    r = float(r)
    if r <= 0:
        raise ConfigError("ball radius must be positive")
    c = np.asarray(center, dtype=float)
    _check_points(c, mu.n)
    if c.ndim != 1:
        raise ConfigError(f"ball center must be one point of shape ({mu.n},), got {c.shape}")
    total = 0.0
    if mu.atom_points.shape[0]:
        d2 = _dist2(mu.atom_points, c)
        total += float(np.sum(mu.atom_weights[d2 < r * r]))
    if mu.density_grid is not None:
        grid = mu.density_grid
        half_diag = 0.5 * math.sqrt(sum(h * h for h in grid.spacing))
        # only cells whose centres lie within r + half_diag can count; the
        # masked cells of this box come out in the C order of the full grid
        box = _index_box([grid.axis_centers(i) for i in range(mu.n)], c, r + half_diag)
        centers = grid._mesh([grid.axis_centers(i)[s] for i, s in enumerate(box)])
        values = mu.density_values[box]
        dist = np.sqrt(_dist2(centers, c))
        vol = grid.cell_volume
        inside = dist <= r - half_diag
        total += float(np.sum(values[inside])) * vol
        boundary = (~inside) & (dist < r + half_diag)
        if np.any(boundary):
            bc = centers[boundary]
            bv = values[boundary]
            offs = _subcell_offsets(grid)
            sub = bc[:, None, :] + offs[None, :, :]
            frac = np.mean(_dist2(sub, c) < r * r, axis=1)
            total += float(np.sum(bv * frac)) * vol
    return total


def _subcell_offsets(grid: GridSpec) -> Array:
    """Centers of the 4^n subcells of one cell, relative to the cell center."""
    axes = []
    for h in grid.spacing:
        axes.append((np.arange(4) + 0.5) / 4.0 * h - 0.5 * h)
    return np.array(list(itertools.product(*axes)))
