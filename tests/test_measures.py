import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.analytic import cantor_measure
from fracfield.errors import ConfigError
from fracfield.fields import GridSpec
from fracfield.measures import RadonMeasure, measure_ball_mass


def test_total_variation_and_mass():
    mu = RadonMeasure(n=2, atom_points=np.array([[0.0, 0.0], [1.0, 0.0]]),
                      atom_weights=np.array([1.0, -1.0]))
    assert mu.total_variation() == pytest.approx(2.0)
    assert np.array_equal(mu.abs().atom_weights, [1.0, 1.0])
    assert mu.abs().total_variation() == pytest.approx(2.0)


def test_atom_points_of_another_dimension_are_refused():
    """(k, n) atom points only: three points in R^3 are not three in R^2."""
    with pytest.raises(ConfigError, match="trailing dimension 2"):
        RadonMeasure(n=2, atom_points=[[0, 1, 2], [3, 4, 5]], atom_weights=[1, 1, 1])
    with pytest.raises(ConfigError, match=r"\(k, 2\) array"):
        RadonMeasure(n=2, atom_points=[0.0, 1.0], atom_weights=[1.0])
    assert RadonMeasure(n=2).atom_points.shape == (0, 2)


def test_distinct_atoms_required():
    with pytest.raises(ConfigError):
        RadonMeasure(n=1, atom_points=np.array([[0.5], [0.5]]),
                     atom_weights=np.array([1.0, 2.0]))


def test_ball_mass_empty_and_single_atom():
    empty = RadonMeasure(n=2, atom_points=np.zeros((0, 2)), atom_weights=np.zeros(0))
    assert measure_ball_mass(empty, (0.0, 0.0), 1.0) == 0.0
    single = RadonMeasure(n=2, atom_points=np.array([[0.3, 0.3]]),
                          atom_weights=np.array([1.0]))
    for r in (0.1, 1.0, 5.0):
        assert measure_ball_mass(single, (0.3, 0.3), r) == 1.0
    assert measure_ball_mass(single, (2.0, 2.0), 0.5) == 0.0
    with pytest.raises(ConfigError, match="one point"):
        measure_ball_mass(single, [(0.3, 0.3), (2.0, 2.0)], 1.0)


def test_ball_mass_open_ball_semantics():
    mu = RadonMeasure(n=1, atom_points=np.array([[1.0]]), atom_weights=np.array([1.0]))
    assert measure_ball_mass(mu, (0.0,), 1.0) == 0.0  # boundary atom excluded
    assert measure_ball_mass(mu, (0.0,), 1.0 + 1e-12) == 1.0


def test_cantor_ball_masses():
    mu = cantor_measure(8, 1)
    assert np.sum(mu.atom_weights) == pytest.approx(1.0)
    # level-8 measure, r = 3^-5 at a Cantor point: one level-5 cylinder
    assert measure_ball_mass(mu, (0.0,), 3.0**-5) == pytest.approx(2.0**-5, abs=2.0**-8 * 0)
    for j in range(0, 7):
        assert measure_ball_mass(mu, (0.0,), 3.0**-j) == pytest.approx(2.0**-j)


def test_density_ball_mass_against_area():
    grid = GridSpec((-1.5, -1.5), (1.5, 1.5), (300, 300))
    dens = np.ones(grid.counts)
    mu = RadonMeasure(n=2, atom_points=np.zeros((0, 2)), atom_weights=np.zeros(0),
                      density_grid=grid, density_values=dens)
    r = 0.8
    mass = measure_ball_mass(mu, (0.1, -0.2), r)
    assert mass == pytest.approx(math.pi * r * r, rel=2e-3)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_ball_mass_monotone_for_nonnegative(k, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1, 1, size=(k, 2))
    # nudge duplicates apart
    pts += 1e-9 * np.arange(k)[:, None]
    w = rng.uniform(0.0, 1.0, size=k)
    mu = RadonMeasure(n=2, atom_points=pts, atom_weights=w)
    center = rng.uniform(-1, 1, size=2)
    masses = [measure_ball_mass(mu, center, r) for r in (0.2, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))


def _measure_ball_mass_reference(mu, center, r):
    """Ball mass over the full grid of cell centres: the bit reference for
    measure_ball_mass, which visits only the cells the ball can reach."""
    c = np.asarray(center, dtype=float).reshape(mu.n)
    total = 0.0
    if mu.atom_points.shape[0]:
        d2 = np.sum((mu.atom_points - c) ** 2, axis=-1)
        total += float(np.sum(mu.atom_weights[d2 < r * r]))
    grid = mu.density_grid
    centers = grid.center_points()
    dist = np.sqrt(np.sum((centers - c) ** 2, axis=-1))
    half_diag = 0.5 * math.sqrt(sum(h * h for h in grid.spacing))
    inside = dist <= r - half_diag
    total += float(np.sum(mu.density_values[inside])) * grid.cell_volume
    boundary = (~inside) & (dist < r + half_diag)
    if np.any(boundary):
        axes = [(np.arange(4) + 0.5) / 4.0 * h - 0.5 * h for h in grid.spacing]
        offs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, mu.n)
        sub = centers[boundary][:, None, :] + offs[None, :, :]
        frac = np.mean(np.sum((sub - c) ** 2, axis=-1) < r * r, axis=1)
        total += float(np.sum(mu.density_values[boundary] * frac)) * grid.cell_volume
    return total


@pytest.mark.parametrize("n, counts", [(1, 500), (2, 96), (3, 24)])
def test_ball_mass_bit_identical_to_full_grid(n, counts):
    grid = GridSpec((-1.5,) * n, (2.0,) * n, (counts,) * n)
    rng = np.random.default_rng(n)
    mu = RadonMeasure(n=n, atom_points=rng.uniform(-1, 1, (3, n)),
                      atom_weights=rng.uniform(-1, 1, 3), density_grid=grid,
                      density_values=rng.uniform(-1.0, 2.0, grid.counts))
    cases = [(np.full(n, 0.3), r) for r in (0.05, 0.4, 1.1)]
    cases += [(np.full(n, -1.5), 0.6),   # a corner of the grid
              (np.full(n, 2.0), 0.35),    # the opposite corner
              (np.full(n, 0.1), 9.0),     # a ball larger than the box
              (np.full(n, 5.0), 0.5)]     # a ball off the grid
    for center, r in cases:
        assert measure_ball_mass(mu, center, r) == _measure_ball_mass_reference(mu, center, r)
