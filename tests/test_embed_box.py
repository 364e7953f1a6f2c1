"""`embed` evaluates a field only on the index box of its support.

Every node outside that box lies beyond the support, where the support mask
gives +0.0. The reference below calls the field on every node of the box;
every value must come out bit for bit the same.
"""

import numpy as np
import pytest

from fracfield import fields
from fracfield.fields import (
    GridSpec,
    ScalarField,
    VectorField,
    _inner,
    _leading,
    ball_indicator,
    compact_bump,
    cutoff,
    gaussian,
    mollifier,
)
from fracfield.spectral import PeriodicField, embed

DIMS = [1, 2, 3]
L = 16.0


# ---------------------------------------------------------------------------
# embed on the support's index box


def _full_grid_embed(field, N):
    """The reference: the field called on every node of the box."""
    n = field.n
    grid = GridSpec((-L / 2.0,) * n, (L / 2.0,) * n, (N,) * n)
    data = field(grid.node_points())
    if isinstance(field, VectorField):
        return PeriodicField(grid, _leading(data))
    return PeriodicField(grid, data)


def _center(n):
    return np.random.default_rng(10 + n).uniform(-0.3, 0.3, n)


PROFILES = {
    "gaussian": lambda n: gaussian(_center(n), 0.9, 1.3),
    "compact_bump": lambda n: compact_bump(_center(n), 1.3),
    "ball_indicator": lambda n: ball_indicator(_center(n), 1.1),
    "cutoff": lambda n: cutoff(1.2, n),
    "mollifier": lambda n: mollifier(0.6, n),
    "support_at_limit": lambda n: gaussian((0.0,) * n, 1.5),    # support 6 = L/2 - margin
    "support_on_node": lambda n: gaussian((0.0,) * n, 0.5),     # support 2: a node coordinate
    "support_below_cell": lambda n: mollifier(0.01, n),         # support below the spacing
}
RESOLUTION = {1: 1024, 2: 256, 3: 32}


def _vector_of(f):
    """The profile times a fixed amplitude vector, stored (n, ...)."""
    amps = np.linspace(1.0, 0.5, f.n)
    return VectorField(n=f.n, fn=lambda p: np.multiply.outer(amps, f.fn(p)),
                       support_radius=f.support_radius)


@pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
@pytest.mark.parametrize("name", PROFILES)
@pytest.mark.parametrize("n", DIMS)
def test_embed_matches_full_grid(n, name, vector):
    f = PROFILES[name](n)
    if vector:
        f = _vector_of(f)
    N = RESOLUTION[n]
    pf, ref = embed(f, L, N), _full_grid_embed(f, N)
    assert pf.vector == ref.vector and pf.grid == ref.grid
    assert np.array_equal(pf.data, ref.data)
    assert np.array_equal(np.signbit(pf.data), np.signbit(ref.data))  # +0.0 off the box
    assert pf.data.flags.c_contiguous


def test_embed_calls_the_field_only_on_the_box():
    seen = []
    g = gaussian((0.1, -0.2), 0.5)
    spy = ScalarField(n=2, fn=lambda p: seen.append(p.shape) or g.fn(p),
                      support_radius=g.support_radius)
    embed(spy, L, 256)
    (shape,) = seen
    # the support ball's box (about 2 * 2.2 / 16 of each axis) plus a spare node per side
    assert shape[-1] == 2 and all(c < 256 // 3 for c in shape[:-1])


# ---------------------------------------------------------------------------
# the lattice helper


@pytest.mark.parametrize("n", DIMS)
def test_index_box_covers_the_ball(n):
    grid = GridSpec((-L / 2.0,) * n, (L / 2.0,) * n, (64,) * n)
    axes = [grid.axis_nodes(i) for i in range(n)]
    c = np.full(n, 0.3)
    box = fields._index_box(axes, c, 2.0)
    pts = grid.node_points()
    inside = np.sqrt(_inner(pts - c)) <= 2.0
    outside_box = np.ones(grid.counts, dtype=bool)
    outside_box[box] = False
    assert not np.any(inside & outside_box)
    for s in box:   # one spare node per side, no more
        assert s.stop - s.start <= int(4.0 / grid.spacing[0]) + 3


def test_index_box_clips_to_the_lattice():
    ax = np.arange(8.0)
    assert fields._index_box([ax], (0.0,), 100.0) == (slice(0, 8),)
    # no node within 0.2 of 3.5: only the spare nodes 3 and 4
    assert fields._index_box([ax, ax], (3.5, 7.0), 0.2) == (slice(3, 5), slice(6, 8))
