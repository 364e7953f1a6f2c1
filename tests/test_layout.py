"""Component-major storage of vector values and grid points.

Vector evaluators return (n, ...) and grids are filled as one (n, *counts)
array; the public calls still return (..., n). The references below are the
trailing-axis implementations this layout replaced (meshgrid + stack grids,
(..., n) evaluators masked over a trailing axis, one interpolation pass per
component); every value must come out bit for bit the same.
"""

import numpy as np
import pytest

from fracfield.analytic import (
    _mollified_kernel_profile,
    make_convolved,
    make_delta_pair,
    mollified_pole_field,
)
from fracfield.fields import (
    GridSpec,
    _inner,
    gaussian,
    gaussian_vector,
    scalar_times_vector,
)
from fracfield.measures import RadonMeasure
from fracfield.special import _mu_raw
from fracfield.spectral import PeriodicField, embed, random_band_limited

DIMS = [1, 2, 3]


# ---------------------------------------------------------------------------
# references: the trailing-axis layout


def _mesh_reference(axes):
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def _masked_call_reference(fn, support, n, x):
    """VectorField.__call__ on a trailing-axis evaluator (..., n) -> (..., n)."""
    pts = np.asarray(x, dtype=float)
    single = pts.shape == (n,)
    if single:
        pts = pts[None, :]
    vals = np.asarray(fn(pts), dtype=float)
    if support is not None:
        vals = np.where(_inner(pts)[..., None] <= support**2, vals, 0.0)
    return vals[0] if single else vals


def _gaussian_vector_reference(center, width, amps):
    unit = gaussian(center, width)
    return lambda p: unit.fn(p)[..., None] * amps


def _pair_kernel_reference(pts, pole, expo):
    d = pts - pole
    r2 = _inner(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(r2 > 0.0, r2 ** (-expo / 2.0), 0.0)
    return d * w[..., None]


def _delta_pair_reference(y, z, alpha):
    n = len(y)
    mu_minus, expo = _mu_raw(n, -alpha), n + 1.0 - alpha
    return lambda p: mu_minus * (_pair_kernel_reference(p, y, expo)
                                 - _pair_kernel_reference(p, z, expo))


def _convolved_reference(atoms, weights, alpha):
    n = atoms.shape[1]
    e1 = np.eye(n)[0]
    mu_minus, expo = _mu_raw(n, -alpha), n + 1.0 - alpha

    def fn(p):
        acc = np.zeros(p.shape)
        for yi, wi in zip(atoms, weights):
            acc += wi * (_pair_kernel_reference(p, yi, expo)
                         - _pair_kernel_reference(p, yi + e1, expo))
        return mu_minus * acc

    return fn


def _mollified_reference(poles, strengths, alpha, eps):
    ts, kappa = _mollified_kernel_profile(poles.shape[1], alpha, eps)

    def fn(p):
        acc = np.zeros(p.shape)
        for q, s in zip(poles, strengths):
            d = p - q
            dist = np.sqrt(_inner(d))
            k = np.interp(dist, ts, kappa, right=0.0)
            safe = np.where(dist > 0.0, dist, 1.0)
            acc += s * (k / safe)[..., None] * d
        return acc

    return fn


def _sample_linear_reference(pf, x):
    """Periodic multilinear interpolation, one pass per component."""
    pts = np.asarray(x, dtype=float)
    P = pts.reshape(-1, pf.n)
    counts, h = pf.grid.counts, pf.grid.spacing
    idx, frac = [], []
    for i in range(pf.n):
        t = (P[:, i] - pf.grid.lower[i]) / h[i]
        j = np.floor(t).astype(int)
        frac.append(t - j)
        idx.append(np.mod(j, counts[i]))
    outs = []
    for c in (pf.data if pf.vector else pf.data[None, ...]):
        acc = np.zeros(P.shape[0])
        for corner in range(2**pf.n):
            w = np.ones(P.shape[0])
            sel = []
            for i in range(pf.n):
                bit = (corner >> i) & 1
                w = w * (frac[i] if bit else (1.0 - frac[i]))
                sel.append(np.mod(idx[i] + bit, counts[i]))
            acc += w * c[tuple(sel)]
        outs.append(acc)
    out = np.stack(outs, axis=-1) if pf.vector else outs[0]
    return out.reshape(pts.shape[:-1] + ((pf.n,) if pf.vector else ()))


def _points(n, shape=(9, 5, 4)):
    """Points inside and outside the supports, plus one exactly on a pole."""
    pts = np.random.default_rng(n).uniform(-6.0, 6.0, shape + (n,))
    pts[0, 0, 0] = 0.0
    return pts


def _assert_vector_field(F, ref_fn, support, pts):
    n = F.n
    assert np.array_equal(F.fn(pts), np.moveaxis(ref_fn(pts), -1, 0))
    ref = _masked_call_reference(ref_fn, support, n, pts)
    assert np.array_equal(F(pts), ref)
    flat = pts.reshape(-1, n)
    assert np.array_equal(F(flat), ref.reshape(-1, n))
    for x in (pts[0, 0, 0], pts[1, 2, 3], pts[-1, -1, -1]):
        one = F(x)
        assert one.shape == (n,)
        assert np.array_equal(one, _masked_call_reference(ref_fn, support, n, x))
    for i in range(n):
        assert np.array_equal(F.component(i)(pts), ref[..., i])


# ---------------------------------------------------------------------------
# bit identity


@pytest.mark.parametrize("n", DIMS)
def test_grid_points_match_meshgrid_stack(n):
    grid = GridSpec(tuple(np.linspace(-2.0, -1.0, n)), tuple(np.linspace(1.5, 3.0, n)),
                    tuple(range(5, 5 + n)))
    nodes = [grid.axis_nodes(i) for i in range(n)]
    centers = [grid.axis_centers(i) for i in range(n)]
    assert np.array_equal(grid.node_points(), _mesh_reference(nodes))
    assert np.array_equal(grid.center_points(), _mesh_reference(centers))
    sub = [a[1:4] for a in centers]
    assert np.array_equal(grid._mesh(sub), _mesh_reference(sub))


@pytest.mark.parametrize("n", DIMS)
def test_gaussian_vector_matches_trailing_axis_layout(n):
    center = np.linspace(0.3, -0.2, n)
    amps = np.linspace(-1.5, 2.0, n)
    F = gaussian_vector(center, 0.9, amps)
    pts = _points(n)
    assert np.any(_inner(pts) > F.support_radius**2)   # the mask has work to do
    _assert_vector_field(F, _gaussian_vector_reference(center, 0.9, amps),
                         F.support_radius, pts)


@pytest.mark.parametrize("n", DIMS)
def test_scalar_times_vector_matches_trailing_axis_layout(n):
    center = np.linspace(-0.2, 0.4, n)
    amps = np.linspace(1.0, -0.5, n)
    g = gaussian(np.full(n, 0.1), 0.6, 1.4)
    F = gaussian_vector(center, 1.1, amps)
    gF = scalar_times_vector(g, F)
    ref_F = _gaussian_vector_reference(center, 1.1, amps)

    def ref_fn(p):
        return np.asarray(g(p))[..., None] * _masked_call_reference(ref_F, F.support_radius, n, p)

    _assert_vector_field(gF, ref_fn, gF.support_radius, _points(n))


@pytest.mark.parametrize("n", DIMS)
def test_pole_fields_match_trailing_axis_layout(n):
    y, z = np.zeros(n), np.eye(n)[0] * 0.8
    pair = make_delta_pair(y, z, 0.5)
    pts = _points(n)
    _assert_vector_field(pair.field, _delta_pair_reference(y, z, 0.5), None, pts)

    atoms = np.random.default_rng(10 + n).uniform(-1.0, 1.0, (3, n))
    weights = np.array([0.7, -0.4, 1.1])
    conv = make_convolved(RadonMeasure(n=n, atom_points=atoms, atom_weights=weights), 0.6)
    _assert_vector_field(conv.field, _convolved_reference(atoms, weights, 0.6), None, pts)

    mol = mollified_pole_field(pair, 0.3)
    ref = _mollified_reference(pair.measure.atom_points, pair.measure.atom_weights, 0.5, 0.3)
    _assert_vector_field(mol, ref, None, pts)


@pytest.mark.parametrize("n", DIMS)
def test_pole_field_decay_hints_match_trailing_axis_layout(n):
    """The measured decay constants read the same ring values."""
    from fracfield.quadrature import sphere_rule

    y, z = np.full(n, 0.2), np.eye(n)[0] * 0.8
    pair = make_delta_pair(y, z, 0.5)
    s = n + 0.5
    ring = 10.0 * (1.0 + float(np.linalg.norm(y)) + float(np.linalg.norm(z)))
    vals = _delta_pair_reference(y, z, 0.5)(ring * sphere_rule(n, 32)[0])
    mag = float(np.max(np.sqrt(_inner(vals))))
    assert pair.field.decay == (1.3 * mag * ring**s, s)


@pytest.mark.parametrize("n", DIMS)
def test_sample_linear_matches_per_component_loop(n):
    N = {1: 64, 2: 16, 3: 8}[n]
    grid = GridSpec((-4.0,) * n, (4.0,) * n, (N,) * n)
    pts = np.random.default_rng(n).uniform(-7.0, 7.0, (6, 7, n))
    for vector in (False, True):
        pf = random_band_limited(grid, 2, seed=n, vector=vector)
        assert np.array_equal(pf.sample_linear(pts), _sample_linear_reference(pf, pts))
        flat = pts.reshape(-1, n)
        assert np.array_equal(pf.sample_linear(flat), _sample_linear_reference(pf, flat))
        one = pf.sample_linear(pts[2, 3])
        assert np.array_equal(one, _sample_linear_reference(pf, pts[2, 3][None])[0])
        assert np.shape(one) == ((n,) if vector else ())


@pytest.mark.parametrize("n", DIMS)
def test_embed_vector_matches_trailing_axis_layout(n):
    N = {1: 256, 2: 64, 3: 16}[n]
    center, amps = np.linspace(0.2, -0.3, n), np.linspace(0.5, -1.0, n)
    F = gaussian_vector(center, 1.0, amps)
    pf = embed(F, 16.0, N)
    nodes = _mesh_reference([pf.grid.axis_nodes(i) for i in range(n)])
    ref = _masked_call_reference(_gaussian_vector_reference(center, 1.0, amps),
                                 F.support_radius, n, nodes)
    assert np.array_equal(pf.data, np.moveaxis(ref, -1, 0))
    assert isinstance(pf, PeriodicField) and pf.vector


# ---------------------------------------------------------------------------
# layout


@pytest.mark.parametrize("n", DIMS)
def test_component_planes_are_contiguous(n):
    """Each component of a vector call and of a grid is one C-contiguous
    plane, so the elementwise steps never stride over the short axis."""
    grid = GridSpec((-1.0,) * n, (1.0,) * n, (6,) * n)
    pts = grid.node_points()
    for k in range(n):
        assert pts[..., k].flags.c_contiguous
        assert grid.center_points()[..., k].flags.c_contiguous
    F = gaussian_vector(np.zeros(n), 0.5, np.arange(1.0, n + 1.0))
    for x in (pts, np.random.default_rng(0).normal(size=(40, n))):
        assert np.moveaxis(F(x), -1, 0).flags.c_contiguous
    assert F.fn(pts).shape == (n,) + grid.counts
