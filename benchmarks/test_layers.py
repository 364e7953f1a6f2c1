"""Layer microbenchmarks: field evaluation, the direct engine's passes, the
spectral embedding and operators.

Run from the repository root (pytest-benchmark comes with the `test` extra):

    PYTHONPATH=src python -m pytest benchmarks -q

and as a smoke run, each benchmark once and untimed:

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-disable

`benchmarks/` sits outside the `testpaths` of pyproject.toml, so the tier-1
suite never runs these. Each field benchmark evaluates 1M points shaped like
a block of the direct engine's node template, (points, radii, angles, n),
stored component-major the way `_polar_sum` stores its blocks, and stores its
median cost per point as `extra_info["ns_per_eval"]`. The raw
evaluator (`fn`) and the masked `__call__` are timed apart, so their
difference is the cost of the support mask.

The direct-engine benchmarks call the public batch operators on 2048 points
in R^2 and store the median cost per point as `extra_info["us_per_pt"]`.
Points inside the support run only the near/mid polar passes (fine and
coarse); points beyond support + 1 run only the far-source rule.

`embed` is timed on the Gaussians above at 1024^2 and on their R^3
counterparts at 128^3; it evaluates only the index box of the support. The
four spectral operators are timed on those Gaussians embedded at 1024^2
(the vector one for the divergence), and the fractional gradient also at
128^3, as in perfbench's `spectral-grid`; `extra_info["workers"]` is the
size of the thread pool their per-component transforms run on.

The verifier benchmarks time one layer on the exact inputs of a default
suite check, captured by running the check's own code once:
`nl_gradient_ball` on the fine term-3 batch of `ball_ibp_r1.0`,
`measure_ball_mass` over the six radii of `decay_smooth_pinf` (a 2048^2
density), and `duality_pairing` on `duality_convolved` with its spectral
gradient already cached.
"""

import numpy as np
import pytest

from fracfield import spectral, verify
from fracfield.analytic import duality_pairing, make_convolved, nl_gradient_ball
from fracfield.fields import gaussian, gaussian_vector
from fracfield.measures import RadonMeasure, measure_ball_mass
from fracfield.quadrature import QuadratureConfig, frac_divergence_batch, frac_gradient_batch
from fracfield.spectral import (
    embed,
    spectral_frac_divergence,
    spectral_frac_gradient,
    spectral_riesz_potential,
    spectral_riesz_transform,
)

BLOCK = (1000, 25, 40, 2)  # 1M points in R^2
EVALS = BLOCK[0] * BLOCK[1] * BLOCK[2]


@pytest.fixture(scope="module")
def points():
    # (n, points, radii, angles) storage seen as (points, radii, angles, n)
    return np.random.default_rng(0).uniform(-4.0, 4.0, BLOCK[-1:] + BLOCK[:-1]).transpose(1, 2, 3, 0)


FIELDS = {
    "gaussian": gaussian((0.2, -0.1), 0.9, 1.3),
    "gaussian_vector": gaussian_vector((0.2, -0.1), 0.9, (1.0, 0.5)),
}


def _per_eval(benchmark, fn, pts):
    benchmark(fn, pts)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_eval"] = benchmark.stats.stats.median / EVALS * 1e9


@pytest.mark.parametrize("name", FIELDS)
def test_evaluator(benchmark, points, name):
    _per_eval(benchmark, FIELDS[name].fn, points)


@pytest.mark.parametrize("name", FIELDS)
def test_masked_call(benchmark, points, name):
    _per_eval(benchmark, FIELDS[name], points)


DIRECT_POINTS = 2048
DIRECT_OPS = {
    "frac_gradient": lambda X: frac_gradient_batch(FIELDS["gaussian"], 0.5, X, QuadratureConfig()),
    "frac_divergence": lambda X: frac_divergence_batch(FIELDS["gaussian_vector"], 0.5, X,
                                                       QuadratureConfig()),
}


def _per_point(benchmark, fn, X):
    benchmark(fn, X)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["us_per_pt"] = benchmark.stats.stats.median / len(X) * 1e6


@pytest.mark.parametrize("op", DIRECT_OPS)
def test_polar_passes(benchmark, op):
    X = np.random.default_rng(1).uniform(-1.5, 1.5, (DIRECT_POINTS, 2))
    _per_point(benchmark, DIRECT_OPS[op], X)


def test_far_source_rule(benchmark):
    rng = np.random.default_rng(2)
    theta = rng.uniform(0.0, 2.0 * np.pi, DIRECT_POINTS)
    radius = FIELDS["gaussian"].support_radius + 1.0 + rng.uniform(0.1, 3.0, DIRECT_POINTS)
    X = radius[:, None] * np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    _per_point(benchmark, DIRECT_OPS["frac_gradient"], X)


@pytest.mark.parametrize("name", FIELDS)
def test_embed_1024(benchmark, name):
    out = benchmark(embed, FIELDS[name], 16.0, 1024)
    assert out.data.shape == (2,) * out.vector + (1024, 1024)


FIELDS_3D = {
    "gaussian": gaussian((0.2, -0.1, 0.1), 0.9, 1.3),
    "gaussian_vector": gaussian_vector((0.2, -0.1, 0.1), 0.9, (1.0, 0.5, 0.8)),
}


@pytest.mark.parametrize("name", FIELDS_3D)
def test_embed_128_3d(benchmark, name):
    out = benchmark(embed, FIELDS_3D[name], 16.0, 128)
    assert out.data.shape == (3,) * out.vector + (128, 128, 128)


SPECTRAL_OPS = {
    "frac_gradient": (lambda pf: spectral_frac_gradient(pf, 0.5), "gaussian"),
    "frac_divergence": (lambda pf: spectral_frac_divergence(pf, 0.5), "gaussian_vector"),
    "riesz_potential": (lambda pf: spectral_riesz_potential(pf, 0.5), "gaussian"),
    "riesz_transform": (spectral_riesz_transform, "gaussian"),
}


def _spectral_op(benchmark, op, pf):
    out = benchmark(SPECTRAL_OPS[op][0], pf)
    benchmark.extra_info["workers"] = spectral._cpus()  # threads per fanned-out call, at most
    assert np.all(np.isfinite(out.data))


# a Gaussian's mean is not small: the documented constant-bias warning
@pytest.mark.filterwarnings("ignore:Riesz potential input has a non-negligible mean")
@pytest.mark.parametrize("op", SPECTRAL_OPS)
def test_spectral_op(benchmark, op):
    _spectral_op(benchmark, op, embed(FIELDS[SPECTRAL_OPS[op][1]], 16.0, 1024))


def test_spectral_op_128_3d(benchmark):
    _spectral_op(benchmark, "frac_gradient", embed(FIELDS_3D["gaussian"], 16.0, 128))


def _first_calls(name, run):
    """Run `run()` with verify's `name` wrapped; return the recorded args of
    every call."""
    calls = []
    inner = getattr(verify, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    setattr(verify, name, spy)
    try:
        run()
    finally:
        setattr(verify, name, inner)
    return calls


SUITE_F = gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))
SUITE_XI = gaussian((0.4, 0.2))


def test_nl_gradient_ball_term3(benchmark):
    cfg = QuadratureConfig()
    calls = _first_calls("nl_gradient_ball", lambda: verify._term3_nl_integral(
        SUITE_F, SUITE_XI, np.zeros(2), 1.0, 0.5, cfg))
    args = calls[0]  # the fine level
    benchmark(nl_gradient_ball, *args)
    benchmark.extra_info["points"] = len(args[4])


def test_measure_ball_mass_decay_radii(benchmark):
    calls = _first_calls("measure_ball_mass", lambda: verify.decay_scan(
        SUITE_F, 0.5, np.inf, (0.3, 0.2), np.geomspace(0.1, 0.8, 6)))
    assert len(calls) == 6
    benchmark(lambda: [measure_ball_mass(*args) for args in calls])


def test_duality_pairing_convolved(benchmark):
    nu = RadonMeasure(n=2, atom_points=np.array([[-1.2, -0.3], [0.4, 0.8], [-0.1, -1.0]]),
                      atom_weights=np.array([0.7, -0.4, 1.1]))
    pf, xi = make_convolved(nu, 0.6), gaussian((0.2, 0.0), width=1.2)
    duality_pairing(pf, xi, QuadratureConfig())  # fills the spectral gradient cache
    benchmark(duality_pairing, pf, xi, QuadratureConfig())
