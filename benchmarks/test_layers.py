"""Layer microbenchmarks: field evaluation and the spectral embedding.

Run from the repository root:

    PYTHONPATH=src python -m pytest benchmarks -q

`benchmarks/` sits outside the `testpaths` of pyproject.toml, so the tier-1
suite never runs these. Each field benchmark evaluates 1M points shaped like
a block of the direct engine's node template, (points, radii, angles, n), and
stores its median cost per point as `extra_info["ns_per_eval"]`. The raw
evaluator (`fn`) and the masked `__call__` are timed apart, so their
difference is the cost of the support mask.
"""

import numpy as np
import pytest

from fracfield.fields import gaussian, gaussian_vector
from fracfield.spectral import embed

BLOCK = (1000, 25, 40, 2)  # 1M points in R^2
EVALS = BLOCK[0] * BLOCK[1] * BLOCK[2]


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(0).uniform(-4.0, 4.0, BLOCK)


FIELDS = {
    "gaussian": gaussian((0.2, -0.1), 0.9, 1.3),
    "gaussian_vector": gaussian_vector((0.2, -0.1), 0.9, (1.0, 0.5)),
}


def _per_eval(benchmark, fn, pts):
    benchmark(fn, pts)
    benchmark.extra_info["ns_per_eval"] = benchmark.stats.stats.median / EVALS * 1e9


@pytest.mark.parametrize("name", FIELDS)
def test_evaluator(benchmark, points, name):
    _per_eval(benchmark, FIELDS[name].fn, points)


@pytest.mark.parametrize("name", FIELDS)
def test_masked_call(benchmark, points, name):
    _per_eval(benchmark, FIELDS[name], points)


def test_embed_1024(benchmark):
    out = benchmark(embed, FIELDS["gaussian"], 16.0, 1024)
    assert out.data.shape == (1024, 1024)
