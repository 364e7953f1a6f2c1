import warnings

import numpy as np
import pytest

from fracfield.fields import gaussian, gaussian_vector
from fracfield.quadrature import QuadratureConfig


@pytest.fixture(scope="session")
def cfg():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def gauss2d():
    return gaussian((0.0, 0.0))


@pytest.fixture(scope="session")
def gauss_vec2d():
    return gaussian_vector((0.2, 0.0), amplitudes=(1.0, 0.5))


@pytest.fixture(autouse=True)
def _runtime_warnings_are_errors():
    """A RuntimeWarning a test does not expect with pytest.warns fails it."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def vec_norm(a):
    a = np.asarray(a)
    return float(np.sqrt(np.sum(a * a, axis=-1)))
