"""The fracfield names the benchmark (perfbench/) binds.

Its tracer wraps every public function of the traced modules whose
`__module__` is that module, counts points only on quadrature's `*_batch`
functions by binding their `x` argument, and its workloads and per-layer
metrics look the names below up by name. A rename would otherwise surface
only as a broken benchmark run, or as per-layer metrics that read 0.
"""

import importlib
import inspect

import pytest

from fracfield.spectral import PeriodicField

DIRECT_OPERATORS = ("frac_gradient_batch", "frac_divergence_batch", "nl_gradient_batch",
                    "nl_divergence_batch", "riesz_potential_batch", "riesz_transform_batch")
TRACED = {
    "quadrature": DIRECT_OPERATORS,
    "spectral": ("embed",),
    "analytic": ("spectral_gradient_of", "duality_pairing", "nl_gradient_ball",
                 "grad_chi_ball_profile"),
    "verify": ("spectral_divergence_of", "default_suite_registry", "run_suite"),
    "norms": ("besov_seminorm", "lp_norm"),
    "measures": ("measure_ball_mass",),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in TRACED.items() for n in names])
def test_traced_name_is_a_public_function_of_its_module(module, name):
    mod = importlib.import_module(f"fracfield.{module}")
    obj = getattr(mod, name, None)
    assert callable(obj) and not isinstance(obj, type), f"{module}.{name}"
    assert obj.__module__ == mod.__name__


def test_direct_operators_are_the_six_batch_functions_taking_x():
    quadrature = importlib.import_module("fracfield.quadrature")
    batch = {name for name, obj in vars(quadrature).items()
             if name.endswith("_batch") and not name.startswith("_") and callable(obj)}
    assert batch == set(DIRECT_OPERATORS)
    for name in batch:
        assert "x" in inspect.signature(getattr(quadrature, name)).parameters, name


def test_periodic_field_keeps_eval_fourier():
    """perfbench/baseline.py calls it."""
    assert callable(getattr(PeriodicField, "eval_fourier", None))
