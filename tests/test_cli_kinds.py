"""Every CLI kind runs or refuses cleanly in R^1, R^2 and R^3.

`op` (every operator, both engines), `decay` (every decay template) and
`bench` are driven over n = 1, 2, 3 with drawn values, some of them out of
range; `verify` and `convergence` run once each. A run exits 0 and writes its
output, or exits 2 (config error) or 3 (numerical precondition)
with a one-line message and no output; only `verify` may exit 1, for a failed
check. No run raises. Inputs stay small: output grids of 4^n points,
spectral resolutions of at most 64, a few bench points.
"""

import io
import json
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield.cli import main
from fracfield.cliconfig import OPERATORS, TEMPLATES

EXAMPLES = settings(max_examples=5, deadline=None)
PREFIX = {2: "config error: ", 3: "numerical precondition violated: "}
DECAY_TEMPLATES = sorted(t for t, spec in TEMPLATES.items() if "decay" in spec[2])


def _run(kind, config):
    """(exit code, stderr, files written) of `fracfield <kind>` on a config
    dict, run in this process with its warnings recorded."""
    with tempfile.TemporaryDirectory() as d, warnings.catch_warnings(record=True), \
            redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        path = Path(d) / "config.json"
        path.write_text(json.dumps({"kind": kind, **config}))
        rc = main([kind, "--config", str(path), "--out", d, "--jobs", "1"])
        written = sorted(p.name for p in Path(d).iterdir() if p != path)
    return rc, err.getvalue(), written


def _assert_runs_or_refuses(kind, config, output, may_fail=False):
    rc, err, written = _run(kind, config)
    if rc == 0 or (rc == 1 and may_fail):
        assert output in written, (rc, err, written)
    else:
        assert rc in PREFIX, (rc, err)
        assert err.startswith(PREFIX[rc]) and err.count("\n") == 1, err
        assert written == [], written


def points(n, lo=-0.5, hi=0.5):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n)


ORDERS = st.one_of(st.floats(0.05, 0.95), st.sampled_from([-0.2, 0.0, 1.0, 1.4]))
WIDTHS = st.sampled_from([0.3, 1.0, 4.0])  # 4.0 does not fit the spectral box
RESOLUTIONS = st.sampled_from([8, 16, 32, 48, 64])  # 48 is not a power of two


@st.composite
def smooth_fields(draw, n):
    template = draw(st.sampled_from(["gaussian", "gaussian-vector", "bump"]))
    spec = {"template": template, "center": draw(points(n))}
    spec["radius" if template == "bump" else "width"] = draw(WIDTHS)
    return spec


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("engine", ["direct", "spectral"])
@pytest.mark.parametrize("operator", sorted(OPERATORS))
@EXAMPLES
@given(data=st.data())
def test_op_runs_or_refuses(operator, engine, n, data):
    config = {
        "engine": engine,
        "fields": {"f": data.draw(smooth_fields(n))},
        "grid": {"lower": [-1.0] * n, "upper": [1.0] * n, "counts": [4] * n},
        "op": {"operator": operator, "field": "f"},
    }
    if operator != "riesz-transform":
        config["op"]["alpha"] = data.draw(ORDERS)
    if engine == "spectral":
        config["spectral"] = {"resolution": data.draw(RESOLUTIONS)}
    _assert_runs_or_refuses("op", config, "op_output.bin")


@st.composite
def decay_sources(draw, template, n):
    if template == "gaussian-vector":
        return {"template": template, "center": draw(points(n)), "width": draw(WIDTHS)}
    if template == "delta-pair":
        return {"template": template, "y": draw(points(n)), "z": draw(points(n, 0.5, 1.5)),
                "alpha": draw(ORDERS)}
    if template == "convolved":
        atoms = st.tuples(points(n, -1.0, 1.0), st.floats(-2.0, 2.0))
        return {"template": template, "atoms": draw(st.lists(atoms, min_size=1, max_size=3)),
                "alpha": draw(ORDERS)}
    return {"template": template, "level": draw(st.integers(0, 6)), "dim": n}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("template", DECAY_TEMPLATES)
@EXAMPLES
@given(data=st.data())
def test_decay_runs_or_refuses(template, n, data):
    radii = data.draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=6, unique=True))
    expect = data.draw(st.sampled_from(["floor", "flat", "exponent"]))
    decay = {"source": "s", "alpha": data.draw(ORDERS),
             "p": data.draw(st.sampled_from([0.5, 1.0, 1.2, 2.0, "inf"])),
             "radii": sorted(radii, reverse=True), "expect": expect}
    if data.draw(st.booleans()):
        decay["center"] = data.draw(points(n))
    if expect == "exponent":
        decay["target"] = data.draw(st.floats(0.0, 3.0))
    config = {"fields": {"s": data.draw(decay_sources(template, n))}, "decay": decay}
    _assert_runs_or_refuses("decay", config, "decay_table.csv")


@pytest.mark.parametrize("n", [1, 2, 3])
@EXAMPLES
@given(data=st.data())
def test_bench_runs_or_refuses(n, data):
    config = {
        "seed": data.draw(st.integers(0, 2**32)),
        "fields": {"f": data.draw(smooth_fields(n))},
        "spectral": {"resolution": data.draw(RESOLUTIONS)},
        "bench": {"field": "f", "alpha": data.draw(ORDERS),
                  "points": data.draw(st.integers(0, 4))},
    }
    _assert_runs_or_refuses("bench", config, "bench.csv")


def test_verify_runs_once():
    checks = ["riesz_square", "semigroup_spectral"]
    _assert_runs_or_refuses("verify", {"verify": {"checks": checks}}, "verify_report.jsonl",
                            may_fail=True)


def test_convergence_runs_once():
    _assert_runs_or_refuses("convergence", {"convergence": {"levels": 2, "base_resolution": 16}},
                            "convergence_spectral.csv")
