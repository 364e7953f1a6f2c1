import json
import math
import os
import re
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

from fracfield import cli
from fracfield.cli import main
from fracfield.cliconfig import KINDS, OPERATORS, ExperimentConfig, load_config
from fracfield.errors import ConfigError
from fracfield.fileio import config_digest, read_grid, write_grid, write_table

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, env=None):
    """The `python -m fracfield.cli` entry in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "fracfield.cli", *args],
        capture_output=True, text=True, env=env,
    )


def run_main(capsys, *args):
    """cli.main in this process: (exit code, stderr)."""
    rc = main([str(a) for a in args])
    return rc, capsys.readouterr().err


def test_load_toml_and_json(tmp_path):
    toml_p = tmp_path / "a.toml"
    toml_p.write_text('kind = "verify"\nseed = 7\n\n[verify]\nchecks = "default"\n')
    d = load_config(toml_p)
    assert d["kind"] == "verify" and d["seed"] == 7
    json_p = tmp_path / "a.json"
    json_p.write_text(json.dumps({"kind": "verify", "seed": 7,
                                  "verify": {"checks": "default"}}))
    assert load_config(json_p) == d
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.toml")


SHIPPED = sorted(p.name for p in CONFIG_DIR.glob("*.toml"))


@pytest.mark.parametrize("name", SHIPPED)
def test_config_roundtrip_fixed_point(name):
    raw = load_config(CONFIG_DIR / name)
    cfg = ExperimentConfig.from_dict(raw)
    ser = cfg.serialize()
    cfg2 = ExperimentConfig.from_dict(json.loads(ser))
    assert cfg2.serialize() == ser


def test_config_validation_errors():
    base = {"kind": "op", "fields": {"f": {"template": "gaussian",
                                           "center": [0.0, 0.0]}},
            "grid": {"lower": [-1, -1], "upper": [1, 1], "counts": [8, 8]},
            "op": {"operator": "frac-gradient", "field": "f", "alpha": 0.5}}
    ExperimentConfig.from_dict(base)  # sane baseline
    bad = json.loads(json.dumps(base))
    bad["op"]["field"] = "missing"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["op"]["alpha"] = 1.5
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["fields"]["f"]["template"] = "wavelet"
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(base, kind="verify"), kind="op")


def test_spectral_rejects_pole_field():
    cfgd = {"kind": "op", "engine": "spectral",
            "fields": {"p": {"template": "delta-pair", "y": [0.0, 0.0],
                             "z": [1.0, 0.0], "alpha": 0.5}},
            "grid": {"lower": [-1, -1], "upper": [1, 1], "counts": [8, 8]},
            "op": {"operator": "frac-gradient", "field": "p", "alpha": 0.5}}
    with pytest.raises(ConfigError, match="smooth"):
        ExperimentConfig.from_dict(cfgd)


def test_cli_runners_name_the_config_kinds():
    """Every kind a config may name has a runner, and every runner a kind."""
    assert sorted(cli._RUNNERS) == sorted(KINDS)
    assert len(KINDS) == 5


def test_grid_file_roundtrip(tmp_path):
    counts = (8, 12)
    rng = np.random.default_rng(0)
    planes = {"value": rng.normal(size=counts), "error_est": rng.uniform(size=counts)}
    p = tmp_path / "g.bin"
    write_grid(p, "deadbeef", (-1.0, -2.0), (1.0, 2.0), counts, planes)
    meta, back = read_grid(p)
    assert meta["counts"] == counts
    assert np.array_equal(back["value"], planes["value"])
    assert np.array_equal(back["error_est"], planes["error_est"])
    header = (tmp_path / "g.bin.header.txt").read_text()
    assert "fracfield" in header and "deadbeef" in header


def test_table_header_block(tmp_path):
    p = tmp_path / "t.csv"
    write_table(p, "cafe", ["a", "b"], [[1, 2.5]], footer={"s": 1.0})
    lines = p.read_text().splitlines()
    assert lines[0].startswith("# fracfield")
    assert any(l.startswith("# config_digest cafe") for l in lines)
    assert "a,b" in lines
    assert lines[-1] == "# s 1.0"


def test_cli_op_deterministic(tmp_path, capsys):
    """The module entry and cli.main write the same bytes."""
    cfgp = CONFIG_DIR / "op_gaussian_grad.toml"
    res = run_cli(["op", "--config", str(cfgp), "--out", str(tmp_path / "r1")])
    assert res.returncode == 0, res.stderr
    rc, err = run_main(capsys, "op", "--config", cfgp, "--out", tmp_path / "r2")
    assert rc == 0, err
    b1 = (tmp_path / "r1" / "op_output.bin").read_bytes()
    b2 = (tmp_path / "r2" / "op_output.bin").read_bytes()
    assert b1 == b2


def test_cli_exit_codes(tmp_path, capsys):
    # config error
    bad = tmp_path / "bad.toml"
    bad.write_text('kind = "op"\n')
    assert run_main(capsys, "op", "--config", bad)[0] == 2
    # kind mismatch
    assert run_main(capsys, "verify", "--config", CONFIG_DIR / "op_gaussian_grad.toml")[0] == 2
    # precondition violation (support exceeds the periodic box)
    pre = tmp_path / "pre.toml"
    pre.write_text(
        'kind = "op"\nengine = "spectral"\n'
        '[fields.w]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\nwidth = 3.0\n'
        '[grid]\nlower = [-2.0, -2.0]\nupper = [2.0, 2.0]\ncounts = [8, 8]\n'
        '[spectral]\nbox = 8.0\nresolution = 64\n'
        '[op]\noperator = "frac-gradient"\nfield = "w"\nalpha = 0.5\n'
    )
    assert run_main(capsys, "op", "--config", pre, "--out", tmp_path)[0] == 3


def test_cli_verify_filter_and_failure(tmp_path, capsys):
    cfgp = tmp_path / "v.toml"
    cfgp.write_text('kind = "verify"\n[verify]\nchecks = ["riesz_square"]\n')
    rc, err = run_main(capsys, "verify", "--config", cfgp, "--out", tmp_path)
    assert rc == 0, err
    lines = (tmp_path / "verify_report.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 1 and recs[0]["name"] == "riesz_square"
    # a coarse angular rule fails cross_engine on its own 1e-3 bound
    cfgp.write_text(
        'kind = "verify"\n[verify]\nchecks = ["cross_engine"]\n'
        '[quadrature]\nmid_angular_nodes = 4\nnear_angular_nodes = 4\n'
    )
    assert run_main(capsys, "verify", "--config", cfgp, "--out", tmp_path)[0] == 1
    rec = json.loads((tmp_path / "verify_report.jsonl").read_text())
    assert rec["name"] == "cross_engine" and not rec["pass"] and rec["branch"] == "abs"


def test_cli_decay_cantor(tmp_path, capsys):
    rc, err = run_main(capsys, "decay", "--config", CONFIG_DIR / "decay_cantor.toml",
                       "--out", tmp_path)
    assert rc == 0, err
    text = (tmp_path / "decay_table.csv").read_text()
    assert "running_slope" in text
    slope = float(next(l for l in text.splitlines()
                       if l.startswith("# fitted_slope")).split()[-1])
    assert abs(slope - math.log(2) / math.log(3)) < 0.05


def test_cli_decay_rejects_p_below_one(tmp_path, capsys):
    cfgp = tmp_path / "decay_p_half.toml"
    text = (CONFIG_DIR / "decay_cantor.toml").read_text()
    assert "p = 1.0" in text
    cfgp.write_text(text.replace("p = 1.0", "p = 0.5"))
    rc, err = run_main(capsys, "decay", "--config", cfgp, "--out", tmp_path)
    assert rc == 2 and err == "config error: decay.p must be at least 1, got 0.5\n", err


def test_cli_decay_smooth_tabulates_spectral_masses(tmp_path, capsys):
    """A smooth source's table holds the spectral ball masses the slope was
    fitted to: every mass finite and positive, every running slope finite."""
    rc, err = run_main(capsys, "decay", "--config", CONFIG_DIR / "decay_smooth.toml",
                       "--out", tmp_path)
    assert rc == 0, err
    lines = (tmp_path / "decay_table.csv").read_text().splitlines()
    start = lines.index("r,mass,log_r,log_mass,running_slope") + 1
    rows = [[float(v) for v in l.split(",")] for l in lines[start:]
            if not l.startswith("#")]
    assert len(rows) == 6
    assert all(math.isfinite(row[1]) and row[1] > 0 for row in rows)
    assert math.isnan(rows[0][4])
    assert all(math.isfinite(row[4]) for row in rows[1:])


def test_cli_convergence_rejects_single_level(tmp_path, capsys):
    cfgp = tmp_path / "c.toml"
    cfgp.write_text('kind = "convergence"\n[convergence]\nlevels = 1\n')
    assert run_main(capsys, "convergence", "--config", cfgp)[0] == 2


def test_cli_bench_empty_points(tmp_path, capsys):
    cfgp = tmp_path / "b.toml"
    cfgp.write_text(
        'kind = "bench"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[bench]\nfield = "f"\npoints = 0\n'
    )
    assert run_main(capsys, "bench", "--config", cfgp)[0] == 2


def test_cli_op_spectral_engine(tmp_path, capsys):
    cfgp = tmp_path / "sp.toml"
    cfgp.write_text(
        'kind = "op"\nengine = "spectral"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[grid]\nlower = [-2.0, -2.0]\nupper = [2.0, 2.0]\ncounts = [16, 16]\n'
        '[spectral]\nbox = 16.0\nresolution = 256\n'
        '[op]\noperator = "frac-gradient"\nfield = "f"\nalpha = 0.5\n'
    )
    rc, err = run_main(capsys, "op", "--config", cfgp, "--out", tmp_path)
    assert rc == 0, err
    meta, planes = read_grid(tmp_path / "op_output.bin")
    assert set(planes) == {"value_0", "value_1", "error_est"}
    assert np.all(np.isfinite(planes["value_0"]))


def test_cli_jobs_env(tmp_path):
    cfgp = tmp_path / "v.toml"
    cfgp.write_text('kind = "verify"\n[verify]\nchecks = ["riesz_square", "symbol"]\n')
    res = run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path)],
                  env=dict(os.environ, FRACFIELD_JOBS="2"))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "verify_report.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_cli_direct_op_refuses_wrong_field_kind(tmp_path, capsys):
    cfgp = tmp_path / "wrong.toml"
    cfgp.write_text(
        'kind = "op"\nengine = "direct"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[grid]\nlower = [-1.0, -1.0]\nupper = [1.0, 1.0]\ncounts = [4, 4]\n'
        '[op]\noperator = "frac-divergence"\nfield = "f"\nalpha = 0.5\n'
    )
    rc, err = run_main(capsys, "op", "--config", cfgp, "--out", tmp_path)
    assert rc == 2, err
    assert "config error" in err and "VectorField" in err


@pytest.mark.parametrize("center,resolution", [("[0.1]", 512), ("[0.1, 0.0, -0.1]", 32)],
                         ids=["n1", "n3"])
def test_cli_bench_other_dimensions(tmp_path, capsys, center, resolution):
    cfgp = tmp_path / "b.toml"
    cfgp.write_text(
        'kind = "bench"\n'
        f'[fields.f]\ntemplate = "gaussian"\ncenter = {center}\n'
        f'[spectral]\nbox = 16.0\nresolution = {resolution}\n'
        '[bench]\nfield = "f"\npoints = 4\n'
    )
    rc, err = run_main(capsys, "bench", "--config", cfgp, "--out", tmp_path)
    assert rc == 0, err
    rows = [l.split(",") for l in (tmp_path / "bench.csv").read_text().splitlines()
            if l.startswith(("direct,", "spectral,"))]
    assert [r[0] for r in rows] == ["direct", "spectral"]
    assert all(math.isfinite(float(r[3])) for r in rows)


def test_cli_spectral_potential_reports_mean_bias_warning(tmp_path):
    cfgp = tmp_path / "pot.toml"
    cfgp.write_text(
        'kind = "op"\nengine = "spectral"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[grid]\nlower = [-1.0, -1.0]\nupper = [1.0, 1.0]\ncounts = [4, 4]\n'
        '[spectral]\nbox = 16.0\nresolution = 64\n'
        '[op]\noperator = "riesz-potential"\nfield = "f"\nalpha = 0.5\n'
    )
    res = run_cli(["op", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    assert "RuntimeWarning" in res.stderr and "non-negligible mean" in res.stderr


def test_cli_decay_takes_dimension_from_source(tmp_path, capsys):
    """A 1-D convolved source without a centre is scanned about the 1-D origin
    (p = inf: the floor n - alpha shows the dimension)."""
    cfgp = tmp_path / "d.toml"
    cfgp.write_text(
        'kind = "decay"\n'
        '[fields.nu]\ntemplate = "convolved"\n'
        'atoms = [[[0.0], 1.0], [[0.5], -0.7]]\nalpha = 0.5\n'
        '[decay]\nsource = "nu"\nalpha = 0.5\np = "inf"\n'
        'radii = [0.05, 0.1, 0.2, 0.4]\n'
    )
    rc, err = run_main(capsys, "decay", "--config", cfgp, "--out", tmp_path)
    assert rc == 0, err
    text = (tmp_path / "decay_table.csv").read_text()
    floor = float(next(l for l in text.splitlines()
                       if l.startswith("# theoretical_floor")).split()[-1])
    assert floor == pytest.approx(0.5)


def test_cli_decay_refuses_a_3d_smooth_source_before_embedding(tmp_path, capsys, monkeypatch):
    """A 3-D smooth source would be embedded at 1024^3 nodes: decay exits 3
    before spectral.embed is ever called."""
    import fracfield.spectral

    calls = []
    monkeypatch.setattr(fracfield.spectral, "embed", lambda *args: calls.append(args))
    cfgp = tmp_path / "d3.toml"
    cfgp.write_text(_edited("decay_smooth.toml", "[0.2, 0.0]", "[0.2, 0.0, 0.0]")
                    .replace("[1.0, 0.5]", "[1.0, 0.5, 0.25]")
                    .replace("[0.3, 0.2]", "[0.3, 0.2, 0.0]"))
    rc, err = run_main(capsys, "decay", "--config", cfgp, "--out", tmp_path)
    assert rc == 3 and "R^3" in err, err
    assert calls == []


@pytest.mark.parametrize("kind", ["op", "bench"])
@pytest.mark.parametrize("n,resolution", [(1, 1024), (2, 1024), (3, 128)])
def test_spectral_resolution_default_follows_dimension(kind, n, resolution):
    """Without [spectral] resolution a field on R^1 or R^2 is embedded at
    1024^n nodes and one on R^3 at 128^3; the default is recorded."""
    data = {"kind": kind, "fields": {"f": {"template": "gaussian", "center": [0.0] * n}}}
    if kind == "op":
        data.update(engine="spectral",
                    op={"operator": "frac-gradient", "field": "f", "alpha": 0.5},
                    grid={"lower": [-1.0] * n, "upper": [1.0] * n, "counts": [4] * n})
    else:
        data["bench"] = {"field": "f", "points": 4}
    cfg = ExperimentConfig.from_dict(data)
    assert cfg.params["spectral"] == (16.0, resolution)
    assert cfg.normalized()["spectral"] == {"box": 16.0, "resolution": resolution}


def _footer(path, key):
    line = next(l for l in path.read_text().splitlines() if l.startswith(f"# {key} "))
    return line.split()[-1]


def test_cli_convergence_spectral_and_direct(tmp_path, capsys):
    """The shipped spectral sweep converges spectrally fast; a short direct
    sweep writes a finite fitted order."""
    rc, err = run_main(capsys, "convergence", "--config", CONFIG_DIR / "convergence_spectral.toml",
                       "--out", tmp_path)
    assert rc == 0, err
    assert float(_footer(tmp_path / "convergence_spectral.csv", "fitted_order")) >= 4.0
    cfgp = tmp_path / "direct.toml"
    cfgp.write_text('kind = "convergence"\nengine = "direct"\n[convergence]\nlevels = 3\n')
    rc, err = run_main(capsys, "convergence", "--config", cfgp, "--out", tmp_path)
    assert rc == 0, err
    assert math.isfinite(float(_footer(tmp_path / "convergence_direct.csv", "fitted_order")))


def test_cli_bench_shipped_config(tmp_path, capsys):
    """The shipped bench config (n = 2) times both engines on its points and
    records their disagreement within the 1e-3 contract."""
    rc, err = run_main(capsys, "bench", "--config", CONFIG_DIR / "bench_gaussian.toml",
                       "--out", tmp_path)
    assert rc == 0, err
    lines = [l for l in (tmp_path / "bench.csv").read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "engine,points,seconds,max_rel_disagreement"
    rows = [l.split(",") for l in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("direct", "100"), ("spectral", "100")]
    assert all(float(r[2]) >= 0.0 and float(r[3]) <= 1e-3 for r in rows)


def test_cli_bench_computes_through_the_operator_table(tmp_path, capsys, monkeypatch):
    """bench takes both engines' frac-gradient from the table op uses: the
    table's entries see every call, direct engine first."""
    direct, periodic = OPERATORS["frac-gradient"]
    calls = []

    def spy_direct(*args):
        calls.append("direct")
        return direct(*args)

    def spy_periodic(*args):
        calls.append("spectral")
        return periodic(*args)

    monkeypatch.setitem(OPERATORS, "frac-gradient", (spy_direct, spy_periodic))
    rc, err = run_main(capsys, "bench", "--config", CONFIG_DIR / "bench_gaussian.toml",
                       "--out", tmp_path)
    assert rc == 0, err
    assert calls == ["direct", "spectral"]


@pytest.mark.parametrize("engine", ["direct", "spectral"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("operator", sorted(OPERATORS))
def test_cli_op_every_operator_dimension_and_engine(tmp_path, capsys, operator, n, engine):
    """Every `fracfield op` operator runs with both engines in R^1..R^3 and
    writes finite planes of the output grid's shape."""
    vector_in = operator == "frac-divergence"
    vector_out = operator in ("frac-gradient", "riesz-transform")
    center = [0.1 * (k + 1) for k in range(n)]
    field = (f'template = "gaussian-vector"\ncenter = {center}\n'
             f'amplitudes = {[1.0, -0.5, 0.25][:n]}\n' if vector_in
             else f'template = "gaussian"\ncenter = {center}\n')
    box = (f'[spectral]\nbox = 16.0\nresolution = {({1: 256, 2: 64, 3: 32})[n]}\n'
           if engine == "spectral" else "")
    cfgp = tmp_path / "op.toml"
    cfgp.write_text(
        f'kind = "op"\nengine = "{engine}"\n'
        f'[fields.f]\n{field}'
        f'[grid]\nlower = {[-1.0] * n}\nupper = {[1.0] * n}\ncounts = {[4] * n}\n{box}'
        f'[op]\noperator = "{operator}"\nfield = "f"\n'
        + ("" if operator == "riesz-transform" else "alpha = 0.5\n")
    )
    # a Gaussian has a non-zero mean, which the spectral potential drops with a warning
    biased = operator == "riesz-potential" and engine == "spectral"
    with pytest.warns(RuntimeWarning, match="non-negligible mean") if biased else nullcontext():
        rc = main(["op", "--config", str(cfgp), "--out", str(tmp_path)])
    assert rc == 0, capsys.readouterr().err
    meta, planes = read_grid(tmp_path / "op_output.bin")
    values = [f"value_{k}" for k in range(n)] if vector_out else ["value"]
    assert set(planes) == set(values) | {"error_est"}
    for plane in planes.values():
        assert plane.shape == (4,) * n
        assert np.all(np.isfinite(plane))


def _edited(name, old, new):
    text = (CONFIG_DIR / name).read_text()
    assert old in text
    return text.replace(old, new)


VERIFY_TEXT = (CONFIG_DIR / "verify_default.toml").read_text()


@pytest.mark.parametrize("kind,text,env,named", [
    ("decay", _edited("decay_cantor.toml", "p = 1.0", 'p = "abc"'), None, "decay.p: 'abc'"),
    ("decay", _edited("decay_cantor.toml", "center = [0.0]", "center = [0.0, 0.0]"), None,
     "decay.center must have"),
    ("decay", _edited("decay_cantor.toml", "target = 0.6309297535714574", 'target = "x"'), None,
     "decay.target: 'x'"),
    ("op", _edited("op_gaussian_grad.toml", "alpha = 0.5", 'alpha = "x"'), None, "op.alpha: 'x'"),
    ("bench", _edited("bench_gaussian.toml", "points = 100", 'points = "x"'), None,
     "bench.points: 'x'"),
    ("verify", _edited("verify_default.toml", '"default"', '"default"\ntolerance_abs = 1.0'),
     None, "unknown key: verify.tolerance_abs"),
    ("decay", _edited("decay_pole.toml", "z = [1.0, 0.0]", ""), None,
     "fields.pair.z is required"),
    ("verify", 'jobs = "x"\n' + VERIFY_TEXT, None, "jobs: 'x'"),
    ("verify", VERIFY_TEXT, "x", "jobs: 'x'"),
    ("verify", _edited("verify_default.toml", "seed = 0", "seed = -1"), None,
     "seed must be at least 0"),
    ("verify", VERIFY_TEXT + '[quadrature]\nnear_radial_nodes = "x"\n', None,
     "quadrature.near_radial_nodes: 'x'"),
    ("verify", VERIFY_TEXT + "[quadrature]\nfoo = 1\n", None, "unknown key: quadrature.foo"),
    ("op", _edited("op_gaussian_grad.toml", "width = 1.0", "widht = 2.0"), None,
     "unknown key: fields.main.widht"),
    ("bench", _edited("bench_gaussian.toml", "points = 100", "points = 100\npoint = 5"), None,
     "unknown key: bench.point"),
    ("bench", (CONFIG_DIR / "bench_gaussian.toml").read_text() + "[spectral]\nresolution = 1000\n",
     None, "spectral.resolution must be a power of two, got 1000"),
    ("verify", "sede = 3\n" + VERIFY_TEXT, None, "unknown key: sede"),
    ("verify", VERIFY_TEXT + "[quadratur]\ntol = 1e-9\n", None, "unknown key: quadratur"),
    ("verify", VERIFY_TEXT + "[quadrature]\ntail_model = false\n", None,
     "unknown key: quadrature.tail_model"),
    ("decay", _edited("decay_smooth.toml", "width = 1.0", "width = 1.0\namplitude = 7.0"), None,
     "unknown key: fields.smooth.amplitude"),
    ("op", _edited("op_gaussian_grad.toml", "alpha = 0.5", "order = 0.5"), None,
     "op.alpha is required"),
    ("op", _edited("op_gaussian_grad.toml", "width = 1.0", "width = -1.0"), None,
     "fields.main: gaussian width must be positive"),
    ("verify", _edited("verify_default.toml", "seed = 0", "seed = 1.7"), None,
     "seed: 1.7 is not an integer"),
    ("verify", _edited("verify_default.toml", "seed = 0", "seed = true"), None,
     "seed: True is not an integer"),
    ("verify", VERIFY_TEXT + "[quadrature]\nnear_radial_nodes = 12.5\n", None,
     "quadrature.near_radial_nodes: 12.5 is not an integer"),
    ("op", _edited("op_gaussian_grad.toml", "[32, 32]", "[8.7, 8]"), None,
     "grid.counts: [8.7, 8] is not a list of integers"),
    ("convergence", _edited("convergence_spectral.toml", "= 32", "= 48"), None,
     "convergence.base_resolution must be a power of two, got 48"),
    ("convergence", _edited("convergence_spectral.toml", "levels = 4", "levels = 9"), None,
     "convergence.levels must lie in [2, 8]: the finest grid, base_resolution * "
     "2^(levels - 1), is capped at 4096 per axis, got 9"),
    ("convergence", 'kind = "convergence"\nengine = "direct"\n[convergence]\nlevels = 11\n', None,
     "convergence.levels must lie in [2, 10]: the direct sweep's cap, got 11"),
    ("decay", 'kind = "decay"\n[fields.nu]\ntemplate = "convolved"\n'
     'atoms = [[[0.0, 0.0], 1.0], [[1.0], 2.0]]\n'
     '[decay]\nsource = "nu"\nradii = [0.1, 0.2, 0.4]\n', None,
     "fields.nu.atoms: [[[0.0, 0.0], 1.0], [[1.0], 2.0]] is not a non-empty list of "
     "[point, weight] atoms whose points share one dimension of at least one coordinate\n"),
    ("decay", 'kind = "decay"\n[fields.main]\ntemplate = "convolved"\natoms = [[[], 1.0]]\n'
     '[decay]\nsource = "main"\nradii = [0.1, 0.2, 0.4]\n', None,
     "config error: fields.main.atoms: [[[], 1.0]] is not a non-empty list of [point, weight] "
     "atoms whose points share one dimension of at least one coordinate\n"),
    ("decay", re.sub(r"radii = \[[^]]*\]", "pow3_levels = 10",
                     (CONFIG_DIR / "decay_cantor.toml").read_text()), None,
     "decay.radii is required"),
    ("verify", VERIFY_TEXT + "[quadrature]\ntol = 0.0\n", None,
     "quadrature.tol must be positive, got 0.0"),
    ("verify", VERIFY_TEXT + "[quadrature]\nmid_panel_growth = 1.0\n", None,
     "quadrature.mid_panel_growth must exceed 1, got 1.0"),
    ("verify", VERIFY_TEXT + "[quadrature]\nnear_radius = -1.0\n", None,
     "quadrature.near_radius must be positive, got -1.0"),
    ("verify", VERIFY_TEXT + "[quadrature]\nfar_cutoff = 6.0\n", None,
     "unknown key: quadrature.far_cutoff"),
    ("verify", VERIFY_TEXT + "[quadrature]\nmid_panel_nodes = 1\n", None,
     "quadrature.mid_panel_nodes must be at least 2, got 1"),
    ("op", _edited("op_gaussian_grad.toml", "upper = [2.0, 2.0]", "upper = [-2.0, 2.0]"), None,
     "grid: GridSpec axis bounds must satisfy lower < upper, got [-2.0, -2.0]"),
    ("op", _edited("op_gaussian_grad.toml", "[32, 32]", "[32, 3]"), None,
     "grid: GridSpec needs >= 4 samples per axis, got 3"),
    ("decay", _edited("decay_smooth.toml", "alpha = 0.5", "alpha = 1.5"), None,
     "decay.alpha must lie in (0, 1], got 1.5"),
    ("decay", _edited("decay_smooth.toml", "alpha = 0.5", "alpha = -0.5"), None,
     "decay.alpha must lie in (0, 1], got -0.5"),
    ("decay", _edited("decay_cantor.toml", "alpha = 0.5", "alpha = 0.0"), None,
     "decay.alpha must lie in (0, 1], got 0.0"),
    ("decay", _edited("decay_pole.toml", "p = 1.2", "p = 0.9"), None,
     "decay.p must be at least 1, got 0.9"),
    ("decay", _edited("decay_pole.toml", "[0.02,", "[0.02, 0.020000000000000004,"), None,
     "decay.radii must hold at least 3 distinct positive radii"),
    *[("op", _edited("op_gaussian_grad.toml", "alpha = 0.5", "alpha = 2.5").replace(
        '"frac-gradient"', '"riesz-potential"').replace('"direct"', f'"{engine}"'), None,
       "config error: op.alpha must lie in (0, 2), got 2.5") for engine in ("direct", "spectral")],
    *[("op", _edited("op_gaussian_grad.toml", "[32, 32]", "[4, 4, 4]").replace(
        "[-2.0, -2.0]", "[-1, -1, -1]").replace("[2.0, 2.0]", "[1, 1, 1]").replace(
        '"direct"', f'"{engine}"') + extra, None,
       "config error: grid.lower must have the field's 2 coordinates, got [-1.0, -1.0, -1.0]")
      for engine, extra in (("direct", ""), ("spectral", "\n[spectral]\nresolution = 64\n"))],
    ("verify", "jobs = 0\n" + VERIFY_TEXT, None, "config error: jobs must be at least 1, got 0"),
    ("verify", VERIFY_TEXT, "0", "config error: jobs must be at least 1, got 0"),
], ids=["decay-p", "decay-center-dim", "decay-target", "op-alpha", "bench-points",
        "verify-tolerance", "delta-pair-without-z", "jobs", "FRACFIELD_JOBS", "seed",
        "quadrature-value", "quadrature-unknown-key", "field-unknown-key",
        "kind-unknown-key", "spectral-resolution", "top-level-unknown-key",
        "misspelled-section", "quadrature-tail-model", "gaussian-vector-amplitude",
        "op-order-alias", "template-constructor-error", "seed-fraction", "seed-bool",
        "quadrature-int-fraction", "grid-counts-fraction", "base-resolution-pow2",
        "spectral-sweep-cap", "direct-sweep-cap", "convolved-mixed-dimension",
        "convolved-empty-point",
        "decay-pow3-levels-alone", "quadrature-tol", "quadrature-panel-growth",
        "quadrature-near-radius", "quadrature-far-cutoff", "quadrature-node-count",
        "grid-bounds", "grid-counts", "decay-alpha-above-one", "decay-alpha-negative",
        "decay-alpha-zero", "decay-p-below-one", "decay-radii-equal-logs",
        "riesz-potential-order-direct", "riesz-potential-order-spectral",
        "grid-dimension-direct", "grid-dimension-spectral", "jobs-zero",
        "FRACFIELD_JOBS-zero"])
def test_cli_malformed_value_is_a_config_error(tmp_path, capsys, monkeypatch, kind, text,
                                               env, named):
    """A malformed value exits 2 with a config error naming <section>.<key>,
    before any computation and without a traceback."""
    if env is None:
        monkeypatch.delenv("FRACFIELD_JOBS", raising=False)
    else:
        monkeypatch.setenv("FRACFIELD_JOBS", env)
    cfgp = tmp_path / "bad.toml"
    cfgp.write_text(text)
    rc, err = run_main(capsys, kind, "--config", cfgp, "--out", tmp_path / "out")
    assert rc == 2
    assert err.startswith("config error: ") and named in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_cli_jobs_flag_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.delenv("FRACFIELD_JOBS", raising=False)
    rc, err = run_main(capsys, "verify", "--config", CONFIG_DIR / "verify_default.toml",
                       "--out", tmp_path / "out", "--jobs", jobs)
    assert (rc, err) == (2, f"config error: jobs must be at least 1, got {jobs}\n")
    assert not (tmp_path / "out").exists()


SPECTRAL_OP_TEXT = _edited("op_gaussian_grad.toml", 'engine = "direct"', 'engine = "spectral"')
TRANSFORM_TEXT = _edited("op_gaussian_grad.toml", '"frac-gradient"', '"riesz-transform"')


@pytest.mark.parametrize("kind,text,flags,name", [
    ("decay", (CONFIG_DIR / "decay_cantor.toml").read_text(), ["--seed", 3], "seed"),
    ("decay", (CONFIG_DIR / "decay_cantor.toml").read_text(), ["--engine", "spectral"],
     "engine"),
    ("verify", VERIFY_TEXT, ["--engine", "direct"], "engine"),
    ("bench", (CONFIG_DIR / "bench_gaussian.toml").read_text(), ["--engine", "direct"],
     "engine"),
    ("bench", 'engine = "both"\n' + (CONFIG_DIR / "bench_gaussian.toml").read_text(), [],
     "engine"),
    ("op", (CONFIG_DIR / "op_gaussian_grad.toml").read_text() + "[spectral]\nbox = 16.0\n", [],
     "spectral"),
    ("op", SPECTRAL_OP_TEXT + "[quadrature]\ntol = 1e-4\n", [], "quadrature"),
    ("op", TRANSFORM_TEXT, [], "op.alpha"),
    ("op", _edited("op_gaussian_grad.toml", "counts = [32, 32]",
                   "counts = [32, 32]\nperiodic = false"), [], "grid.periodic"),
    ("op", (CONFIG_DIR / "op_gaussian_grad.toml").read_text()
     + '[fields.x]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n', [], "fields.x"),
    ("convergence", _edited("convergence_spectral.toml", 'engine = "spectral"\n', "")
     .replace("[convergence]\n", '[convergence]\nengine = "spectral"\n'), [],
     "convergence.engine"),
    ("convergence", (CONFIG_DIR / "convergence_spectral.toml").read_text(),
     ["--engine", "direct"], "convergence.base_resolution"),
    ("convergence", (CONFIG_DIR / "convergence_spectral.toml").read_text(), ["--seed", 7],
     "seed"),
    ("convergence", (CONFIG_DIR / "convergence_spectral.toml").read_text()
     + "[quadrature]\nmid_angular_nodes = 8\n", [], "quadrature"),
    ("decay", _edited("decay_cantor.toml", 'expect = "exponent"',
                      'expect = "exponent"\npow3_levels = 10'), [], "decay.pow3_levels"),
    ("decay", (CONFIG_DIR / "decay_cantor.toml").read_text() + "[spectral]\nbox = 16.0\n", [],
     "spectral"),
    ("verify", VERIFY_TEXT + "[spectral]\nresolution = 64\n", [], "spectral"),
    ("verify", VERIFY_TEXT + '[fields.x]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n', [],
     "fields"),
], ids=["decay-seed-flag", "decay-engine-flag", "verify-engine-flag", "bench-engine-flag",
        "bench-engine-both", "direct-op-spectral", "spectral-op-quadrature",
        "transform-alpha", "grid-periodic", "unreferenced-field", "convergence-section-engine",
        "direct-convergence-base-resolution", "convergence-seed-flag",
        "convergence-quadrature", "decay-pow3-levels", "decay-spectral", "verify-spectral",
        "verify-fields"])
def test_cli_refuses_a_value_the_run_would_ignore(tmp_path, capsys, monkeypatch, kind, text,
                                                  flags, name):
    """A key, table or flag the kind's run does not use exits 2 as unknown,
    before any computation."""
    monkeypatch.delenv("FRACFIELD_JOBS", raising=False)
    cfgp = tmp_path / "unread.toml"
    cfgp.write_text(text)
    rc, err = run_main(capsys, kind, "--config", cfgp, "--out", tmp_path, *flags)
    assert rc == 2
    assert err == f"config error: unknown key: {name}\n", err
    assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.bin"))


@pytest.mark.parametrize("engine,section,ok", [
    ("spectral", {"levels": 8, "base_resolution": 32}, True),
    ("spectral", {"levels": 9, "base_resolution": 32}, False),
    ("spectral", {"levels": 2, "base_resolution": 8192}, False),
    ("spectral", {"levels": 10**9}, False),
    ("direct", {"levels": 10}, True),
    ("direct", {"levels": 11}, False),
    ("direct", {"levels": 10**9}, False),
])
def test_convergence_sweep_is_capped_at_parse_time(monkeypatch, engine, section, ok):
    """A spectral sweep's finest grid is base_resolution * 2^(levels - 1) per
    axis, at most 4096; the direct sweep takes at most 10 levels. Parsing
    alone accepts or refuses the sweep: no sweep runs."""
    from fracfield import verify

    def ran(*args):
        raise AssertionError("a sweep ran while parsing")

    monkeypatch.setattr(verify, "convergence_sweep_spectral", ran)
    monkeypatch.setattr(verify, "convergence_sweep_direct", ran)
    data = {"kind": "convergence", "engine": engine, "convergence": section}
    with nullcontext() if ok else pytest.raises(ConfigError, match="4096 per axis" if engine
                                                == "spectral" else "direct sweep's cap"):
        assert ExperimentConfig.from_dict(data).params["levels"] == section["levels"]


def test_cli_convergence_engine_flag(tmp_path, capsys):
    """--engine selects the convergence sweep: direct writes its own table."""
    cfgp = tmp_path / "c.toml"
    cfgp.write_text('kind = "convergence"\n[convergence]\nlevels = 3\n')
    rc, err = run_main(capsys, "convergence", "--config", cfgp, "--out", tmp_path,
                       "--engine", "direct")
    assert rc == 0, err
    assert [p.name for p in tmp_path.glob("*.csv")] == ["convergence_direct.csv"]
    assert "# engine direct" in (tmp_path / "convergence_direct.csv").read_text()


def test_seed_keeps_every_digit():
    """An integer key takes a Python int as it is, with no round trip
    through float, as `--seed` passes it."""
    seed = 12345678901234567891
    cfg = ExperimentConfig.from_dict({"kind": "verify", "seed": seed})
    assert cfg.params["seed"] == seed and cfg.normalized()["seed"] == seed


PINNED_DIGESTS = {
    "bench_gaussian.toml": "84e13499c7c9ea8b",
    "convergence_spectral.toml": "8c9d21bccfb30ed5",
    "decay_cantor.toml": "a247f66000a1f039",
    "decay_pole.toml": "5cbdc25273c3ff22",
    "decay_smooth.toml": "a77a8d8cba18b400",
    "op_gaussian_grad.toml": "3373e672194170a0",
    "verify_default.toml": "c4d1ada6531c3d2c",
}


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_config_digests_are_pinned(name):
    """The normalized form of each shipped config, defaults filled in and
    `out` and `jobs` left out, keeps its digest: output headers stay
    comparable across versions and output directories."""
    cfg = ExperimentConfig.from_dict(load_config(CONFIG_DIR / name))
    assert config_digest(cfg.normalized()) == PINNED_DIGESTS[name]


def test_digest_ignores_spelling():
    """A default written out, a section left out or a number written in
    another type reads the same values, so it keeps the digest."""
    shipped = load_config(CONFIG_DIR / "verify_default.toml")
    spellings = [shipped, {**shipped, "quadrature": {"near_radius": 0.2}}, {"kind": "verify"},
                 {**shipped, "quadrature": {"near_radial_nodes": 12.0}}]
    digests = {config_digest(ExperimentConfig.from_dict(d).normalized()) for d in spellings}
    assert digests == {PINNED_DIGESTS["verify_default.toml"]}


def test_digest_ignores_out_and_jobs(tmp_path, capsys, monkeypatch):
    """--out, --jobs and FRACFIELD_JOBS change no computed value, so they
    leave the output header's config digest as it is."""
    monkeypatch.delenv("FRACFIELD_JOBS", raising=False)
    cfgp = CONFIG_DIR / "decay_cantor.toml"

    def digest(out, *extra):
        assert run_main(capsys, "decay", "--config", cfgp, "--out", out, *extra)[0] == 0
        lines = (out / "decay_table.csv").read_text().splitlines()
        return next(l for l in lines if l.startswith("# config_digest")).split()[-1]

    expected = PINNED_DIGESTS["decay_cantor.toml"]
    assert digest(tmp_path / "a") == expected
    assert digest(tmp_path / "b", "--jobs", 2) == expected
    monkeypatch.setenv("FRACFIELD_JOBS", "3")
    assert digest(tmp_path / "c") == expected
