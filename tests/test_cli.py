import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracfield.cliconfig import ExperimentConfig, load_config
from fracfield.errors import ConfigError
from fracfield.fileio import config_digest, read_grid, write_grid, write_table

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "fracfield.cli", *args],
        capture_output=True, text=True, cwd=cwd,
    )


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


def test_config_roundtrip_fixed_point():
    raw = load_config(CONFIG_DIR / "op_gaussian_grad.toml")
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


def test_cli_op_deterministic(tmp_path):
    for sub in ("r1", "r2"):
        res = run_cli(["op", "--config", str(CONFIG_DIR / "op_gaussian_grad.toml"),
                       "--out", str(tmp_path / sub)])
        assert res.returncode == 0, res.stderr
    b1 = (tmp_path / "r1" / "op_output.bin").read_bytes()
    b2 = (tmp_path / "r2" / "op_output.bin").read_bytes()
    assert b1 == b2


def test_cli_exit_codes(tmp_path):
    # config error
    bad = tmp_path / "bad.toml"
    bad.write_text('kind = "op"\n')
    assert run_cli(["op", "--config", str(bad)]).returncode == 2
    # kind mismatch
    res = run_cli(["verify", "--config", str(CONFIG_DIR / "op_gaussian_grad.toml")])
    assert res.returncode == 2
    # precondition violation (support exceeds the periodic box)
    pre = tmp_path / "pre.toml"
    pre.write_text(
        'kind = "op"\nengine = "spectral"\n'
        '[fields.w]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\nwidth = 3.0\n'
        '[grid]\nlower = [-2.0, -2.0]\nupper = [2.0, 2.0]\ncounts = [8, 8]\n'
        '[spectral]\nbox = 8.0\nresolution = 64\n'
        '[op]\noperator = "frac-gradient"\nfield = "w"\nalpha = 0.5\n'
    )
    assert run_cli(["op", "--config", str(pre), "--out", str(tmp_path)]).returncode == 3


def test_cli_verify_filter_and_failure(tmp_path):
    cfgp = tmp_path / "v.toml"
    cfgp.write_text('kind = "verify"\n[verify]\nchecks = ["riesz_square"]\n')
    res = run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "verify_report.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in lines]
    assert len(recs) == 1 and recs[0]["name"] == "riesz_square"
    # impossible tolerance forces a failure exit
    cfgp.write_text(
        'kind = "verify"\n[verify]\nchecks = ["duality_delta_pair_a0.5"]\n'
        'tolerance_abs = 1e-15\n'
    )
    res = run_cli(["verify", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 1


def test_cli_decay_cantor(tmp_path):
    res = run_cli(["decay", "--config", str(CONFIG_DIR / "decay_cantor.toml"),
                   "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "decay_table.csv").read_text()
    assert "running_slope" in text
    slope = float(next(l for l in text.splitlines()
                       if l.startswith("# fitted_slope")).split()[-1])
    assert abs(slope - math.log(2) / math.log(3)) < 0.05


def test_cli_convergence_rejects_single_level(tmp_path):
    cfgp = tmp_path / "c.toml"
    cfgp.write_text('kind = "convergence"\n[convergence]\nlevels = 1\n')
    assert run_cli(["convergence", "--config", str(cfgp)]).returncode == 2


def test_cli_bench_empty_points(tmp_path):
    cfgp = tmp_path / "b.toml"
    cfgp.write_text(
        'kind = "bench"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[bench]\nfield = "f"\npoints = 0\n'
    )
    assert run_cli(["bench", "--config", str(cfgp)]).returncode == 2


def test_cli_op_spectral_engine(tmp_path):
    cfgp = tmp_path / "sp.toml"
    cfgp.write_text(
        'kind = "op"\nengine = "spectral"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[grid]\nlower = [-2.0, -2.0]\nupper = [2.0, 2.0]\ncounts = [16, 16]\n'
        '[spectral]\nbox = 16.0\nresolution = 256\n'
        '[op]\noperator = "frac-gradient"\nfield = "f"\nalpha = 0.5\n'
    )
    res = run_cli(["op", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    meta, planes = read_grid(tmp_path / "op_output.bin")
    assert set(planes) == {"value_0", "value_1", "error_est"}
    assert np.all(np.isfinite(planes["value_0"]))


def test_cli_jobs_env(tmp_path, monkeypatch):
    import subprocess, os

    cfgp = tmp_path / "v.toml"
    cfgp.write_text('kind = "verify"\n[verify]\nchecks = ["riesz_square", "symbol"]\n')
    env = dict(os.environ, FRACFIELD_JOBS="2")
    res = subprocess.run(
        [sys.executable, "-m", "fracfield.cli", "verify", "--config", str(cfgp),
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "verify_report.jsonl").read_text().splitlines()
    assert len(lines) == 2


def test_cli_direct_op_refuses_wrong_field_kind(tmp_path):
    cfgp = tmp_path / "wrong.toml"
    cfgp.write_text(
        'kind = "op"\nengine = "direct"\n'
        '[fields.f]\ntemplate = "gaussian"\ncenter = [0.0, 0.0]\n'
        '[grid]\nlower = [-1.0, -1.0]\nupper = [1.0, 1.0]\ncounts = [4, 4]\n'
        '[op]\noperator = "frac-divergence"\nfield = "f"\nalpha = 0.5\n'
    )
    res = run_cli(["op", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 2, res.stderr
    assert "config error" in res.stderr and "VectorField" in res.stderr


@pytest.mark.parametrize("center,resolution", [("[0.1]", 512), ("[0.1, 0.0, -0.1]", 32)],
                         ids=["n1", "n3"])
def test_cli_bench_other_dimensions(tmp_path, center, resolution):
    cfgp = tmp_path / "b.toml"
    cfgp.write_text(
        'kind = "bench"\n'
        f'[fields.f]\ntemplate = "gaussian"\ncenter = {center}\n'
        f'[spectral]\nbox = 16.0\nresolution = {resolution}\n'
        '[bench]\nfield = "f"\npoints = 4\n'
    )
    res = run_cli(["bench", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
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


def test_cli_decay_takes_dimension_from_source(tmp_path):
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
    res = run_cli(["decay", "--config", str(cfgp), "--out", str(tmp_path)])
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "decay_table.csv").read_text()
    floor = float(next(l for l in text.splitlines()
                       if l.startswith("# theoretical_floor")).split()[-1])
    assert floor == pytest.approx(0.5)
