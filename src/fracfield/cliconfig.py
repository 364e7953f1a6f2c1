"""Experiment configuration: TOML or JSON in, validated normalized dict out.

The normalized form is a plain JSON-serializable dict with canonical key
order; parse -> normalize -> serialize -> parse is a fixed point. Field
definitions are named templates resolved against the analytic/field
constructors; every reference and parameter range is validated before any
computation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .analytic import cantor_measure, make_convolved, make_delta_pair
from .errors import ConfigError
from .fields import GridSpec, compact_bump, gaussian, gaussian_vector, ball_indicator
from .measures import RadonMeasure
from . import quadrature, spectral
from .quadrature import QuadratureConfig

KINDS = ("op", "verify", "convergence", "decay", "bench")
# operator name -> (direct, spectral), called as direct(field, order, points,
# quadrature_config) and spectral(periodic_field, order)
OPERATORS = {
    "frac-gradient": (quadrature.frac_gradient_batch, spectral.spectral_frac_gradient),
    "frac-divergence": (quadrature.frac_divergence_batch, spectral.spectral_frac_divergence),
    "riesz-potential": (quadrature.riesz_potential_batch, spectral.spectral_riesz_potential),
    "riesz-transform": (lambda f, _order, x, cfg: quadrature.riesz_transform_batch(f, x, cfg),
                        lambda pf, _order: spectral.spectral_riesz_transform(pf)),
}
TEMPLATES = ("gaussian", "gaussian-vector", "bump", "delta-pair", "convolved",
             "indicator-ball", "cantor")


def load_config(path) -> dict:
    """Read TOML (default) or JSON (by extension) into a raw dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON config: {e}") from e
    try:
        import tomllib  # py >= 3.11
    except ModuleNotFoundError:
        try:
            import tomli as tomllib
        except ModuleNotFoundError as e:
            raise ConfigError("no TOML parser available; use a .json config") from e
    try:
        return tomllib.loads(text)
    except Exception as e:
        raise ConfigError(f"invalid TOML config: {e}") from e


@dataclass
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    raw: dict
    seed: int = 0
    engine: str = "direct"
    jobs: int = 1
    out_dir: str = "."
    fields: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict, kind: Optional[str] = None) -> "ExperimentConfig":
        data = dict(data)
        cfg_kind = data.get("kind", kind)
        if cfg_kind is None:
            raise ConfigError("config must declare 'kind' (or pass a subcommand)")
        if kind is not None and cfg_kind != kind:
            raise ConfigError(
                f"config kind {cfg_kind!r} does not match the subcommand {kind!r}")
        if cfg_kind not in KINDS:
            raise ConfigError(f"unknown kind {cfg_kind!r}; expected one of {KINDS}")
        obj = cls(
            kind=cfg_kind,
            raw=data,
            seed=int(data.get("seed", 0)),
            engine=str(data.get("engine", "both" if cfg_kind == "bench" else "direct")),
            jobs=int(data.get("jobs", 1)),
            out_dir=str(data.get("out", ".")),
        )
        obj.validate()
        return obj

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        if self.engine not in ("direct", "spectral", "both"):
            raise ConfigError(f"unknown engine {self.engine!r}")
        self.fields = {}
        for name, spec in dict(self.raw.get("fields", {})).items():
            self.fields[name] = _validate_field(name, spec)
        section = self.raw.get(self.kind, {})
        getattr(self, f"_validate_{self.kind}")(section)
        if "quadrature" in self.raw:
            self.quadrature()  # raises on bad values

    def _field_ref(self, section: dict, key: str, kinds=None) -> str:
        name = section.get(key)
        if not isinstance(name, str) or name not in self.fields:
            raise ConfigError(
                f"{self.kind}.{key}: field {name!r} is not defined under [fields]")
        tpl = self.fields[name]["template"]
        if kinds is not None and tpl not in kinds:
            raise ConfigError(
                f"{self.kind}.{key}: field {name!r} has template {tpl!r}, "
                f"expected one of {kinds}")
        return name

    def _validate_op(self, s: dict) -> None:
        operator = s.get("operator")
        if operator not in OPERATORS:
            raise ConfigError(
                f"op.operator must be one of {tuple(OPERATORS)}, got {operator!r}")
        self._field_ref(s, "field")
        tpl = self.fields[s["field"]]["template"]
        smooth = tpl in ("gaussian", "gaussian-vector", "bump")
        if self.engine in ("spectral", "both") and not smooth:
            raise ConfigError("spectral engine requires smooth field")
        alpha = s.get("alpha", s.get("order"))
        if operator in ("frac-gradient", "frac-divergence"):
            if alpha is None or not (0.0 < float(alpha) < 1.0):
                raise ConfigError(f"op.alpha must lie in (0, 1), got {alpha!r}")
        elif operator == "riesz-potential":
            if alpha is None or not float(alpha) > 0.0:
                raise ConfigError(f"op.alpha (potential order) must be positive, got {alpha!r}")
        if "grid" not in self.raw:
            raise ConfigError("op runs need a [grid] section for the output lattice")
        self.grid()

    def _validate_verify(self, s: dict) -> None:
        checks = s.get("checks", "default")
        if checks != "default" and (
            not isinstance(checks, list) or not all(isinstance(c, str) for c in checks)
        ):
            raise ConfigError("verify.checks must be 'default' or a list of name filters")
        tol = s.get("tolerance_abs")
        if tol is not None and float(tol) <= 0:
            raise ConfigError("verify.tolerance_abs must be positive")

    def _validate_convergence(self, s: dict) -> None:
        engine = s.get("engine", "spectral")
        if engine not in ("spectral", "direct"):
            raise ConfigError("convergence.engine must be spectral or direct")
        levels = int(s.get("levels", 4))
        if levels < 2:
            raise ConfigError("convergence needs at least 2 levels")
        alpha = float(s.get("alpha", 0.5))
        if not 0.0 < alpha < 1.0:
            raise ConfigError("convergence.alpha must lie in (0, 1)")

    def _validate_decay(self, s: dict) -> None:
        self._field_ref(s, "source",
                        kinds=("cantor", "delta-pair", "convolved", "gaussian-vector"))
        if "radii" in s:
            radii = [float(r) for r in s["radii"]]
            if len(radii) < 3 or any(r <= 0 for r in radii):
                raise ConfigError("decay.radii needs >= 3 positive radii")
        elif "pow3_levels" in s:
            if int(s["pow3_levels"]) < 3:
                raise ConfigError("decay.pow3_levels must be >= 3")
        else:
            raise ConfigError("decay needs 'radii' or 'pow3_levels'")
        expect = s.get("expect", "floor")
        if expect not in ("floor", "flat", "exponent"):
            raise ConfigError("decay.expect must be floor, flat or exponent")
        if expect == "exponent" and "target" not in s:
            raise ConfigError("decay.expect='exponent' needs a target")

    def _validate_bench(self, s: dict) -> None:
        self._field_ref(s, "field", kinds=("gaussian", "gaussian-vector", "bump"))
        pts = int(s.get("points", 0))
        if pts < 1:
            raise ConfigError("bench needs a positive point count")
        alpha = float(s.get("alpha", 0.5))
        if not 0.0 < alpha < 1.0:
            raise ConfigError("bench.alpha must lie in (0, 1)")

    # -- materialization ----------------------------------------------------

    def quadrature(self) -> QuadratureConfig:
        q = dict(self.raw.get("quadrature", {}))
        try:
            return QuadratureConfig(**q)
        except TypeError as e:
            raise ConfigError(f"unknown quadrature option: {e}") from e

    def grid(self) -> GridSpec:
        g = self.raw.get("grid")
        if g is None:
            raise ConfigError("missing [grid] section")
        try:
            return GridSpec(
                tuple(float(v) for v in g["lower"]),
                tuple(float(v) for v in g["upper"]),
                tuple(int(v) for v in g["counts"]),
                bool(g.get("periodic", False)),
            )
        except KeyError as e:
            raise ConfigError(f"[grid] missing key {e}") from e

    def spectral_params(self) -> tuple[float, int]:
        s = self.raw.get("spectral", {})
        return float(s.get("box", 16.0)), int(s.get("resolution", 1024))

    def build_field(self, name: str):
        spec = self.fields[name]
        return _build_field(spec)

    # -- normalization ------------------------------------------------------

    def normalized(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "engine": self.engine,
            "jobs": self.jobs,
            "out": self.out_dir,
            "fields": {k: dict(sorted(v.items())) for k, v in sorted(self.fields.items())},
        }
        for key in ("grid", "quadrature", "spectral", self.kind):
            if key in self.raw:
                out[key] = _canon(self.raw[key])
        return out

    def serialize(self) -> str:
        return json.dumps(self.normalized(), sort_keys=True, indent=2)


def _canon(v: Any) -> Any:
    if isinstance(v, dict):
        return {k: _canon(v[k]) for k in sorted(v)}
    if isinstance(v, (list, tuple)):
        return [_canon(x) for x in v]
    if isinstance(v, bool) or isinstance(v, (int, str)) or v is None:
        return v
    return float(v)


def _validate_field(name: str, spec: dict) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"field {name!r} must be a table")
    tpl = spec.get("template")
    if tpl not in TEMPLATES:
        raise ConfigError(f"field {name!r}: unknown template {tpl!r}; "
                          f"expected one of {TEMPLATES}")
    out = {"template": tpl}
    if tpl in ("gaussian", "gaussian-vector", "bump"):
        center = [float(v) for v in spec.get("center", (0.0, 0.0))]
        out["center"] = center
        if tpl == "bump":
            out["radius"] = float(spec.get("radius", 1.0))
            if out["radius"] <= 0:
                raise ConfigError(f"field {name!r}: bump radius must be positive")
        else:
            out["width"] = float(spec.get("width", 1.0))
            if out["width"] <= 0:
                raise ConfigError(f"field {name!r}: width must be positive")
        out["amplitude"] = float(spec.get("amplitude", 1.0))
        if tpl == "gaussian-vector":
            out["amplitudes"] = [float(v) for v in
                                 spec.get("amplitudes", [1.0] * len(center))]
    elif tpl == "delta-pair":
        y = [float(v) for v in spec["y"]]
        z = [float(v) for v in spec["z"]]
        if y == z:
            raise ConfigError(f"field {name!r}: degenerate pole pair")
        a = float(spec.get("alpha", 0.5))
        if not 0.0 < a <= 1.0:
            raise ConfigError(f"field {name!r}: alpha must lie in (0, 1]")
        out.update(y=y, z=z, alpha=a)
    elif tpl == "convolved":
        atoms = spec.get("atoms")
        if not atoms:
            raise ConfigError(f"field {name!r}: convolved template needs atoms")
        out["atoms"] = [[[float(c) for c in pt], float(w)] for pt, w in atoms]
        a = float(spec.get("alpha", 0.5))
        if not 0.0 < a < 1.0:
            raise ConfigError(f"field {name!r}: alpha must lie in (0, 1)")
        out["alpha"] = a
    elif tpl == "indicator-ball":
        out["center"] = [float(v) for v in spec.get("center", (0.0, 0.0))]
        out["radius"] = float(spec.get("radius", 1.0))
        if out["radius"] <= 0:
            raise ConfigError(f"field {name!r}: radius must be positive")
    elif tpl == "cantor":
        out["level"] = int(spec.get("level", 8))
        out["dim"] = int(spec.get("dim", 1))
        if not 0 <= out["level"] <= 12:
            raise ConfigError(f"field {name!r}: cantor level must lie in [0, 12]")
        if out["dim"] not in (1, 2):
            raise ConfigError(f"field {name!r}: cantor dim must be 1 or 2")
    return out


def _build_field(spec: dict):
    tpl = spec["template"]
    if tpl == "gaussian":
        return gaussian(spec["center"], spec["width"], spec["amplitude"])
    if tpl == "gaussian-vector":
        return gaussian_vector(spec["center"], spec["width"], spec["amplitudes"])
    if tpl == "bump":
        return compact_bump(spec["center"], spec["radius"], spec["amplitude"])
    if tpl == "delta-pair":
        return make_delta_pair(spec["y"], spec["z"], spec["alpha"])
    if tpl == "convolved":
        pts = np.array([a[0] for a in spec["atoms"]])
        ws = np.array([a[1] for a in spec["atoms"]])
        nu = RadonMeasure(n=pts.shape[1], atom_points=pts, atom_weights=ws)
        return make_convolved(nu, spec["alpha"])
    if tpl == "indicator-ball":
        return ball_indicator(spec["center"], spec["radius"])
    if tpl == "cantor":
        return cantor_measure(spec["level"], spec["dim"])
    raise ConfigError(f"unhandled template {tpl!r}")
