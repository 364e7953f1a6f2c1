"""Experiment configuration: TOML or JSON in, validated normalized dict out.

This module is the only reader of config values: each one is converted,
given its default and range-checked once, and a bad one raises a ConfigError
naming its `<section>.<key>`. Each kind reads only the keys its run uses,
so a key it would ignore is refused like a typo, as unknown. The
normalized form is the record of every value read, converted and with its
defaults filled in, as a plain JSON-serializable dict, so two spellings of
one experiment normalize alike; parse -> normalize -> serialize -> parse is
a fixed point. Field definitions are named templates; the one a kind
references is built once, here, by its analytic/field constructor, which
checks its own parameters.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .analytic import cantor_measure, make_convolved, make_delta_pair
from .errors import ConfigError
from .fields import GridSpec, compact_bump, gaussian, gaussian_vector, ball_indicator
from .measures import RadonMeasure
from . import quadrature, spectral
from .quadrature import QuadratureConfig

ENGINES = ("direct", "spectral")
# operator name -> (direct, spectral), called as direct(field, order, points,
# quadrature_config) and spectral(periodic_field, order); the transform has no
# order and gets None
OPERATORS = {
    "frac-gradient": (quadrature.frac_gradient_batch, spectral.spectral_frac_gradient),
    "frac-divergence": (quadrature.frac_divergence_batch, spectral.spectral_frac_divergence),
    "riesz-potential": (quadrature.riesz_potential_batch, spectral.spectral_riesz_potential),
    "riesz-transform": (lambda f, _order, x, cfg: quadrature.riesz_transform_batch(f, x, cfg),
                        lambda pf, _order: spectral.spectral_riesz_transform(pf)),
}

_REQUIRED = object()


def _floats(v) -> list:
    if isinstance(v, str):
        raise TypeError(v)
    return [float(c) for c in v]


def _int(v) -> int:
    """An integer, or a number or string that is one (12.0, "12"); not a bool."""
    if isinstance(v, bool) or isinstance(v, float) and not v.is_integer():
        raise TypeError(v)
    return int(v)


def _ints(v) -> list:
    if isinstance(v, str):
        raise TypeError(v)
    return [_int(c) for c in v]


def _atoms(v) -> list:
    dims = {len(pt) for pt, _ in v}
    if len(dims) != 1 or 0 in dims:  # no atom, points of several dimensions, or of none
        raise ValueError(v)
    return [[_floats(pt), float(w)] for pt, w in v]


def _checks(v):
    if v != "default" and not (isinstance(v, list) and all(isinstance(c, str) for c in v)):
        raise TypeError(v)
    return v


_WHAT = {float: "a number", _int: "an integer", _floats: "a list of numbers",
         _ints: "a list of integers", _checks: "'default' or a list of check-name filters",
         _atoms: "a non-empty list of [point, weight] atoms whose points share one "
                 "dimension of at least one coordinate"}
_POW2 = (spectral._is_pow2, "be a power of two")
# the largest convergence sweeps, each near 1.4 GB at its peak: a spectral
# sweep's finest grid per axis (about 90 B a node) and the direct sweep's
# levels (its per-point node block grows fourfold a level)
_SPECTRAL_FINEST_MAX = 4096
_DIRECT_LEVELS_MAX = 10


def _at_least(k: int):
    return (lambda v: v >= k, f"be at least {k}")


def _below(k: int):
    return (lambda v: 0.0 < v < k, f"lie in (0, {k})")


def _read(section: "_Table", key: str, conv, default=_REQUIRED, check=None):
    """section[key] converted by conv (a function, or a tuple of allowed
    values), else the default; None stays None when it is the default.
    check = (predicate, what the value must do). The value is recorded in
    the section's record."""
    name = section.name(key)
    v = section.get(key, default)
    if v is _REQUIRED:
        raise ConfigError(f"{name} is required")
    if v is not None or default is not None:
        if isinstance(conv, tuple):
            if v not in conv:
                raise ConfigError(f"{name} must be one of {conv}, got {v!r}")
        else:
            try:
                v = conv(v)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{name}: {v!r} is not {_WHAT[conv]}") from None
        if check is not None and not check[0](v):
            raise ConfigError(f"{name} must {check[1]}, got {v!r}")
    section.record[key] = v
    return v


class _Table(dict):
    """A config table at its dotted `path` ("" at the top level) that
    remembers which keys its parser read, and in `record` the values read
    from it, sub-tables' records included."""

    def __init__(self, data: dict, path: str = ""):
        super().__init__(data)
        self.path = path
        self.read: set = set()
        self.record: dict = {}

    def name(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def check_read(self) -> None:
        for key in self:
            if key not in self.read:
                raise ConfigError(f"unknown key: {self.name(key)}")


def _table(data: _Table, key: str) -> _Table:
    v = data.get(key, {})
    if not isinstance(v, dict):
        raise ConfigError(f"[{data.name(key)}] must be a table")
    table = _Table(v, data.name(key))
    data.record[key] = table.record
    return table


def _convolved(atoms, alpha):
    pts = np.array([a[0] for a in atoms])
    ws = np.array([a[1] for a in atoms])
    return make_convolved(RadonMeasure(n=pts.shape[1], atom_points=pts, atom_weights=ws), alpha)


_CENTER = ("center", _floats, [0.0, 0.0])
_WIDTH = ("width", float, 1.0)
_AMPLITUDE = ("amplitude", float, 1.0)
_RADIUS = ("radius", float, 1.0)
# template -> (parameters as (key, converter, default), where a callable
# default takes the values read before it; the constructor, called with the
# values in that order; the uses it can feed: "smooth" fields feed the spectral
# engine and bench, "decay" ones are decay sources)
TEMPLATES = {
    "gaussian": ((_CENTER, _WIDTH, _AMPLITUDE), gaussian, ("smooth",)),
    "gaussian-vector": (
        (_CENTER, _WIDTH, ("amplitudes", _floats, lambda p: [1.0] * len(p["center"]))),
        gaussian_vector, ("smooth", "decay")),
    "bump": ((_CENTER, _RADIUS, _AMPLITUDE), compact_bump, ("smooth",)),
    "delta-pair": ((("y", _floats, _REQUIRED), ("z", _floats, _REQUIRED), ("alpha", float, 0.5)),
                   make_delta_pair, ("decay",)),
    "convolved": ((("atoms", _atoms, _REQUIRED), ("alpha", float, 0.5)), _convolved, ("decay",)),
    "indicator-ball": ((_CENTER, _RADIUS), ball_indicator, ()),
    "cantor": ((("level", _int, 8), ("dim", _int, 1)), cantor_measure, ("decay",)),
}


def _parse_field(spec: _Table) -> tuple[dict, Any]:
    """(normalized parameters, built field) of one [fields.<name>] table."""
    tpl = _read(spec, "template", tuple(TEMPLATES))
    params, build, _ = TEMPLATES[tpl]
    out = spec.record
    for key, conv, default in params:
        _read(spec, key, conv, default(out) if callable(default) else default)
    spec.check_read()
    return out, _built(spec, build, *(out[key] for key, _, _ in params))


def _built(table: _Table, build, *args, sep: str = ": ", **kwargs):
    """build(*args, **kwargs); a ValueError it raises (DomainError or
    ConfigError) becomes a ConfigError naming table."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(f"{table.path}{sep}{e}") from e


def load_config(path) -> dict:
    """Read TOML (default) or JSON (by extension) into a raw dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON config: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("a JSON config must be an object")
        return data
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
    """Validated experiment description: every value a run uses, read once.

    `params` holds the values the kind's run uses, keyed as the runner's
    keyword arguments; the kind's parser reads them and nothing else.
    """

    kind: str
    raw: _Table  # the top-level table; its record is the normalized form
    jobs: int
    out_dir: str
    params: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict, kind: Optional[str] = None) -> "ExperimentConfig":
        data = _Table(data)
        cfg_kind = _read(data, "kind", KINDS, _REQUIRED if kind is None else kind)
        if kind is not None and cfg_kind != kind:
            raise ConfigError(
                f"config kind {cfg_kind!r} does not match the subcommand {kind!r}")
        obj = cls(kind=cfg_kind, raw=data, jobs=_read(data, "jobs", _int, 1, _at_least(1)),
                  out_dir=_read(data, "out", str, "."))
        section = _table(data, cfg_kind)
        obj.params = cls._PARSERS[cfg_kind](obj, section)
        section.check_read()
        data.check_read()
        return obj

    # -- the values the kinds share ------------------------------------------

    def _field_ref(self, section: _Table, key: str, feed: Optional[str] = None):
        """The field that section[key] names, parsed and built; [fields] must
        hold no other."""
        name = section.get(key)
        fields = _table(self.raw, "fields")
        if not isinstance(name, str) or name not in fields:
            raise ConfigError(
                f"{section.name(key)}: field {name!r} is not defined under [fields]")
        section.record[key] = name
        spec, field = _parse_field(_table(fields, name))
        fields.check_read()
        if feed is not None and feed not in TEMPLATES[spec["template"]][2]:
            raise ConfigError(
                f"{section.name(key)}: field {name!r} has template {spec['template']!r}, not a "
                f"{feed} one {tuple(t for t, e in TEMPLATES.items() if feed in e[2])}")
        return field

    def _seed(self) -> int:
        return _read(self.raw, "seed", _int, 0, _at_least(0))

    def _quadrature(self) -> QuadratureConfig:
        # integer options take integers, the rest numbers
        q = _table(self.raw, "quadrature")
        cfg = _built(q, QuadratureConfig, sep=".", **{  # its errors start with their field
            f.name: _read(q, f.name, _int if type(f.default) is int else float, f.default)
            for f in dataclasses.fields(QuadratureConfig)})
        q.check_read()
        return cfg

    def _spectral(self, n: int) -> tuple[float, int]:
        """(periodic box width, nodes per axis) for a field on R^n"""
        sp = _table(self.raw, "spectral")
        out = (_read(sp, "box", float, 16.0),
               _read(sp, "resolution", _int, 1024 if n <= 2 else 128, _POW2))
        sp.check_read()
        return out

    # -- the kinds' sections ------------------------------------------------

    def _parse_op(self, s: _Table) -> dict:
        engine = _read(self.raw, "engine", ENGINES, "direct")
        operator = _read(s, "operator", tuple(OPERATORS))
        field = self._field_ref(s, "field", "smooth" if engine == "spectral" else None)
        alpha = None if operator == "riesz-transform" else _read(
            s, "alpha", float, check=_below(field.n if operator == "riesz-potential" else 1))
        g = _table(self.raw, "grid")  # the output lattice
        lower = _read(g, "lower", _floats, check=(
            lambda c: len(c) == field.n, f"have the field's {field.n} coordinates"))
        grid = _built(g, GridSpec, lower, _read(g, "upper", _floats), _read(g, "counts", _ints))
        g.check_read()
        return {"engine": engine, "operator": operator, "field": field, "alpha": alpha,
                "grid": grid, **({"spectral": self._spectral(field.n)} if engine == "spectral"
                                 else {"quadrature": self._quadrature()})}

    def _parse_verify(self, s: _Table) -> dict:
        checks = _read(s, "checks", _checks, "default")
        return {"names": None if checks == "default" else checks, "seed": self._seed(),
                "quadrature": self._quadrature()}

    def _parse_convergence(self, s: _Table) -> dict:
        engine = _read(self.raw, "engine", ENGINES, "spectral")
        base = _read(s, "base_resolution", _int, 32, _POW2) if engine == "spectral" else None
        top, cap = ((_DIRECT_LEVELS_MAX, "the direct sweep's cap") if base is None else (
            (_SPECTRAL_FINEST_MAX // base).bit_length(),  # base * 2^(top - 1) <= the cap
            f"the finest grid, base_resolution * 2^(levels - 1), is capped at "
            f"{_SPECTRAL_FINEST_MAX} per axis"))
        return {"engine": engine, "base_resolution": base,
                "alpha": _read(s, "alpha", float, 0.5, _below(1)),
                "levels": _read(s, "levels", _int, 4,
                                (lambda v: 2 <= v <= top, f"lie in [2, {top}]: {cap}"))}

    def _parse_decay(self, s: _Table) -> dict:
        source = self._field_ref(s, "source", "decay")
        expect = _read(s, "expect", ("floor", "flat", "exponent"), "floor")
        return {
            "source": source,
            "alpha": _read(s, "alpha", float, 0.5, (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")),
            "p": _read(s, "p", float, "inf", _at_least(1)),
            "center": np.array(_read(s, "center", _floats, [0.0] * source.n, check=(
                lambda c: len(c) == source.n, f"have the source's {source.n} coordinates"))),
            "radii": np.array(_read(s, "radii", _floats, check=(  # distinct logs: finite slopes
                lambda r: len(r) >= 3 and min(r) > 0 and len(np.unique(np.log(r))) == len(r),
                "hold at least 3 distinct positive radii"))),
            "expect": expect,
            "target": _read(s, "target", float, _REQUIRED if expect == "exponent" else None),
        }

    def _parse_bench(self, s: _Table) -> dict:
        field = self._field_ref(s, "field", "smooth")
        return {"field": field,
                "alpha": _read(s, "alpha", float, 0.5, _below(1)),
                "points": _read(s, "points", _int, check=_at_least(1)),
                "seed": self._seed(), "quadrature": self._quadrature(),
                "spectral": self._spectral(field.n)}

    # kind -> the parser of its section; not annotated, so not a field
    _PARSERS = {"op": _parse_op, "verify": _parse_verify, "convergence": _parse_convergence,
                "decay": _parse_decay, "bench": _parse_bench}

    # -- normalization ------------------------------------------------------

    def normalized(self) -> dict:
        """Every value read, converted and with its defaults filled in, except
        `out` and `jobs`: they cannot change a computed result, so they stay
        out of the form and of its digest."""
        return {k: v for k, v in self.raw.record.items() if k not in ("out", "jobs")}

    def serialize(self) -> str:
        return json.dumps(self.normalized(), sort_keys=True, indent=2)


KINDS = tuple(ExperimentConfig._PARSERS)
