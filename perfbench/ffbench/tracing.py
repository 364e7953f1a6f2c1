"""Spans recorded around fracfield's public functions, patched in from outside.

A traced run calls `install()` before any workload code runs. It wraps every
public function defined in the traced modules, rebinds each name in every
fracfield module that imported it directly (verify, analytic, norms and cli
bind names such as frac_gradient_batch, embed and sphere_rule at import),
wraps ScalarField/VectorField.__call__ and PeriodicField.sample_linear on the
classes, numpy.fft.rfftn/irfftn, and each thunk of verify's default registry.

Spans (name, start, end, parent, thread) are kept in memory and written out
when the run ends. Each thread has its own parent chain, so checks running on
verify's worker threads are attributed correctly. A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional

import numpy as np

TRACED_MODULES = ("fields", "quadrature", "spectral", "analytic", "verify", "norms", "measures")
DIRECT_OPS = ("frac_gradient", "frac_divergence", "nl_divergence",
              "riesz_potential", "riesz_transform")
FIELD_CALLS = ("fields.ScalarField.__call__", "fields.VectorField.__call__")


@dataclasses.dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int   # -1 for a root span of its thread
    thread: int


class Tracer:
    """Collects spans and counters; `enabled` is cleared around oracle code."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.span_points: dict[int, int] = {}
        self.enabled = True
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        """fn with a span around each call; count(tracer, sid, args, kwargs,
        result) records per-call counters after the span ends."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.records.append((sid, name, start, end, parent, threading.get_ident()))
            if count is not None:
                count(self, sid, args, kwargs, result)
            return result

        return traced

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.records]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(json.dumps({"id": r[0], "name": r[1], "start": r[2], "end": r[3],
                                     "parent": r[4], "thread": r[5]}) + "\n")


# ---------------------------------------------------------------------------
# self time

def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            out[s.parent].append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    kids = children_of(spans)
    return {s.sid: (s.end - s.start) - _covered(((c.start, c.end) for c in kids.get(s.sid, ())),
                                                s.start, s.end)
            for s in spans}


def contains(span: Span, name: str, kids: dict[int, list[Span]]) -> bool:
    """Whether any descendant of span is named `name`."""
    todo = list(kids.get(span.sid, ()))
    while todo:
        s = todo.pop()
        if s.name == name:
            return True
        todo.extend(kids.get(s.sid, ()))
    return False


# ---------------------------------------------------------------------------
# installation

def _rows(x, n: Optional[int]) -> int:
    shape = np.shape(x)
    if n is not None and shape == (n,):
        return 1
    return int(np.prod(shape[:-1])) if len(shape) >= 1 else 1


def _quadrature_counter(op: str, signature: inspect.Signature) -> Callable:
    def count(tracer, sid, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        fields = [v for v in bound.arguments.values() if hasattr(v, "support_radius")]
        n = fields[0].n
        X = np.asarray(bound.arguments["x"], dtype=float).reshape(-1, n)
        tracer.add(f"quadrature.{op}.pts", X.shape[0])
        tracer.span_points[sid] = X.shape[0]
        sups = [f.support_radius for f in fields]
        if all(s is not None for s in sups):
            far = np.sqrt(np.sum(X * X, axis=-1)) > max(sups) + 1.0
            tracer.add(f"quadrature.{op}.far_pts", int(np.sum(far)))
    return count


def _fft_counter(tracer, sid, args, kwargs, result):
    tracer.add("spectral.fft.bytes_computed", np.asarray(args[0]).nbytes + result.nbytes)


def _embed_counter(tracer, sid, args, kwargs, result):
    tracer.add("spectral.embed.calls", 1)
    tracer.add("spectral.embed.bytes_computed", result.data.nbytes)


def _sample_counter(tracer, sid, args, kwargs, result):
    tracer.add("spectral.sample_linear.pts", _rows(args[1], args[0].n))


def _measure_counter(tracer, sid, args, kwargs, result):
    tracer.add("measures.measure_ball_mass.calls", 1)


def install(tracer: Tracer):
    """Patch the spans in; returns the original sphere_rule, whose cache_info()
    the metrics read."""
    import importlib

    mods = {short: importlib.import_module(f"fracfield.{short}") for short in TRACED_MODULES}
    import fracfield.cli  # noqa: F401  (bound names in cli are rebound too)

    replaced: dict[int, Callable] = {}
    for short, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            count = None
            if short == "quadrature" and name.endswith("_batch"):
                count = _quadrature_counter(name[: -len("_batch")], inspect.signature(obj))
            elif short == "spectral" and name == "embed":
                count = _embed_counter
            elif short == "measures" and name == "measure_ball_mass":
                count = _measure_counter
            replaced[id(obj)] = tracer.wrap(f"{short}.{name}", obj, count)
    sphere_rule = mods["quadrature"].sphere_rule

    registry = mods["verify"].default_suite_registry

    @functools.wraps(registry)
    def traced_registry(*args, **kwargs):
        reg = registry(*args, **kwargs)
        return {k: tracer.wrap(f"verify.check.{k}", thunk) for k, thunk in reg.items()}

    replaced[id(registry)] = tracer.wrap("verify.default_suite_registry", traced_registry)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracfield" or mod_name.startswith("fracfield.")):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, attr, replaced[id(val)])

    fields = mods["fields"]
    for cls in (fields.ScalarField, fields.VectorField):
        _wrap_field_call(tracer, cls)
    spectral = mods["spectral"]
    spectral.PeriodicField.sample_linear = tracer.wrap(
        "spectral.sample_linear", spectral.PeriodicField.sample_linear, _sample_counter)
    np.fft.rfftn = tracer.wrap("spectral.rfftn", np.fft.rfftn, _fft_counter)
    np.fft.irfftn = tracer.wrap("spectral.irfftn", np.fft.irfftn, _fft_counter)
    return sphere_rule


def _wrap_field_call(tracer: Tracer, cls) -> None:
    """__call__ runs on a copy whose evaluator is timed as its own span, so the
    mask cost is the __call__ self time."""
    original = cls.__call__

    def call(self, x):
        timed = dataclasses.replace(self, fn=tracer.wrap("fields.fn", self.fn))
        out = original(timed, x)
        tracer.add("fields.evals", _rows(x, self.n))
        return out

    cls.__call__ = tracer.wrap(f"fields.{cls.__name__}.__call__", call)


# ---------------------------------------------------------------------------
# per-layer metrics

def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(tracer: Tracer, sphere_rule=None) -> dict[str, float]:
    """Per-layer numbers of one traced process (see BENCHMARK.json per_layer)."""
    spans = tracer.spans()
    own = self_times(spans)
    kids = children_of(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name: str) -> float:
        return _sum(own[s.sid] for s in by_name.get(name, ()))

    counts = tracer.counts
    out: dict[str, float] = {}

    evals = counts.get("fields.evals", 0.0)
    mask = _sum(self_s(n) for n in FIELD_CALLS)
    raw = self_s("fields.fn")
    out["fields.evals"] = evals
    out["fields.s"] = _sum(own[s.sid] for s in spans if s.name.startswith("fields."))
    out["fields.ns_per_eval"] = raw / evals * 1e9 if evals else 0.0
    out["fields.mask_ns_per_eval"] = mask / evals * 1e9 if evals else 0.0

    q_names = {f"quadrature.{op}_batch" for op in DIRECT_OPS}
    pts = far = 0.0
    for op in DIRECT_OPS:
        out[f"quadrature.{op}_batch.s"] = self_s(f"quadrature.{op}_batch")
        out[f"quadrature.{op}_batch.pts"] = counts.get(f"quadrature.{op}.pts", 0.0)
        pts += counts.get(f"quadrature.{op}.pts", 0.0)
        far += counts.get(f"quadrature.{op}.far_pts", 0.0)
    by_id = {s.sid: s for s in spans}

    def outermost(s: Span) -> bool:
        p = s.parent
        while p >= 0:
            if by_id[p].name in q_names:
                return False
            p = by_id[p].parent
        return True

    top = [s for s in spans if s.name in q_names and outermost(s)]
    top_pts = _sum(tracer.span_points.get(s.sid, 0) for s in top)
    out["fields.evals_per_pt"] = evals / pts if pts else 0.0
    out["quadrature.us_per_pt"] = _sum(s.end - s.start for s in top) / top_pts * 1e6 if top_pts else 0.0
    out["quadrature.far_pt_share"] = far / pts if pts else 0.0
    if sphere_rule is not None:
        info = sphere_rule.cache_info()
        calls = info.hits + info.misses
        out["quadrature.sphere_rule.hit_ratio"] = info.hits / calls if calls else 0.0
        out["quadrature.sphere_rule.hits"] = float(info.hits)
        out["quadrature.sphere_rule.misses"] = float(info.misses)

    out["spectral.embed.s"] = self_s("spectral.embed")
    out["spectral.embed.calls"] = counts.get("spectral.embed.calls", 0.0)
    out["spectral.embed.bytes_computed"] = counts.get("spectral.embed.bytes_computed", 0.0)
    out["spectral.rfftn.s"] = self_s("spectral.rfftn")
    out["spectral.irfftn.s"] = self_s("spectral.irfftn")
    out["spectral.symbol.s"] = _sum(own[s.sid] for s in spans
                                    if s.name.startswith("spectral.spectral_"))
    out["spectral.fft.bytes_computed"] = counts.get("spectral.fft.bytes_computed", 0.0)
    sample_pts = counts.get("spectral.sample_linear.pts", 0.0)
    out["spectral.sample_linear.s"] = self_s("spectral.sample_linear")
    out["spectral.sample_linear.ns_per_pt"] = (
        out["spectral.sample_linear.s"] / sample_pts * 1e9 if sample_pts else 0.0)

    for name in ("duality_pairing", "nl_gradient_ball", "grad_chi_ball_profile"):
        out[f"analytic.{name}.s"] = self_s(f"analytic.{name}")
    grad_of = by_name.get("analytic.spectral_gradient_of", [])
    grad_fills = [s for s in grad_of if contains(s, "spectral.embed", kids)]
    out["analytic.spectral_gradient_of.fills"] = float(len(grad_fills))
    out["analytic.spectral_gradient_of.hits"] = float(len(grad_of) - len(grad_fills))
    cached = grad_of + by_name.get("verify.spectral_divergence_of", [])
    fills = [s for s in cached if contains(s, "spectral.embed", kids)]
    out["verify.cache.fills"] = float(len(fills))
    out["verify.cache.hits"] = float(len(cached) - len(fills))
    out["verify.cache.fill_s"] = _sum(s.end - s.start for s in fills)

    out["norms.besov_seminorm.s"] = self_s("norms.besov_seminorm")
    out["norms.lp_norm.s"] = self_s("norms.lp_norm")
    out["measures.measure_ball_mass.s"] = self_s("measures.measure_ball_mass")
    out["measures.measure_ball_mass.calls"] = counts.get("measures.measure_ball_mass.calls", 0.0)
    for s in spans:
        if s.name.startswith("verify.check."):
            key = s.name + ".s"
            out[key] = out.get(key, 0.0) + (s.end - s.start)
    return out


def check_spans(tracer: Tracer) -> list[Span]:
    return [s for s in tracer.spans() if s.name.startswith("verify.check.")]
