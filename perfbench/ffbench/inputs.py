"""Seeded inputs for the direct-points and spectral-grid workloads.

Inputs are plain numbers (centres, widths, amplitudes, orders and points); the
workload turns them into fracfield fields. Round r of a run draws from
numpy's generator seeded with (seed, workload tag, r), so the same seed always
gives the same inputs, and every batch gets fresh centres and widths that no
cache inside the program can have seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

DIRECT_OPS = ("frac_gradient", "frac_divergence", "nl_divergence",
              "riesz_potential", "riesz_transform")
SPECTRAL_OPS = ("frac_gradient", "frac_divergence", "riesz_potential", "riesz_transform")

# (dimension, batch size, batches per operator per round). Mostly n = 2; the
# n = 1 and n = 3 rows are weighted so each takes a visible share of the time.
DIRECT_MIX = (
    (1, 1, 2), (1, 16, 2), (1, 256, 2), (1, 2048, 2),
    (2, 1, 4), (2, 16, 2), (2, 256, 2), (2, 2048, 1),
    (3, 1, 2), (3, 16, 2),
)
SMALL_CALL_MAX_POINTS = 16
CHECKED = {1: 2, 2: 2, 3: 1}  # points per batch checked against the oracles
FAR_SHARE = 0.10          # points beyond support + 1 go to the far-source rule
NEAR_RADIUS = 1.5         # the other points lie in the ball where the fields live
# Widths stay resolved by the spectral engine at h = 16/1024 and 16/128. With
# centres in [-0.3, 0.3]^n they keep R_far = support + |x| between 3.2 and 6.4,
# so every near batch gets the same mid-field panels and a round's cost does
# not depend on the seed.
WIDTHS = (0.9, 1.05)
CENTRE = 0.3

# (dimension, grid size, jobs per operator per round)
SPECTRAL_MIX = ((2, 1024, 6), (3, 128, 1))
SPECTRAL_BOX = 16.0
SAMPLE_POINTS = 1000


@dataclass(frozen=True)
class GaussSpec:
    center: tuple
    width: float
    amplitude: float


@dataclass(frozen=True)
class VectorSpec:
    center: tuple
    width: float
    amplitudes: tuple


@dataclass(frozen=True)
class DirectBatch:
    op: str
    n: int
    order: float                  # alpha, or beta for the potential, 0 for the transform
    scalar: Optional[GaussSpec]   # xi / f / g
    vector: Optional[VectorSpec]  # F
    points: np.ndarray            # (m, n)
    check: tuple                  # indices checked against the oracles
    honesty: bool                 # also check the error estimate (first batch of a row)


@dataclass(frozen=True)
class SpectralJob:
    op: str
    n: int
    N: int
    order: float
    scalar: Optional[GaussSpec]
    vector: Optional[VectorSpec]
    points: np.ndarray            # (SAMPLE_POINTS, n)
    check: bool                   # checked against an identity (first job of a row)


def _rng(seed: int, tag: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), tag, int(round_index)])


def _gauss(rng, n: int) -> GaussSpec:
    return GaussSpec(tuple(rng.uniform(-CENTRE, CENTRE, n)), float(rng.uniform(*WIDTHS)),
                     float(rng.uniform(0.5, 1.5)))


def _vector(rng, n: int) -> VectorSpec:
    amps = rng.uniform(0.3, 1.2, n) * rng.choice((-1.0, 1.0), n)
    return VectorSpec(tuple(rng.uniform(-CENTRE, CENTRE, n)), float(rng.uniform(*WIDTHS)),
                      tuple(float(a) for a in amps))


def support_of(spec) -> float:
    """fracfield's support hint for a Gaussian: |c| + 4 w."""
    return float(np.linalg.norm(spec.center)) + 4.0 * spec.width


def _directions(rng, m: int, n: int) -> np.ndarray:
    d = rng.normal(size=(m, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _direct_points(rng, m: int, n: int, support: float) -> np.ndarray:
    """round(FAR_SHARE * m) points beyond support + 1 (none in one-point calls,
    so small-call latency does not depend on a coin flip); the rest near."""
    far = np.zeros(m, dtype=bool)
    far[rng.choice(m, size=int(round(FAR_SHARE * m)), replace=False)] = True
    radii = np.where(far, rng.uniform(support + 1.2, support + 4.0, m),
                     NEAR_RADIUS * rng.random(m) ** (1.0 / n))
    return _directions(rng, m, n) * radii[:, None]


def direct_round(seed: int, round_index: int) -> list[DirectBatch]:
    """One round of the fixed mix: every operator at every (n, size) row."""
    rng = _rng(seed, 1, round_index)
    batches = []
    for n, m, count in DIRECT_MIX:
        for op in DIRECT_OPS:
            for k in range(count):
                scalar = vector = None
                if op in ("frac_gradient", "riesz_potential", "riesz_transform", "nl_divergence"):
                    scalar = _gauss(rng, n)
                if op in ("frac_divergence", "nl_divergence"):
                    vector = _vector(rng, n)
                order = {"riesz_potential": float(rng.uniform(0.2, 0.8)),
                         "riesz_transform": 0.0}.get(op, float(rng.uniform(0.25, 0.75)))
                support = max(support_of(s) for s in (scalar, vector) if s is not None)
                pts = _direct_points(rng, m, n, support)
                check = tuple(int(i) for i in sorted(rng.choice(m, size=min(m, CHECKED[n]), replace=False)))
                batches.append(DirectBatch(op, n, order, scalar, vector, pts, check, k == 0))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


def spectral_round(seed: int, round_index: int) -> list[SpectralJob]:
    """One round of jobs. The first job of each (n, operator) row is checked;
    for gradient and divergence it has alpha = 1 (closed form), the others a
    random alpha in (0.2, 0.8)."""
    rng = _rng(seed, 2, round_index)
    jobs = []
    for n, N, count in SPECTRAL_MIX:
        for op in SPECTRAL_OPS:
            for k in range(count):
                scalar = vector = None
                if op == "frac_divergence":
                    vector = _vector(rng, n)
                else:
                    scalar = _gauss(rng, n)
                if op == "riesz_potential":
                    order = float(rng.uniform(0.3, 0.9))
                elif op == "riesz_transform":
                    order = 0.0
                else:
                    alt = rng.uniform(0.2, 0.8)
                    order = 1.0 if k == 0 else float(alt)
                half = SPECTRAL_BOX / 2.0 - 2.5
                pts = rng.uniform(-half, half, (SAMPLE_POINTS, n))
                jobs.append(SpectralJob(op, n, N, order, scalar, vector, pts, k == 0))
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def far_points(batches) -> int:
    """Evaluation points beyond support + 1, which take the far-source rule."""
    far = 0
    for b in batches:
        S = max(support_of(s) for s in (b.scalar, b.vector) if s is not None)
        far += int(np.sum(np.linalg.norm(b.points, axis=1) > S + 1.0))
    return far
