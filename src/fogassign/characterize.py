"""Learning latency CDFs from samples and modeling serverless spin-down.

Execution points are best described by their full latency CDF, and a
usable estimate needs surprisingly few samples.  This module provides the
step-function estimator, distance metrics between CDFs evaluated on
breakpoint-aware grids (a uniform time grid would miss step jumps), the
sample-count error-curve experiment, and a conditional latency model for
serverless platforms where response time depends on the inter-invocation
gap: a warm regime for rapid re-invocation, a cold regime after long idle
gaps, and a two-component mixture in between whose warm weight drifts
with the gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latency import Empirical, LatencyDistribution, Mixture, make_rng

__all__ = [
    "estimate_cdf",
    "cdf_distance",
    "ks_statistic",
    "CdfErrorCurve",
    "ErrorCurvePoint",
    "error_curve",
    "ServerlessModel",
    "LinearMixing",
    "BucketMixing",
    "serverless_latency",
    "fit_serverless_regimes",
    "InsufficientDataError",
]


GRID_PROBS = np.linspace(0.5 / 1000, 1.0 - 0.5 / 1000, 1000)  # quantile points of every grid
WARM_WEIGHTS = np.round(np.arange(0.0, 1.0001, 0.05), 10)  # candidates per mixed-band bucket


class InsufficientDataError(ValueError):
    pass


def estimate_cdf(samples) -> Empirical:
    """Step-function CDF estimate from N uncensored latency samples."""
    arr = np.asarray(samples, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("cannot estimate a CDF from zero samples")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite (NaN/inf rejected)")
    if np.any(arr < 0.0):
        raise ValueError("latency samples must be nonnegative")
    return Empirical(arr)


def _grid_for(a: LatencyDistribution, b: LatencyDistribution) -> np.ndarray:
    """Evaluation grid: both CDFs' breakpoints plus quantile points of a."""
    return np.unique(np.concatenate([a.breakpoints(), b.breakpoints(), a.quantile(GRID_PROBS)]))


def cdf_distance(a, b, grid=None) -> tuple[float, float]:
    """(average, maximum) pointwise gap between two distributions' CDFs.

    When no grid is given one is built from the breakpoints of both
    distributions plus 1000 quantile points of ``a``.
    """
    g = np.asarray(grid, dtype=float) if grid is not None else _grid_for(a, b)
    if g.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    diff = np.abs(np.atleast_1d(a.cdf(g)) - np.atleast_1d(b.cdf(g)))
    return float(diff.mean()), float(diff.max())


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a reference CDF.

    The samples go through ``estimate_cdf``'s input checks.
    """
    x = estimate_cdf(samples).samples
    n = x.size
    f = np.atleast_1d(cdf(x))
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


@dataclass(frozen=True)
class ErrorCurvePoint:
    n: int
    avg_distances: np.ndarray
    max_distances: np.ndarray
    mean_avg: float
    max_max: float


@dataclass(frozen=True)
class CdfErrorCurve:
    points: tuple[ErrorCurvePoint, ...]

    def mean_avg_at(self, n: int) -> float:
        for p in self.points:
            if p.n == n:
                return p.mean_avg
        raise KeyError(n)


def error_curve(
    reference: LatencyDistribution, n_grid, reps: int, rng
) -> CdfErrorCurve:
    """Estimation error of the step estimator versus sample count.

    For each N the reference is sampled ``reps`` times; every repetition
    records its (avg, max) distance to the true CDF.  Repetitions use
    independent child streams spawned from the caller's generator, so the
    curve is reproducible from one master seed.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = make_rng(rng)
    points = []
    for n in n_grid:
        streams = rng.spawn(reps)
        avgs = np.empty(reps)
        maxs = np.empty(reps)
        for r, stream in enumerate(streams):
            est = estimate_cdf(reference.sample(stream, int(n)))
            avgs[r], maxs[r] = cdf_distance(reference, est)
        points.append(
            ErrorCurvePoint(
                n=int(n),
                avg_distances=avgs,
                max_distances=maxs,
                mean_avg=float(avgs.mean()),
                max_max=float(maxs.max()),
            )
        )
    return CdfErrorCurve(points=tuple(points))


# ---------------------------------------------------------------------------
# Serverless spin-down model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMixing:
    """Warm weight ramping linearly from 1 at lo down to 0 at hi."""

    lo: float
    hi: float

    def __call__(self, delta_t: float) -> float:
        return float(np.clip((self.hi - delta_t) / (self.hi - self.lo), 0.0, 1.0))


@dataclass(frozen=True)
class BucketMixing:
    """Piecewise-constant warm weight fitted per inter-invocation bucket."""

    lo: float
    hi: float
    width: float
    weights: tuple[float, ...]

    def bucket_index(self, delta_t: float) -> int:
        return int(min((delta_t - self.lo) // self.width, len(self.weights) - 1))

    def __call__(self, delta_t: float) -> float:
        if delta_t <= self.lo:
            return 1.0
        if delta_t >= self.hi:
            return 0.0
        return self.weights[self.bucket_index(delta_t)]


@dataclass(frozen=True)
class ServerlessModel:
    """Gap-conditional latency: warm below lo, cold above hi, mixed between."""

    warm: LatencyDistribution
    cold: LatencyDistribution
    lo: float
    hi: float
    mixing: object

    def __post_init__(self):
        if not (0.0 <= self.lo < self.hi):
            raise ValueError("thresholds require 0 <= lo < hi")

    @classmethod
    def linear(cls, warm, cold, lo, hi) -> "ServerlessModel":
        return cls(warm=warm, cold=cold, lo=lo, hi=hi, mixing=LinearMixing(lo, hi))


def serverless_latency(model: ServerlessModel, delta_t: float) -> LatencyDistribution:
    """Latency distribution for one invocation arriving delta_t after the last."""
    if delta_t < 0.0:
        raise ValueError("inter-invocation time must be >= 0")
    if delta_t <= model.lo:
        return model.warm
    if delta_t >= model.hi:
        return model.cold
    w = float(model.mixing(delta_t))
    return Mixture([model.warm, model.cold], [w, 1.0 - w])


def fit_serverless_regimes(
    records,
    thresholds: tuple[float, float] = (10.0, 60.0),
    bucket_width: float = 10.0,
) -> ServerlessModel:
    """Learn a spin-down model from (inter-invocation gap, latency) pairs.

    Records at or below the lower threshold form the warm regime, at or
    above the upper one the cold regime (boundary gaps go to the adjacent
    pure regime).  In the intermediate band, each ``bucket_width``-wide
    bucket gets the warm weight in ``WARM_WEIGHTS`` whose two-component
    mixture is closest (in average CDF distance) to the bucket's own step
    estimate; the fitted weights are exposed on the model's mixing object.
    """
    lo, hi = thresholds
    if not (0.0 <= lo < hi < np.inf):
        raise ValueError(f"thresholds require 0 <= lo < hi < inf (got {lo}, {hi})")
    if not (0.0 < bucket_width < np.inf):
        raise ValueError(f"bucket_width must be finite and > 0 (got {bucket_width})")
    if len(records) < 30:
        raise InsufficientDataError(f"need at least 30 records, got {len(records)}")
    warm_lat, cold_lat = [], []
    n_buckets = int(np.ceil((hi - lo) / bucket_width - 1e-12))
    if n_buckets > len(records):  # some bucket must then be empty; do not allocate them
        raise InsufficientDataError(
            f"bucket_width {bucket_width:g} makes {n_buckets} band buckets "
            f"for {len(records)} records"
        )
    buckets: list[list[float]] = [[] for _ in range(n_buckets)]
    for dt, lat in records:
        if dt <= lo:
            warm_lat.append(lat)
        elif dt >= hi:
            cold_lat.append(lat)
        else:
            buckets[min(int((dt - lo) // bucket_width), n_buckets - 1)].append(lat)
    if not warm_lat:
        raise InsufficientDataError(f"no records in the warm regime (gap <= {lo})")
    if not cold_lat:
        raise InsufficientDataError(f"no records in the cold regime (gap >= {hi})")
    if not any(buckets):
        raise InsufficientDataError(f"no records in the mixed band ({lo}, {hi})")
    warm = Empirical(warm_lat)
    cold = Empirical(cold_lat)
    weights = []
    for k, bucket in enumerate(buckets):
        if not bucket:
            raise InsufficientDataError(
                f"band bucket {k} ({lo + k * bucket_width:g}-"
                f"{min(lo + (k + 1) * bucket_width, hi):g} s) has no records"
            )
        est = estimate_cdf(bucket)
        grid = _grid_for(est, Mixture([warm, cold], [0.5, 0.5]))
        f_obs = est.cdf(grid)
        f_warm = warm.cdf(grid)
        f_cold = cold.cdf(grid)
        dists = [
            float(np.mean(np.abs(f_obs - (w * f_warm + (1.0 - w) * f_cold))))
            for w in WARM_WEIGHTS
        ]
        weights.append(float(WARM_WEIGHTS[int(np.argmin(dists))]))
    mixing = BucketMixing(lo=lo, hi=hi, width=bucket_width, weights=tuple(weights))
    return ServerlessModel(warm=warm, cold=cold, lo=lo, hi=hi, mixing=mixing)
