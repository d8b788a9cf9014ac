"""Learning latency CDFs from samples and modeling serverless spin-down.

Execution points are best described by their full latency CDF, and a
usable estimate needs surprisingly few samples.  This module provides the
step-function estimator, distance metrics between CDFs evaluated on
breakpoint-aware grids (a uniform time grid would miss step jumps), the
sample-count error-curve experiment, and a conditional latency model for
serverless platforms where response time depends on the inter-invocation
gap: a warm regime for rapid re-invocation, a cold regime after long idle
gaps, and a two-component mixture in between whose warm weight drifts
with the gap.  A model's thresholds live on its mixing, the one place
that holds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .latency import _CHUNK_ELEMENTS, Empirical, LatencyDistribution, Mixture, _integer, make_rng

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
    return Empirical(samples)


def _grid_for(a: LatencyDistribution, *others: LatencyDistribution) -> np.ndarray:
    """Evaluation grid: every CDF's breakpoints plus quantile points of a."""
    breakpoints = [d.breakpoints() for d in (a, *others)]
    return np.unique(np.concatenate([*breakpoints, a.quantile(GRID_PROBS)]))


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
    independent child streams spawned from the caller's generator, one
    ``rng.spawn(reps)`` per N, so the curve is reproducible from one master
    seed.  Each N and ``reps`` must be an integer >= 1 (an integral float
    counts; a bool or a fraction is refused).

    The repetitions of one N are scored in blocks of rows whose grids hold
    about ``latency._CHUNK_ELEMENTS`` points together.  Each repetition
    draws its N uniforms from its own stream into one row, the draws
    ``reference.sample`` would make, and the block is transformed, sorted
    and scored at once.  Every distance is the one ``cdf_distance``
    computes on its default grid, bit for bit and whatever the block size:
    a row's grid is the same point set in the same order, and its mean
    sums that row alone.
    """
    reps = _integer(reps, 1, "reps must be an integer >= 1")
    ns = [_integer(n, 1, "sample count n must be an integer >= 1") for n in n_grid]
    rng = make_rng(rng)
    # The reference's share of every grid, and its CDF there, once per curve.
    ref_grid = _grid_for(reference)
    ref_cdf = reference.cdf(ref_grid)
    points = []
    for n in ns:
        streams = rng.spawn(reps)
        avgs = np.empty(reps)
        maxs = np.empty(reps)
        block = max(1, _CHUNK_ELEMENTS // (n + ref_grid.size))
        for start in range(0, reps, block):
            rows = slice(start, start + block)
            avgs[rows], maxs[rows] = _block_distances(
                reference, ref_grid, ref_cdf, streams[rows], n)
        points.append(
            ErrorCurvePoint(
                n=n,
                avg_distances=avgs,
                max_distances=maxs,
                mean_avg=float(avgs.mean()),
                max_max=float(maxs.max()),
            )
        )
    return CdfErrorCurve(points=tuple(points))


def _block_distances(reference, ref_grid, ref_cdf, streams, n):
    """(avg, max) distances of one step estimate of ``n`` draws per stream.

    Row r's grid merges ``ref_grid`` with the distinct samples of row r
    that are not on it, in ascending order.  The estimate's CDF at a grid
    point is its count of samples at or below it, read from merge ranks.
    """
    u = np.empty((len(streams), n))
    for row, stream in zip(u, streams):
        stream.random(out=row)
    s = np.sort(reference.from_uniform(u), axis=1)
    bad = np.flatnonzero(~np.isfinite(s).all(axis=1) | (s[:, 0] < 0.0))
    if bad.size:
        estimate_cdf(s[bad[0]])  # raises the estimator's error for the first bad row
    rows = np.arange(len(s))[:, None]
    # Reference points below each sample.  A sample is a grid point of its
    # own if it is the last of its ties and not on the reference grid.
    lo = np.searchsorted(ref_grid, s)
    keep = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, :-1], s[:, 1:], out=keep[:, :-1])
    keep &= ref_grid[np.minimum(lo, ref_grid.size - 1)] != s
    kept = np.zeros((len(s), n + 1), dtype=np.intp)
    np.cumsum(keep, axis=1, out=kept[:, 1:])
    # Samples at or below reference point i: those with lo <= i.
    width = ref_grid.size + 1
    below = np.bincount((lo + width * rows).ravel(), minlength=len(s) * width)
    below = below.reshape(len(s), width).cumsum(axis=1)[:, :-1]
    # Row r's grid fills d[start[r]:start[r] + size[r]].
    size = ref_grid.size + kept[:, -1]
    start = np.cumsum(size) - size
    d = np.empty(size.sum())
    # Reference point i follows i reference points and the row's own grid
    # points below it.
    ref_at = kept.ravel()[below + (n + 1) * rows]
    ref_at += start[:, None] + np.arange(ref_grid.size)
    d[ref_at] = np.abs(ref_cdf - below / n)
    own_at = start[:, None] + lo + kept[:, 1:] - 1
    d[own_at[keep]] = np.abs(reference.cdf(s) - np.arange(1, n + 1) / n)[keep]
    # Each row sums alone, as ndarray.mean sums a row's grid in cdf_distance.
    sums = [np.add.reduce(d[a:a + m]) for a, m in zip(start.tolist(), size.tolist())]
    return np.array(sums) / size, np.maximum.reduceat(d, start)


# ---------------------------------------------------------------------------
# Serverless spin-down model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearMixing:
    """Warm weight ramping linearly from 1 at lo down to 0 at hi."""

    lo: float
    hi: float

    def __post_init__(self):
        _check_thresholds(self.lo, self.hi)

    def __call__(self, delta_t: float) -> float:
        return float(np.clip((self.hi - delta_t) / (self.hi - self.lo), 0.0, 1.0))


@dataclass(frozen=True)
class BucketMixing:
    """Piecewise-constant warm weight fitted per inter-invocation bucket."""

    lo: float
    hi: float
    width: float
    weights: tuple[float, ...]

    def __post_init__(self):
        _check_thresholds(self.lo, self.hi)
        n = _band_buckets(self.lo, self.hi, self.width)
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (n,) or not np.all((w >= 0.0) & (w <= 1.0)):
            raise ValueError(
                f"weights must hold one warm weight in [0, 1] per band bucket ({n}), "
                f"got {self.weights!r}"
            )

    def __call__(self, delta_t: float) -> float:
        if delta_t <= self.lo:
            return 1.0
        if delta_t >= self.hi:
            return 0.0
        return self.weights[_bucket_index(delta_t, self.lo, self.width, len(self.weights))]


@dataclass(frozen=True)
class ServerlessModel:
    """Gap-conditional latency: warm below lo, cold above hi, mixed between.

    ``mixing`` holds the thresholds and gives the warm weight of a gap in
    the band; the model's ``lo`` and ``hi`` are read from it.
    """

    warm: LatencyDistribution
    cold: LatencyDistribution
    mixing: LinearMixing | BucketMixing

    @property
    def lo(self) -> float:
        return self.mixing.lo

    @property
    def hi(self) -> float:
        return self.mixing.hi

    @classmethod
    def linear(cls, warm, cold, lo, hi) -> "ServerlessModel":
        return cls(warm=warm, cold=cold, mixing=LinearMixing(lo, hi))


def _check_thresholds(lo: float, hi: float) -> None:
    if not (0.0 <= lo < hi < np.inf):
        raise ValueError(f"thresholds require 0 <= lo < hi < inf (got {lo}, {hi})")


def _band_buckets(lo: float, hi: float, width: float) -> int:
    """Number of ``width``-wide buckets covering the band (lo, hi); the last
    may be narrower."""
    if not (0.0 < width < np.inf):
        raise ValueError(f"bucket_width must be finite and > 0 (got {width})")
    n = np.ceil((hi - lo) / width - 1e-12)
    if not n < 2.0**53:  # (hi - lo) / width overflows for a tiny width
        raise ValueError(f"bucket_width {width:g} makes too many band buckets")
    return max(1, int(n))


def _bucket_index(delta_t: float, lo: float, width: float, n_buckets: int) -> int:
    """Band bucket of a gap in (lo, hi); a gap in the narrower tail joins the last."""
    return int(min((delta_t - lo) // width, n_buckets - 1))


def serverless_latency(model: ServerlessModel, delta_t: float) -> LatencyDistribution:
    """Latency distribution for one invocation arriving delta_t after the last."""
    if not delta_t >= 0.0:  # NaN too
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

    Every gap must be >= 0, as in ``serverless_latency``, and every latency
    finite and >= 0; a bad record is named by its index.  Records at or
    below the lower threshold form the warm regime, at or above the upper
    one the cold regime (boundary gaps go to the adjacent pure regime).
    In the intermediate band, each ``bucket_width``-wide
    bucket gets the warm weight in ``WARM_WEIGHTS`` whose two-component
    mixture is closest (in average CDF distance) to the bucket's own step
    estimate; the fitted weights are exposed on the model's mixing object.
    """
    lo, hi = thresholds
    _check_thresholds(lo, hi)
    n_buckets = _band_buckets(lo, hi, bucket_width)
    if len(records) < 30:
        raise InsufficientDataError(f"need at least 30 gaps, got {len(records)}")
    warm_lat, cold_lat = [], []
    if n_buckets > len(records):  # some bucket must then be empty; do not allocate them
        raise InsufficientDataError(
            f"bucket_width {bucket_width:g} makes {n_buckets} band buckets "
            f"for {len(records)} records"
        )
    buckets: list[list[float]] = [[] for _ in range(n_buckets)]
    for i, (dt, lat) in enumerate(records):
        if not dt >= 0.0:  # NaN too
            raise ValueError(f"record {i}: inter-invocation time must be >= 0 (got {dt})")
        if not 0.0 <= lat < np.inf:  # NaN too
            raise ValueError(f"record {i}: latency must be finite and >= 0 (got {lat})")
        if dt <= lo:
            warm_lat.append(lat)
        elif dt >= hi:
            cold_lat.append(lat)
        else:
            buckets[_bucket_index(dt, lo, bucket_width, n_buckets)].append(lat)
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
        grid = _grid_for(est, warm, cold)
        dists = [cdf_distance(est, Mixture([warm, cold], [w, 1.0 - w]), grid)[0]
                 for w in WARM_WEIGHTS]
        weights.append(float(WARM_WEIGHTS[int(np.argmin(dists))]))
    mixing = BucketMixing(lo=lo, hi=hi, width=bucket_width, weights=tuple(weights))
    return ServerlessModel(warm=warm, cold=cold, mixing=mixing)
