import re
import tracemalloc

import numpy as np
import pytest

from fogassign.characterize import (
    GRID_PROBS,
    BucketMixing,
    CdfErrorCurve,
    ErrorCurvePoint,
    InsufficientDataError,
    LinearMixing,
    ServerlessModel,
    cdf_distance,
    error_curve,
    estimate_cdf,
    fit_serverless_regimes,
    ks_statistic,
    serverless_latency,
)
from fogassign.latency import Degenerate, Empirical, Gev, Mixture, Uniform, make_rng

TABLE_GEV = Gev(shape=0.34, scale=0.04, loc=0.48)


def reference_error_curve(reference, n_grid, reps, rng):
    """``error_curve`` one repetition at a time: each repetition's estimate
    is scored by ``cdf_distance`` on a grid of its own."""
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = make_rng(rng)
    ref_points = np.concatenate([reference.breakpoints(), reference.quantile(GRID_PROBS)])
    points = []
    for n in n_grid:
        streams = rng.spawn(reps)
        avgs = np.empty(reps)
        maxs = np.empty(reps)
        for r, stream in enumerate(streams):
            est = estimate_cdf(reference.sample(stream, int(n)))
            grid = np.unique(np.concatenate([ref_points, est.samples]))
            avgs[r], maxs[r] = cdf_distance(reference, est, grid=grid)
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


def assert_same_curve(got, want):
    assert [p.n for p in got.points] == [p.n for p in want.points]
    for p, q in zip(got.points, want.points):
        assert p.avg_distances.tolist() == q.avg_distances.tolist()
        assert p.max_distances.tolist() == q.max_distances.tolist()
        assert (p.mean_avg, p.max_max) == (q.mean_avg, q.max_max)


# The arguments of the perfbench measure workload's curve at seed 1.
_workload_rng = np.random.default_rng(1)
WORKLOAD_GEV = Gev(shape=float(_workload_rng.uniform(0.2, 0.4)),
                   scale=float(_workload_rng.uniform(5e-4, 1.5e-3)),
                   loc=float(_workload_rng.uniform(3e-3, 6e-3)))
WORKLOAD_N = (10, 20, 50, 100, 200, 500, 1000)
WORKLOAD_REPS = 100
CURVE_REFERENCES = [
    TABLE_GEV,
    Uniform(0.1, 0.4),
    Degenerate(0.3),
    Empirical([0.2, 0.25, 0.25, 0.4]),
    Mixture([Uniform(0.1, 0.3), Degenerate(0.35)], [0.6, 0.4]),
    Empirical([0.2] * 5 + [0.3] * 5),
]
CURVE_REFERENCE_IDS = ["gev", "uniform", "degenerate", "empirical", "mixture", "tied-empirical"]


class TestEstimateCdf:
    def test_single_sample_step(self):
        est = estimate_cdf([0.5])
        assert est.cdf(0.499) == 0.0
        assert est.cdf(0.5) == 1.0

    def test_four_samples(self):
        est = estimate_cdf([0.8, 0.2, 0.6, 0.4])  # unsorted on purpose
        assert est.cdf(0.5) == 0.5
        assert est.n == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            estimate_cdf([])
        with pytest.raises(ValueError):
            estimate_cdf([0.1, float("nan")])
        with pytest.raises(ValueError):
            estimate_cdf([-0.2])

    def test_small_sample_within_dkw_bound(self):
        # two-sided 99% band at N=10: sqrt(ln(2/0.01) / 20) ~ 0.515
        est = estimate_cdf(TABLE_GEV.sample(make_rng(11), 10))
        _, sup = cdf_distance(TABLE_GEV, est)
        assert sup < np.sqrt(np.log(2 / 0.01) / 20)

    def test_converts_to_distribution(self):
        est = estimate_cdf([0.2, 0.4])
        assert isinstance(est, Empirical)
        assert est.cdf(0.3) == 0.5


class TestCdfDistance:
    def test_identical_is_zero(self):
        assert cdf_distance(TABLE_GEV, TABLE_GEV) == (0.0, 0.0)
        est = estimate_cdf([0.4])
        assert cdf_distance(est, est) == (0.0, 0.0)

    def test_uniform_vs_point_mass(self):
        avg, mx = cdf_distance(Uniform(0.0, 1.0), Degenerate(0.5))
        assert mx == pytest.approx(0.5, abs=1e-9)
        assert 0.0 < avg < mx

    def test_symmetric_on_shared_grid(self):
        grid = np.linspace(0.0, 1.0, 512)
        a, b = Uniform(0.0, 1.0), Uniform(0.2, 0.9)
        assert cdf_distance(a, b, grid) == cdf_distance(b, a, grid)

    def test_nonnegative(self):
        avg, mx = cdf_distance(Uniform(0, 1), TABLE_GEV)
        assert 0.0 <= avg <= mx <= 1.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            cdf_distance(Uniform(0, 1), Uniform(0, 1), grid=[])


class TestKs:
    def test_exact_fit_is_small(self):
        x = Uniform(0.0, 1.0).sample(make_rng(3), 2000)
        assert ks_statistic(x, Uniform(0.0, 1.0).cdf) < 0.04

    def test_wrong_model_is_large(self):
        x = Uniform(0.0, 1.0).sample(make_rng(3), 2000)
        assert ks_statistic(x, Uniform(0.5, 1.5).cdf) > 0.3

    @pytest.mark.parametrize("samples, message", [
        ([0.1, float("nan"), 0.3], "finite"),
        ([0.1, float("inf")], "finite"),
        ([], "zero samples"),
        ([-0.1, 0.2], "nonnegative"),
    ], ids=["nan", "inf", "empty", "negative"])
    def test_checks_samples_like_estimate_cdf(self, samples, message):
        with pytest.raises(ValueError, match=message):
            ks_statistic(samples, Uniform(0.0, 1.0).cdf)


class TestErrorCurve:
    def test_error_shrinks_with_samples(self):
        curve = error_curve(TABLE_GEV, n_grid=[10, 50], reps=60, rng=make_rng(5))
        assert curve.mean_avg_at(50) < curve.mean_avg_at(10)
        assert all(p.max_max <= 1.0 and p.mean_avg >= 0.0 for p in curve.points)

    def test_deterministic_under_fixed_seed(self):
        a = error_curve(TABLE_GEV, n_grid=[15], reps=5, rng=make_rng(9))
        b = error_curve(TABLE_GEV, n_grid=[15], reps=5, rng=make_rng(9))
        assert np.array_equal(a.points[0].avg_distances, b.points[0].avg_distances)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            error_curve(TABLE_GEV, [10], 0, make_rng(0))

    @pytest.mark.parametrize("reference", CURVE_REFERENCES, ids=CURVE_REFERENCE_IDS)
    def test_distances_equal_the_default_grid(self, reference):
        # The curve builds the reference's grid points once; every distance
        # must still be the one cdf_distance computes on its own grid.
        n_grid, reps = [1, 7, 40], 6
        curve = error_curve(reference, n_grid, reps, make_rng(21))
        rng = make_rng(21)
        for n, point in zip(n_grid, curve.points):
            expect = [cdf_distance(reference, estimate_cdf(reference.sample(stream, n)))
                      for stream in rng.spawn(reps)]
            assert point.avg_distances.tolist() == [a for a, _ in expect]
            assert point.max_distances.tolist() == [m for _, m in expect]

    def test_blocks_equal_the_per_repetition_loop_at_the_workload_arguments(self):
        assert_same_curve(error_curve(WORKLOAD_GEV, WORKLOAD_N, WORKLOAD_REPS, 1),
                          reference_error_curve(WORKLOAD_GEV, WORKLOAD_N, WORKLOAD_REPS, 1))

    # Repetition counts that leave a partial last block at every n.
    @pytest.mark.parametrize("reps", [1, 7, 37])
    @pytest.mark.parametrize("reference", CURVE_REFERENCES, ids=CURVE_REFERENCE_IDS)
    def test_blocks_equal_the_per_repetition_loop(self, reference, reps):
        n_grid = [1, 3, 10, 200, 1500]
        assert_same_curve(error_curve(reference, n_grid, reps, make_rng(4)),
                          reference_error_curve(reference, n_grid, reps, make_rng(4)))

    def test_second_call_on_one_generator_continues_the_stream(self):
        got, want = make_rng(8), make_rng(8)
        for _ in range(2):
            assert_same_curve(error_curve(TABLE_GEV, [5, 60], 9, got),
                              reference_error_curve(TABLE_GEV, [5, 60], 9, want))

    def test_numpy_integer_arguments(self):
        curve = error_curve(TABLE_GEV, np.array([5, 60]), np.int64(9), make_rng(8))
        assert [p.n for p in curve.points] == [5, 60]
        assert all(type(p.n) is int for p in curve.points)
        assert_same_curve(curve, reference_error_curve(TABLE_GEV, [5, 60], 9, make_rng(8)))

    def test_blocks_bound_the_peak_memory(self):
        # All 100 repetitions of n = 1,000 in one block would peak near 9 MB.
        error_curve(WORKLOAD_GEV, WORKLOAD_N[:1], 1, 1)  # first-call set-up
        tracemalloc.start()
        try:
            error_curve(WORKLOAD_GEV, WORKLOAD_N, WORKLOAD_REPS, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    @pytest.mark.parametrize("n", [10.7, True, 0, -3, "10", None], ids=repr)
    def test_rejects_a_sample_count_that_is_not_an_integer_of_one_or_more(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1 (got {n!r})")):
            error_curve(TABLE_GEV, [10, n], 5, make_rng(0))

    @pytest.mark.parametrize("reps", [2.5, True, 0, "5"], ids=repr)
    def test_rejects_reps_that_is_not_an_integer_of_one_or_more(self, reps):
        message = re.escape(f"reps must be an integer >= 1 (got {reps!r})")
        with pytest.raises(ValueError, match=message):
            error_curve(TABLE_GEV, [10], reps, make_rng(0))

    def test_integral_floats_count_as_integers(self):
        assert_same_curve(error_curve(TABLE_GEV, [10.0], 4.0, make_rng(3)),
                          reference_error_curve(TABLE_GEV, [10], 4, make_rng(3)))

    @pytest.mark.parametrize("reference, message", [
        (Gev(shape=300.0, scale=1.0, loc=1.0), "finite"),
        (Gev(shape=0.3, scale=0.01, loc=0.001), "nonnegative"),
    ], ids=["overflow", "negative"])
    def test_checks_samples_like_estimate_cdf(self, reference, message):
        with pytest.raises(ValueError, match=message):
            error_curve(reference, [50], 5, make_rng(0))

    def test_rate_matches_root_n(self):
        curve = error_curve(TABLE_GEV, n_grid=[10, 90], reps=100, rng=make_rng(77))
        ratio = curve.mean_avg_at(10) / curve.mean_avg_at(90)
        assert 2.0 <= ratio <= 4.5

    def test_mean_sup_distance_nonincreasing(self):
        curve = error_curve(TABLE_GEV, n_grid=[10, 30, 90, 270], reps=100, rng=make_rng(13))
        sup_means = [float(p.max_distances.mean()) for p in curve.points]
        assert all(a >= b for a, b in zip(sup_means, sup_means[1:]))


class TestServerlessLatency:
    model = ServerlessModel.linear(
        warm=Degenerate(0.1), cold=Degenerate(1.0), lo=10.0, hi=60.0
    )

    def test_pure_regimes(self):
        assert serverless_latency(self.model, 5.0) is self.model.warm
        assert serverless_latency(self.model, 10.0) is self.model.warm  # boundary
        assert serverless_latency(self.model, 120.0) is self.model.cold
        assert serverless_latency(self.model, 60.0) is self.model.cold

    def test_midpoint_is_even_mixture(self):
        mix = serverless_latency(self.model, 35.0)
        assert isinstance(mix, Mixture)
        assert np.allclose(mix.weights, [0.5, 0.5])

    def test_cdf_continuous_in_gap(self):
        t = 0.55
        eps = 1e-6
        near_warm = serverless_latency(self.model, 10.0 + eps).cdf(t)
        near_cold = serverless_latency(self.model, 60.0 - eps).cdf(t)
        assert near_warm == pytest.approx(self.model.warm.cdf(t), abs=1e-4)
        assert near_cold == pytest.approx(self.model.cold.cdf(t), abs=1e-4)
        mid_lo = serverless_latency(self.model, 34.0).cdf(t)
        mid_hi = serverless_latency(self.model, 36.0).cdf(t)
        assert abs(mid_lo - mid_hi) < 0.05

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            serverless_latency(self.model, -1.0)

    def test_rejects_nan_gap(self):
        with pytest.raises(ValueError, match="inter-invocation time must be >= 0"):
            serverless_latency(self.model, float("nan"))

    @pytest.mark.parametrize(
        "lo, hi", [(10.0, np.inf), (np.inf, np.inf), (10.0, np.nan), (np.nan, 60.0)]
    )
    def test_model_rejects_non_finite_thresholds(self, lo, hi):
        with pytest.raises(ValueError, match="thresholds require 0 <= lo < hi < inf"):
            ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), lo, hi)

    def test_linear_mixing_endpoints(self):
        mixing = LinearMixing(10.0, 60.0)
        assert mixing(10.0) == 1.0
        assert mixing(60.0) == 0.0
        grid = np.linspace(10, 60, 101)
        vals = [mixing(x) for x in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lo, hi", [(5.0, 5.0), (10.0, np.nan)])
    def test_linear_mixing_rejects_bad_thresholds(self, lo, hi):
        with pytest.raises(ValueError, match="thresholds require 0 <= lo < hi < inf"):
            LinearMixing(lo, hi)

    @pytest.mark.parametrize(
        "width, weights, message",
        [
            (0.0, (0.5,) * 5, "bucket_width must be finite and > 0"),
            (5e-324, (0.5,), "too many band buckets"),
            (10.0, (), "one warm weight in"),
            (50.0, (1.5,), "one warm weight in"),
            (50.0, (np.nan,), "one warm weight in"),
            (10.0, (0.5,) * 4, "per band bucket"),
        ],
        ids=["zero-width", "subnormal-width", "no-weights", "weight-above-1", "nan-weight",
             "one-weight-short"],
    )
    def test_bucket_mixing_rejects_bad_fields(self, width, weights, message):
        with pytest.raises(ValueError, match=message):
            BucketMixing(lo=10.0, hi=60.0, width=width, weights=weights)


def synth_records(model: ServerlessModel, per_bucket: int, rng) -> list:
    """Draw (gap, latency) pairs from a known model, pure regimes included."""
    records = []
    for _ in range(per_bucket):
        records.append((float(rng.uniform(0.0, model.lo)), float(model.warm.sample(rng, 1)[0])))
        records.append((float(rng.uniform(model.hi, model.hi + 60.0)), float(model.cold.sample(rng, 1)[0])))
    width = 10.0
    nb = int((model.hi - model.lo) / width)
    for k in range(nb):
        lo_k = model.lo + k * width
        for _ in range(per_bucket):
            dt = float(rng.uniform(lo_k, lo_k + width))
            dist = serverless_latency(model, dt)
            records.append((dt, float(dist.sample(rng, 1)[0])))
    return records


class TestFitServerlessRegimes:
    def test_recovers_even_mixture_weight(self):
        model = ServerlessModel(
            warm=Degenerate(0.1), cold=Degenerate(1.0),
            mixing=BucketMixing(lo=10.0, hi=60.0, width=10.0, weights=(0.5,) * 5),
        )
        rng = make_rng(21)
        fitted = fit_serverless_regimes(synth_records(model, 400, rng))
        assert all(abs(w - 0.5) <= 0.05 + 1e-12 for w in fitted.mixing.weights)

    def test_round_trip_linear_mixing(self):
        model = ServerlessModel.linear(
            warm=Uniform(0.05, 0.15), cold=Uniform(0.8, 1.2), lo=10.0, hi=60.0
        )
        fitted = fit_serverless_regimes(synth_records(model, 120, make_rng(33)))
        mids = [12.5 + 10 * k + 2.5 for k in range(5)]  # bucket midpoints
        for k, w in enumerate(fitted.mixing.weights):
            true_w = LinearMixing(10.0, 60.0)(mids[k])
            assert abs(w - true_w) <= 0.1

    def test_missing_regimes_error(self):
        warm_only = [(float(d), 0.1) for d in np.linspace(0, 9, 40)]
        with pytest.raises(InsufficientDataError, match="cold"):
            fit_serverless_regimes(warm_only)
        with pytest.raises(InsufficientDataError, match="at least 30"):
            fit_serverless_regimes(warm_only[:5])

    @pytest.mark.parametrize("gaps, message", [
        (np.linspace(20, 90, 40), r"no records in the warm regime \(gap <= 10.0\)"),
        (np.r_[np.linspace(0, 9, 20), np.linspace(60, 90, 20)],
         r"no records in the mixed band \(10.0, 60.0\)"),
    ], ids=["no-warm", "no-band"])
    def test_missing_warm_or_band_records(self, gaps, message):
        with pytest.raises(InsufficientDataError, match=message):
            fit_serverless_regimes([(float(d), 0.1) for d in gaps])

    @pytest.mark.parametrize("gap", [float("nan"), -5.0], ids=["nan", "negative"])
    def test_rejects_bad_gap_by_index(self, gap):
        # The rule of serverless_latency, for each record the fit reads.
        records = synth_records(
            ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), 10.0, 60.0), 20, make_rng(4)
        )
        records[7] = (gap, 0.1)
        with pytest.raises(ValueError, match=r"record 7: inter-invocation time must be >= 0"):
            fit_serverless_regimes(records)

    @pytest.mark.parametrize("latency", [float("nan"), -1.0, float("inf")],
                             ids=["nan", "negative", "inf"])
    def test_rejects_bad_latency_by_index(self, latency):
        records = synth_records(
            ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), 10.0, 60.0), 20, make_rng(4)
        )
        records[7] = (records[7][0], latency)
        with pytest.raises(ValueError, match=r"record 7: latency must be finite and >= 0"):
            fit_serverless_regimes(records)

    def test_boundary_records_go_to_pure_regimes(self):
        rng = make_rng(4)
        model = ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), 10.0, 60.0)
        records = synth_records(model, 20, rng)
        records.append((10.0, 0.1))  # exactly at the warm threshold
        records.append((60.0, 1.0))  # exactly at the cold threshold
        fitted = fit_serverless_regimes(records)
        base = fit_serverless_regimes([r for r in records if r[0] not in (10.0, 60.0)])
        assert fitted.warm.n == base.warm.n + 1
        assert fitted.cold.n == base.cold.n + 1

    def test_empty_bucket_error(self):
        rng = make_rng(4)
        model = ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), 10.0, 60.0)
        records = [r for r in synth_records(model, 20, rng) if not (30.0 <= r[0] < 40.0)]
        with pytest.raises(InsufficientDataError, match="bucket 2"):
            fit_serverless_regimes(records)

    @pytest.mark.parametrize("width", [0.0, -5.0, float("nan"), float("inf"), 5e-324])
    def test_rejects_bad_bucket_width(self, width):
        records = synth_records(
            ServerlessModel.linear(Degenerate(0.1), Degenerate(1.0), 10.0, 60.0), 20, make_rng(4)
        )
        with pytest.raises(ValueError, match="bucket_width"):
            fit_serverless_regimes(records, bucket_width=width)

    def test_band_narrower_than_one_bucket_is_one_bucket(self):
        # Records are binned by BucketMixing's rule, whatever the band width.
        records = ([(5.0, 0.1)] * 15 + [(20.0, 1.0)] * 15
                   + [(10.0005, 0.1)] * 5 + [(10.0005, 1.0)] * 5)
        fitted = fit_serverless_regimes(records, thresholds=(10.0, 10.001), bucket_width=1e10)
        assert fitted.mixing.weights == (0.5,)

    def test_rejects_unbounded_thresholds(self):
        records = [(float(d), 0.1) for d in np.linspace(0, 90, 40)]
        with pytest.raises(ValueError, match="thresholds"):
            fit_serverless_regimes(records, thresholds=(10.0, float("inf")))

    def test_more_buckets_than_records_is_insufficient(self):
        # Some bucket would be empty; the error comes before the buckets exist.
        records = [(float(d), 0.1) for d in np.linspace(0, 90, 40)]
        with pytest.raises(InsufficientDataError, match="500000 band buckets for 40 records"):
            fit_serverless_regimes(records, bucket_width=1e-4)

    def test_bucket_mixing_conventions(self):
        mixing = BucketMixing(lo=10.0, hi=60.0, width=10.0, weights=(0.9, 0.7, 0.5, 0.3, 0.1))
        assert mixing(10.0) == 1.0
        assert mixing(60.0) == 0.0
        assert mixing(12.0) == 0.9
        assert mixing(59.9) == 0.1
