import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fogassign.latency import (
    Degenerate,
    Empirical,
    FitError,
    Gev,
    Mixture,
    Uniform,
    dist_from_config,
    expect_transform,
    gev_from_quantiles,
    make_rng,
)
from fogassign.reproduce import (
    INFLIGHT_LOCAL_DIST,
    INFLIGHT_ROWS,
    INFLIGHT_TASKS,
    _cloud_dist_for_row,
)
from fogassign.utility import ExpDecay, Step, WaitReadyFirst

from conftest import ks_critical

TABLE_GEV = Gev(shape=0.34, scale=0.04, loc=0.48)


class TestCdf:
    def test_gev_at_location_is_exp_minus_one(self):
        assert TABLE_GEV.cdf(0.48) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_uniform_midpoint(self):
        assert Uniform(0.1, 0.6).cdf(0.35) == pytest.approx(0.5, abs=1e-12)

    def test_empirical_step(self):
        d = Empirical([0.2, 0.4, 0.6, 0.8])
        assert d.cdf(0.5) == 0.5
        assert d.cdf(0.4) == 0.5  # right-continuous: jump included
        assert d.cdf(0.1) == 0.0
        assert d.cdf(1.0) == 1.0

    def test_gev_zero_below_support(self):
        lb = TABLE_GEV.support_lo()
        assert TABLE_GEV.cdf(lb - 1e-9) == 0.0
        assert TABLE_GEV.cdf(lb - 10.0) == 0.0

    def test_degenerate(self):
        d = Degenerate(0.5)
        assert d.cdf(0.499) == 0.0
        assert d.cdf(0.5) == 1.0

    def test_vectorized(self):
        t = np.linspace(0, 1, 11)
        out = Uniform(0.0, 1.0).cdf(t)
        assert np.allclose(out, t)


class TestQuantile:
    def test_uniform_median(self):
        assert Uniform(0.3, 0.8).quantile(0.5) == pytest.approx(0.55, abs=1e-12)

    def test_gev_inverse_of_location_identity(self):
        assert TABLE_GEV.quantile(math.exp(-1)) == pytest.approx(0.48, abs=1e-12)

    def test_empirical_generalized_inverse(self):
        assert Empirical([1.0, 2.0, 3.0]).quantile(0.5) == 2.0
        d = Empirical([0.2, 0.4, 0.6, 0.8])
        assert d.quantile(0.5) == 0.4  # F(0.4) = 0.5 already
        assert d.quantile(0.51) == 0.6

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0).quantile(p)

    def test_mixture_bisection_matches_components(self):
        mix = Mixture([Uniform(0.0, 1.0), Uniform(0.0, 1.0)], [0.3, 0.7])
        for p in (0.1, 0.5, 0.9):
            assert mix.quantile(p) == pytest.approx(p, abs=1e-9)


class TestSample:
    def test_degenerate_point_mass(self, rng):
        assert Degenerate(0.5).sample(rng, 3).tolist() == [0.5, 0.5, 0.5]

    def test_uniform_mean_fixed_seed(self):
        draws = Uniform(0.0, 1.0).sample(make_rng(20260810), 10_000)
        assert 0.49 <= draws.mean() <= 0.51

    def test_same_seed_same_stream(self):
        a = TABLE_GEV.sample(make_rng(7), 100)
        b = TABLE_GEV.sample(make_rng(7), 100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "dist",
        [
            TABLE_GEV,
            Uniform(0.1, 0.6),
            Mixture([Uniform(0.1, 0.4), TABLE_GEV], [0.35, 0.65]),
        ],
        ids=["gev", "uniform", "mixture"],
    )
    def test_sampler_ks_fidelity(self, dist):
        n = 5000
        draws = np.sort(dist.sample(make_rng(99), n))
        f = dist.cdf(draws)
        d_stat = max(
            np.max(np.arange(1, n + 1) / n - f),
            np.max(f - np.arange(0, n) / n),
        )
        assert d_stat < ks_critical(n)

    def test_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            Uniform(0, 1).sample(rng, 0)


class TestExpectTransform:
    def test_step_returns_cdf_at_step(self):
        val = expect_transform(Uniform(0.1, 0.6), Step(0.35))
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_uniform_wrf_closed_form(self):
        # flat on [0.1, 0.3], ramp to zero on [0.3, 0.4]:
        # (0.2 + 0.1/2) / 0.5 = 0.5
        val = expect_transform(Uniform(0.1, 0.6), WaitReadyFirst(0.3, 0.4))
        assert val == pytest.approx(0.5, abs=1e-9)

    def test_uniform_wrf_all_in_ramp(self):
        # ramp over [0.3, 0.9] against U(0.3, 0.8): 1 - 0.25/0.6
        val = expect_transform(Uniform(0.3, 0.8), WaitReadyFirst(0.3, 0.9))
        assert val == pytest.approx(1 - 0.25 / 0.6, abs=1e-9)

    def test_empirical_exact_average(self):
        d = Empirical([0.1, 0.2, 0.7])
        assert expect_transform(d, Step(0.5)) == pytest.approx(2 / 3, abs=1e-15)

    def test_degenerate_is_pointwise(self):
        assert expect_transform(Degenerate(0.5), ExpDecay(1.0)) == pytest.approx(math.exp(-0.5))

    def test_mixture_is_weighted_sum(self):
        f = ExpDecay(2.0)
        u1, u2 = Uniform(0.0, 0.5), Uniform(0.5, 1.5)
        mix = Mixture([u1, u2], [0.25, 0.75])
        want = 0.25 * expect_transform(u1, f) + 0.75 * expect_transform(u2, f)
        assert expect_transform(mix, f) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize(
        "dist",
        [TABLE_GEV, Uniform(0.1, 0.6), Mixture([Uniform(0.2, 0.5), TABLE_GEV], [0.4, 0.6])],
        ids=["gev", "uniform", "mixture"],
    )
    def test_against_monte_carlo(self, dist):
        f = WaitReadyFirst(0.3, 0.8)
        analytic = expect_transform(dist, f)
        draws = dist.sample(make_rng(5), 100_000)
        assert analytic == pytest.approx(float(f.value(draws).mean()), abs=0.005)


# Independent reference: E[f(T)] integrated in latency rather than in s.
# A step gives F(tv), a ramp the mean of F over [te, ts], and exp(-kt) the
# integral of F(t) k e^(-kt) over [0, inf); each is split at quantiles of
# the distribution and integrated per panel by adaptive quad.
_REF_TAIL = 10.0 ** -np.arange(1, 15)
_REF_LADDER = np.concatenate([_REF_TAIL, np.linspace(0.02, 0.98, 49), 1.0 - _REF_TAIL])


def t_space_reference(dist, f):
    if isinstance(f, Step):
        return dist.cdf(f.tv)
    if isinstance(f, WaitReadyFirst):
        lo, hi = f.te, f.ts
        integrand = lambda t: dist.cdf(t) / (f.ts - f.te)
    else:
        lo, hi = 0.0, math.inf
        integrand = lambda t: dist.cdf(t) * f.k * math.exp(-f.k * t)
    cuts = np.concatenate([dist.breakpoints(), dist.quantile(_REF_LADDER)])
    edges = [lo, *np.unique(cuts[(cuts > lo) & (cuts < hi)]), hi]
    return sum(
        quad(integrand, a, b, epsabs=1e-15, epsrel=0.0, limit=200)[0]
        for a, b in zip(edges, edges[1:])
    )


def _inflight_pairs():
    dists = [INFLIGHT_LOCAL_DIST] + [_cloud_dist_for_row(*row[1:])[0] for row in INFLIGHT_ROWS]
    return [
        (d, WaitReadyFirst(te=0.5, ts=0.5 + 0.2 * j))
        for d in dists
        for j in range(1, INFLIGHT_TASKS + 1)
    ]


def _random_gev_pairs(n=300):
    rng = make_rng(20261017)
    pairs = []
    for i in range(n):
        shape = float(rng.uniform(0.1, 0.8))
        scale = float(rng.uniform(0.01, 0.2))
        dist = Gev(shape=shape, scale=scale, loc=scale / shape + float(rng.uniform(0.0, 1.0)))
        if i % 3 == 0:
            f = Step(tv=float(rng.uniform(0.1, 1.5)))
        elif i % 3 == 1:
            f = ExpDecay(k=float(rng.uniform(0.3, 3.0)))
        else:
            te = float(rng.uniform(0.05, 0.8))
            f = WaitReadyFirst(te=te, ts=te + float(rng.uniform(0.1, 1.0)))
        pairs.append((dist, f))
    return pairs


# The 1e-15 target sits below roundoff on flat panels; quad says so and
# still returns its best estimate.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("pairs", [_inflight_pairs, _random_gev_pairs], ids=["inflight", "random-gev"])
def test_matches_t_space_reference(pairs):
    errors = [(abs(expect_transform(d, f) - t_space_reference(d, f)), d, f) for d, f in pairs()]
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] <= 1e-12, worst


class TestGevFromQuantiles:
    def test_round_trip_recovers_parameters(self):
        m, p10, p90 = (TABLE_GEV.quantile(p) for p in (0.5, 0.1, 0.9))
        fitted = gev_from_quantiles(m, p10, p90)
        assert fitted.shape == pytest.approx(0.34, abs=1e-4)
        assert fitted.scale == pytest.approx(0.04, abs=1e-4)
        assert fitted.loc == pytest.approx(0.48, abs=1e-4)

    def test_matches_measured_summary(self):
        # campus-to-nearest-region summary: m=0.34, p10=0.31, p90=0.41
        fitted = gev_from_quantiles(0.34, 0.31, 0.41)
        assert fitted.quantile(0.5) == pytest.approx(0.34, rel=1e-6)
        assert fitted.quantile(0.1) == pytest.approx(0.31, rel=1e-6)
        assert fitted.quantile(0.9) == pytest.approx(0.41, rel=1e-6)
        assert 0.0 < fitted.shape <= 2.0

    def test_rejects_bad_ordering(self):
        with pytest.raises(FitError):
            gev_from_quantiles(0.34, 0.35, 0.41)  # p10 >= median
        with pytest.raises(FitError):
            gev_from_quantiles(0.34, 0.31, 0.34)

    def test_rejects_left_skewed_triple(self):
        # lower spread exceeds upper spread: impossible for positive shape
        with pytest.raises(FitError, match="too symmetric"):
            gev_from_quantiles(4.40, 4.01, 4.77)


class TestValidation:
    def test_uniform_needs_lo_lt_hi(self):
        with pytest.raises(ValueError):
            Uniform(0.6, 0.6)

    def test_gev_positive_shape_and_scale(self):
        with pytest.raises(ValueError):
            Gev(shape=0.0, scale=0.1, loc=0.0)
        with pytest.raises(ValueError):
            Gev(shape=0.3, scale=0.0, loc=0.0)

    def test_empirical_needs_finite_nonneg(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([0.1, float("nan")])
        with pytest.raises(ValueError):
            Empirical([-0.1, 0.2])

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Mixture([Uniform(0, 1), Uniform(1, 2)], [0.5, 0.4])
        with pytest.raises(ValueError):
            Mixture([Uniform(0, 1)], [-1.0])

    def test_config_round_trip(self):
        for dist in (TABLE_GEV, Uniform(0.1, 0.6), Degenerate(0.5),
                     Empirical([0.2, 0.4]), Mixture([Uniform(0, 1), Degenerate(2)], [0.5, 0.5])):
            assert dist_from_config(dist.to_config()) == dist


# -- distribution-level properties ------------------------------------------

dist_strategy = st.one_of(
    st.builds(
        lambda lo, w: Uniform(lo, lo + w),
        st.floats(0.0, 2.0),
        st.floats(0.01, 2.0),
    ),
    st.builds(
        lambda s, sc, loc_off: Gev(s, sc, sc / s + loc_off),
        st.floats(0.05, 1.5),
        st.floats(0.005, 0.5),
        st.floats(0.0, 1.0),
    ),
    st.builds(Degenerate, st.floats(0.0, 3.0)),
    st.builds(
        lambda xs: Empirical(np.asarray(xs)),
        st.lists(st.floats(0.0, 3.0), min_size=1, max_size=20),
    ),
    st.builds(
        lambda lo, w, lo2, w2, mix: Mixture(
            [Uniform(lo, lo + w), Uniform(lo2, lo2 + w2)], [mix, 1.0 - mix]
        ),
        st.floats(0.0, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.5, 2.0),
        st.floats(0.01, 1.0),
        st.floats(0.05, 0.95),
    ),
)


@given(dist=dist_strategy)
@settings(max_examples=150, deadline=None)
def test_cdf_monotone_with_unit_limits(dist):
    lo = dist.support_lo()
    grid = np.linspace(lo - 0.5, lo + 6.0, 1000)
    vals = dist.cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert dist.cdf(lo - 1.0) == pytest.approx(0.0, abs=1e-12)
    assert dist.cdf(float("inf")) == 1.0
    assert dist.cdf(lo + 1e9) > 0.99  # heavy tails approach 1 slowly


@given(
    dist=st.one_of(
        st.builds(lambda lo, w: Uniform(lo, lo + w), st.floats(0.0, 2.0), st.floats(0.01, 2.0)),
        st.builds(
            lambda s, sc, off: Gev(s, sc, sc / s + off),
            st.floats(0.05, 1.5),
            st.floats(0.005, 0.5),
            st.floats(0.0, 1.0),
        ),
    ),
    p=st.floats(0.01, 0.99),
)
@settings(max_examples=200, deadline=None)
def test_quantile_cdf_consistency_continuous(dist, p):
    assert abs(dist.cdf(dist.quantile(p)) - p) < 1e-9


@given(
    w=st.floats(0.0, 1.0),
    t=st.floats(-1.0, 4.0),
)
@settings(max_examples=100, deadline=None)
def test_mixture_linearity_pointwise(w, t):
    c1, c2 = Uniform(0.0, 1.0), Empirical([0.5, 1.5, 2.5])
    mix = Mixture([c1, c2], [w, 1.0 - w])
    assert mix.cdf(t) == pytest.approx(w * c1.cdf(t) + (1 - w) * c2.cdf(t), abs=1e-12)


def test_quantile_cdf_consistency_fixed_grid():
    ps = np.arange(0.01, 1.0, 0.01)
    for dist in (TABLE_GEV, Uniform(0.3, 0.8),
                 Mixture([Uniform(0.1, 0.5), Uniform(0.4, 1.2)], [0.5, 0.5])):
        err = np.abs(dist.cdf(dist.quantile(ps)) - ps)
        assert err.max() < 1e-9
