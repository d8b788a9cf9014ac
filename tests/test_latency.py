import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign.characterize import GRID_PROBS
from fogassign.latency import (
    _XI_MAX,
    _XI_MIN,
    Columns,
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
    _quantile_ratio,
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
# One distribution of each kind; the mixture nests a mixture.
EVERY_KIND = {
    "gev": TABLE_GEV,
    "uniform": Uniform(0.1, 0.6),
    "empirical": Empirical([0.2, 0.25, 0.25, 0.4, 0.9]),
    "degenerate": Degenerate(0.5),
    "mixture": Mixture(
        [Mixture([TABLE_GEV, Empirical([0.3, 0.7])], [0.4, 0.6]), Uniform(0.1, 0.6), Degenerate(0.2)],
        [0.5, 0.3, 0.2],
    ),
}


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

    @pytest.mark.parametrize("dist", [
        Empirical([1.0, 2.0, 3.0]),
        TABLE_GEV,
        Uniform(0.0, 1.0),
        Degenerate(0.5),
        Mixture([Uniform(0.0, 1.0), Degenerate(0.5)], [0.5, 0.5]),
    ], ids=["empirical", "gev", "uniform", "degenerate", "mixture"])
    def test_nan_rejected(self, dist):
        with pytest.raises(ValueError, match="NaN"):
            dist.cdf(math.nan)
        with pytest.raises(ValueError, match="NaN"):
            dist.cdf(np.array([0.5, math.nan]))
        assert dist.cdf(math.inf) == 1.0
        assert dist.cdf(-math.inf) == 0.0


# Independent reference: the mixture quantile as plain bisection, one CDF
# call per halving, stopping at a relative width of 1e-15.  The k-section
# evaluates the same CDF on a finer grid per step and stops at float
# resolution, so both find the same generalized inverse to within the
# bisection's stopping width.
def bisect_quantile(mix, p):
    comp_q = np.stack([c.quantile(p) for c in mix.components])
    lo = comp_q.min(axis=0)
    hi = comp_q.max(axis=0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = mix.cdf(mid) < p
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= 1e-15 * np.maximum(1.0, np.abs(hi))):
            break
    return hi


def _random_component(rng):
    kind = int(rng.integers(4))
    if kind == 0:
        lo = float(rng.uniform(0.0, 2.0))
        return Uniform(lo, lo + float(rng.uniform(0.01, 2.0)))
    if kind == 1:
        shape, scale = float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.005, 0.5))
        return Gev(shape, scale, scale / shape + float(rng.uniform(0.0, 1.0)))
    if kind == 2:
        return Degenerate(float(rng.uniform(0.0, 3.0)))
    return Empirical(rng.uniform(0.0, 3.0, int(rng.integers(1, 20))))


def _random_mixture(rng, component=_random_component):
    n = int(rng.integers(2, 5))
    return Mixture([component(rng) for _ in range(n)], rng.dirichlet(np.ones(n)))


class TestQuantile:
    def test_uniform_median(self):
        assert Uniform(0.3, 0.8).quantile(0.5) == pytest.approx(0.55, abs=1e-12)

    def test_gev_inverse_of_location_identity(self):
        assert TABLE_GEV.quantile(math.exp(-1)) == pytest.approx(0.48, abs=1e-12)

    def test_gev_upper_tail_saturates_without_overflow_warning(self):
        # A steep shape overflows the upper quantiles; the run treats
        # RuntimeWarning as an error, so this also checks none is raised.
        steep = Gev(shape=1000.0, scale=1.0, loc=1.0)
        assert steep.quantile(1.0 - 1e-14) == math.inf
        assert expect_transform(steep, Step(1.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_empirical_generalized_inverse(self):
        assert Empirical([1.0, 2.0, 3.0]).quantile(0.5) == 2.0
        d = Empirical([0.2, 0.4, 0.6, 0.8])
        assert d.quantile(0.5) == 0.4  # F(0.4) = 0.5 already
        assert d.quantile(0.51) == 0.6

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_domain_error(self, p):
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0).quantile(p)

    def test_mixture_bisection_matches_components(self):
        mix = Mixture([Uniform(0.0, 1.0), Uniform(0.0, 1.0)], [0.3, 0.7])
        for p in (0.1, 0.5, 0.9):
            assert mix.quantile(p) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("probs", ["scalar", "grid"])
    def test_matches_bisection_reference(self, probs):
        rng = np.random.default_rng(20261018)
        for _ in range(100 if probs == "scalar" else 30):
            mix = _random_mixture(rng)
            ps = rng.uniform(0.001, 0.999, 5) if probs == "scalar" else [GRID_PROBS]
            for p in ps:
                got = mix.quantile(p)
                want = bisect_quantile(mix, np.asarray(p))
                assert np.all(np.abs(got - want) <= 2e-15 * np.maximum(1.0, np.abs(want))), mix

    def test_quantile_lands_on_atoms(self):
        mix = Mixture([Degenerate(0.3), Empirical([0.5, 0.7, 0.9])], [0.4, 0.6])
        ps, atoms = [0.2, 0.4, 0.41, 0.6, 0.8], [0.3, 0.3, 0.5, 0.5, 0.7]
        assert [mix.quantile(p) for p in ps] == atoms
        assert mix.quantile(np.array(ps)).tolist() == atoms
        # Discrete mixtures: the answer is the first atom whose CDF reaches p.
        rng = np.random.default_rng(7)
        discrete = (lambda r: Degenerate(float(r.uniform(0.0, 3.0))),
                    lambda r: Empirical(r.uniform(0.0, 3.0, int(r.integers(1, 20)))))
        for _ in range(100):
            mix = _random_mixture(rng, lambda r: discrete[int(r.integers(2))](r))
            support = np.unique(np.concatenate([c.breakpoints() for c in mix.components]))
            cdf = mix.cdf(support)
            for p in (*rng.uniform(0.001, 0.999, 3), GRID_PROBS):
                want = support[np.argmax(cdf >= np.asarray(p)[..., None], axis=-1)]
                assert np.array_equal(mix.quantile(p), want), mix

    @pytest.mark.parametrize("n", [None, 2, 31])
    def test_quantile_exact_near_zero(self, n):
        # Answers next to 0 lie many floats below a bracket's width; the
        # search must still end on the smallest float whose CDF reaches p.
        mix = Mixture([Degenerate(0.0), Uniform(0.0, 1.0)], [0.5, 0.5])
        p = 0.25 if n is None else np.full(n, 0.25)
        assert np.all(mix.quantile(p) == 0.0)

    def test_saturated_component_quantile_is_finite(self):
        # The Gev quantile saturates at inf, but the mixture CDF reaches p
        # at a finite latency.
        mix = Mixture([Uniform(0.0, 1.0), Gev(1000.0, 1.0, 1.0)], [0.5, 0.5])
        assert mix.cdf(1e300) >= 0.7
        q = mix.quantile(0.7)
        assert math.isfinite(q)
        assert mix.cdf(q) >= 0.7 > mix.cdf(np.nextafter(q, -math.inf))
        assert mix.quantile(np.array([0.7, 0.7])).tolist() == [q, q]

    def test_quantile_is_smallest_float_reaching_p(self):
        # The answer depends neither on how many probabilities share the
        # call nor on the points per step.
        rng = np.random.default_rng(20261019)
        for _ in range(40):
            mix = _random_mixture(rng)
            ps = rng.uniform(0.001, 0.999, int(rng.integers(1, 70)))
            got = mix.quantile(ps)
            assert got.tolist() == [mix.quantile(p) for p in ps], mix
            assert np.all(mix.cdf(got) >= ps), mix
            assert np.all(mix.cdf(np.nextafter(got, -math.inf)) < ps), mix


# Reference: the mixture's composition sampler as a searchsorted bracket
# and boolean masks per component.  The sampler must match it bit for bit.
def masked_mixture_sample(mix, u):
    cum = np.concatenate([[0.0], np.cumsum(mix.weights)])
    cum[-1] = 1.0
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(mix.components) - 1)
    out = np.empty_like(u)
    for i, c in enumerate(mix.components):
        mask = idx == i
        if not mask.any():
            continue
        residual = np.clip((u[mask] - cum[i]) / mix.weights[i], 1e-15, 1.0 - 1e-16)
        sample = masked_mixture_sample if isinstance(c, Mixture) else type(c).quantile
        out[mask] = sample(c, residual)
    return out


def _column_dists():
    """Distributions of every kind for the group kernels, interleaved."""
    rng = np.random.default_rng(20261019)
    dists = [Gev(shape, float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.3, 1.0)))
             for shape in (0.5, 1.0, 2.0) for _ in range(20)]
    dists += [Gev(float(rng.uniform(0.05, 1.5)), float(rng.uniform(0.01, 0.3)),
                  float(rng.uniform(0.3, 1.0))) for _ in range(60)]
    dists += [_random_component(rng) for _ in range(80)]
    dists += [Empirical(rng.uniform(0.0, 2.0, n)) for n in (1, 2, 3, 3, 7, 25, 25, 400)]
    dists += [Degenerate(0.0), Empirical([0.0, 0.0, 0.3]), Uniform(0.0, 0.2)]
    dists += [_random_mixture(rng) for _ in range(40)]
    dists += [
        Mixture([Degenerate(0.0), Uniform(0.0, 1.0)], [0.5, 0.5]),
        Mixture([Uniform(0.0, 1.0), Gev(1000.0, 1.0, 1.0)], [0.5, 0.5]),
        Mixture([Gev(1.0, 0.1, 0.5), Empirical([0.0, 0.4])], [0.3, 0.7]),
        Mixture([Gev(2.0, 0.1, 0.5), Degenerate(0.0), Gev(0.5, 0.2, 0.4)], [0.2, 0.3, 0.5]),
        EVERY_KIND["mixture"],
        EVERY_KIND["mixture"],
    ]
    return [dists[i] for i in rng.permutation(len(dists))]


class TestColumns:
    """``Columns`` makes one formula call per group; every row must be
    == to its own distribution's methods."""

    DISTS = _column_dists()

    def test_groups_cover_each_kind(self):
        cols = Columns(self.DISTS)
        kinds = {kind for _, kind, _ in cols.groups}
        assert kinds == {Gev, Uniform, Empirical, Degenerate, Mixture}
        n = len(self.DISTS)
        covered = np.concatenate([np.arange(n)[rows] for rows, _, _ in cols.groups])
        assert sorted(covered) == list(range(n))
        # Gev of shape 1 keeps a scalar exponent in a group of its own.
        shape_one = [args for _, kind, args in cols.groups if kind is Gev and np.ndim(args[0]) == 0]
        assert len(shape_one) == 1 and shape_one[0][0] == 1.0

    def test_cdf_rows_match(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-0.5, 4.0, (len(self.DISTS), 80))
        t[:, 0] = 0.0
        t[:, 1] = [d.breakpoints()[0] for d in self.DISTS]
        t[:, 2] = np.inf
        got = Columns(self.DISTS)._eval_cdf(t)
        for row, d, g in zip(t, self.DISTS, got):
            assert np.array_equal(g, d.cdf(row)), d

    def test_quantile_rows_match(self):
        rng = np.random.default_rng(6)
        p = rng.uniform(1e-12, 1.0, (len(self.DISTS), 30))
        p[:, :10] = GRID_PROBS[:10]
        got = Columns(self.DISTS)._eval_quantile(p)
        for row, d, g in zip(p, self.DISTS, got):
            assert np.array_equal(g, d.quantile(row)), d

    @pytest.mark.parametrize("p", [0.5, 0.25, 1e-9, 0.999])
    def test_one_probability_matches_scalar_quantile(self, p):
        # A scalar probability takes numpy's scalar arithmetic in the bound
        # methods (C pow for a Gev quantile); the group call must too.
        cols = Columns(self.DISTS)
        got = cols.median() if p == 0.5 else cols._eval_quantile(p)
        assert got.tolist() == [d.quantile(p) for d in self.DISTS]

    def test_no_distributions(self):
        cols = Columns([])
        assert cols.median().shape == (0,)
        assert cols.groups == []


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

    @pytest.mark.parametrize("dist", EVERY_KIND.values(), ids=EVERY_KIND.keys())
    def test_sample_matches_clip_path(self, dist):
        # The uniforms used to be clamped by np.clip(u, 1e-15, None).
        transform = masked_mixture_sample if isinstance(dist, Mixture) else type(dist).quantile
        for seed in range(5):
            want = transform(dist, np.clip(make_rng(seed).random(2000), 1e-15, None))
            assert np.array_equal(dist.sample(make_rng(seed), 2000), want)

    @pytest.mark.parametrize("dist", EVERY_KIND.values(), ids=EVERY_KIND.keys())
    def test_from_uniform_block_matches_rows(self, dist):
        u = make_rng(17).random((6, 1000))
        u[:, 0] = 0.0  # clamped to 1e-15, as sample() does
        want = np.stack([dist.from_uniform(row.copy()) for row in u])
        assert np.array_equal(dist.from_uniform(u.copy()), want)
        # A strided block: one segment of each row of a wider buffer.
        wide = np.concatenate([u, u], axis=1)
        assert np.array_equal(dist.from_uniform(wide[:, 1000:]), want)

    def test_mixture_matches_masked_reference(self):
        rng = np.random.default_rng(20261019)
        mixes = [_random_mixture(rng) for _ in range(60)]
        # Zero weights (first, inner, last), and mixtures nested in mixtures.
        mixes += [
            Mixture([Uniform(0.0, 1.0), Degenerate(2.0), Uniform(3.0, 4.0)], [0.0, 0.5, 0.5]),
            Mixture([Uniform(0.0, 1.0), Degenerate(2.0), Uniform(3.0, 4.0)], [0.5, 0.0, 0.5]),
            Mixture([Uniform(0.0, 1.0), Degenerate(2.0), Uniform(3.0, 4.0)], [0.5, 0.5, 0.0]),
            Mixture([_random_mixture(rng), TABLE_GEV, _random_mixture(rng)], [0.3, 0.0, 0.7]),
            Mixture([Mixture([_random_mixture(rng), Degenerate(0.5)], [0.6, 0.4]),
                     Uniform(0.2, 0.9)], [0.45, 0.55]),
        ]
        for mix in mixes:
            u = np.clip(rng.random(2000), 1e-15, None)
            # Draws exactly on an interior cumulative weight take the upper
            # component; sample() never passes u >= 1.
            edges = np.cumsum(mix.weights)[:-1]
            edges = edges[edges < 1.0]
            u[:edges.size] = edges
            assert np.array_equal(mix.from_uniform(u.copy()), masked_mixture_sample(mix, u)), mix


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

    # A time value of 1 over the whole support scores exactly 1, as a point
    # mass does, however the quadrature weights round.
    @pytest.mark.parametrize("dist, f", [
        (Uniform(0.1, 0.6), Step(10.0)),
        (Gev(0.3, 0.1, 0.5), ExpDecay(1e-320)),
        (Degenerate(0.3), Step(10.0)),
    ], ids=["uniform-step", "gev-tiny-decay", "degenerate-step"])
    def test_value_one_everywhere_scores_exactly_one(self, dist, f):
        assert expect_transform(dist, f) == 1.0

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
# the distribution and integrated per panel by scipy's adaptive quad.
_REF_TAIL = 10.0 ** -np.arange(1, 15)
_REF_LADDER = np.concatenate([_REF_TAIL, np.linspace(0.02, 0.98, 49), 1.0 - _REF_TAIL])


def t_space_reference(dist, f):
    from scipy.integrate import quad

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


@pytest.mark.parametrize("pairs", [_inflight_pairs, _random_gev_pairs], ids=["inflight", "random-gev"])
def test_matches_t_space_reference(pairs):
    integrate = pytest.importorskip("scipy.integrate")
    with warnings.catch_warnings():
        # The 1e-15 target sits below roundoff on flat panels; quad says so
        # and still returns its best estimate.  The class is named here, not
        # in a mark, which pytest would resolve even where scipy is missing.
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        errors = [(abs(expect_transform(d, f) - t_space_reference(d, f)), d, f)
                  for d, f in pairs()]
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

    def test_shape_matches_brentq_and_every_fit_checks_out(self):
        brentq = pytest.importorskip("scipy.optimize").brentq
        # 2,000 seeded asymmetry ratios, ratios next to both ends of the
        # shape range, and the measured summary above, each fitted as the
        # triple (1, 0.9, 1 + 0.1 * ratio).  The shape is within 1e-13 of
        # brentq's wherever the ratio is at least 1e-6 above its shape->0
        # limit; nearer, the ratio's float values wobble and the two root
        # finders may settle on different crossings.
        lo, hi = _quantile_ratio(_XI_MIN), _quantile_ratio(_XI_MAX)
        targets = np.random.default_rng(16).uniform(lo, hi, 2000).tolist()
        targets += [math.nextafter(lo, hi), lo + 1e-9, hi - 1e-9, math.nextafter(hi, lo), hi]
        targets.append((0.41 - 0.34) / (0.34 - 0.31))
        for target in targets:
            p90 = 1.0 + 0.1 * target
            ratio = (p90 - 1.0) / (1.0 - 0.9)  # as the fit computes it
            if not lo < ratio <= hi:  # rounding pushed the triple out of range
                with pytest.raises(FitError):
                    gev_from_quantiles(1.0, 0.9, p90)
                continue
            shape = gev_from_quantiles(1.0, 0.9, p90).shape  # raises if its quantile check fails
            if ratio >= lo + 1e-6:
                root = brentq(lambda x: _quantile_ratio(x) - ratio, _XI_MIN, _XI_MAX,
                              xtol=1e-14, rtol=8.9e-16)
                assert abs(shape - root) <= 1e-13, target

    def test_rejects_bad_ordering(self):
        with pytest.raises(FitError):
            gev_from_quantiles(0.34, 0.35, 0.41)  # p10 >= median
        with pytest.raises(FitError):
            gev_from_quantiles(0.34, 0.31, 0.34)
        for p10 in (0.0, -0.1):
            with pytest.raises(FitError, match="p10 must be positive"):
                gev_from_quantiles(0.34, p10, 0.41)

    def test_rejects_left_skewed_triple(self):
        # lower spread exceeds upper spread: impossible for positive shape
        with pytest.raises(FitError, match="too symmetric"):
            gev_from_quantiles(4.40, 4.01, 4.77)


class TestValidation:
    def test_uniform_needs_lo_lt_hi(self):
        with pytest.raises(ValueError):
            Uniform(0.6, 0.6)
        with pytest.raises(ValueError, match="hi - lo must be finite"):
            Uniform(-1e308, 1e308)

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

    @pytest.mark.parametrize("components, weights", [
        ([Uniform(0, 1), Uniform(1, 2)], [[0.5], [0.5]]),
        ([Uniform(0, 1)], np.array(1.0)),
        ([Uniform(0, 1), Uniform(1, 2)], [[0.5], 0.5]),
        ([Uniform(0, 1), Uniform(1, 2)], ["0.5", "0.5"]),
        ([Uniform(0, 1), Uniform(1, 2)], [True, False]),
    ], ids=["nested", "scalar", "ragged", "strings", "bools"])
    def test_mixture_weights_are_one_flat_number_per_component(self, components, weights):
        with pytest.raises(ValueError, match="^mixture needs matching nonempty components and weights$"):
            Mixture(components, weights)

    @pytest.mark.parametrize("weights", [
        [1, 0], [0.25, 0.75], (0.25, 0.75), [np.float64(0.25), np.float64(0.75)],
        np.array([0.25, 0.75]), np.array([0.25, 0.75], dtype=np.float32),
    ], ids=["ints", "floats", "tuple", "numpy-floats", "array", "float32-array"])
    def test_mixture_takes_numbers_of_any_numeric_type(self, weights):
        mix = Mixture([Uniform(0, 1), Uniform(1, 2)], weights)
        assert mix.weights.dtype == np.float64
        assert mix.weights.tolist() == [float(w) for w in weights]

    def test_config_round_trip(self, tmp_path):
        nested = Mixture([Mixture([Uniform(0, 1), Degenerate(2)], [0.25, 0.75]), TABLE_GEV],
                         [0.5, 0.5])
        for dist in (TABLE_GEV, Uniform(0.1, 0.6), Degenerate(0.5),
                     Empirical([0.2, 0.4]), Mixture([Uniform(0, 1), Degenerate(2)], [0.5, 0.5]),
                     nested, Mixture([Empirical([0.3, 0.1, 0.2]), Uniform(0, 1)], [0.4, 0.6])):
            assert dist_from_config(dist.to_config()) == dist
        # Samples read from a file are written back inline.
        (tmp_path / "lat.csv").write_text("0.4\n0.2\n")
        read = dist_from_config({"kind": "empirical", "file": "lat.csv"}, tmp_path)
        assert read.to_config() == {"kind": "empirical", "samples": [0.2, 0.4]}
        assert dist_from_config(read.to_config()) == read == Empirical([0.2, 0.4])


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
