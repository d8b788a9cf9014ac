import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign import latency, utility
from fogassign.latency import (
    Columns,
    Degenerate,
    Empirical,
    Gev,
    LatencyDistribution,
    Mixture,
    Uniform,
    dist_from_config,
)
from fogassign.utility import (
    ExpDecay,
    OptionNotOffered,
    Step,
    TaskSpec,
    TimeUtility,
    WaitReadyFirst,
    expected_utility,
    risk_probability,
    utility_from_config,
)


def make_task(f, a=1.0, q=0.0, budget=1.0, node="z", option="x"):
    return TaskSpec(
        id="t", time_utility=f, intrinsic={(node, option): a},
        quality_floor=q, risk_budget=budget,
    )


# Every parametric kind with its config record as scenario files spell it:
# the kind first, then its fields in constructor order.
PARAMETRIC_RECORDS = [
    (Gev(0.3, 0.1, 0.5), '{"kind": "gev", "shape": 0.3, "scale": 0.1, "loc": 0.5}'),
    (Uniform(0.1, 0.6), '{"kind": "uniform", "lo": 0.1, "hi": 0.6}'),
    (Degenerate(0.25), '{"kind": "degenerate", "value": 0.25}'),
    (Step(0.5), '{"kind": "step", "tv": 0.5}'),
    (ExpDecay(2.0), '{"kind": "exp", "k": 2.0}'),
    (WaitReadyFirst(0.3, 0.4), '{"kind": "wrf", "te": 0.3, "ts": 0.4}'),
]


@pytest.mark.parametrize("model, text", PARAMETRIC_RECORDS,
                         ids=[type(m).__name__ for m, _ in PARAMETRIC_RECORDS])
def test_parametric_config_round_trip(model, text):
    assert json.dumps(model.to_config()) == text
    read = utility_from_config if isinstance(model, TimeUtility) else dist_from_config
    assert read(json.loads(text)) == model


def test_kind_tables_list_every_kind():
    # Each module's KINDS is the reader's only dispatch: a kind left out of
    # it could be written but never read back.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    for module, base in ((latency, LatencyDistribution), (utility, TimeUtility)):
        kinds = {c for c in subclasses(base) if c.__module__ == module.__name__}
        assert {c.kind: c for c in kinds} == module.KINDS
    # Every parametric kind has its round trip above.
    parametric = [c.kind for c in {**latency.KINDS, **utility.KINDS}.values() if c._params]
    assert sorted(parametric) == sorted(model.kind for model, _ in PARAMETRIC_RECORDS)


class TestEval:
    def test_step_boundary_inclusive(self):
        assert Step(0.5).value(0.5) == 1.0
        assert Step(0.5).value(0.5000001) == 0.0

    def test_wrf_ramp_midpoint(self):
        assert WaitReadyFirst(0.3, 0.4).value(0.35) == pytest.approx(0.5)

    def test_wrf_flat_and_zero_regions(self):
        f = WaitReadyFirst(0.3, 0.4)
        assert f.value(0.0) == 1.0
        assert f.value(0.3) == 1.0
        assert f.value(0.4) == 0.0
        assert f.value(2.0) == 0.0

    def test_exp_decay_at_zero(self):
        assert ExpDecay(1.0).value(0.0) == 1.0

    @pytest.mark.parametrize("f", [ExpDecay(156.0), WaitReadyFirst(1000.0, 1000.001)],
                             ids=["exp", "wrf"])
    def test_huge_latency_is_worth_zero_without_overflow_warning(self, f):
        # A steep latency model puts quantile-ladder edges near the float
        # maximum; the run treats RuntimeWarning as an error.
        assert f.value(1e307) == 0.0
        assert f.value(np.array([0.0, 1e307])).tolist() == [1.0, 0.0]

    def test_vectorized(self):
        t = np.array([0.0, 0.35, 1.0])
        assert np.allclose(WaitReadyFirst(0.3, 0.4).value(t), [1.0, 0.5, 0.0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExpDecay(0.0)
        with pytest.raises(ValueError):
            WaitReadyFirst(0.4, 0.4)
        for bad in (lambda: Step(float("nan")), lambda: Step(-0.1),
                    lambda: ExpDecay(float("inf")), lambda: WaitReadyFirst(0.1, float("inf")),
                    lambda: WaitReadyFirst(-1e308, 1e308), lambda: WaitReadyFirst(-0.5, 0.4)):
            with pytest.raises(ValueError):
                bad()


# The families' formulas before they took parameter columns, kept as the
# reference that value() must match bit for bit.
def reference_value(f, t):
    if isinstance(f, Step):
        return np.where(t <= f.tv, 1.0, 0.0)
    with np.errstate(over="ignore"):
        if isinstance(f, ExpDecay):
            return np.exp(-f.k * t)
        return np.clip((f.ts - np.maximum(t, f.te)) / (f.ts - f.te), 0.0, 1.0)


# Families interleaved, so no family's tasks are contiguous.
MIXED = [WaitReadyFirst(0.3, 0.4), Step(0.45), ExpDecay(3.0), WaitReadyFirst(0.2, 0.9),
         Step(0.1), ExpDecay(0.5), WaitReadyFirst(0.35, 0.36)]
# Every te, ts and tv of MIXED exactly, times below each te, 0 and inf.
SPECIAL_TIMES = [0.0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.36, 0.4, 0.45, 0.9, np.inf]


def time_block(tasks, seed=0):
    """(runs, node, task, sample) latencies: SPECIAL_TIMES, then random ones."""
    t = np.random.default_rng(seed).uniform(0.0, 1.5, (2, 2, tasks, 64))
    t[..., :len(SPECIAL_TIMES)] = SPECIAL_TIMES
    return t


class TestFormulas:
    @pytest.mark.parametrize("f", MIXED, ids=repr)
    def test_value_matches_reference(self, f):
        t = time_block(1).ravel()
        assert np.array_equal(f.value(t), reference_value(f, t))
        for x in SPECIAL_TIMES:
            v = f.value(x)
            assert type(v) is float
            assert v == float(reference_value(f, np.float64(x)))

    @pytest.mark.parametrize("order", [
        range(7),                  # interleaved
        [0, 3, 6, 1, 4, 2, 5],     # each family contiguous
        [0, 1, 4, 2, 5, 3, 6],     # the steps contiguous, the others not
    ], ids=["interleaved", "grouped", "one-grouped"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_columns_match_per_task_values(self, order, in_place):
        utilities = [MIXED[i] for i in order]
        t = time_block(len(utilities))
        want = [f.value(t[..., i, :]) for i, f in enumerate(utilities)]
        out = t if in_place else np.empty_like(t)
        got = Columns(utilities).value(t, out=out)
        assert got is out
        for i in range(len(utilities)):
            assert np.array_equal(got[..., i, :], want[i]), utilities[i]

    @pytest.mark.parametrize("order", [
        range(7),                  # interleaved
        [0, 3, 6, 1, 4, 2, 5],     # each family contiguous
        [0, 1, 4, 2, 5, 3, 6],     # the steps contiguous, the others not
    ], ids=["interleaved", "grouped", "one-grouped"])
    def test_columns_match_per_task_budgets(self, order):
        utilities = [MIXED[i] for i in order]
        q = np.broadcast_to([0.0, 1e-9, 0.3, 1.0], (2, len(utilities), 4))
        got = Columns(utilities).latency_budget(q)
        for i, f in enumerate(utilities):
            assert np.array_equal(got[:, i], f.latency_budget(q[:, i])), f
            assert (got[0, i, 0] == np.inf) == isinstance(f, ExpDecay)


def four_pass_ramp(t, te, ts):
    """The ramp as four passes, max(t, te), ts - ., / (ts - te), max(., 0):
    the three-pass formula must give the same bits."""
    out = np.maximum(t, te)
    with np.errstate(over="ignore"):
        out = np.subtract(ts, out)
        out = np.divide(out, ts - te)
    return np.maximum(out, 0.0)


def ramp_grid(pairs, seed=0):
    """``pairs`` (te, ts) pairs at magnitudes 1e-300 to 1e300, te = 0 and a
    subnormal ts among them, and for each a row of times: te and ts and one
    ulp either side of each, 0, 1e308, one between te and ts and one at
    random."""
    rng = np.random.default_rng(seed)
    lo, hi = np.sort(10.0 ** rng.uniform(-300, 300, (2, pairs)), axis=0)
    hi[lo == hi] *= 2.0
    lo[:3], hi[:3] = 0.0, (5e-324, 1.0, 1e300)
    t = [lo, np.nextafter(lo, -np.inf), np.nextafter(lo, np.inf),
         hi, np.nextafter(hi, -np.inf), np.nextafter(hi, np.inf),
         np.zeros(pairs), np.full(pairs, 1e308), rng.uniform(lo, hi),
         10.0 ** rng.uniform(-300, 300, pairs)]
    return lo, hi, np.stack(t, axis=1)


def test_ramp_matches_four_pass_formula_bit_for_bit():
    te, ts, t = ramp_grid(10_000)
    want = four_pass_ramp(t, te[:, None], ts[:, None]).view(np.uint64)
    ramps = [WaitReadyFirst(a, b) for a, b in zip(te.tolist(), ts.tolist())]
    got = Columns(ramps).value(t, out=np.empty_like(t))
    assert np.array_equal(got.view(np.uint64), want)
    in_place = t.copy()
    Columns(ramps).value(in_place, out=in_place)
    assert np.array_equal(in_place.view(np.uint64), want)
    for i in range(0, len(ramps), 50):
        assert np.array_equal(ramps[i].value(t[i]).view(np.uint64), want[i]), ramps[i]
        for j, x in enumerate(t[i].tolist()):
            v = ramps[i].value(x)
            assert type(v) is float
            assert np.float64(v).view(np.uint64) == want[i, j], (ramps[i], x)


class TestOneValue:
    """``simulate`` scores a point mass's reps equal completion times from
    one evaluation, so one copy must score like each of many."""

    @pytest.mark.parametrize("f, breakpoints", [
        (Step(0.45), (0.45,)),
        (ExpDecay(2.5), ()),
        (WaitReadyFirst(0.3, 0.4), (0.3, 0.4)),
    ], ids=["step", "exp", "wrf"])
    @pytest.mark.parametrize("reps", [1, 2, 7, 16, 10_000])
    def test_one_copy_scores_like_every_copy(self, f, breakpoints, reps):
        points = [0.0, 0.37, 1e308]
        for b in breakpoints:
            points += [np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
        for v in points:
            one = f.value(np.full(1, v))[0]
            assert np.all(f.value(np.full(reps, v)) == one), v


class TestLatencyBudget:
    def test_step(self):
        assert Step(0.5).latency_budget(0.7) == 0.5
        assert Step(0.5).latency_budget(1.0) == 0.5

    def test_exp(self):
        f = ExpDecay(2.0)
        assert f.latency_budget(1.0) == 0.0
        t = f.latency_budget(0.3)
        assert f.value(t) == pytest.approx(0.3)

    def test_wrf(self):
        f = WaitReadyFirst(0.3, 0.4)
        assert f.latency_budget(1.0) == pytest.approx(0.3)
        assert f.latency_budget(0.5) == pytest.approx(0.35)

    @pytest.mark.parametrize("f", [Step(0.5), ExpDecay(2.0), WaitReadyFirst(0.3, 0.4)],
                             ids=["step", "exp", "wrf"])
    def test_accepts_arrays(self, f):
        s = np.array([0.0, 0.5, 1.0])
        budget = f.latency_budget(s)
        assert budget.shape == s.shape
        assert np.all(np.diff(budget) <= 0.0)

    def test_exp_budget_at_zero_is_infinite(self):
        # s = 0 bounds the layer-cake integral; a node there must give F = 1
        # without a RuntimeWarning (an error under the test configuration).
        budget = ExpDecay(2.0).latency_budget(np.array([0.0]))
        assert budget[0] == np.inf
        assert Gev(0.3, 0.1, 0.5).cdf(budget)[0] == 1.0


class TestRisk:
    def test_step_uniform(self):
        assert risk_probability(Step(0.5), Uniform(0.0, 1.0), 0.5) == pytest.approx(0.5)

    def test_zero_floor_is_riskless(self):
        for f in (Step(0.5), ExpDecay(1.0), WaitReadyFirst(0.3, 0.4)):
            assert risk_probability(f, Gev(0.34, 0.04, 0.48), 0.0) == 0.0

    def test_deterministic_miss(self):
        # latency 0.35 gives value 0.5 < 0.6 with certainty
        assert risk_probability(WaitReadyFirst(0.3, 0.4), Degenerate(0.35), 0.6) == 1.0

    def test_invalid_floor(self):
        with pytest.raises(ValueError):
            risk_probability(Step(0.5), Uniform(0, 1), 1.5)

    @given(q1=st.floats(0.0, 1.0), q2=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_floor(self, q1, q2):
        lo, hi = sorted((q1, q2))
        dist = Uniform(0.1, 0.9)
        f = WaitReadyFirst(0.2, 0.8)
        assert risk_probability(f, dist, lo) <= risk_probability(f, dist, hi) + 1e-12


class TestExpectedUtility:
    def test_gateway_case(self):
        rep = expected_utility(
            make_task(WaitReadyFirst(0.3, 0.4), a=0.6), "z", "x", Uniform(0.1, 0.6)
        )
        assert rep.utility == pytest.approx(0.30, abs=1e-9)
        assert rep.feasible

    def test_cloud_case(self):
        rep = expected_utility(
            make_task(WaitReadyFirst(0.3, 0.9), a=0.9), "z", "x", Uniform(0.3, 0.8)
        )
        assert rep.utility == pytest.approx(0.525, abs=1e-9)

    @pytest.mark.parametrize(
        "dist",
        [
            Uniform(0.2, 0.9),
            Gev(0.34, 0.04, 0.48),
            Empirical([0.3, 0.45, 0.5, 0.62]),
            Degenerate(0.48),
            Mixture([Uniform(0.2, 0.6), Degenerate(0.55)], [0.7, 0.3]),
        ],
        ids=["uniform", "gev", "empirical", "degenerate", "mixture"],
    )
    def test_step_equals_scaled_cdf(self, dist):
        a, tv = 0.85, 0.5
        rep = expected_utility(make_task(Step(tv), a=a, q=0.5), "z", "x", dist)
        assert rep.utility == pytest.approx(a * dist.cdf(tv), abs=1e-9)
        assert rep.feasible  # budget 1 never binds

    def test_step_deep_in_gev_lower_tail(self):
        # F(tv) is about 1.3e-18: tiny but positive, so the option is scored.
        dist, f, a = Gev(0.6518, 0.1896, 0.6627), Step(0.3976), 0.7
        rep = expected_utility(make_task(f, a=a), "z", "x", dist)
        assert 1e-19 < dist.cdf(f.tv) < 1e-17
        assert rep.utility == pytest.approx(a * dist.cdf(f.tv), rel=1e-9)

    def test_infeasible_scores_zero(self):
        task = make_task(Step(0.5), a=0.9, q=0.5, budget=0.1)
        rep = expected_utility(task, "z", "x", Uniform(0.0, 1.0))
        assert rep.risk == pytest.approx(0.5)
        assert not rep.feasible
        assert rep.utility == 0.0

    def test_missing_pair_raises(self):
        with pytest.raises(OptionNotOffered):
            expected_utility(make_task(Step(0.5)), "other", "x", Uniform(0, 1))

    def test_utility_bounded_by_intrinsic(self):
        for a in (0.05, 0.4, 1.0):
            rep = expected_utility(
                make_task(ExpDecay(0.7), a=a), "z", "x", Gev(0.3, 0.1, 0.5)
            )
            assert 0.0 <= rep.utility <= a + 1e-12


# Valid records whose formulas overflow on the way to a right answer: each
# pair's time value is 1 at every latency the distribution can take.
EXTREME_PAIRS = [
    (Step(1e308), Uniform(0.1, 0.6)),
    (WaitReadyFirst(0.3, 0.4), Uniform(0.0, 5e-324)),
    (ExpDecay(1e-320), Uniform(0.1, 0.6)),
    (ExpDecay(1e-320), Gev(0.3, 0.1, 0.5)),
    (WaitReadyFirst(0.0, 1e308), Uniform(0.1, 0.6)),
]


@pytest.mark.parametrize("f, dist", EXTREME_PAIRS,
                         ids=["huge-step", "tiny-uniform", "tiny-exp-uniform", "tiny-exp-gev",
                              "huge-wrf"])
def test_extreme_parameters_score_without_warnings(f, dist):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = expected_utility(make_task(f, a=0.6, q=0.5, budget=0.5), "z", "x", dist)
    assert (rep.risk, rep.feasible) == (0.0, True)
    assert rep.utility == pytest.approx(0.6, abs=1e-12)


class TestDominance:
    """A stochastically faster node is never worse, for any family."""

    PAIRS = [
        (Uniform(0.1, 0.6), Uniform(0.3, 0.8)),
        (Gev(0.34, 0.04, 0.40), Gev(0.34, 0.04, 0.48)),
        (Degenerate(0.2), Degenerate(0.7)),
        (Empirical([0.1, 0.2, 0.3]), Empirical([0.2, 0.4, 0.6])),
    ]
    FAMILIES = [Step(0.45), ExpDecay(1.3), WaitReadyFirst(0.25, 0.75)]

    @pytest.mark.parametrize("fast,slow", PAIRS)
    @pytest.mark.parametrize("f", FAMILIES)
    def test_dominance(self, fast, slow, f):
        grid = np.linspace(0.0, 2.0, 500)
        assert np.all(fast.cdf(grid) >= slow.cdf(grid) - 1e-12)  # fast dominates
        u_fast = expected_utility(make_task(f, a=0.8), "z", "x", fast).utility
        u_slow = expected_utility(make_task(f, a=0.8), "z", "x", slow).utility
        assert u_fast >= u_slow - 1e-9


def test_taskspec_validation():
    with pytest.raises(ValueError):
        make_task(Step(0.5), a=1.2)
    with pytest.raises(ValueError):
        TaskSpec(id="t", time_utility=Step(0.5), quality_floor=-0.1)
    with pytest.raises(ValueError):
        TaskSpec(id="t", time_utility=Step(0.5), risk_budget=1.01)


@given(t=st.floats(0.0, 10.0))
@settings(max_examples=100, deadline=None)
def test_families_stay_in_unit_range_and_decrease(t):
    for f in (Step(0.9), ExpDecay(0.8), WaitReadyFirst(0.4, 1.2)):
        v = f.value(t)
        assert 0.0 <= v <= 1.0
        assert f.value(t + 0.1) <= v + 1e-12
