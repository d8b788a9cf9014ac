import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign.latency import Degenerate, Empirical, Gev, Mixture, Uniform
from fogassign.utility import (
    ExpDecay,
    OptionNotOffered,
    Step,
    TaskSpec,
    WaitReadyFirst,
    expected_utility,
    risk_probability,
)


def make_task(f, a=1.0, q=0.0, budget=1.0, node="z", option="x"):
    return TaskSpec(
        id="t", time_utility=f, intrinsic={(node, option): a},
        quality_floor=q, risk_budget=budget,
    )


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

    def test_vectorized(self):
        t = np.array([0.0, 0.35, 1.0])
        assert np.allclose(WaitReadyFirst(0.3, 0.4).value(t), [1.0, 0.5, 0.0])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ExpDecay(0.0)
        with pytest.raises(ValueError):
            WaitReadyFirst(0.4, 0.4)
        for bad in (lambda: Step(float("nan")), lambda: Step(-0.1),
                    lambda: ExpDecay(float("inf")), lambda: WaitReadyFirst(0.1, float("inf"))):
            with pytest.raises(ValueError):
                bad()


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
