import copy
import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fogassign.latency import Degenerate, Uniform, make_rng
from fogassign.scenario import NodeSpec, Scenario, bundled_scenario, load_scenario
from fogassign.simulate import (
    BASELINES,
    SimulationResult,
    emit,
    round9,
    run_baseline,
    simulate,
)
from fogassign.solver import (
    AssignmentPlan,
    Placement,
    UtilityTable,
    solve_capacitated,
    solve_uncapacitated,
    validate_plan,
)
from fogassign.utility import Step, TaskSpec

from conftest import random_scenario, tie_heavy_scenario

# Analytic average utilities of the three strategies on the base bundle.
UA_AVG = 0.5084321428571428
MIN_LATENCY_AVG = 0.4688357142857142
MAX_QUALITY_AVG = 0.4397321428571428


# Independent reference: the per-option scan run_baseline made before it
# read the score array, kept verbatim.  Both must give equal plans.
def reference_baseline(scenario, strategy, table=None):
    table = table or UtilityTable(scenario)
    decisions: dict[str, Placement | None] = {}
    for i, t in enumerate(scenario.tasks):
        best_key = None
        best: Placement | None = None
        for zpos, node in enumerate(scenario.nodes):
            for xpos, x in enumerate(node.options):
                if (node.id, x) not in t.intrinsic:
                    continue
                k = table.columns.index((node.id, x))
                if not table.feasible[i, k]:
                    continue
                if strategy == "min-latency":
                    score = float(scenario.dist(t.id, node.id, x).quantile(0.5))
                else:
                    score = -t.intrinsic[(node.id, x)]
                key = (score, zpos, xpos)
                if best_key is None or key < best_key:
                    best_key = key
                    best = Placement(node=node.id, option=x, utility=float(table.utility[i, k]),
                                     risk=float(table.risk[i, k]))
        decisions[t.id] = best
    return AssignmentPlan.from_decisions(decisions, solver=strategy)


# Independent reference: the per-task scoring simulate did before it reused
# one deviation buffer, stopped drawing for point masses and scored a pair
# chosen by several strategies once.  Each strategy is run on its own, from
# a copy of the caller's generator, so every strategy draws a task from the
# same child stream (common random numbers).  Every number the two give
# must be equal.
def reference_simulate(scenario, plan, reps, rng, baselines=None):
    rng = make_rng(rng)
    n_tasks = max(len(scenario.tasks), 1)

    def run(strategy):
        streams = copy.deepcopy(rng).spawn(len(scenario.tasks))
        means: dict[str, float] = {}
        ses: dict[str, float] = {}
        values: dict[str, np.ndarray | None] = {}
        for t, stream in zip(scenario.tasks, streams):
            p = strategy.decisions.get(t.id)
            if p is None:
                means[t.id] = 0.0
                ses[t.id] = 0.0
                values[t.id] = None
                continue
            draws = scenario.dist(t.id, p.node, p.option).sample(stream, reps)
            vals = t.intrinsic[(p.node, p.option)] * t.time_utility.value(draws)
            means[t.id] = float(vals.mean())
            se = float(vals.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
            ses[t.id] = 0.0 if se < 1e-9 and vals.min() == vals.max() else se
            values[t.id] = vals
        return means, ses, values

    def result(strategy, means, ses, **fields):
        return SimulationResult(
            plan=strategy,
            reps=reps,
            per_task_mean=means,
            per_task_se=ses,
            overall_mean=float(sum(means.values()) / n_tasks),
            overall_se=float(np.sqrt(sum(se**2 for se in ses.values())) / n_tasks),
            **fields,
        )

    means, ses, values = run(plan)
    sub = {}
    for name, bplan in (baselines or {}).items():
        b_means, b_ses, b_values = run(bplan)
        gap_vars = []
        for t in scenario.tasks:
            j = t.id
            if ses[j] == 0.0 or b_ses[j] == 0.0:
                gap_vars.append(ses[j] ** 2 + b_ses[j] ** 2)
            else:
                gap_vars.append((values[j] - b_values[j]).var(ddof=1) / reps)
        sub[name] = result(
            bplan, b_means, b_ses,
            gap=float(sum(means[t.id] - b_means[t.id] for t in scenario.tasks) / n_tasks),
            gap_se=float(np.sqrt(sum(gap_vars)) / n_tasks),
        )
    return result(plan, means, ses, baselines=sub)


def _simulate_both(scen, reps, seed):
    table = UtilityTable(scen)
    plan = solve_capacitated(scen, table)
    baselines = {s: run_baseline(scen, s, table) for s in BASELINES}
    return (simulate(scen, plan, reps, make_rng(seed), baselines),
            reference_simulate(scen, plan, reps, make_rng(seed), baselines))


@pytest.fixture(scope="module")
def base():
    scen = bundled_scenario("vii_d_base")
    return scen, UtilityTable(scen)


class TestBaselines:
    def test_min_latency_sends_everything_to_gateway(self, base):
        scen, table = base
        plan = run_baseline(scen, "min-latency", table)
        assert sorted(plan.placed_on("gateway")) == [t.id for t in scen.tasks]
        assert plan.total_utility / 10 == pytest.approx(MIN_LATENCY_AVG, abs=1e-9)

    def test_max_quality_sends_everything_to_cloud(self, base):
        scen, table = base
        plan = run_baseline(scen, "max-quality", table)
        assert sorted(plan.placed_on("cloud")) == [t.id for t in scen.tasks]
        assert plan.total_utility / 10 == pytest.approx(MAX_QUALITY_AVG, abs=1e-9)

    def test_single_node_baselines_match_planner(self):
        scen = bundled_scenario("vii_d_base")
        # restrict to the gateway only: every strategy has one choice
        for t in scen.tasks:
            del t.intrinsic[("cloud", "o1")]
        scen.latency = {k: v for k, v in scen.latency.items() if k[1] == "gateway"}
        scen.nodes = [scen.nodes[0]]
        table = UtilityTable(scen)
        ua = solve_uncapacitated(scen, table)
        for strategy in ("min-latency", "max-quality"):
            assert run_baseline(scen, strategy, table).decisions == ua.decisions

    def test_unknown_strategy(self, base):
        with pytest.raises(ValueError):
            run_baseline(base[0], "fastest")

    @pytest.mark.parametrize("make, seeds", [
        (random_scenario, range(200)),
        (tie_heavy_scenario, range(300)),
    ], ids=["random", "tie-heavy"])
    def test_matches_reference_scan(self, make, seeds):
        for seed in seeds:
            scen = make(seed)
            table = UtilityTable(scen)
            for strategy in BASELINES:
                assert run_baseline(scen, strategy, table) == reference_baseline(
                    scen, strategy, table
                ), (seed, strategy)

    @pytest.mark.parametrize("strategy", BASELINES)
    def test_no_nodes_rejects_every_task(self, strategy):
        scen = Scenario(name="empty", tasks=[TaskSpec(id="t", time_utility=Step(1.0))],
                        nodes=[], latency={})
        assert run_baseline(scen, strategy).decisions == {"t": None}

    def test_infeasible_task_rejected(self):
        scen = bundled_scenario("vii_d_base")
        scen.tasks[0].quality_floor = 0.99
        scen.tasks[0].risk_budget = 0.0001
        plan = run_baseline(scen, "min-latency")
        assert plan.decisions["t01"] is None


class TestSimulate:
    def test_degenerate_latencies_have_no_spread(self, base):
        scen, table = base
        scen2 = bundled_scenario("vii_d_base")
        scen2.latency = {k: Degenerate(0.35) for k in scen2.latency}
        plan = solve_uncapacitated(scen2)
        result = simulate(scen2, plan, reps=50, rng=make_rng(1))
        for se in result.per_task_se.values():
            assert se < 1e-12

    def test_equal_draws_have_an_se_of_exactly_zero(self):
        # Every draw is worth 0.58; std of 2,000 copies is not exactly 0.
        task = TaskSpec(id="t", time_utility=Step(1.0), intrinsic={("z", "x"): 0.58})
        scen = Scenario(name="flat", tasks=[task], nodes=[NodeSpec(id="z", options=("x",))],
                        latency={("t", "z", "x"): Degenerate(0.5)})
        result = simulate(scen, solve_uncapacitated(scen), reps=2000, rng=make_rng(0))
        assert result.per_task_mean["t"] == pytest.approx(0.58)
        assert result.per_task_se["t"] == result.overall_se == 0.0

    @pytest.mark.parametrize("reps", [1, 2, 3, 2000])
    @pytest.mark.parametrize("name", ["every_kind", "vii_d_base", "vii_d_two_cap"])
    def test_matches_reference_on_golden_scenarios(self, name, reps):
        if name == "every_kind":
            scen = load_scenario(Path(__file__).parent / "golden" / "every_kind.scenario.json")
        else:
            scen = bundled_scenario(name)
        got, want = _simulate_both(scen, reps, 7)
        assert got.per_task_mean == want.per_task_mean
        assert got.per_task_se == want.per_task_se
        assert got == want

    def test_matches_reference_on_random_scenarios(self):
        for seed in range(50):
            got, want = _simulate_both(random_scenario(seed), 300, seed)
            assert got == want, seed

    def test_matches_reference_on_tie_heavy_scenarios(self):
        # Every placement is a point mass, scored from one value.  Up to four
        # nodes are capacitated, beyond solve_capacitated, so the plans
        # simulated are the baselines'.
        for seed in range(100):
            scen = tie_heavy_scenario(seed)
            table = UtilityTable(scen)
            plans = {s: run_baseline(scen, s, table) for s in BASELINES}
            for reps in (1, 2, 2000):
                args = (scen, plans["max-quality"], reps)
                got = simulate(*args, make_rng(seed), plans)
                assert got == reference_simulate(*args, make_rng(seed), plans), (seed, reps)

    def test_point_mass_leaves_other_tasks_alone(self):
        def run(dist_a):
            tasks = [TaskSpec(id=j, time_utility=Step(0.5), intrinsic={("z", "x"): 0.9})
                     for j in ("a", "b")]
            scen = Scenario(name="pair", tasks=tasks, nodes=[NodeSpec(id="z", options=("x",))],
                            latency={("a", "z", "x"): dist_a,
                                     ("b", "z", "x"): Uniform(0.2, 0.8)})
            return simulate(scen, solve_uncapacitated(scen), reps=1000, rng=make_rng(4))

        point, spread = run(Degenerate(0.3)), run(Uniform(0.1, 0.5))
        assert point.per_task_mean["b"] == spread.per_task_mean["b"]
        assert point.per_task_se["b"] == spread.per_task_se["b"] > 0.0
        assert point.per_task_mean["a"] == pytest.approx(0.9)
        assert point.per_task_se["a"] == 0.0

    def test_reps_must_be_positive(self, base):
        scen, table = base
        plan = solve_uncapacitated(scen, table)
        with pytest.raises(ValueError):
            simulate(scen, plan, reps=0, rng=make_rng(0))

    def test_mean_converges_to_expected_utility(self, base):
        scen, table = base
        plan = solve_uncapacitated(scen, table)
        result = simulate(scen, plan, reps=200_000, rng=make_rng(scen.seed))
        assert result.overall_mean == pytest.approx(UA_AVG, abs=0.005)
        # per-task agreement within 4 standard errors
        for t in scen.tasks:
            p = plan.decisions[t.id]
            se = max(result.per_task_se[t.id], 1e-9)
            assert abs(result.per_task_mean[t.id] - p.utility) < 4 * se + 1e-4

    def test_reproducible(self, base):
        scen, table = base
        plan = solve_uncapacitated(scen, table)
        a = simulate(scen, plan, reps=500, rng=make_rng(5))
        b = simulate(scen, plan, reps=500, rng=make_rng(5))
        assert a.overall_mean == b.overall_mean

    def test_planner_beats_baselines_on_base_bundle(self, base):
        scen, table = base
        plan = solve_uncapacitated(scen, table)
        baselines = {s: run_baseline(scen, s, table) for s in ("min-latency", "max-quality")}
        result = simulate(scen, plan, reps=20_000, rng=make_rng(9), baselines=baselines)
        for sub in result.baselines.values():
            slack = 2 * (result.overall_se + sub.overall_se)
            assert result.overall_mean >= sub.overall_mean - slack

    def test_rejected_tasks_count_as_zero(self):
        scen = bundled_scenario("vii_d_base")
        scen.tasks[0].quality_floor = 0.99
        scen.tasks[0].risk_budget = 0.0001
        plan = solve_uncapacitated(scen)
        assert plan.decisions["t01"] is None
        result = simulate(scen, plan, reps=100, rng=make_rng(2))
        assert result.per_task_mean["t01"] == result.per_task_se["t01"] == 0.0

    def test_memory_does_not_grow_with_reps_times_tasks(self):
        # Keeping every draw would take n_tasks * reps * 8 B = 32 MB here.
        n_tasks, reps = 200, 20_000
        dist = Uniform(0.1, 0.9)
        tasks = [
            TaskSpec(id=f"j{i:03d}", time_utility=Step(0.5), intrinsic={("z", "x"): 1.0})
            for i in range(n_tasks)
        ]
        scen = Scenario(
            name="memory",
            tasks=tasks,
            nodes=[NodeSpec(id="z", options=("x",))],
            latency={(t.id, "z", "x"): dist for t in tasks},
        )
        plan = solve_uncapacitated(scen)
        tracemalloc.start()
        try:
            result = simulate(scen, plan, reps=reps, rng=make_rng(3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.overall_mean == pytest.approx(0.5, abs=0.01)
        assert peak < n_tasks * reps * 8 / 4


class TestPaired:
    """Every strategy draws a task from its one child seed."""

    @pytest.fixture(scope="class")
    def paired(self):
        scen = bundled_scenario("vii_d_base")
        table = UtilityTable(scen)
        plan = solve_capacitated(scen, table)
        baselines = {s: run_baseline(scen, s, table) for s in BASELINES}
        return scen, plan, baselines, simulate(scen, plan, 2000, make_rng(7), baselines)

    def test_a_task_placed_alike_scores_alike(self, paired):
        scen, plan, baselines, result = paired
        for name, bplan in baselines.items():
            sub = result.baselines[name]
            alike = [j for j, p in plan.decisions.items()
                     if (p.node, p.option) == (bplan.decisions[j].node, bplan.decisions[j].option)]
            assert 0 < len(alike) < len(scen.tasks), name
            for j in alike:
                assert sub.per_task_mean[j] == result.per_task_mean[j]
                assert sub.per_task_se[j] == result.per_task_se[j] > 0.0

    @pytest.mark.parametrize("reps", [1, 2000])
    def test_a_baseline_equal_to_the_plan_has_no_gap(self, paired, reps):
        scen, plan, _, _ = paired
        sub = simulate(scen, plan, reps, make_rng(7), {"same": plan}).baselines["same"]
        assert sub.gap == sub.gap_se == 0.0

    def test_gap_se_is_zero_at_one_rep(self, paired):
        scen, plan, baselines, _ = paired
        for sub in simulate(scen, plan, 1, make_rng(7), baselines).baselines.values():
            assert sub.gap != 0.0
            assert sub.gap_se == 0.0

    def test_the_plan_does_not_depend_on_its_baselines(self, paired):
        scen, plan, _, result = paired
        alone = simulate(scen, plan, 2000, make_rng(7))
        assert alone.per_task_mean == result.per_task_mean
        assert alone.per_task_se == result.per_task_se
        assert alone == dataclasses.replace(result, baselines={})

    def test_paired_gap_is_within_4_se_of_the_exact_difference(self, paired):
        scen, plan, baselines, _ = paired
        n = len(scen.tasks)
        for seed in range(200):
            result = simulate(scen, plan, 2000, make_rng(seed), baselines)
            for name, bplan in baselines.items():
                sub = result.baselines[name]
                exact = (plan.total_utility - bplan.total_utility) / n
                # Below the se of a difference of independent means.
                assert 0.0 < sub.gap_se < math.hypot(result.overall_se, sub.overall_se), (seed, name)
                assert abs(sub.gap - exact) < 4 * sub.gap_se, (seed, name)


class TestEmit:
    def test_byte_identical_json(self, base, tmp_path):
        scen, table = base
        record = solve_uncapacitated(scen, table).to_record(scen.content_hash())
        emit(record, "json", tmp_path / "a.json")
        emit(record, "json", tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_plan_csv_contract(self, base, tmp_path):
        scen, table = base
        plan = solve_uncapacitated(scen, table)
        path = emit(plan.to_record(), "csv", tmp_path / "plan.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "task_id,status,node,option,utility,risk"
        assert len(lines) == 11
        assert lines[1].startswith("t01,placed,gateway,o1,0.3,")

    def test_plan_csv_bytes_with_a_rejected_task(self, tmp_path):
        plan = AssignmentPlan.from_decisions(
            {"a": Placement("n", "o", 0.123456789123, 1e-12), "b": None,
             "c": Placement("m", "x", 1.0, 0.25)}, solver="at")
        path = emit(plan.to_record("hash"), "csv", tmp_path / "plan.csv")
        assert path.read_bytes() == (
            b"task_id,status,node,option,utility,risk\r\n"
            b"a,placed,n,o,0.123456789,1e-12\r\n"
            b"b,rejected,,,0,0\r\n"
            b"c,placed,m,x,1,0.25\r\n"
        )

    def test_json_round_trips_at_nine_digits(self, base, tmp_path):
        scen, table = base
        record = solve_uncapacitated(scen, table).to_record()
        emit(record, "json", tmp_path / "r.json")
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded == round9(record)
        assert loaded["total_utility"] == float(f"{record['total_utility']:.9g}")

    def test_unknown_format(self, base, tmp_path):
        with pytest.raises(ValueError):
            emit({}, "yaml", tmp_path / "x")

    def test_csv_needs_task_rows(self, base, tmp_path):
        scen, table = base
        record = simulate(scen, solve_uncapacitated(scen, table), 10, 1).to_record()
        with pytest.raises(ValueError, match="expects a plan record with task rows"):
            emit(record, "csv", tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()

    def test_round9(self):
        assert round9(0.12345678987654321) == 0.123456790
        assert round9({"a": [1.0000000001, "s"]}) == {"a": [1.0, "s"]}


def test_baseline_plans_validate_on_uncapacitated(base):
    scen, table = base
    for strategy in ("min-latency", "max-quality"):
        plan = run_baseline(scen, strategy, table)
        assert validate_plan(scen, plan) == []
