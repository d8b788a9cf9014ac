import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogassign import solver
from fogassign.latency import (
    _DYADIC_EDGES,
    _GL_NODES,
    _GL_WEIGHTS,
    _QUANTILE_LADDER,
    Degenerate,
    Empirical,
    Gev,
    Mixture,
    Uniform,
    expect_transform,
)
from fogassign.scenario import NodeSpec, Scenario, bundled_scenario, load_scenario
from fogassign.solver import (
    Placement,
    SizeGuardError,
    UnsupportedTopologyError,
    UtilityTable,
    WrongSolverError,
    brute_force_optimum,
    capacitated_gains,
    choose_for_capacitated,
    complete_uncapacitated,
    reject_unassignable,
    solve_batch,
    solve_capacitated,
    solve_uncapacitated,
    validate_plan,
)
from fogassign.utility import (
    ExpDecay,
    Step,
    TaskSpec,
    UtilityReport,
    WaitReadyFirst,
    expected_utility,
    risk_probability,
)

from conftest import random_scenario, tie_heavy_scenario

# Closed-form expected utilities for the bundled base scenario, derived by
# integrating the ramp utilities against the two uniform latency models:
# gateway E[f_j] = 0.4 + 0.1 j for j < 3 else 1 - 0.9/j, times A = 0.6;
# cloud   E[f_j] = 0.1 j for j <= 5 else 1 - 2.5/j,      times A = 0.9.
BASE_GATEWAY_U = [
    0.30, 0.36, 0.42, 0.465, 0.492, 0.51,
    float(Fraction(366, 700)), 0.5325, 0.54, 0.546,
]
BASE_CLOUD_U = [
    0.09, 0.18, 0.27, 0.36, 0.45, 0.525,
    float(Fraction(405, 700)), 0.61875, 0.65, 0.675,
]
BASE_UA_TOTAL = sum(BASE_GATEWAY_U[:5]) + sum(BASE_CLOUD_U[5:])


def step_scenario(task_values, capacities, budgets=None, name="synthetic"):
    """Deterministic instance: Step(1.0) utilities over Degenerate(0.5)
    latencies make each placement's utility equal its intrinsic value."""
    nodes = [
        NodeSpec(id=f"z{i}", options=("x",), capacity=c) for i, c in enumerate(capacities)
    ]
    tasks = []
    latency = {}
    for j, values in enumerate(task_values):
        tid = f"j{j}"
        intrinsic = {}
        for i, v in enumerate(values):
            if v is not None:
                intrinsic[(f"z{i}", "x")] = v
                latency[(tid, f"z{i}", "x")] = Degenerate(0.5)
        tasks.append(
            TaskSpec(
                id=tid, time_utility=Step(1.0), intrinsic=intrinsic,
                risk_budget=(budgets or {}).get(tid, 1.0),
            )
        )
    return Scenario(name=name, tasks=tasks, nodes=nodes, latency=latency)


def decisions(table, chosen):
    """Placements (None for -1) of one column per task, in task order."""
    return list(table.plan(chosen, solver="columns").decisions.values())


def best_on_node(task, node, dists):
    """The score array's per-node best on a one-node scenario."""
    latency = {(task.id, node.id, x): d for x, d in dists.items()}
    scen = Scenario(name="one-node", tasks=[task], nodes=[node], latency=latency)
    table = UtilityTable(scen)
    _, node_col = complete_uncapacitated(scen, table.utility[None])
    return decisions(table, node_col[0, :, 0])[0]


def stage2(scen):
    """Stages 1 and 2 on a fresh table: every task's gains, keyed by
    (task, finite node), and its fallback placement."""
    table = UtilityTable(scen)
    gains, _, fb_col = capacitated_gains(scen, *complete_uncapacitated(scen, table.utility[None]))
    finite = [n.id for n in scen.nodes if not n.infinite]
    fallback = decisions(table, fb_col[0])
    return (
        {(t.id, z): gains[0, i, f] for i, t in enumerate(scen.tasks) for f, z in enumerate(finite)},
        {t.id: fallback[i] for i, t in enumerate(scen.tasks)},
    )


class CountingTable(UtilityTable):
    """UtilityTable that counts the pairs its fill scores, per (task, node, option)."""

    def __init__(self, scenario, reports=None):
        super().__init__(scenario, reports)
        self.reads = Counter()

    def _score(self, keys):
        self.reads.update(keys)
        return super()._score(keys)


# Independent reference: the best-placement scan over every (node, option)
# pair with the full tie key.  The solver takes first maxima over the score
# array's column blocks instead, so the two must agree exactly.
def scan_best_placement(table, task, nodes):
    i = table.scenario.tasks.index(task)
    best, best_key = None, None
    for zpos, node in enumerate(nodes):
        for xpos, x in enumerate(node.options):
            if (node.id, x) not in task.intrinsic:
                continue
            k = table.columns.index((node.id, x))
            u, risk = float(table.utility[i, k]), float(table.risk[i, k])
            if u <= 0.0:
                continue
            key = (-u, 0 if node.infinite else 1, zpos, xpos)
            if best is None or key < best_key:
                best = Placement(node=node.id, option=x, utility=u, risk=risk)
                best_key = key
    return best


class TestBestOnOneNode:
    def test_argmax_of_two_options(self):
        node = NodeSpec(id="z", options=("x0", "x1"))
        task = TaskSpec(id="t", time_utility=Step(1.0),
                        intrinsic={("z", "x0"): 0.3, ("z", "x1"): 0.45})
        dists = {"x0": Degenerate(0.5), "x1": Degenerate(0.5)}
        best = best_on_node(task, node, dists)
        assert (best.option, best.utility) == ("x1", pytest.approx(0.45))

    def test_single_infeasible_option(self):
        node = NodeSpec(id="z", options=("x",))
        # value 0.0 < floor 0.5 with probability 0.2 > budget 0.1
        task = TaskSpec(id="t", time_utility=Step(0.5), intrinsic={("z", "x"): 0.9},
                        quality_floor=0.5, risk_budget=0.1)
        assert best_on_node(task, node, {"x": Uniform(0.0, 2.5)}) is None

    def test_tie_goes_to_earlier_option(self):
        node = NodeSpec(id="z", options=("x0", "x1"))
        task = TaskSpec(id="t", time_utility=Step(1.0),
                        intrinsic={("z", "x0"): 0.45, ("z", "x1"): 0.45})
        dists = {"x0": Degenerate(0.5), "x1": Degenerate(0.5)}
        assert best_on_node(task, node, dists).option == "x0"


class TestBestOnNodeCache:
    def test_best_placement_matches_option_scan(self):
        for seed in range(300):
            scen = tie_heavy_scenario(seed)
            table, ref_table = UtilityTable(scen), UtilityTable(scen)
            unlimited = [n for n in scen.nodes if n.infinite]
            node_u, node_col = complete_uncapacitated(scen, table.utility[None])
            _, _, fb_col = capacitated_gains(scen, node_u, node_col)
            per_node = [decisions(table, node_col[0, :, z]) for z in range(len(scen.nodes))]
            fallback = decisions(table, fb_col[0])
            for i, t in enumerate(scen.tasks):
                where = (seed, t.id)
                for z, node in enumerate(scen.nodes):
                    assert per_node[z][i] == scan_best_placement(ref_table, t, [node]), where
                assert fallback[i] == scan_best_placement(ref_table, t, unlimited), where

    def test_second_call_returns_the_cached_object(self):
        scen = bundled_scenario("vii_d_base")
        table = CountingTable(scen)
        first = table.utility
        reads = sum(table.reads.values())
        assert reads == sum(len(t.intrinsic) for t in scen.tasks)
        assert table.utility is first
        assert table.risk.shape == table.feasible.shape == first.shape
        assert sum(table.reads.values()) == reads

    def test_no_positive_option_is_cached_as_none(self):
        scen = step_scenario([[0.0, 0.5]], [1, None])
        table = CountingTable(scen)
        for _ in range(2):
            _, node_col = complete_uncapacitated(scen, table.utility[None])
            assert node_col[0, 0, 0] == -1
        assert table.reads[("j0", "z0", "x")] == 1


# Independent reference: each pair scored on its own, as the table was
# filled before it scored pairs by groups.  The functions are kept
# verbatim from that version, and so are the formulas they used: each
# latency kind's CDF and quantile and each time-utility family's latency
# budget are written out here, so no formula is shared with the grouped
# code.  The fill must give == arrays.
def reference_cdf(dist, t):
    t = np.asarray(t, dtype=float)
    if isinstance(dist, Gev):
        z = 1.0 + dist.shape * (t - dist.loc) / dist.scale
        out = np.zeros_like(z)
        pos = z > 0.0
        with np.errstate(over="ignore", divide="ignore"):
            out[pos] = np.exp(-z[pos] ** (-1.0 / dist.shape))
        return out
    if isinstance(dist, Uniform):
        return np.clip((t - dist.lo) / (dist.hi - dist.lo), 0.0, 1.0)
    if isinstance(dist, Empirical):
        return np.searchsorted(dist.samples, t, side="right") / dist.n
    if isinstance(dist, Degenerate):
        return np.where(t >= dist.value, 1.0, 0.0)
    out = np.zeros_like(t)
    for w, c in zip(dist.weights, dist.components):
        out = out + w * reference_cdf(c, t)
    return out


def reference_quantile(dist, p):
    """The continuous kinds' quantiles, the only ones the reference reads."""
    if isinstance(dist, Gev):
        with np.errstate(over="ignore"):
            return dist.loc + dist.scale * ((-np.log(p)) ** (-dist.shape) - 1.0) / dist.shape
    assert isinstance(dist, Uniform)
    return dist.lo + p * (dist.hi - dist.lo)


def reference_budget(f, q):
    if isinstance(f, Step):
        return np.full(np.shape(q), f.tv)
    if isinstance(f, ExpDecay):
        with np.errstate(divide="ignore"):
            return -np.log(q) / f.k
    return f.te + (1.0 - q) * (f.ts - f.te)


def reference_expect_transform(dist, f):
    if isinstance(dist, Degenerate):
        return f.value(dist.value)
    if isinstance(dist, Empirical):
        return float(np.mean(f.value(dist.samples)))
    if isinstance(dist, Mixture):
        return float(
            sum(w * reference_expect_transform(c, f) for w, c in zip(dist.weights, dist.components))
        )
    knots = np.concatenate([dist.breakpoints(), reference_quantile(dist, _QUANTILE_LADDER)])
    edges = np.unique(np.concatenate([[0.0, 1.0], f.value(knots), _DYADIC_EDGES]))
    width = np.diff(edges)
    s = edges[:-1, None] + width[:, None] * _GL_NODES
    cdf = reference_cdf(dist, reference_budget(f, s))
    inner = cdf @ _GL_WEIGHTS
    inner[cdf.min(axis=-1) == 1.0] = 1.0  # a panel at CDF 1 throughout is exactly 1
    val = float(width @ inner)
    return min(max(val, 0.0), 1.0)


def reference_risk_probability(f, dist, q):
    if not (0.0 <= q <= 1.0):
        raise ValueError("quality floor q must lie in [0,1]")
    if q == 0.0:
        return 0.0
    return float(1.0 - reference_cdf(dist, reference_budget(f, q)))


def reference_expected_utility(task, node_id, option_id, dist):
    a = task.intrinsic[(node_id, option_id)]
    f = task.time_utility
    risk = reference_risk_probability(f, dist, task.quality_floor)
    feasible = risk <= task.risk_budget
    if not feasible:
        return UtilityReport(utility=0.0, risk=risk, feasible=False)
    u = a * reference_expect_transform(dist, f)
    return UtilityReport(utility=u, risk=risk, feasible=True)


def mixed_scenario(seed, n_tasks=300):
    """Every latency kind under every time-utility family on three nodes.

    Gev shapes include 0.5, 1 and 2, sample sets vary in size, mixtures
    mix component kinds (atoms at 0 and nested mixtures among them), and
    two tasks in five, under every family, carry a binding risk budget.
    """
    rng = np.random.default_rng(seed)
    nodes = [NodeSpec(id="z0", options=("x0", "x1"), capacity=5),
             NodeSpec(id="z1", options=("x0",), capacity=None),
             NodeSpec(id="z2", options=("x0", "x1"), capacity=None)]

    def gev():
        shape = float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0.1, 0.8)]))
        scale = float(rng.uniform(0.01, 0.2))
        return Gev(shape, scale, scale / shape + float(rng.uniform(0.0, 1.0)))

    def simple(kind):
        if kind == 0:
            lo = float(rng.uniform(0.0, 1.0))
            return Uniform(lo, lo + float(rng.uniform(0.05, 1.0)))
        if kind == 1:
            return Degenerate(float(rng.choice([0.0, rng.uniform(0.0, 1.5)])))
        if kind == 2:
            return Empirical(rng.uniform(0.0, 2.0, int(rng.choice([1, 3, 8, 25, 300]))))
        return gev()

    def dist(kind):
        if kind < 4:
            return simple(kind)
        parts = [simple(int(k)) for k in rng.integers(0, 4, int(rng.integers(2, 4)))]
        if rng.random() < 0.2:
            parts.append(Mixture([Degenerate(0.0), simple(0)], [0.5, 0.5]))
        return Mixture(parts, rng.dirichlet(np.ones(len(parts))))

    families = [lambda: Step(float(rng.uniform(0.1, 1.5))),
                lambda: ExpDecay(float(rng.uniform(0.3, 3.0))),
                lambda: WaitReadyFirst(te := float(rng.uniform(0.05, 0.8)),
                                       te + float(rng.uniform(0.1, 1.0)))]
    tasks, latency = [], {}
    pairs = [(n.id, x) for n in nodes for x in n.options]
    for j in range(n_tasks):
        binding = j % 5 < 2
        tasks.append(TaskSpec(
            id=f"j{j:03d}", time_utility=families[j % 3](),
            intrinsic={zx: float(rng.uniform(0.05, 1.0)) for zx in pairs},
            quality_floor=float(rng.uniform(0.1, 0.8)) if binding else 0.0,
            risk_budget=float(rng.uniform(0.2, 0.9)) if binding else 1.0,
        ))
        for k, (z, x) in enumerate(pairs):
            latency[(f"j{j:03d}", z, x)] = dist((j + k) % 5)
    return Scenario(name=f"mixed-{seed}", tasks=tasks, nodes=nodes, latency=latency)


class TestFill:
    @pytest.mark.parametrize("make, seeds", [
        (random_scenario, range(200)),
        (tie_heavy_scenario, range(300)),
        (mixed_scenario, range(2)),
    ], ids=["random", "tie-heavy", "mixed"])
    def test_matches_pairwise_reference(self, make, seeds):
        for seed in seeds:
            scen = make(seed)
            table = UtilityTable(scen)
            want = [np.zeros(table.utility.shape), np.zeros(table.utility.shape),
                    np.zeros(table.utility.shape, dtype=bool)]
            for i, t in enumerate(scen.tasks):
                for k, (z, x) in enumerate(table.columns):
                    if (z, x) in t.intrinsic:
                        rep = reference_expected_utility(t, z, x, scen.dist(t.id, z, x))
                        for a, v in zip(want, (rep.utility, rep.risk, rep.feasible)):
                            a[i, k] = v
                        got = (table.utility[i, k], table.risk[i, k], table.feasible[i, k])
                        assert got == (rep.utility, rep.risk, rep.feasible), (seed, t.id, z, x)
            for got, a in zip((table.utility, table.risk, table.feasible), want):
                assert np.array_equal(got, a), seed

    def test_block_size_changes_no_score(self, monkeypatch):
        # Formula calls take blocks of rows sized by _CHUNK_ELEMENTS; each
        # row's arithmetic must not depend on how many share its block.
        scens = [random_scenario(seed) for seed in range(200)]
        scens += [load_scenario(Path(__file__).parent / "golden" / "every_kind.scenario.json"),
                  mixed_scenario(0)]

        def fill():
            return [(t.utility, t.risk, t.feasible) for t in map(UtilityTable, scens)]

        want = fill()
        for chunk in (1 << 10, 1 << 12, 1 << 14, 1 << 16):
            monkeypatch.setattr("fogassign.latency._CHUNK_ELEMENTS", chunk)
            for scen, got, arrays in zip(scens, fill(), want):
                for a, b in zip(got, arrays):
                    assert np.array_equal(a, b), (chunk, scen.name)

    def test_one_pair_forms_match_reference(self):
        scen = mixed_scenario(2, n_tasks=45)
        for t in scen.tasks:
            f = t.time_utility
            for z, x in t.intrinsic:
                d = scen.dist(t.id, z, x)
                assert expected_utility(t, z, x, d) == reference_expected_utility(t, z, x, d), (t.id, z, x)
                assert expect_transform(d, f) == reference_expect_transform(d, f), (t.id, z, x)
                for q in (0.0, 0.3, 1.0):
                    assert risk_probability(f, d, q) == reference_risk_probability(f, d, q), (t.id, z, x, q)

    def test_mixed_scenario_covers_every_kind_and_family(self):
        scen = mixed_scenario(0)
        pairs = {(type(d), type(scen.tasks[int(j[1:])].time_utility)) for (j, _, _), d in scen.latency.items()}
        assert len(pairs) == 15
        binding = {(type(d), type(scen.tasks[int(j[1:])].time_utility)) for (j, _, _), d in scen.latency.items()
                    if scen.tasks[int(j[1:])].quality_floor > 0.0}
        assert binding == pairs
        assert {d.shape for d in scen.latency.values() if isinstance(d, Gev)} >= {0.5, 1.0, 2.0}
        assert not UtilityTable(scen).feasible.all()

    def test_injected_reports_keep_their_floats_and_compute_nothing(self):
        scen = mixed_scenario(1, n_tasks=40)
        rng = np.random.default_rng(3)
        reports = {(t.id, z, x): UtilityReport(float(rng.uniform()), float(rng.uniform()), bool(rng.random() < 0.8))
                   for t in scen.tasks for (z, x) in t.intrinsic}
        table = CountingTable(scen, reports)
        chosen = solve_batch(scen, table.utility[None])[0]
        assert not table.reads
        for i, t in enumerate(scen.tasks):
            for k, (z, x) in enumerate(table.columns):
                rep = reports[(t.id, z, x)]
                assert (table.utility[i, k], table.risk[i, k], table.feasible[i, k]) == (
                    rep.utility, rep.risk, rep.feasible)
        plans = [table.plan(chosen, solver="at")]
        plans += [table.plan(np.full(len(scen.tasks), k), solver="at") for k in range(len(table.columns))]
        assert any(p is not None for p in plans[0].decisions.values())
        for plan in plans:
            for t in scen.tasks:
                p = plan.decisions[t.id]
                if p is not None:
                    rep = reports[(t.id, p.node, p.option)]
                    assert p.utility is rep.utility and p.risk is rep.risk, (t.id, p)
        assert not table.reads

    def test_plan_floats_are_the_injected_reports_or_the_arrays(self):
        scen = mixed_scenario(4, n_tasks=40)
        rng = np.random.default_rng(5)
        injected = {t.id for t in scen.tasks[::2]}
        reports = {(t.id, z, x): UtilityReport(float(rng.uniform()), float(rng.uniform()), True)
                   for t in scen.tasks[::2] for (z, x) in t.intrinsic}
        table, plain = CountingTable(scen, reports), UtilityTable(scen)
        for k in range(len(table.columns)):
            plan = table.plan(np.full(len(scen.tasks), k), solver="at")
            for i, t in enumerate(scen.tasks):
                p = plan.decisions[t.id]
                if t.id in injected:
                    rep = reports[(t.id, p.node, p.option)]
                    assert p.utility is rep.utility and p.risk is rep.risk, (t.id, k)
                else:
                    assert type(p.utility) is float and type(p.risk) is float
                    assert (p.utility, p.risk) == (table.utility[i, k], table.risk[i, k]), (t.id, k)
                    assert (p.utility, p.risk) == (plain.utility[i, k], plain.risk[i, k]), (t.id, k)
        assert set(table.reads) == {(t.id, z, x) for t in scen.tasks[1::2] for (z, x) in t.intrinsic}


class TestUncapacitated:
    def test_base_scenario_split(self):
        scen = bundled_scenario("vii_d_base")
        plan = solve_uncapacitated(scen)
        assert sorted(plan.placed_on("gateway")) == [f"t{j:02d}" for j in range(1, 6)]
        assert sorted(plan.placed_on("cloud")) == [f"t{j:02d}" for j in range(6, 11)]
        assert validate_plan(scen, plan) == []

    def test_base_scenario_utilities_match_closed_form(self):
        scen = bundled_scenario("vii_d_base")
        table = UtilityTable(scen)
        ids = [t.id for t in scen.tasks]
        gw_col, cl_col = table.columns.index(("gateway", "o1")), table.columns.index(("cloud", "o1"))
        for j in range(1, 11):
            i = ids.index(f"t{j:02d}")
            gw, cl = table.utility[i, gw_col], table.utility[i, cl_col]
            assert gw == pytest.approx(BASE_GATEWAY_U[j - 1], abs=1e-9)
            assert cl == pytest.approx(BASE_CLOUD_U[j - 1], abs=1e-9)
        plan = solve_uncapacitated(scen, table)
        assert plan.total_utility == pytest.approx(BASE_UA_TOTAL, abs=1e-9)
        assert plan.total_utility / 10 == pytest.approx(0.5084321428571428, abs=1e-9)

    def test_single_feasible_option(self):
        scen = step_scenario([[0.7]], [None])
        plan = solve_uncapacitated(scen)
        assert plan.decisions["j0"] == Placement("z0", "x", pytest.approx(0.7), 0.0)
        assert plan.total_utility == pytest.approx(0.7)

    def test_zero_utility_rejected(self):
        scen = step_scenario([[None]], [None])  # no options offered at all
        plan = solve_uncapacitated(scen)
        assert plan.decisions["j0"] is None

    def test_refuses_capacitated(self):
        scen = step_scenario([[0.5, 0.6]], [1, None])
        with pytest.raises(WrongSolverError):
            solve_uncapacitated(scen)

    def test_node_tie_goes_to_earlier_node(self):
        scen = step_scenario([[0.5, 0.5]], [None, None])
        plan = solve_uncapacitated(scen)
        assert plan.decisions["j0"].node == "z0"


class TestCompleteUncapacitated:
    def test_unlimited_best_has_no_gain_and_ends_there(self):
        # A task whose best over all nodes (ties to unlimited nodes) is on an
        # unlimited node never takes a constrained slot: its gain is 0 or
        # less on every finite node, and stage 4 places it on that best.
        cases = [(tie_heavy_scenario, s) for s in range(300)]
        cases += [(random_scenario, s) for s in range(200)]
        for make, seed in cases:
            scen = make(seed)
            table, ref_table = UtilityTable(scen), UtilityTable(scen)
            node_u, node_col = complete_uncapacitated(scen, table.utility[None])
            gains, _, _ = capacitated_gains(scen, node_u, node_col)
            fits_dp = sum(not n.infinite for n in scen.nodes) <= 2
            plan = solve_capacitated(scen, table) if fits_dp else None
            for i, t in enumerate(scen.tasks):
                best = scan_best_placement(ref_table, t, scen.nodes)
                if best is None or not scen.node(best.node).infinite:
                    continue
                where = (make.__name__, seed, t.id)
                assert (gains[0, i] <= 0.0).all(), where
                if plan is not None:
                    assert plan.decisions[t.id] == best, where


class TestCapacitatedGains:
    def test_gain_is_difference(self):
        scen = step_scenario([[0.49, 0.45]], [1, None])
        gains, fallback = stage2(scen)
        assert gains[("j0", "z0")] == pytest.approx(0.04, abs=1e-12)
        assert fallback["j0"].node == "z1"

    def test_no_infinite_option_means_full_gain(self):
        scen = step_scenario([[0.3, None]], [1, None])
        gains, fallback = stage2(scen)
        assert gains[("j0", "z0")] == pytest.approx(0.3)
        assert fallback["j0"] is None

    def test_infeasible_node_never_chosen_over_fallback(self):
        # j0 is risk-infeasible on finite z0 (gain -u_inf < 0) and gets
        # displaced from finite z1 by j1, so it must fall back to the cloud.
        scen = step_scenario(
            [[0.9, 0.8, 0.45], [None, 0.95, 0.1]], [1, 1, None], budgets={"j0": 0.1}
        )
        scen.tasks[0].quality_floor = 0.5
        scen.latency[("j0", "z0", "x")] = Uniform(0.0, 2.5)  # risk 0.8 > 0.1
        gains, _ = stage2(scen)
        assert gains[("j0", "z0")] == pytest.approx(-0.45)
        # both tasks gain on z1, so they compete for its one slot
        assert gains[("j0", "z1")] > 0.0 and gains[("j1", "z1")] > 0.0
        plan = solve_capacitated(scen)
        assert plan.decisions["j0"].node == "z2"
        assert plan.decisions["j1"].node == "z1"
        assert plan.total_utility == pytest.approx(
            brute_force_optimum(scen).total_utility, abs=1e-12
        )


def _enum_gain_total(gain1, gain2, c1, c2):
    """All 3^n labelings of small gain vectors, the DP's ground truth."""
    n = len(gain1)
    best = float("-inf")
    for labels in itertools.product((0, 1, 2), repeat=n):
        if labels.count(1) > c1 or labels.count(2) > c2:
            continue
        tot = sum(
            gain1[i] if a == 1 else gain2[i] if a == 2 else 0.0
            for i, a in enumerate(labels)
        )
        best = max(best, tot)
    return best


# Independent reference: the stage-3 DP as a cell-by-cell scalar loop, with
# list-of-lists state and per-cell choices.  The numpy DP must make the
# same additions and comparisons, so its output must be identical.
def scalar_choose(task_ids, gain1, gain2, c1, c2):
    task_ids = list(task_ids)
    n = len(task_ids)
    h = [[0.0] * (c2 + 1) for _ in range(c1 + 1)]
    choices = []
    for i in range(1, n + 1):
        g1, g2 = gain1[i - 1], gain2[i - 1]
        prev = h
        h = [[0.0] * (c2 + 1) for _ in range(c1 + 1)]
        ch = [[0] * (c2 + 1) for _ in range(c1 + 1)]
        for a in range(c1 + 1):
            for b in range(c2 + 1):
                best, which = prev[a][b], 0
                if a >= 1 and prev[a - 1][b] + g1 > best:
                    best, which = prev[a - 1][b] + g1, 1
                if b >= 1 and prev[a][b - 1] + g2 > best:
                    best, which = prev[a][b - 1] + g2, 2
                h[a][b] = best
                ch[a][b] = which
        choices.append(ch)
    set1, set2, unplaced = [], [], []
    a, b = c1, c2
    for i in range(n, 0, -1):
        which = choices[i - 1][a][b]
        if which == 1:
            set1.append(task_ids[i - 1])
            a -= 1
        elif which == 2:
            set2.append(task_ids[i - 1])
            b -= 1
        else:
            unplaced.append(task_ids[i - 1])
    set1.reverse()
    set2.reverse()
    unplaced.reverse()
    return set1, set2, unplaced


TIE_GRID = [-0.5, 0.0, 0.25, 0.5, 1.0]


def _gains(rng, kind, n):
    if kind == "ties":
        return [float(g) for g in rng.choice(TIE_GRID, n)]
    return [float(g) for g in rng.normal(0.0, 0.5, n)]


def _reference_instances(kind):
    """Seeded (task_ids, gain1, gain2, c1, c2) stage-3 instances."""
    rng = np.random.default_rng({"ties": 1, "normal": 2, "over-capacity": 3, "large": 4}[kind])
    if kind == "large":
        sizes = [(300, 20, 20)]
    elif kind == "over-capacity":
        sizes = [(int(n), int(n + rng.integers(0, 8)), int(n + rng.integers(0, 8)))
                 for n in rng.integers(0, 8, 20)]
    else:
        sizes = [tuple(int(v) for v in (rng.integers(0, 26), *rng.integers(0, 7, 2)))
                 for _ in range(300)]
    gain_kind = "normal" if kind == "normal" else "ties"
    return [
        ([f"t{i}" for i in range(n)], _gains(rng, gain_kind, n), _gains(rng, gain_kind, n), c1, c2)
        for n, c1, c2 in sizes
    ]


def choose_one(task_ids, gain1, gain2, c1, c2):
    """Stage 3 on one run, as (node-1 tasks, node-2 tasks, unplaced) lists in
    input order, the form ``scalar_choose`` returns."""
    task_ids = list(task_ids)
    row = choose_for_capacitated(task_ids, [gain1], [gain2], c1, c2)[0].tolist()
    return tuple([t for t, s in zip(task_ids, row) if s == slot] for slot in (0, 1, -1))


class TestChooseForCapacitated:
    @pytest.mark.parametrize("kind", ["ties", "normal", "over-capacity", "large"])
    def test_matches_scalar_reference(self, kind):
        for args in _reference_instances(kind):
            assert choose_one(*args) == scalar_choose(*args), args[1:]

    def test_capacity_far_above_task_count(self):
        ids, g1, g2 = ["a", "b", "c"], [0.3, 0.1, 0.4], [0.2, 0.5, 0.4]
        tracemalloc.start()
        try:
            got = choose_one(ids, g1, g2, 1000, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == choose_one(ids, g1, g2, 3, 3)
        assert peak < 2_000_000

    @pytest.mark.parametrize("which", ["gain1", "gain2"])
    @pytest.mark.parametrize("length", [2, 4])
    def test_gain_lists_must_match_task_count(self, which, length):
        gains = {"gain1": [0.5] * 3, "gain2": [0.5] * 3}
        gains[which] = [0.5] * length
        with pytest.raises(ValueError, match="length"):
            choose_one(["a", "b", "c"], gains["gain1"], gains["gain2"], 1, 1)

    def test_single_node_picks_highest_gains(self):
        ids = ["a", "b", "c", "d"]
        gains = [0.5, 0.2, 0.4, -0.1]
        s1, s2, unp = choose_one(ids, gains, [0.0] * 4, 2, 0)
        assert s1 == ["a", "c"]
        assert s2 == []
        assert unp == ["b", "d"]

    def test_all_negative_gains_choose_nobody(self):
        ids = ["a", "b", "c"]
        s1, s2, unp = choose_one(ids, [-0.1, -0.5, -0.2], [0.0] * 3, 2, 0)
        assert s1 == [] and s2 == []
        assert unp == ids

    def test_two_node_matrix(self):
        # gains per task on (node1, node2)
        g1 = [0.9, 0.8, 0.1, 0.0]
        g2 = [0.1, 0.7, 0.6, 0.0]
        s1, s2, unp = choose_one(["a", "b", "c", "d"], g1, g2, 1, 1)
        total = sum(g1[i] for i, t in enumerate(["a", "b", "c", "d"]) if t in s1) + sum(
            g2[i] for i, t in enumerate(["a", "b", "c", "d"]) if t in s2
        )
        assert total == pytest.approx(_enum_gain_total(g1, g2, 1, 1))
        assert total == pytest.approx(1.6)  # a on node1, b on node2
        assert (s1, s2) == (["a"], ["b"])

    def test_tie_between_nodes_goes_to_first_node(self):
        assert choose_one(["a"], [0.5], [0.5], 1, 1) == (["a"], [], [])

    def test_zero_gain_tasks_are_skipped(self):
        s1, s2, unp = choose_one(["a", "b"], [0.0, 0.0], [0.0, 0.0], 2, 2)
        assert s1 == [] and s2 == []
        assert unp == ["a", "b"]

    @given(
        gains=st.lists(
            st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=6
        ),
        c1=st.integers(0, 3),
        c2=st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_dp_matches_enumeration(self, gains, c1, c2):
        ids = [f"t{i}" for i in range(len(gains))]
        g1 = [g for g, _ in gains]
        g2 = [g for _, g in gains]
        s1, s2, _ = choose_one(ids, g1, g2, c1, c2)
        assert len(s1) <= c1 and len(s2) <= c2
        assert not (set(s1) & set(s2))
        total = sum(g1[ids.index(t)] for t in s1) + sum(g2[ids.index(t)] for t in s2)
        assert total == pytest.approx(_enum_gain_total(g1, g2, c1, c2), abs=1e-9)


def _batch_instances(kind):
    """Seeded (gain1, gain2, present, c1, c2) stage-3 batches of shape
    (runs, n): task i is residual in run r where ``present[r, i]``.  Every
    tenth batch has no residual task; in the others, one task is residual
    in no run.  Odd batches have one finite node, and capacities reach
    past n."""
    rng = np.random.default_rng({"ties": 5, "normal": 6}[kind])
    batches = []
    for k in range(150):
        runs, n = int(rng.integers(1, 6)), int(rng.integers(0, 12))
        two_nodes = k % 2 == 0
        c1 = int(rng.integers(0, n + 4))
        c2 = int(rng.integers(0, n + 4)) if two_nodes else 0
        g1 = np.array([_gains(rng, kind, n) for _ in range(runs)]).reshape(runs, n)
        g2 = (np.array([_gains(rng, kind, n) for _ in range(runs)]).reshape(runs, n)
              if two_nodes else np.zeros((runs, n)))
        present = rng.random((runs, n)) < rng.uniform(0.3, 1.0)
        if k % 10 == 0:
            present[:] = False
        elif n:
            present[:, rng.integers(n)] = False
        batches.append((g1, g2, present, c1, c2))
    return batches


class TestChooseForBatch:
    @pytest.mark.parametrize("kind", ["ties", "normal"])
    def test_each_row_matches_its_one_run_call(self, kind):
        for g1, g2, present, c1, c2 in _batch_instances(kind):
            ids = list(range(present.shape[1]))
            slots = choose_for_capacitated(
                ids, np.where(present, g1, -np.inf), np.where(present, g2, -np.inf), c1, c2
            )
            assert slots.shape == present.shape
            for r, row in enumerate(present):
                row_ids = np.flatnonzero(row).tolist()
                set1, set2, _ = choose_one(
                    row_ids, g1[r, row_ids].tolist(), g2[r, row_ids].tolist(), c1, c2
                )
                expected = np.full(len(ids), -1)
                expected[set1], expected[set2] = 0, 1
                assert slots[r].tolist() == expected.tolist(), (kind, r, c1, c2)

    def test_tasks_that_never_gain_change_no_slot(self):
        # solve_batch passes stage 3 only the tasks with a positive gain in
        # some run.  That is exact: tasks whose gains are 0 or less in every
        # run, inserted anywhere, take no slot and move no other task's.
        rng = np.random.default_rng(8)
        never = np.array([0.0, -0.0, -0.5, -np.inf])
        for k in range(200):
            runs, n, extra = (int(v) for v in rng.integers((1, 0, 1), (5, 10, 5)))
            c1 = int(rng.integers(0, n + 3))
            c2 = int(rng.integers(0, n + 3)) if k % 2 else 0
            g1, g2 = (np.array([_gains(rng, "ties", n) for _ in range(runs)]).reshape(runs, n)
                      for _ in range(2))
            where = np.sort(rng.integers(0, n + 1, extra))
            slots = choose_for_capacitated(
                list(range(n + extra)),
                np.insert(g1, where, rng.choice(never, (runs, extra)), axis=1),
                np.insert(g2, where, rng.choice(never, (runs, extra)), axis=1),
                c1, c2,
            )
            inserted = where + np.arange(extra)
            assert (slots[:, inserted] == -1).all()
            for r in range(runs):
                set1, set2, _ = scalar_choose(range(n), g1[r].tolist(), g2[r].tolist(), c1, c2)
                expected = np.full(n, -1)
                expected[set1], expected[set2] = 0, 1
                assert np.delete(slots[r], inserted).tolist() == expected.tolist(), (k, r)

    def test_no_tasks(self):
        slots = choose_for_capacitated([], np.zeros((3, 0)), np.zeros((3, 0)), 2, 1)
        assert slots.shape == (3, 0)

    @pytest.mark.parametrize("c1, c2", [(-1, 1), (1, -1)])
    def test_negative_capacity_is_refused(self, c1, c2):
        with pytest.raises(ValueError) as info:
            choose_for_capacitated(["a"], np.zeros((1, 1)), np.zeros((1, 1)), c1, c2)
        assert str(info.value) == "capacities must be >= 0"

    def test_gain_shapes_must_agree(self):
        with pytest.raises(ValueError, match="length"):
            choose_for_capacitated(["a", "b"], np.zeros((2, 2)), np.zeros((3, 2)), 1, 1)
        with pytest.raises(ValueError, match=r"shape \(runs, 2\)"):  # one run is a (1, n) row
            choose_for_capacitated(["a", "b"], np.zeros(2), np.zeros(2), 1, 1)


class TestRejectUnassignable:
    def test_fallback_or_reject(self):
        # Tasks a, b and c are unchosen (-1); d holds column 0.  a falls back
        # to column 1 at utility 0.45, b has no fallback, c one of utility 0.
        chosen = np.array([[-1, -1, -1, 0]])
        fb_u = np.array([[0.45, 0.0, 0.0, 0.3]])
        fb_col = np.array([[1, -1, 1, 1]])
        a, b, c, d = reject_unassignable(chosen, fb_u, fb_col)[0].tolist()
        assert a == 1
        assert b == -1
        assert c == -1  # zero-utility fallback is a rejection
        assert d == 0


class TestSolveCapacitated:
    def test_all_infinite_matches_ua(self):
        scen = bundled_scenario("vii_d_base")
        table = UtilityTable(scen)
        assert solve_capacitated(scen, table).decisions == solve_uncapacitated(
            scen, table
        ).decisions

    def test_two_capacitated_bundle(self):
        scen = bundled_scenario("vii_d_two_cap")
        plan = solve_capacitated(scen)
        assert sorted(plan.placed_on("node1")) == ["t01", "t02", "t03"]
        assert sorted(plan.placed_on("node3")) == ["t09", "t10"]
        assert sorted(plan.placed_on("node2")) == ["t04", "t05", "t06", "t07", "t08"]
        assert validate_plan(scen, plan) == []
        oracle = brute_force_optimum(scen)
        assert plan.total_utility == pytest.approx(oracle.total_utility, abs=1e-9)

    def test_capacity_sweep_takes_most_pressed(self):
        base = bundled_scenario("vii_d_base")
        for c in (1, 2, 3):
            plan = solve_capacitated(base.with_node_capacity("gateway", c))
            assert sorted(plan.placed_on("gateway")) == [f"t{j:02d}" for j in range(1, c + 1)]

    def test_capacity_monotonicity(self):
        base = bundled_scenario("vii_d_base")
        totals = [
            solve_capacitated(base.with_node_capacity("gateway", c)).total_utility
            for c in (1, 2, 3, 4, 5, 6)
        ]
        totals.append(solve_capacitated(base).total_utility)
        assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("seed", [None, *range(50)])
    def test_reads_each_offered_pair_once(self, seed):
        # seed None: the base scenario with three gateway slots
        if seed is None:
            scen = bundled_scenario("vii_d_base").with_node_capacity("gateway", 3)
        else:
            scen = random_scenario(seed)
        table = CountingTable(scen)
        solve_capacitated(scen, table)
        offered = {(t.id, z, x) for t in scen.tasks for (z, x) in t.intrinsic}
        assert set(table.reads) == offered
        assert max(table.reads.values(), default=1) == 1

    def test_refuses_three_finite_nodes(self):
        scen = step_scenario([[0.5, 0.5, 0.5]], [1, 1, 1])
        table = CountingTable(scen)
        with pytest.raises(UnsupportedTopologyError):
            solve_capacitated(scen, table)
        assert not table.reads  # refused before any pair was scored

    def test_determinism(self):
        scen = bundled_scenario("vii_d_two_cap")
        assert solve_capacitated(scen) == solve_capacitated(scen)

    def test_rejection_when_capacity_exhausted(self):
        # two tasks want the only slot; no other node offers them anything
        scen = step_scenario([[0.6, None], [0.4, None]], [1, None])
        plan = solve_capacitated(scen)
        assert plan.decisions["j0"].node == "z0"
        assert plan.decisions["j1"] is None
        assert plan.total_utility == pytest.approx(0.6)
        assert validate_plan(scen, plan) == []

    def test_earlier_task_keeps_the_slot_on_equal_gains(self):
        scen = step_scenario([[0.5], [0.5]], [1])
        plan = solve_capacitated(scen)
        assert plan.placed_on("z0") == ["j0"]
        assert plan.rejected() == ["j1"]

    def test_displaced_task_takes_fallback(self):
        # j0 gains more on the slot; j1 still lands on the infinite node
        scen = step_scenario([[0.6, 0.1], [0.5, 0.45]], [1, None])
        plan = solve_capacitated(scen)
        assert plan.decisions["j0"].node == "z0"
        assert plan.decisions["j1"].node == "z1"
        assert plan.total_utility == pytest.approx(1.05)


BATCH_UTILITIES = [0.0, 0.25, 0.5, 0.75]


def batch_instance(seed):
    """A scenario with two finite nodes (one or none for every fourth
    seed) and a batch of injected scores on a four-value grid."""
    rng = np.random.default_rng(seed)
    n_finite = (2, 2, 1, 0)[seed % 4]
    caps = [int(c) for c in rng.integers(1, 4, n_finite)] + [None] * int(rng.integers(1, 3))
    nodes = [
        NodeSpec(id=f"z{i}", options=tuple(f"x{k}" for k in range(int(rng.integers(1, 3)))),
                 capacity=c)
        for i, c in enumerate(rng.permutation(np.array(caps, dtype=object)).tolist())
    ]
    tasks, latency = [], {}
    for j in range(int(rng.integers(1, 9))):
        intrinsic = {(n.id, x): 1.0 for n in nodes for x in n.options if rng.random() < 0.85}
        latency.update({(f"j{j}", z, x): Degenerate(0.5) for z, x in intrinsic})
        tasks.append(TaskSpec(id=f"j{j}", time_utility=Step(1.0), intrinsic=intrinsic))
    scen = Scenario(name="batch", tasks=tasks, nodes=nodes, latency=latency)
    columns = UtilityTable(scen).columns
    offered = np.array([[zx in t.intrinsic for zx in columns] for t in tasks])
    utility = rng.choice(BATCH_UTILITIES, (8, len(tasks), len(columns))) * offered
    return scen, utility


class TestSolveBatch:
    @pytest.mark.parametrize("seed", range(40))
    def test_each_row_matches_solve_capacitated(self, seed):
        scen, utility = batch_instance(seed)
        columns = UtilityTable(scen).columns
        chosen = solve_batch(scen, utility)
        assert chosen.shape == utility.shape[:2]
        for r, row in enumerate(utility):
            reports = {
                (t.id, z, x): UtilityReport(float(row[i, k]), 0.0, True)
                for i, t in enumerate(scen.tasks)
                for k, (z, x) in enumerate(columns)
                if (z, x) in t.intrinsic
            }
            table = UtilityTable(scen, reports)
            plan = table.plan(chosen[r], solver="at")
            assert plan == solve_capacitated(scen, table), (seed, r)
            oracle = brute_force_optimum(scen, table).total_utility
            assert plan.total_utility == pytest.approx(oracle, abs=1e-9), (seed, r)

    def test_stage3_runs_once_per_batch(self, monkeypatch):
        scen, utility = batch_instance(1)
        expected = solve_batch(scen, utility)
        calls = []

        def counting(*args):
            calls.append(args)
            return choose_for_capacitated(*args)

        monkeypatch.setattr(solver, "choose_for_capacitated", counting)
        assert solve_batch(scen, utility).tolist() == expected.tolist()
        assert len(utility) == 8 and len(calls) == 1

    def test_refuses_three_finite_nodes(self):
        scen = step_scenario([[0.5, 0.5, 0.5]], [1, 1, 1])
        with pytest.raises(UnsupportedTopologyError):
            solve_batch(scen, np.full((2, 1, 3), 0.5))


class TestBruteForce:
    def test_guards(self):
        big = step_scenario([[0.5]] * 11, [None])
        with pytest.raises(SizeGuardError):
            brute_force_optimum(big)
        wide = step_scenario([[0.5] * 5], [None] * 5)
        with pytest.raises(SizeGuardError):
            brute_force_optimum(wide)
        many = step_scenario([[0.5]], [None])
        many = replace(many, nodes=[NodeSpec(id="z0", options=("x", "a", "b", "c"))])
        with pytest.raises(SizeGuardError, match="3 options per node"):
            brute_force_optimum(many)

    def test_empty_tasks(self):
        scen = step_scenario([], [None])
        plan = brute_force_optimum(scen)
        assert plan.decisions == {} and plan.total_utility == 0.0

    def test_matches_ua_on_uncapacitated(self):
        scen = bundled_scenario("vii_d_base")
        table = UtilityTable(scen)
        assert brute_force_optimum(scen, table).total_utility == pytest.approx(
            solve_uncapacitated(scen, table).total_utility, abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(1000, 1040))
    def test_at_equals_oracle_on_random_instances(self, seed):
        scen = random_scenario(seed)
        table = UtilityTable(scen)
        plan = solve_capacitated(scen, table)
        oracle = brute_force_optimum(scen, table)
        assert validate_plan(scen, plan) == []
        assert validate_plan(scen, oracle) == []
        assert plan.total_utility == pytest.approx(oracle.total_utility, abs=1e-9)

    @pytest.mark.parametrize("seed", range(1000, 1020))
    def test_rejections_are_justified(self, seed):
        # a task may only be rejected when no unlimited node offers it
        # positive utility and every finite node that would is already full
        scen = random_scenario(seed)
        table = UtilityTable(scen)
        plan = solve_capacitated(scen, table)
        load = {
            n.id: len(plan.placed_on(n.id)) for n in scen.nodes if not n.infinite
        }
        for tid in plan.rejected():
            i, task = next((i, t) for i, t in enumerate(scen.tasks) if t.id == tid)
            for node in scen.nodes:
                for x in node.options:
                    if (node.id, x) not in task.intrinsic:
                        continue
                    u = table.utility[i, table.columns.index((node.id, x))]
                    if node.infinite:
                        assert u == 0.0, f"{tid} rejected despite fallback on {node.id}"
                    elif u > 0.0:
                        assert load[node.id] == node.capacity, (
                            f"{tid} rejected with spare capacity on {node.id}"
                        )


class TestValidator:
    def test_flags_capacity_violation(self):
        scen = step_scenario([[0.5, 0.1], [0.5, 0.1]], [1, None])
        plan = solve_capacitated(scen)
        bad = plan.decisions.copy()
        bad["j1"] = Placement("z0", "x", 0.5, 0.0)
        from fogassign.solver import AssignmentPlan

        broken = AssignmentPlan.from_decisions(bad, solver="tampered")
        problems = validate_plan(scen, broken)
        assert any("capacity" in p for p in problems)

    def test_flags_bad_total(self):
        scen = step_scenario([[0.5]], [None])
        plan = solve_uncapacitated(scen)
        plan.total_utility += 0.1
        assert any("total" in p for p in validate_plan(scen, plan))

    def test_flags_non_finite_utility_and_total(self):
        scen = step_scenario([[0.5]], [None])
        plan = solve_uncapacitated(scen)
        plan.decisions["j0"] = Placement("z0", "x", float("nan"), 0.0)
        plan.total_utility = float("nan")
        problems = validate_plan(scen, plan)
        assert any("utility nan is not finite" in p for p in problems)
        assert any(p.startswith("total utility nan") for p in problems)

    def test_flags_unoffered_option(self):
        scen = step_scenario([[0.5]], [None])
        plan = solve_uncapacitated(scen)
        plan.decisions["j0"] = Placement("z0", "nope", 0.5, 0.0)
        assert any("not offered" in p for p in validate_plan(scen, plan))

    def test_flags_decisions_not_covering_the_tasks(self):
        scen = step_scenario([[0.5], [0.4]], [None])
        plan = solve_uncapacitated(scen)
        del plan.decisions["j1"]
        assert validate_plan(scen, plan) == [
            "plan decisions do not cover exactly the scenario task set"
        ]

    @pytest.mark.parametrize("placement, message", [
        (Placement("ghost", "x", 0.0, 0.0), "task j0: placed on unknown node 'ghost'"),
        (Placement("z1", "x", 0.0, 0.0), "task j0: pair (z1, x) not offered to the task"),
    ], ids=["unknown-node", "pair-not-offered"])
    def test_flags_placement_outside_the_offer(self, placement, message):
        scen = step_scenario([[0.5, None]], [None, None])
        plan = solver.AssignmentPlan.from_decisions({"j0": placement}, solver="tampered")
        assert validate_plan(scen, plan) == [message]

    def test_flags_risk_over_budget(self):
        # T = 0.5 always misses the 0.3 s step, so P(f(T) < q) = 1.
        task = TaskSpec(id="j0", time_utility=Step(0.3), intrinsic={("z0", "x"): 0.5},
                        quality_floor=0.5, risk_budget=0.25)
        scen = Scenario(name="risky", tasks=[task], nodes=[NodeSpec(id="z0", options=("x",))],
                        latency={("j0", "z0", "x"): Degenerate(0.5)})
        plan = solver.AssignmentPlan.from_decisions(
            {"j0": Placement("z0", "x", 0.0, 1.0)}, solver="tampered"
        )
        assert validate_plan(scen, plan) == ["task j0: risk 1.0 exceeds budget 0.25 on (z0, x)"]

    def test_flags_recorded_utility_that_differs_from_recomputed(self):
        # resolve-style plans carry their utilities in; this is their check.
        scen = step_scenario([[0.5]], [None])
        plan = solver.AssignmentPlan.from_decisions(
            {"j0": Placement("z0", "x", 0.4, 0.0)}, solver="tampered"
        )
        assert validate_plan(scen, plan) == [
            "task j0: recorded utility 0.4 differs from recomputed 0.5"
        ]
