"""Exact solvers for task admission and placement.

Each task is placed on at most one (node, option) pair or rejected; the
objective is the sum of expected utilities, subject to per-node task
capacities and per-task timeliness-risk budgets.

With only unlimited-capacity nodes the problem decomposes per task and an
exhaustive per-task scan is optimal.  With capacitated nodes present the
solver runs a four-stage pipeline:

1. finalize tasks whose best placement is on an unlimited node (they do
   not compete for constrained slots),
2. compute each remaining task's *capacitated gain*: the utility of its
   best slot on each constrained node minus its best unlimited fallback,
3. pick the gain-maximizing slot occupants with a dynamic program over
   (task index, slots used on node 1, slots used on node 2); supported
   for up to two finite-capacity nodes,
4. send everyone unchosen to their unlimited fallback, rejecting tasks
   with no positive-utility fallback.

Negative gains are representable and never chosen: the DP's skip branch
dominates, so constrained slots are never filled at a loss.

Tie-breaking is deterministic throughout: higher utility first, then
unlimited-capacity nodes over finite ones (to conserve constrained
slots), then node order, then option order.  Tasks whose best utility is
exactly 0 are rejected rather than placed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .scenario import Scenario
from .utility import TaskSpec, UtilityReport, expected_utility, risk_probability

__all__ = [
    "Placement",
    "AssignmentPlan",
    "UtilityTable",
    "CapGainTable",
    "solve_uncapacitated",
    "solve_capacitated",
    "complete_uncapacitated",
    "capacitated_gains",
    "choose_for_capacitated",
    "reject_unassignable",
    "brute_force_optimum",
    "validate_plan",
    "WrongSolverError",
    "UnsupportedTopologyError",
    "SizeGuardError",
]

TOTAL_TOL = 1e-9


class WrongSolverError(ValueError):
    pass


class UnsupportedTopologyError(ValueError):
    pass


class SizeGuardError(ValueError):
    pass


@dataclass(frozen=True)
class Placement:
    node: str
    option: str
    utility: float
    risk: float


@dataclass
class AssignmentPlan:
    """Per-task decisions (a Placement, or None for rejected) plus totals."""

    decisions: dict[str, Placement | None]
    total_utility: float
    solver: str

    @classmethod
    def from_decisions(cls, decisions, solver):
        total = sum(p.utility for p in decisions.values() if p is not None)
        return cls(decisions=dict(decisions), total_utility=total, solver=solver)

    def placed_on(self, node_id: str) -> list[str]:
        return [j for j, p in self.decisions.items() if p is not None and p.node == node_id]

    def rejected(self) -> list[str]:
        return [j for j, p in self.decisions.items() if p is None]

    def to_record(self, scenario_hash: str | None = None) -> dict:
        rows = []
        for j, p in self.decisions.items():
            if p is None:
                rows.append({"task_id": j, "status": "rejected", "node": "", "option": "",
                             "utility": 0.0, "risk": 0.0})
            else:
                rows.append({"task_id": j, "status": "placed", "node": p.node,
                             "option": p.option, "utility": p.utility, "risk": p.risk})
        rec = {"tasks": rows, "total_utility": self.total_utility, "solver": self.solver}
        if scenario_hash is not None:
            rec["scenario_hash"] = scenario_hash
        return rec


class UtilityTable:
    """Lazy cache of utility reports for every offered (task, node, option).

    Solvers share one table per scenario so each expectation integral runs
    once.  Reproduction experiments inject pre-built tables to rescore a
    fixed topology under varying intrinsic utilities.
    """

    def __init__(self, scenario: Scenario, reports=None):
        self.scenario = scenario
        self._tasks = {t.id: t for t in scenario.tasks}
        self._reports: dict[tuple[str, str, str], UtilityReport] = dict(reports or {})

    def report(self, task_id: str, node_id: str, option_id: str) -> UtilityReport:
        key = (task_id, node_id, option_id)
        rep = self._reports.get(key)
        if rep is None:
            task = self._tasks[task_id]
            rep = expected_utility(task, node_id, option_id, self.scenario.dist(*key))
            self._reports[key] = rep
        return rep


def _best_placement(table: UtilityTable, task: TaskSpec, nodes) -> Placement | None:
    """Scan nodes for the task's best placement, or None if none is positive.

    Options of utility <= 0 (including risk-infeasible ones) are skipped.
    Equal utilities prefer unlimited-capacity nodes (conserving finite
    slots), then earlier nodes, then earlier options; the ordering is what
    makes every solver deterministic.  Called with one node it gives the
    best option on that node.
    """
    best: Placement | None = None
    best_key = None
    for zpos, node in enumerate(nodes):
        for xpos, x in enumerate(node.options):
            if (node.id, x) not in task.intrinsic:
                continue
            rep = table.report(task.id, node.id, x)
            if rep.utility <= 0.0:
                continue
            key = (-rep.utility, 0 if node.infinite else 1, zpos, xpos)
            if best is None or key < best_key:
                best = Placement(node=node.id, option=x, utility=rep.utility, risk=rep.risk)
                best_key = key
    return best


def solve_uncapacitated(scenario: Scenario, table: UtilityTable | None = None) -> AssignmentPlan:
    """Optimal plan when every node has unlimited capacity.

    The objective decomposes across tasks, so the per-task best placement
    is globally optimal.  Tasks with best utility 0 are rejected.
    """
    finite = [n.id for n in scenario.nodes if not n.infinite]
    if finite:
        raise WrongSolverError(
            f"scenario has capacitated nodes {finite}; use solve_capacitated"
        )
    table = table or UtilityTable(scenario)
    decisions = {t.id: _best_placement(table, t, scenario.nodes) for t in scenario.tasks}
    return AssignmentPlan.from_decisions(decisions, solver="ua")


def complete_uncapacitated(
    scenario: Scenario, table: UtilityTable | None = None
) -> tuple[dict[str, Placement], list[TaskSpec]]:
    """Stage 1: finalize tasks whose overall best node is unlimited.

    Those tasks cannot benefit from a constrained slot, so their placement
    is already optimal.  Everyone else (including tasks with no positive
    option anywhere) stays in the residual set.
    """
    table = table or UtilityTable(scenario)
    placed: dict[str, Placement] = {}
    residual: list[TaskSpec] = []
    for t in scenario.tasks:
        best = _best_placement(table, t, scenario.nodes)
        if best is not None and scenario.node(best.node).infinite:
            placed[t.id] = best
        else:
            residual.append(t)
    return placed, residual


@dataclass
class CapGainTable:
    """Stage-2 output: per-(task, finite node) gains over the best fallback.

    ``gains[(j, z)] = u_j_on_z - u_j_fallback`` exactly; it is negative when
    the constrained node is worse than the task's unlimited fallback.  A
    missing fallback means no unlimited node offers positive utility, in
    which case the fallback utility is 0 and rejection looms.
    """

    gains: dict[tuple[str, str], float] = field(default_factory=dict)
    cap_best: dict[tuple[str, str], Placement | None] = field(default_factory=dict)
    fallback: dict[str, Placement | None] = field(default_factory=dict)


def capacitated_gains(
    residual: list[TaskSpec], scenario: Scenario, table: UtilityTable | None = None
) -> CapGainTable:
    table = table or UtilityTable(scenario)
    infinite_nodes = [n for n in scenario.nodes if n.infinite]
    finite_nodes = [n for n in scenario.nodes if not n.infinite]
    out = CapGainTable()
    for t in residual:
        fb = _best_placement(table, t, infinite_nodes)
        out.fallback[t.id] = fb
        u_inf = fb.utility if fb is not None else 0.0
        for node in finite_nodes:
            best = _best_placement(table, t, [node])
            out.cap_best[(t.id, node.id)] = best
            u_z = best.utility if best is not None else 0.0
            out.gains[(t.id, node.id)] = u_z - u_inf
    return out


def choose_for_capacitated(
    task_ids, gain1, gain2, c1: int, c2: int
) -> tuple[list, list, list]:
    """Stage 3: pick constrained-slot occupants by dynamic programming.

    ``gain1[i]``/``gain2[i]`` are task i's capacitated gains on the first
    and second finite node; a missing second node is modeled as c2 = 0.
    State value h(i, a, b) is the best achievable gain from the first i
    tasks using at most a slots on node 1 and b on node 2; each task is
    taken by node 1, taken by node 2, or skipped.  Ties prefer skipping
    (never spend a slot for zero gain, and on equal gains the earlier task
    keeps the slot), then node 1.

    Returns (tasks for node 1, tasks for node 2, unplaced tasks) in input
    order; the unplaced go on to the fallback/rejection stage.
    """
    task_ids = list(task_ids)
    n = len(task_ids)
    if c1 < 0 or c2 < 0:
        raise ValueError("capacities must be >= 0")
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
    # h(i, a, b) allows at most a and b slots, so it is monotone in capacity
    # and the full-capacity corner holds the optimum; backtracking from it
    # keeps the per-cell tie rule (skip, then node 1) as the only one.
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


def reject_unassignable(unplaced_ids, gains: CapGainTable) -> dict[str, Placement | None]:
    """Stage 4: route unchosen tasks to their unlimited fallback or reject."""
    out: dict[str, Placement | None] = {}
    for j in unplaced_ids:
        fb = gains.fallback.get(j)
        out[j] = fb if (fb is not None and fb.utility > 0.0) else None
    return out


def solve_capacitated(scenario: Scenario, table: UtilityTable | None = None) -> AssignmentPlan:
    """Optimal plan with up to two finite-capacity nodes present."""
    finite_nodes = [n for n in scenario.nodes if not n.infinite]
    if len(finite_nodes) > 2:
        raise UnsupportedTopologyError(
            f"{len(finite_nodes)} capacitated nodes; the slot-selection DP is "
            "implemented for at most 2 (extend the state with one fill-level "
            "axis per extra node to generalize)"
        )
    table = table or UtilityTable(scenario)
    placed, residual = complete_uncapacitated(scenario, table)
    gains = capacitated_gains(residual, scenario, table)
    node1 = finite_nodes[0] if finite_nodes else None
    node2 = finite_nodes[1] if len(finite_nodes) > 1 else None
    ids = [t.id for t in residual]
    gain1 = [gains.gains.get((j, node1.id), 0.0) if node1 else 0.0 for j in ids]
    gain2 = [gains.gains.get((j, node2.id), 0.0) if node2 else 0.0 for j in ids]
    set1, set2, unplaced = choose_for_capacitated(
        ids, gain1, gain2, node1.capacity if node1 else 0, node2.capacity if node2 else 0
    )
    decisions: dict[str, Placement | None] = {}
    for t in scenario.tasks:
        j = t.id
        if j in placed:
            decisions[j] = placed[j]
        elif node1 and j in set1:
            decisions[j] = gains.cap_best[(j, node1.id)]
        elif node2 and j in set2:
            decisions[j] = gains.cap_best[(j, node2.id)]
    decisions.update(reject_unassignable(unplaced, gains))
    decisions = {t.id: decisions[t.id] for t in scenario.tasks}
    return AssignmentPlan.from_decisions(decisions, solver="at")


# ---------------------------------------------------------------------------
# Exhaustive oracle and plan validation (test machinery, kept importable)
# ---------------------------------------------------------------------------

BRUTE_MAX_TASKS = 10
BRUTE_MAX_NODES = 4
BRUTE_MAX_OPTIONS = 3


def brute_force_optimum(scenario: Scenario, table: UtilityTable | None = None) -> AssignmentPlan:
    """Enumerate every feasible assignment on a small instance.

    All (set-for-node-1, set-for-node-2, ...) combinations over the finite
    nodes are enumerated outright; tasks left over independently take
    their best unlimited placement or are rejected.  Guarded against
    combinatorial blowup; intended as the optimality oracle in tests.
    """
    if len(scenario.tasks) > BRUTE_MAX_TASKS:
        raise SizeGuardError(f"brute force limited to {BRUTE_MAX_TASKS} tasks")
    if len(scenario.nodes) > BRUTE_MAX_NODES:
        raise SizeGuardError(f"brute force limited to {BRUTE_MAX_NODES} nodes")
    if any(len(n.options) > BRUTE_MAX_OPTIONS for n in scenario.nodes):
        raise SizeGuardError(f"brute force limited to {BRUTE_MAX_OPTIONS} options per node")
    table = table or UtilityTable(scenario)

    finite_nodes = [n for n in scenario.nodes if not n.infinite]
    infinite_nodes = [n for n in scenario.nodes if n.infinite]
    task_ids = [t.id for t in scenario.tasks]
    node_best = {
        (t.id, n.id): _best_placement(table, t, [n])
        for t in scenario.tasks
        for n in finite_nodes
    }
    inf_best = {t.id: _best_placement(table, t, infinite_nodes) for t in scenario.tasks}

    best_total = -1.0
    best_assign: dict[str, Placement] = {}

    def rest_value(assigned):
        val = 0.0
        for j in task_ids:
            if j not in assigned:
                fb = inf_best[j]
                if fb is not None:
                    val += fb.utility
        return val

    def recurse(node_idx: int, assigned: dict[str, Placement], total: float):
        nonlocal best_total, best_assign
        if node_idx == len(finite_nodes):
            grand = total + rest_value(assigned)
            if grand > best_total + TOTAL_TOL / 10:
                best_total = grand
                best_assign = dict(assigned)
            return
        node = finite_nodes[node_idx]
        candidates = [
            j for j in task_ids
            if j not in assigned and node_best[(j, node.id)] is not None
        ]
        for size in range(0, min(node.capacity, len(candidates)) + 1):
            for subset in itertools.combinations(candidates, size):
                added = 0.0
                for j in subset:
                    assigned[j] = node_best[(j, node.id)]
                    added += node_best[(j, node.id)].utility
                recurse(node_idx + 1, assigned, total + added)
                for j in subset:
                    del assigned[j]

    recurse(0, {}, 0.0)
    decisions: dict[str, Placement | None] = {}
    for j in task_ids:
        if j in best_assign:
            decisions[j] = best_assign[j]
        else:
            fb = inf_best[j]
            decisions[j] = fb if (fb is not None and fb.utility > 0.0) else None
    return AssignmentPlan.from_decisions(decisions, solver="oracle")


def validate_plan(scenario: Scenario, plan: AssignmentPlan, tol: float = TOTAL_TOL) -> list[str]:
    """Check a plan against every feasibility constraint; [] means valid.

    Verifies: one decision per task, placements reference offered options,
    node capacities are respected, each placement's timeliness risk fits
    the task budget (risk recomputed from the latency model, not trusted
    from the plan), and the recorded utilities and total are finite and
    consistent.
    """
    problems: list[str] = []
    task_ids = [t.id for t in scenario.tasks]
    if set(plan.decisions) != set(task_ids):
        problems.append("plan decisions do not cover exactly the scenario task set")
        return problems
    load: dict[str, int] = {}
    total = 0.0
    for t in scenario.tasks:
        p = plan.decisions[t.id]
        if p is None:
            continue
        try:
            node = scenario.node(p.node)
        except KeyError:
            problems.append(f"task {t.id}: placed on unknown node {p.node!r}")
            continue
        if p.option not in node.options:
            problems.append(f"task {t.id}: option {p.option!r} not offered by node {p.node}")
            continue
        if (p.node, p.option) not in t.intrinsic:
            problems.append(f"task {t.id}: pair ({p.node}, {p.option}) not offered to the task")
            continue
        load[p.node] = load.get(p.node, 0) + 1
        dist = scenario.dist(t.id, p.node, p.option)
        risk = risk_probability(t.time_utility, dist, t.quality_floor)
        if risk > t.risk_budget + tol:
            problems.append(
                f"task {t.id}: risk {risk!r} exceeds budget {t.risk_budget!r} on ({p.node}, {p.option})"
            )
        rep = expected_utility(t, p.node, p.option, dist)
        if not math.isfinite(p.utility):
            problems.append(f"task {t.id}: recorded utility {p.utility!r} is not finite")
        elif abs(rep.utility - p.utility) > 1e-6:
            problems.append(
                f"task {t.id}: recorded utility {p.utility!r} differs from recomputed {rep.utility!r}"
            )
        total += p.utility
    for node in scenario.nodes:
        if not node.infinite and load.get(node.id, 0) > node.capacity:
            problems.append(
                f"node {node.id}: {load[node.id]} tasks placed, capacity {node.capacity}"
            )
    if not math.isfinite(plan.total_utility):
        problems.append(f"total utility {plan.total_utility!r} is not finite")
    elif abs(total - plan.total_utility) > tol:
        problems.append(
            f"total utility {plan.total_utility!r} differs from sum of placements {total!r}"
        )
    return problems
