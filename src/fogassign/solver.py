"""Exact solvers for task admission and placement.

Each task is placed on at most one (node, option) pair or rejected; the
objective is the sum of expected utilities, subject to per-node task
capacities and per-task timeliness-risk budgets.

A scenario's scores are one array: ``UtilityTable`` holds ``utility``,
``risk`` and ``feasible`` of shape (tasks, columns), one column per
(node, option) pair in node order, then option order.  Every solver reads
it, and a decision is a column index, or -1 for a rejected task.  A
``UtilityReport`` enters the table only by injection, in place of a pair's
integral; the table keeps no report of its own.

``solve_batch`` solves a stack of score arrays, shape (runs, tasks,
columns), in four stages:

1. each task's best option per node is the first ``argmax`` in the node's
   column block,
2. every task's *capacitated gain* on each finite node is its best utility
   there minus its best unlimited fallback,
3. each run's gain-maximizing slot occupants are picked by a dynamic
   program over (task index, slots used on node 1, slots used on node 2),
   for up to two finite-capacity nodes (``choose_for_capacitated``); one
   sweep solves every run of the batch, over the tasks with a positive
   gain in any run,
4. every task stage 3 did not choose goes to its unlimited fallback, and
   tasks with no positive-utility fallback are rejected.

``solve_capacitated`` and ``solve_uncapacitated`` turn one table's chosen
columns into ``Placement``s.  A gain of 0 or less is never chosen: the
DP's skip branch dominates, so constrained slots are never filled at a
loss.  A task whose best is on an unlimited node has no positive gain, so
it ends on that best through stage 4.

Tie-breaking is deterministic throughout: higher utility first, then
unlimited-capacity nodes over finite ones (to conserve constrained
slots), then node order, then option order.  Tasks whose best utility is
exactly 0 are rejected rather than placed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import Scenario
from .utility import expected_utilities

__all__ = [
    "Placement",
    "AssignmentPlan",
    "UtilityTable",
    "solve_uncapacitated",
    "solve_capacitated",
    "solve_batch",
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
# The fields of one plan row, in the order the plan CSV writes them.
PLAN_COLUMNS = ("task_id", "status", "node", "option", "utility", "risk")


class WrongSolverError(ValueError):
    pass


class UnsupportedTopologyError(ValueError):
    pass


class SizeGuardError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
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
        rows = [
            dict(zip(PLAN_COLUMNS, (j, "rejected", "", "", 0.0, 0.0) if p is None
                     else (j, "placed", p.node, p.option, p.utility, p.risk)))
            for j, p in self.decisions.items()
        ]
        rec = {"tasks": rows, "total_utility": self.total_utility, "solver": self.solver}
        if scenario_hash is not None:
            rec["scenario_hash"] = scenario_hash
        return rec


class UtilityTable:
    """The scenario's score array.

    ``utility``, ``risk`` and ``feasible`` have shape (tasks, columns), with
    one column per (node, option) pair in node order, then option order, as
    listed in ``columns``.  A pair not offered to a task has utility 0 and
    is infeasible; a risk-infeasible pair has utility 0.  The arrays are
    filled on first use.  Injected ``reports``, keyed by (task, node,
    option), stand in for their pairs' integrals, which lets experiments
    rescore a fixed topology; every other offered pair is scored once, all
    of them together (``utility.expected_utilities``), into the arrays
    only.
    """

    def __init__(self, scenario: Scenario, reports=None):
        self.scenario = scenario
        self.columns = [(n.id, x) for n in scenario.nodes for x in n.options]
        self._tasks = {t.id: t for t in scenario.tasks}
        self._reports = dict(reports or {})  # the injected reports only

    def _score(self, keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Utility, risk and feasibility of the (task, node, option) pairs ``keys``."""
        return expected_utilities(
            [self._tasks[j] for j, _, _ in keys],
            [(z, x) for _, z, x in keys],
            [self.scenario.dist(*key) for key in keys],
        )

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (len(self.scenario.tasks), len(self.columns))
        utility, risk, feasible = np.zeros(shape), np.zeros(shape), np.zeros(shape, dtype=bool)
        cells, keys = [], []  # the offered pairs no report stands in for
        for i, t in enumerate(self.scenario.tasks):
            for k, (z, x) in enumerate(self.columns):
                if (z, x) in t.intrinsic:
                    rep = self._reports.get((t.id, z, x))
                    if rep is None:
                        cells.append((i, k))
                        keys.append((t.id, z, x))
                    else:
                        utility[i, k], risk[i, k], feasible[i, k] = rep.utility, rep.risk, rep.feasible
        if keys:
            rows, cols = np.array(cells).T
            for a, score in zip((utility, risk, feasible), self._score(keys)):
                a[rows, cols] = score
        for a in (utility, risk, feasible):
            a.flags.writeable = False  # shared by every solver that reads the table
        return utility, risk, feasible

    @cached_property
    def intrinsic(self) -> np.ndarray:
        """Each task's intrinsic quality per column, 0 where not offered."""
        out = np.array([[t.intrinsic.get(zx, 0.0) for zx in self.columns] for t in self.scenario.tasks])
        out = out.reshape(len(self.scenario.tasks), len(self.columns))
        out.flags.writeable = False
        return out

    utility = property(lambda self: self._arrays[0])
    risk = property(lambda self: self._arrays[1])
    feasible = property(lambda self: self._arrays[2])

    def plan(self, chosen, solver: str) -> AssignmentPlan:
        """The plan placing task i on column ``chosen[i]`` (-1: rejected).

        An injected pair's placement holds its report's own utility and risk
        floats, so plans built from one injection add no floats; every other
        placement reads its cell of the arrays.
        """
        utility, risk, _ = self._arrays
        decisions = {}
        for i, (t, k) in enumerate(zip(self.scenario.tasks, np.asarray(chosen).tolist())):
            if k < 0:
                decisions[t.id] = None
                continue
            z, x = self.columns[k]
            rep = self._reports.get((t.id, z, x))
            if rep is None:
                decisions[t.id] = Placement(z, x, float(utility[i, k]), float(risk[i, k]))
            else:
                decisions[t.id] = Placement(z, x, rep.utility, rep.risk)
        return AssignmentPlan.from_decisions(decisions, solver=solver)


def _node_kinds(scenario: Scenario) -> tuple[list[int], list[int]]:
    """Positions of the unlimited nodes and of the finite ones."""
    unlimited = [z for z, n in enumerate(scenario.nodes) if n.infinite]
    return unlimited, [z for z, n in enumerate(scenario.nodes) if not n.infinite]


def complete_uncapacitated(scenario: Scenario, utility: np.ndarray):
    """Stage 1: each task's best positive option on each node.

    ``utility`` has shape (..., tasks, columns).  The best is the first
    ``argmax`` in the node's column block, so the earlier option wins a
    tie.  Returns utilities and columns of shape (..., tasks, nodes), 0 and
    -1 where the node offers nothing positive.
    """
    shape = (*utility.shape[:-1], len(scenario.nodes))
    node_u, node_col = np.zeros(shape), np.full(shape, -1)
    start = 0
    for z, node in enumerate(scenario.nodes):
        block = utility[..., start:start + len(node.options)]
        k = block.argmax(axis=-1)
        u = np.take_along_axis(block, k[..., None], axis=-1)[..., 0]
        positive = u > 0.0
        node_u[..., z] = np.where(positive, u, 0.0)
        node_col[..., z] = np.where(positive, start + k, -1)
        start += len(node.options)
    return node_u, node_col


def capacitated_gains(scenario: Scenario, node_u: np.ndarray, node_col: np.ndarray):
    """Stage 2: each task's gain on each finite node over its fallback.

    The fallback is the task's first best over the unlimited nodes; its
    utility is 0 and its column -1 when none offers anything positive.
    The gain array, of shape (..., tasks, finite nodes), is the node's
    best utility minus the fallback's exactly; it is negative when the
    finite node is worse.  Returns (gains, fallback utility, fallback
    column).
    """
    unlimited, finite = _node_kinds(scenario)
    if unlimited:
        u, col = node_u[..., unlimited], node_col[..., unlimited]
        pos = u.argmax(axis=-1)[..., None]
        fb_u = np.take_along_axis(u, pos, -1)[..., 0]
        fb_col = np.take_along_axis(col, pos, -1)[..., 0]
    else:
        fb_u, fb_col = np.zeros(node_u.shape[:-1]), np.full(node_u.shape[:-1], -1)
    return node_u[..., finite] - fb_u[..., None], fb_u, fb_col


def choose_for_capacitated(task_ids, gain1, gain2, c1: int, c2: int):
    """Stage 3: pick constrained-slot occupants by dynamic programming.

    ``gain1[r, i]``/``gain2[r, i]`` are task i's capacitated gains in run
    r on the first and second finite node, for the n tasks of
    ``task_ids``; a missing second node is modeled as c2 = 0.  State
    value h(i, a, b) is the best achievable gain from the first i tasks
    using at most a slots on node 1 and b on node 2; each task is taken
    by node 1, taken by node 2, or skipped.  Ties prefer skipping (never
    spend a slot for zero gain, and on equal gains the earlier task keeps
    the slot), then node 1.

    One sweep solves every run: each task updates the (runs, a, b) grid
    at once with numpy.  Shifted slices of h(i - 1) are the node-1 and
    node-2 candidates, each compared with a strict ``>`` in the tie order,
    so every cell makes the same float additions and comparisons as a
    cell-by-cell loop over one run would.
    A task whose gain is 0 or less in a run changes nothing there: h is
    monotone in capacity, so neither candidate beats the cell it would
    replace, and the task's step leaves h and every other task's slot as
    they were.  Slots beyond the task count cannot be filled, so each
    axis is clipped to ``n``.  The two take-masks kept for the backtrack
    cost 2 * n * runs * (min(c1, n) + 1) * (min(c2, n) + 1) bytes
    together.

    Returns a (runs, n) slot array: 0 for a task taken by node 1, 1 for
    node 2, -1 for none; the unplaced go on to the fallback/rejection
    stage.
    """
    n = len(task_ids)
    if c1 < 0 or c2 < 0:
        raise ValueError("capacities must be >= 0")
    g1, g2 = np.asarray(gain1, dtype=float), np.asarray(gain2, dtype=float)
    if g1.shape != g2.shape or g1.ndim != 2 or g1.shape[1] != n:
        raise ValueError(
            f"gain arrays of shapes {g1.shape} and {g2.shape} for {n} tasks; "
            f"each needs shape (runs, {n}), length {n} on its last axis"
        )
    runs = len(g1)
    c1, c2 = min(c1, n), min(c2, n)
    h = np.zeros((runs, c1 + 1, c2 + 1))
    # take1[i, r, a, b]: task i went to node 1 at (a, b) in run r; take2:
    # to node 2.  Row a = 0 of take1 and column b = 0 of take2 stay False.
    take1 = np.zeros((n, runs, c1 + 1, c2 + 1), dtype=bool)
    take2 = np.zeros((n, runs, c1 + 1, c2 + 1), dtype=bool)
    cand1, cand2 = np.empty((runs, c1, c2 + 1)), np.empty((runs, c1 + 1, c2))
    from1, to1, takes1 = h[:, :-1, :], h[:, 1:, :], take1[:, :, 1:, :]
    from2, to2, takes2 = h[:, :, :-1], h[:, :, 1:], take2[:, :, :, 1:]
    # Each task's gains as (runs, 1, 1) columns broadcast over each run's grid.
    col1 = g1.T.reshape(n, runs, 1, 1)
    col2 = g2.T.reshape(n, runs, 1, 1)
    for x1, x2, t1, t2 in zip(col1, col2, takes1, takes2):
        # Both candidates read h(i - 1), so both are formed before h changes.
        # Node 1 must beat skipping; node 2 must beat the result of that.
        np.add(from1, x1, out=cand1)
        np.add(from2, x2, out=cand2)
        np.greater(cand1, to1, out=t1)
        np.copyto(to1, cand1, where=t1)
        np.greater(cand2, to2, out=t2)
        np.copyto(to2, cand2, where=t2)
    # h(i, a, b) allows at most a and b slots, so it is monotone in capacity
    # and the full-capacity corner holds the optimum; backtracking from it
    # keeps the per-cell tie rule (skip, then node 1) as the only one.  The
    # backtrack reads each run's masks in scalar steps: a numpy step per
    # task over the run axis costs over ten times as much on a one-run solve.
    slots = []
    for r in range(runs):
        t1, t2, row = take1[:, r], take2[:, r], [-1] * n
        a, b = c1, c2
        for i in reversed(range(n)):
            if t2[i, a, b]:
                row[i] = 1
                b -= 1
            elif t1[i, a, b]:
                row[i] = 0
                a -= 1
        slots.append(row)
    return np.array(slots, dtype=int).reshape(runs, n)


def _slot_nodes(scenario: Scenario) -> list[int]:
    """Positions of the finite nodes, at most two of them."""
    _, finite = _node_kinds(scenario)
    if len(finite) > 2:
        raise UnsupportedTopologyError(
            f"{len(finite)} capacitated nodes; the slot-selection DP handles at most 2"
        )
    return finite


def reject_unassignable(chosen: np.ndarray, fallback_u: np.ndarray, fallback_col: np.ndarray):
    """Stage 4: send unchosen tasks (-1) to their fallback, or reject them
    when it has no positive utility."""
    return np.where(chosen < 0, np.where(fallback_u > 0.0, fallback_col, -1), chosen)


def solve_batch(scenario: Scenario, utility) -> np.ndarray:
    """Each run's optimal decisions from a stack of score arrays.

    ``utility`` has shape (runs, tasks, columns), with the columns of
    ``UtilityTable(scenario)``.  A pair scored 0 or less is never chosen,
    so unoffered and risk-infeasible pairs score 0, as in the table.
    Returns each task's chosen column per run, -1 for a rejected task.
    Every stage runs once on the whole stack; stage 3 sees the tasks with
    a positive gain in any run.
    """
    finite = _slot_nodes(scenario)
    utility = np.asarray(utility, dtype=float)
    node_u, node_col = complete_uncapacitated(scenario, utility)
    gains, fb_u, fb_col = capacitated_gains(scenario, node_u, node_col)
    # A missing second (or first) finite node is a node of no slots.
    gains = np.concatenate([gains, np.zeros((*gains.shape[:-1], 2 - len(finite)))], axis=-1)
    c1, c2 = ([scenario.nodes[z].capacity for z in finite] + [0, 0])[:2]
    ids = np.flatnonzero((gains > 0).any(axis=(0, 2)))
    slots = choose_for_capacitated(ids, gains[:, ids, 0], gains[:, ids, 1], c1, c2)
    chosen = np.full(fb_col.shape, -1)
    for slot, z in enumerate(finite):
        chosen[:, ids] = np.where(slots == slot, node_col[:, ids, z], chosen[:, ids])
    return reject_unassignable(chosen, fb_u, fb_col)


def solve_uncapacitated(scenario: Scenario, table: UtilityTable | None = None) -> AssignmentPlan:
    """Optimal plan when every node has unlimited capacity.

    The objective decomposes across tasks, so each task's best placement
    is globally optimal.  With no finite node there is no gain, and stage
    4 places every task on its fallback, the first best over all nodes.
    Tasks with best utility 0 are rejected.
    """
    finite = [n.id for n in scenario.nodes if not n.infinite]
    if finite:
        raise WrongSolverError(
            f"scenario has capacitated nodes {finite}; use solve_capacitated"
        )
    table = table or UtilityTable(scenario)
    return table.plan(solve_batch(scenario, table.utility[None])[0], solver="ua")


def solve_capacitated(scenario: Scenario, table: UtilityTable | None = None) -> AssignmentPlan:
    """Optimal plan with up to two finite-capacity nodes present."""
    _slot_nodes(scenario)  # refuse an unsupported topology before scoring it
    table = table or UtilityTable(scenario)
    return table.plan(solve_batch(scenario, table.utility[None])[0], solver="at")


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

    _, finite = _node_kinds(scenario)
    node_u, node_col = complete_uncapacitated(scenario, table.utility)
    _, fb_u, fb_col = capacitated_gains(scenario, node_u, node_col)
    node_u, node_col, fb_u = node_u.tolist(), node_col.tolist(), fb_u.tolist()
    tasks = range(len(scenario.tasks))

    best_total = -1.0
    best_assign: dict[int, int] = {}

    def recurse(f: int, assigned: dict[int, int], total: float):
        nonlocal best_total, best_assign
        if f == len(finite):
            rest = 0.0
            for i in tasks:
                if i not in assigned:
                    rest += fb_u[i]
            grand = total + rest
            if grand > best_total + TOTAL_TOL / 10:
                best_total = grand
                best_assign = dict(assigned)
            return
        z = finite[f]
        candidates = [i for i in tasks if i not in assigned and node_col[i][z] >= 0]
        for size in range(0, min(scenario.nodes[z].capacity, len(candidates)) + 1):
            for subset in itertools.combinations(candidates, size):
                added = 0.0
                for i in subset:
                    assigned[i] = node_col[i][z]
                    added += node_u[i][z]
                recurse(f + 1, assigned, total + added)
                for i in subset:
                    del assigned[i]

    recurse(0, {}, 0.0)
    return table.plan([best_assign.get(i, fb_col[i]) for i in tasks], solver="oracle")


def validate_plan(scenario: Scenario, plan: AssignmentPlan) -> list[str]:
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
    checked: list = []  # in task order: a problem, or a placement to rescore
    for t in scenario.tasks:
        p = plan.decisions[t.id]
        if p is None:
            continue
        try:
            node = scenario.node(p.node)
        except KeyError:
            checked.append(f"task {t.id}: placed on unknown node {p.node!r}")
            continue
        if p.option not in node.options:
            checked.append(f"task {t.id}: option {p.option!r} not offered by node {p.node}")
            continue
        if (p.node, p.option) not in t.intrinsic:
            checked.append(f"task {t.id}: pair ({p.node}, {p.option}) not offered to the task")
            continue
        load[p.node] = load.get(p.node, 0) + 1
        checked.append((t, p))
    placed = [c for c in checked if not isinstance(c, str)]
    utility, risk, _ = expected_utilities(
        [t for t, _ in placed],
        [(p.node, p.option) for _, p in placed],
        [scenario.dist(t.id, p.node, p.option) for t, p in placed],
    )
    scores = zip(utility.tolist(), risk.tolist())
    total = 0.0
    for c in checked:
        if isinstance(c, str):
            problems.append(c)
            continue
        (t, p), (u, r) = c, next(scores)
        if r > t.risk_budget + TOTAL_TOL:
            problems.append(
                f"task {t.id}: risk {r!r} exceeds budget {t.risk_budget!r} "
                f"on ({p.node}, {p.option})"
            )
        if not math.isfinite(p.utility):
            problems.append(f"task {t.id}: recorded utility {p.utility!r} is not finite")
        elif abs(u - p.utility) > 1e-6:
            problems.append(
                f"task {t.id}: recorded utility {p.utility!r} differs from recomputed {u!r}"
            )
        total += p.utility
    for node in scenario.nodes:
        if not node.infinite and load.get(node.id, 0) > node.capacity:
            problems.append(
                f"node {node.id}: {load[node.id]} tasks placed, capacity {node.capacity}"
            )
    if not math.isfinite(plan.total_utility):
        problems.append(f"total utility {plan.total_utility!r} is not finite")
    elif abs(total - plan.total_utility) > TOTAL_TOL:
        problems.append(
            f"total utility {plan.total_utility!r} differs from sum of placements {total!r}"
        )
    return problems
