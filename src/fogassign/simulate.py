"""Monte-Carlo realization of plans, reference strategies, and result files.

``simulate`` draws completion times for every placed task and keeps only
the mean and standard error of the utilities they earn, which lets the
planning expectations be checked against averages with error bars.  The
two reference strategies collapse the latency distribution to a single consideration — lowest median
latency, or highest intrinsic quality — exactly the single-statistic
habits the expected-utility planner improves on; they pick per task and
ignore node capacities.

``emit`` writes results, to a file or to stdout, deterministically: keys
sorted, floats at 9 significant digits, so identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .latency import Columns, Degenerate, make_rng
from .scenario import Scenario
from .solver import PLAN_COLUMNS, AssignmentPlan, UtilityTable

__all__ = [
    "SimulationResult",
    "simulate",
    "run_baseline",
    "round9",
    "emit",
]

BASELINES = ("min-latency", "max-quality")


@dataclass
class SimulationResult:
    plan: AssignmentPlan
    reps: int
    per_task_mean: dict[str, float]
    per_task_se: dict[str, float]
    overall_mean: float
    overall_se: float
    baselines: dict[str, "SimulationResult"] = field(default_factory=dict)
    # A baseline's paired gap to the plan it was simulated with, and its se.
    gap: float | None = None
    gap_se: float | None = None

    def to_record(self) -> dict:
        rec = {
            "solver": self.plan.solver,
            "reps": self.reps,
            "overall_mean": self.overall_mean,
            "overall_se": self.overall_se,
            "per_task": {
                j: {"mean": self.per_task_mean[j], "se": self.per_task_se[j]}
                for j in self.per_task_mean
            },
        }
        if self.gap is not None:
            rec["gap"] = self.gap
            rec["gap_se"] = self.gap_se
        if self.baselines:
            rec["baselines"] = {k: v.to_record() for k, v in self.baselines.items()}
        return rec


def simulate(
    scenario: Scenario,
    plan: AssignmentPlan,
    reps: int,
    rng,
    baselines: dict[str, AssignmentPlan] | None = None,
) -> SimulationResult:
    """Draw ``reps`` completion times per placed task and score them, for
    ``plan`` and for each plan in ``baselines``.

    Each task has one child seed spawned from the caller's generator, so
    results are reproducible and adding tasks does not perturb other
    tasks' draws.  Every strategy draws a task's completion times from that
    seed (common random numbers), and a (task, pair) chosen by several
    strategies is drawn and scored once, so the plan's numbers are the same
    with or without baselines.  A task placed on a point mass draws
    nothing: all its ``reps`` completion times are that value, so it is
    scored from that one value, with a standard error of 0.  Rejected
    tasks contribute 0; the overall mean averages over all tasks, matching
    how scenario-level average utility is defined.

    Each baseline's result holds its paired gap to the plan: ``gap``, the
    mean over tasks of (plan - baseline), and ``gap_se``, its standard
    error from each task's paired differences.  A task placed alike adds
    exactly 0; one where either side's values are all equal (rejected, a
    point mass, or ``reps == 1``) adds the two squared standard errors.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = make_rng(rng)
    # The seeds of rng.spawn's children: a generator is built only for a
    # pair that draws, and rng's spawn counter advances as spawn advances it.
    bits = type(rng.bit_generator)
    seeds = rng.bit_generator.seed_seq.spawn(len(scenario.tasks))
    # Squared deviations, reused by every pair: the steps of
    # vals.std(ddof=1) without its second mean and its temporaries.
    dev = np.empty(reps)

    def score(t, seed, pair):
        """Mean, se and the per-rep values (None when all are equal) of one pair."""
        dist = scenario.dist(t.id, *pair)
        a = t.intrinsic[pair]
        if isinstance(dist, Degenerate):
            # Every copy of the value scores alike; the mean is the same
            # pairwise sum over reps copies that a drawn column gets.
            value = t.time_utility.value(np.full(1, dist.value))[0] * a
            return float(np.add.reduce(np.full(reps, value)) / reps), 0.0, None
        vals = t.time_utility.value(dist.sample(np.random.Generator(bits(seed)), reps))
        vals *= a
        mean = np.add.reduce(vals) / reps
        if reps == 1:
            return float(mean), 0.0, None
        np.subtract(vals, mean, out=dev)
        np.square(dev, out=dev)
        se = math.sqrt(float(np.add.reduce(dev)) / (reps - 1)) / math.sqrt(reps)
        # Equal draws have no spread, but std leaves a rounding residue on
        # them, far below 1e-9 for values in [0, 1]: only such an se is checked.
        if se < 1e-9 and vals.min() == vals.max():
            return float(mean), 0.0, None
        return float(mean), se, vals

    def paired_var(x, y):
        """Variance of the mean of x - y: the se steps on the differences."""
        np.subtract(x, y, out=dev)
        np.subtract(dev, np.add.reduce(dev) / reps, out=dev)
        np.square(dev, out=dev)
        return float(np.add.reduce(dev)) / (reps - 1) / reps

    plans = [plan, *(baselines or {}).values()]
    means: list[dict[str, float]] = [{} for _ in plans]
    ses: list[dict[str, float]] = [{} for _ in plans]
    # Per baseline, the variance of each task's plan-minus-baseline mean.
    gap_vars: list[list[float]] = [[] for _ in plans[1:]]
    for t, seed in zip(scenario.tasks, seeds):
        scored = {None: (0.0, 0.0, None)}  # a rejected task
        picks = []
        for s, strategy in enumerate(plans):
            p = strategy.decisions.get(t.id)
            pair = None if p is None else (p.node, p.option)
            if pair not in scored:
                scored[pair] = score(t, seed, pair)
            means[s][t.id], ses[s][t.id], _ = scored[pair]
            picks.append(pair)
        _, se_p, vals_p = scored[picks[0]]
        for b, pair in enumerate(picks[1:]):
            _, se_b, vals_b = scored[pair]
            if pair == picks[0]:
                gap_vars[b].append(0.0)
            elif vals_p is None or vals_b is None:
                gap_vars[b].append(se_p**2 + se_b**2)
            else:
                gap_vars[b].append(paired_var(vals_p, vals_b))
    n_tasks = max(len(scenario.tasks), 1)

    def result(s, **fields):
        return SimulationResult(
            plan=plans[s],
            reps=reps,
            per_task_mean=means[s],
            per_task_se=ses[s],
            overall_mean=float(sum(means[s].values()) / n_tasks),
            overall_se=float(np.sqrt(sum(se**2 for se in ses[s].values())) / n_tasks),
            **fields,
        )

    sub = {
        name: result(b + 1,
                     gap=float(sum(means[0][j] - means[b + 1][j] for j in means[0]) / n_tasks),
                     gap_se=float(np.sqrt(sum(gap_vars[b])) / n_tasks))
        for b, name in enumerate(baselines or {})
    }
    return result(0, baselines=sub)


def run_baseline(scenario: Scenario, strategy: str, table: UtilityTable | None = None) -> AssignmentPlan:
    """Single-statistic reference strategy.

    ``min-latency`` sends each task to its risk-feasible option with the
    lowest median completion time; ``max-quality`` to the one with the
    highest intrinsic utility.  Ties prefer earlier nodes then earlier
    options.  Capacities are ignored: these mirror strategies that place
    every task by one greedy criterion.
    """
    if strategy not in BASELINES:
        raise ValueError(f"unknown baseline {strategy!r}; expected one of {BASELINES}")
    table = table or UtilityTable(scenario)
    feasible = table.feasible
    if strategy == "min-latency":
        score = np.full(feasible.shape, np.inf)
        rows, cols = np.nonzero(feasible)
        tasks = scenario.tasks
        dists = [scenario.dist(tasks[i].id, *table.columns[k])
                 for i, k in zip(rows.tolist(), cols.tolist())]
        score[rows, cols] = Columns(dists).median()
    else:
        score = np.where(feasible, -table.intrinsic, np.inf)
    # The first minimum in column order: earlier nodes, then earlier options.
    # (argmin has no answer for a scenario without nodes, where all are rejected.)
    first = score.argmin(axis=1) if table.columns else -1
    return table.plan(np.where(feasible.any(axis=1), first, -1), solver=strategy)


# ---------------------------------------------------------------------------
# Deterministic result files
# ---------------------------------------------------------------------------

def round9(obj):
    """Recursively round floats to 9 significant digits (round-trip safe)."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round9(v) for v in obj]
    return obj


def emit(record: dict, fmt: str, path=None) -> Path | None:
    """Write a result record as canonical JSON or as the plan CSV.

    The record is rendered once; the same bytes go to ``path``, or to
    stdout when ``path`` is None (the CSV keeps its ``\\r\\n`` rows there
    too).  Returns the path written, or None for stdout.
    """
    if fmt == "json":
        text = json.dumps(round9(record), sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        if "tasks" not in record:
            raise ValueError("CSV emission expects a plan record with task rows")
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(PLAN_COLUMNS)
        for row in record["tasks"]:
            cells = (row[column] for column in PLAN_COLUMNS)
            writer.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in cells])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown emit format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return None
    path = Path(path)
    path.write_text(text, encoding="utf-8", newline="")
    return path
