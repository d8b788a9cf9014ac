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
from dataclasses import dataclass
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
    baselines: dict[str, "SimulationResult"]

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
    """Draw ``reps`` completion times per placed task and score them.

    Each task consumes an independent child stream spawned from the
    caller's generator, so results are reproducible and adding tasks does
    not perturb other tasks' draws.  A task placed on a point mass draws
    nothing from its stream: all its ``reps`` completion times are that
    value, so it is scored from that one value, with a standard error of
    0.  Rejected tasks contribute 0; the overall mean averages over all
    tasks, matching how scenario-level average utility is defined.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    rng = make_rng(rng)
    # The seeds of rng.spawn's children: a generator is built only for a
    # task that draws, and rng's spawn counter advances as spawn advances it.
    bits = type(rng.bit_generator)
    seeds = rng.bit_generator.seed_seq.spawn(len(scenario.tasks))
    means: dict[str, float] = {}
    ses: dict[str, float] = {}
    # Squared deviations, reused by every task: the steps of
    # vals.std(ddof=1) without its second mean and its temporaries.
    dev = np.empty(reps)
    for t, seed in zip(scenario.tasks, seeds):
        p = plan.decisions.get(t.id)
        if p is None:
            means[t.id] = 0.0
            ses[t.id] = 0.0
            continue
        dist = scenario.dist(t.id, p.node, p.option)
        a = t.intrinsic[(p.node, p.option)]
        if isinstance(dist, Degenerate):
            # Every copy of the value scores alike; the mean is the same
            # pairwise sum over reps copies that a drawn column gets.
            value = t.time_utility.value(np.full(1, dist.value))[0] * a
            means[t.id] = float(np.add.reduce(np.full(reps, value)) / reps)
            ses[t.id] = 0.0
            continue
        draws = dist.sample(np.random.Generator(bits(seed)), reps)
        vals = t.time_utility.value(draws)
        vals *= a
        mean = np.add.reduce(vals) / reps
        means[t.id] = float(mean)
        if reps == 1:
            ses[t.id] = 0.0
            continue
        np.subtract(vals, mean, out=dev)
        np.square(dev, out=dev)
        se = math.sqrt(float(np.add.reduce(dev)) / (reps - 1)) / math.sqrt(reps)
        # Equal draws have no spread, but std leaves a rounding residue on
        # them, far below 1e-9 for values in [0, 1]: only such an se is checked.
        ses[t.id] = 0.0 if se < 1e-9 and vals.min() == vals.max() else se
    n_tasks = max(len(scenario.tasks), 1)
    overall = float(sum(means.values()) / n_tasks)
    overall_se = float(np.sqrt(sum(se**2 for se in ses.values())) / n_tasks)
    sub = {}
    for name, bplan in (baselines or {}).items():
        sub[name] = simulate(scenario, bplan, reps, rng.spawn(1)[0])
    return SimulationResult(
        plan=plan,
        reps=reps,
        per_task_mean=means,
        per_task_se=ses,
        overall_mean=overall,
        overall_se=overall_se,
        baselines=sub,
    )


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
