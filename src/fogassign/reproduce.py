"""One-command reproduction of the bundled numerical experiments.

Each experiment runs a bundled scenario, compares the computed quantities
against their published reference values at fixed tolerances, and reports
one pass/fail line per check.  Reference averages published for the base
scenario came from a Monte-Carlo harness, so comparisons carry a 0.005
band around them; the analytic values land well inside it.

The randomized-quality experiment deliberately re-estimates every
expected utility from a finite latency sample (400 draws) inside each of
its 10,000 executions instead of using exact expectations.  The reference
frequencies for borderline tasks are driven by estimation noise flipping
near-tied comparisons; with exact expectations the 5th and 6th tasks win
a constrained slot far less often than published (4.4% and 0.06%), while
sampled estimates reproduce the published rates.

Its runs are drawn and scored in blocks of ``_RQ_BATCH``.  One generator
call draws a block's uniforms, laid out run by run as a run-by-run loop
drew them (cloud intrinsic utilities, then the gateway's latency draws,
then the cloud's), so the random stream is unchanged.  Each node's draws
are transformed at once and stored task-major, as a (task, run, node,
sample) block, and every task's time utility is evaluated over it in
place, one formula call per utility family (``latency.Columns``), each
over one contiguous row of the task's runs × nodes × samples.  Each
block row of samples is C-contiguous, so each run's mean is numpy's
pairwise sum over its samples and the estimates are bit-identical to
scoring runs one by one.  Scores collect in a ``_RQ_SOLVE``-run array
that ``solver.solve_batch`` solves at once: its array stages run on all
those runs, and one slot-DP sweep solves the constrained slots of all of
them, over the tasks left in any run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .latency import Columns, FitError, Gev, Uniform, gev_from_quantiles, make_rng
from .scenario import NodeSpec, Scenario, bundled_scenario
from .simulate import run_baseline
from .solver import UtilityTable, solve_batch, solve_capacitated, solve_uncapacitated
from .utility import TaskSpec, WaitReadyFirst

__all__ = ["CheckResult", "ExperimentReport", "EXPERIMENTS", "run_experiment", "format_report"]

# Published reference values for the base two-node scenario.
PAPER_UA_AVG = 0.5078
PAPER_MIN_LATENCY_AVG = 0.4677
PAPER_MAX_QUALITY_AVG = 0.4415
AVG_TOL = 0.005

# Randomized-quality experiment: gateway-placement frequencies (percent)
# for the 4th/5th/6th most time-pressed tasks.
RQ_FREQS = {"t04": (32.0, 3.0), "t05": (6.8, 1.5), "t06": (0.6, 0.4)}
RQ_RUNS = 10_000
RQ_SAMPLES_PER_ESTIMATE = 400
RQ_GATEWAY_CAPACITY = 3
# Runs drawn and scored per generator call.  Their (8, 8010) uniforms and
# their (10, 8, 2, 400) time-utility block take 0.51 MB each and are reused
# for every block: fresh buffers per block page-fault.  Median time of
# random_quality by batch size (2 vCPUs, medians of 7, two runs each):
# 4 runs 0.454 s, 8 runs 0.400-0.403 s, 16 runs 0.404-0.405 s, 32 runs
# 0.418-0.420 s, 64 runs 0.483-0.497 s; larger blocks also raise peak
# memory.
_RQ_BATCH = 8
# Runs per solve_batch call: a (512, 10, 2) score array of 80 KB.
_RQ_SOLVE = 512

# In-flight demo: cloud latency quantile summaries (median, p10, p90) for
# progressively worse connectivity, and the local-node latency model.
INFLIGHT_ROWS = (
    ("best", 0.56, 0.47, 0.89),
    ("average", 1.92, 1.79, 2.19),
    ("worst", 4.40, 4.01, 4.77),
)
INFLIGHT_PAPER_LOCAL_COUNTS = {"best": 0, "average": 22, "worst": 56}
INFLIGHT_LOCAL_DIST = Gev(shape=0.34, scale=0.04, loc=0.48)
INFLIGHT_TASKS = 100


@dataclass(frozen=True)
class CheckResult:
    name: str
    paper: object
    computed: object
    tolerance: object
    passed: bool
    gating: bool = True


@dataclass
class ExperimentReport:
    experiment: str
    checks: list[CheckResult] = field(default_factory=list)
    notes: str = ""

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.gating)

    def add(self, name, paper, computed, tolerance, passed, gating=True):
        self.checks.append(CheckResult(name, paper, computed, tolerance, passed, gating))


def _task_index_by_pressure(scenario: Scenario) -> list[str]:
    """Task ids sorted most time-pressed first (smallest zero-value time)."""
    def pressure(t: TaskSpec):
        f = t.time_utility
        return f.ts if isinstance(f, WaitReadyFirst) else float("inf")

    return [t.id for t in sorted(scenario.tasks, key=pressure)]


def _uncap_split() -> ExperimentReport:
    rep = ExperimentReport("uncap_split")
    scen = bundled_scenario("vii_d_base")
    plan = solve_uncapacitated(scen)
    gateway = sorted(plan.placed_on("gateway"))
    cloud = sorted(plan.placed_on("cloud"))
    want_gw = [f"t{j:02d}" for j in range(1, 6)]
    want_cl = [f"t{j:02d}" for j in range(6, 11)]
    rep.add("gateway set = 5 most time-pressed", want_gw, gateway, "exact", gateway == want_gw)
    rep.add("cloud set = 5 most lax", want_cl, cloud, "exact", cloud == want_cl)
    return rep


def _min_max_compare() -> ExperimentReport:
    rep = ExperimentReport("min_max_compare")
    scen = bundled_scenario("vii_d_base")
    table = UtilityTable(scen)
    n = len(scen.tasks)
    ua = solve_uncapacitated(scen, table).total_utility / n
    ml = run_baseline(scen, "min-latency", table).total_utility / n
    mq = run_baseline(scen, "max-quality", table).total_utility / n
    for name, paper, got in (
        ("expected average utility (planner)", PAPER_UA_AVG, ua),
        ("expected average utility (min-latency)", PAPER_MIN_LATENCY_AVG, ml),
        ("expected average utility (max-quality)", PAPER_MAX_QUALITY_AVG, mq),
    ):
        rep.add(name, paper, round(got, 6), AVG_TOL, abs(got - paper) <= AVG_TOL)
    return rep


def _cap_sweep() -> ExperimentReport:
    rep = ExperimentReport("cap_sweep")
    base = bundled_scenario("vii_d_base")
    pressed = _task_index_by_pressure(base)
    for c in (1, 2, 3):
        scen = base.with_node_capacity("gateway", c)
        plan = solve_capacitated(scen)
        gateway = sorted(plan.placed_on("gateway"))
        want = sorted(pressed[:c])
        rep.add(f"gateway set at capacity {c}", want, gateway, "exact", gateway == want)
    return rep


def _rq_draw(rng, dists, u, t):
    """Draw the next ``len(u)`` runs with one generator call.

    Each row of ``u``, shape (runs, tasks + 2 * samples * tasks), takes one
    run's uniforms in the order a run-by-run loop drew them: its cloud
    intrinsic utilities, then (samples, tasks) latency draws from each of
    ``dists``, the gateway's and the cloud's models.  The draws go into
    ``t``, shape (tasks, runs, node, samples).  Returns the cloud intrinsic
    utilities, shape (runs, tasks).
    """
    rng.random(out=u)
    n, runs, _, k = t.shape
    for node, dist in enumerate(dists):
        seg = u[:, n + node * k * n:n + (node + 1) * k * n]
        t[:, :, node] = dist.from_uniform(seg).reshape(runs, k, n).transpose(2, 0, 1)
    return 0.6 + (0.9 - 0.6) * u[:, :n]  # numpy's uniform(0.6, 0.9) of each variate


def _rq_scores(utilities, a2, t):
    """Sampled gateway and cloud utilities of a block of runs.

    ``utilities`` is the tasks' time utilities as ``Columns``; ``a2``
    holds each run's cloud intrinsic utilities, shape (runs, tasks); ``t``
    holds its latency draws, shape (tasks, runs, node, samples), gateway
    first, and is overwritten with their time utilities.  Returns two
    (runs, tasks) arrays.  ``t`` must be C-contiguous: each task's formula
    then runs over one contiguous row of its runs' samples, and each mean
    is numpy's pairwise sum over one contiguous row of samples, the same
    sum as the mean of one run's column.
    """
    flat = t.reshape(len(t), -1)
    m = utilities.value(flat, out=flat).reshape(t.shape).mean(axis=-1)
    return 0.6 * m[:, :, 0].T, a2 * m[:, :, 1].T


def _random_quality() -> ExperimentReport:
    rep = ExperimentReport("random_quality")
    base = bundled_scenario("vii_d_base")
    scen = base.with_node_capacity("gateway", RQ_GATEWAY_CAPACITY)
    rng = make_rng(scen.seed)
    k = RQ_SAMPLES_PER_ESTIMATE
    dists = (scen.dist("t01", "gateway", "o1"), scen.dist("t01", "cloud", "o1"))
    tasks = scen.tasks
    n = len(tasks)
    utilities = Columns(t.time_utility for t in tasks)
    columns = UtilityTable(scen).columns
    gw, cl = columns.index(("gateway", "o1")), columns.index(("cloud", "o1"))
    on_gateway = np.zeros(n, dtype=int)
    utility = np.zeros((_RQ_SOLVE, n, len(columns)))
    u = np.empty((_RQ_BATCH, n + 2 * k * n))
    block = np.empty(n * _RQ_BATCH * 2 * k)  # a partial block views its head
    for start in range(0, RQ_RUNS, _RQ_SOLVE):
        runs = min(_RQ_SOLVE, RQ_RUNS - start)
        for r in range(0, runs, _RQ_BATCH):
            b = min(_RQ_BATCH, runs - r)
            t = block[:n * b * 2 * k].reshape(n, b, 2, k)
            a2 = _rq_draw(rng, dists, u[:b], t)
            utility[r:r + b, :, gw], utility[r:r + b, :, cl] = _rq_scores(utilities, a2, t)
        on_gateway += (solve_batch(scen, utility[:runs]) == gw).sum(axis=0)
    counts = dict(zip((t.id for t in tasks), on_gateway.tolist()))
    for tid, (paper, tol) in RQ_FREQS.items():
        got = 100.0 * counts[tid] / RQ_RUNS
        rep.add(
            f"gateway frequency of {tid} (%)", paper, round(got, 3), tol,
            abs(got - paper) <= tol,
        )
    rep.notes = (
        f"{RQ_RUNS} executions, utilities re-estimated from {k} latency draws per "
        "placement per run; cloud intrinsic utility redrawn U(0.6, 0.9) per task per run"
    )
    return rep


def _two_capacitated() -> ExperimentReport:
    rep = ExperimentReport("two_capacitated")
    scen = bundled_scenario("vii_d_two_cap")
    plan = solve_capacitated(scen)
    n1 = sorted(plan.placed_on("node1"))
    n3 = sorted(plan.placed_on("node3"))
    pressed = _task_index_by_pressure(scen)
    want1 = sorted(pressed[:3])
    want3 = sorted(pressed[-2:])
    rep.add("quick node gets the 3 most time-pressed", want1, n1, "exact", n1 == want1)
    rep.add("slow high-quality node gets the 2 most lax", want3, n3, "exact", n3 == want3)
    n2 = sorted(plan.placed_on("node2"))
    rep.add(
        "middle tier absorbs the rest", sorted(pressed[3:8]), n2, "informational",
        n2 == sorted(pressed[3:8]), gating=False,
    )
    return rep


def _cloud_dist_for_row(median: float, p10: float, p90: float):
    """Quantile-seeded cloud model; falls back to a quantile-matched uniform
    when the triple is too symmetric for a positive-shape extreme-value fit."""
    try:
        return gev_from_quantiles(median, p10, p90), "gev"
    except FitError:
        width = (p90 - p10) / 0.8
        lo = p10 - 0.1 * width
        return Uniform(lo=lo, hi=lo + width), "uniform"


def _inflight_demo() -> ExperimentReport:
    rep = ExperimentReport("inflight_demo")
    counts = {}
    kinds = {}
    for label, m, p10, p90 in INFLIGHT_ROWS:
        cloud, kind = _cloud_dist_for_row(m, p10, p90)
        kinds[label] = kind
        tasks = [
            TaskSpec(
                id=f"t{j:03d}",
                time_utility=WaitReadyFirst(te=0.5, ts=0.5 + 0.2 * j),
                intrinsic={("local", "o1"): 0.6, ("cloud", "o1"): 0.9},
            )
            for j in range(1, INFLIGHT_TASKS + 1)
        ]
        latency = {}
        for t in tasks:
            latency[(t.id, "local", "o1")] = INFLIGHT_LOCAL_DIST
            latency[(t.id, "cloud", "o1")] = cloud
        scen = Scenario(
            name=f"inflight_{label}",
            tasks=tasks,
            nodes=[
                NodeSpec(id="local", options=("o1",)),
                NodeSpec(id="cloud", options=("o1",)),
            ],
            latency=latency,
        )
        plan = solve_uncapacitated(scen)
        counts[label] = len(plan.placed_on("local"))
    order = [label for label, *_ in INFLIGHT_ROWS]
    monotone = all(counts[a] <= counts[b] for a, b in zip(order, order[1:]))
    rep.add(
        "local count nondecreasing as connectivity degrades",
        "monotone", {k: counts[k] for k in order}, "ordering", monotone,
    )
    for label in order:
        rep.add(
            f"local tasks under {label} connectivity",
            INFLIGHT_PAPER_LOCAL_COUNTS[label], counts[label], "informational",
            True, gating=False,
        )
    rep.notes = (
        "cloud models quantile-seeded from in-flight summaries "
        f"({', '.join(f'{k}: {v}' for k, v in kinds.items())}); the local model "
        "stands in for unpublished measurements, so only the ordering is asserted"
    )
    return rep


EXPERIMENTS = {
    "uncap_split": _uncap_split,
    "min_max_compare": _min_max_compare,
    "cap_sweep": _cap_sweep,
    "random_quality": _random_quality,
    "two_capacitated": _two_capacitated,
    "inflight_demo": _inflight_demo,
}


def run_experiment(experiment_id: str) -> ExperimentReport:
    try:
        runner = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return runner()


def format_report(rep: ExperimentReport) -> str:
    lines = [f"experiment {rep.experiment}: {'PASS' if rep.passed else 'FAIL'}"]
    for c in rep.checks:
        flag = "PASS" if c.passed else "FAIL"
        if not c.gating:
            flag = "info"
        lines.append(
            f"  [{flag}] {c.name}: reference={c.paper!r} computed={c.computed!r} "
            f"tolerance={c.tolerance!r}"
        )
    if rep.notes:
        lines.append(f"  note: {rep.notes}")
    return "\n".join(lines)
