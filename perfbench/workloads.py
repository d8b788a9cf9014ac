"""The four benchmark workloads: seeded inputs, timed passes, output checks.

Each workload builds its inputs from the seed in ``setup`` (timed as
set-up), runs its timed steps once per ``run_pass`` through the package's
public API, and verifies the outputs in ``check``, outside the timed
region.  Library calls go through module attributes (``solver.solve_...``)
so the tracer's wrappers see them.

* ``reproduce`` -- the six bundled experiments; the only workload for the
  ``reproduce`` module.  Its inputs are the bundled scenarios, so the seed
  does not change them.
* ``plan`` -- a 1,000-task synthetic scenario with per-task latency models
  of all five kinds: load, solve, simulate with both baselines.  Exercises
  the expectation integral with no model sharing, plus ``scenario`` and
  ``simulate``.
* ``resolve`` -- a batch of large pre-scored instances: the slot-selection
  DP with no expectation integral at all.
* ``measure`` -- the loopback bench server in its own process, a
  closed-loop probe client, and characterization of the records.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
import urllib.request
from importlib import import_module
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from fogassign import benchnet, characterize, latency, reproduce, scenario, solver
from fogassign.latency import Degenerate, Empirical, Gev, Mixture, Uniform
from fogassign.scenario import NodeSpec, Scenario
from fogassign.utility import ExpDecay, Step, TaskSpec, UtilityReport, WaitReadyFirst

# The package re-exports the function ``simulate`` under the submodule's name.
simulate = import_module("fogassign.simulate")


def package_env() -> dict:
    """Environment for a child Python that imports the same fogassign."""
    env = dict(os.environ)
    src = str(Path(benchnet.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def median(values) -> float:
    return float(statistics.median(list(values)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile, the convention ``benchnet.summarize`` uses."""
    return benchnet.nearest_rank(np.sort(np.asarray(values, dtype=float)), p)


class Workload:
    """One workload: ``setup`` (timed), ``run_pass`` (timed), ``check``."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs.  Called several times; each call is timed."""

    def reset(self) -> None:
        """Undo ``setup``: between repeated set-ups and at the end (not timed)."""

    def precheck(self) -> list[tuple[str, bool, str]]:
        """Output checks that must run before timing starts."""
        return []

    def run_pass(self, span) -> dict:
        """Run the timed steps once.

        Returns ``{"steps": {metric: seconds}, "ops": n, "failed": n,
        ...}``; ``span(name)`` opens a traced span around a step.
        """
        raise NotImplementedError

    def enough(self, passes: list[dict]) -> bool:
        """Whether the passes so far carry enough samples to report."""
        return True

    def check(self, passes: list[dict]) -> list[tuple[str, bool, str]]:
        """Output checks on the passes, as (name, passed, detail)."""
        return []

    def metrics(self, passes: list[dict]) -> dict[str, tuple[float, str, int]]:
        """Workload-specific end-to-end metrics as name -> (value, unit, n).

        A step's time is its median over passes, rescaled like the pass by
        the CPU speed sampled during it (see ``cpuspeed``).
        """
        return {
            step: (median(p["steps"][step] * p["speed"] for p in passes), "s", len(passes))
            for step in passes[0]["steps"]
        }

    def layer_metrics(self, passes: list[dict]) -> dict[str, float]:
        """Per-layer metrics measured by the program itself, not the tracer."""
        return {}


def _consistent(passes, key, label) -> list[tuple[str, bool, str]]:
    """Every pass after the first must reproduce the first pass's output."""
    first = passes[0][key]
    return [
        (f"pass {i} {label} equals pass 0", p[key] == first, f"{p[key]!r} vs {first!r}")
        for i, p in enumerate(passes[1:], start=1)
    ]


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

class ReproduceWorkload(Workload):
    name = "reproduce"

    def run_pass(self, span):
        experiments, gating = {}, []
        t_pass = time.perf_counter()
        for eid in reproduce.EXPERIMENTS:
            t0 = time.perf_counter()
            with span(f"reproduce.{eid}"):
                rep = reproduce.run_experiment(eid)
            experiments[f"reproduce.{eid}_s"] = time.perf_counter() - t0
            gating += [(f"{eid}: {c.name}", c.passed, f"computed={c.computed!r}")
                       for c in rep.checks if c.gating]
        return {
            "steps": {"reproduce_s": time.perf_counter() - t_pass},
            "ops": len(experiments),
            "failed": 0,
            "gating": gating,
            "experiments": experiments,
        }

    def check(self, passes):
        return [c for p in passes for c in p["gating"]]

    def layer_metrics(self, passes):
        return {name: median(p["experiments"][name] for p in passes)
                for name in passes[0]["experiments"]}


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

PLAN_TASKS, PLAN_CAPACITY, PLAN_REPS = 1000, 40, 10_000
SMOKE_PLAN_TASKS, SMOKE_PLAN_CAPACITY, SMOKE_PLAN_REPS = 30, 3, 500
MC_SIGMAS = 4.0


def _random_dist(rng, kind: int):
    """One latency model of the given kind (0-4), as in the test-suite generator."""
    if kind == 0:
        lo = float(rng.uniform(0.0, 1.0))
        return Uniform(lo=lo, hi=lo + float(rng.uniform(0.05, 1.0)))
    if kind == 1:
        return Degenerate(value=float(rng.uniform(0.0, 1.5)))
    if kind == 2:
        return Empirical(rng.uniform(0.0, 2.0, int(rng.integers(3, 25))))
    if kind == 3:
        shape = float(rng.uniform(0.1, 0.8))
        scale = float(rng.uniform(0.01, 0.2))
        loc = scale / shape + float(rng.uniform(0.0, 1.0))  # support stays nonnegative
        return Gev(shape=shape, scale=scale, loc=loc)
    lo1 = float(rng.uniform(0.0, 0.5))
    lo2 = float(rng.uniform(0.5, 1.2))
    w = float(rng.uniform(0.1, 0.9))
    return Mixture([Uniform(lo1, lo1 + 0.4), Uniform(lo2, lo2 + 0.6)], [w, 1.0 - w])


def _random_time_utility(rng, kind: int):
    if kind == 0:
        return Step(tv=float(rng.uniform(0.1, 1.5)))
    if kind == 1:
        return ExpDecay(k=float(rng.uniform(0.3, 3.0)))
    te = float(rng.uniform(0.05, 0.8))
    return WaitReadyFirst(te=te, ts=te + float(rng.uniform(0.1, 1.0)))


def plan_scenario(seed: int, n_tasks: int, capacity: int) -> Scenario:
    """Scaled-up random scenario: 4 nodes, the first two capacitated.

    Node ``z0`` and ``z2`` offer one option, ``z1`` and ``z3`` two; each
    task is offered each pair with probability 0.8, gets its own latency
    model per pair, one of the three time-utility families, and 30% of
    tasks get a binding risk budget.  Unlike the test-suite generator, the
    five latency kinds, the three families and the binding budgets come in
    fixed proportions, shuffled by the seed: the kinds differ several-fold
    in integration cost, so free draws would make the cost of a pass
    depend on the seed.
    """
    rng = np.random.default_rng(seed)
    nodes = [
        NodeSpec(
            id=f"z{z}",
            options=tuple(f"x{i}" for i in range(1 + z % 2)),
            capacity=capacity if z < 2 else None,
        )
        for z in range(4)
    ]
    families = rng.permutation(np.arange(n_tasks) % 3)
    binding = rng.permutation(n_tasks) < round(0.3 * n_tasks)
    tasks = []
    for j in range(n_tasks):
        intrinsic = {
            (node.id, x): float(rng.uniform(0.05, 1.0))
            for node in nodes
            for x in node.options
            if rng.random() < 0.8
        }
        tasks.append(TaskSpec(
            id=f"j{j:04d}",
            time_utility=_random_time_utility(rng, families[j]),
            intrinsic=intrinsic,
            quality_floor=float(rng.uniform(0.1, 0.8)) if binding[j] else 0.0,
            risk_budget=float(rng.uniform(0.2, 0.9)) if binding[j] else 1.0,
        ))
    triples = [(t.id, z, x) for t in tasks for (z, x) in t.intrinsic]
    kinds = rng.permutation(np.arange(len(triples)) % 5)
    lat = {key: _random_dist(rng, kind) for key, kind in zip(triples, kinds)}
    scen = Scenario(name=f"plan-{seed}", tasks=tasks, nodes=nodes, latency=lat, seed=seed)
    scen.validate()
    return scen


class PlanWorkload(Workload):
    name = "plan"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.n_tasks = SMOKE_PLAN_TASKS if smoke else PLAN_TASKS
        self.capacity = SMOKE_PLAN_CAPACITY if smoke else PLAN_CAPACITY
        self.reps = SMOKE_PLAN_REPS if smoke else PLAN_REPS
        self.path = workdir / "plan_scenario.json"
        self.checked = None  # (scenario, plan) of the first pass

    def setup(self):
        plan_scenario(self.seed, self.n_tasks, self.capacity).save(self.path)

    def run_pass(self, span):
        t0 = time.perf_counter()
        scen = scenario.load_scenario(self.path)
        digest = scen.content_hash()
        table = solver.UtilityTable(scen)
        plan = solver.solve_capacitated(scen, table)
        t1 = time.perf_counter()
        baselines = {s: simulate.run_baseline(scen, s, table) for s in simulate.BASELINES}
        result = simulate.simulate(scen, plan, self.reps, latency.make_rng(scen.seed), baselines)
        t2 = time.perf_counter()
        if self.checked is None:
            self.checked = (scen, plan)
        out = {
            "steps": {"plan_s": t1 - t0, "simulate_s": t2 - t1},
            "ops": 3,
            "failed": 0,
            "summary": (
                digest,
                plan.total_utility,
                result.overall_mean,
                result.overall_se,
                {k: v.overall_mean for k, v in result.baselines.items()},
            ),
        }
        del result  # holds every draw; free it before the next pass
        return out

    def check(self, passes):
        scen, plan = self.checked
        problems = solver.validate_plan(scen, plan)
        checks = [("validate_plan returns []", not problems, "; ".join(problems[:3]))]
        _digest, total, mean, se, _ = passes[0]["summary"]
        expected = total / len(scen.tasks)
        gap = abs(mean - expected)
        checks.append((
            f"simulated mean within {MC_SIGMAS:g} standard errors of expected",
            gap <= MC_SIGMAS * se,
            f"simulated {mean!r} +- {se!r}, expected {expected!r}",
        ))
        return checks + _consistent(passes, "summary", "plan and simulation summary")


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------

RESOLVE_INSTANCES, RESOLVE_TASKS, RESOLVE_CAPACITY = 3, 1500, 60
SMOKE_RESOLVE_INSTANCES, SMOKE_RESOLVE_TASKS, SMOKE_RESOLVE_CAPACITY = 2, 60, 5
RESOLVE_SAMPLES = 400  # draws per sampled-mean estimate, as in random_quality
SMOKE_RESOLVE_SAMPLES = 50
OPTIMUM_TOL = 1e-9

# Shared node models: two quick gateways and a slower, higher-quality cloud.
RESOLVE_NODES = (
    ("gw1", Gev(shape=0.3, scale=0.03, loc=0.25), 0.6),
    ("gw2", Uniform(lo=0.3, hi=0.6), 0.7),
    ("cloud", Gev(shape=0.2, scale=0.1, loc=0.9), None),
)


def resolve_instance(rng, n_tasks: int, capacity: int, k: int):
    """One pre-scored instance: scenario plus sampled-mean utility reports.

    As in the randomized-quality experiment, each report is ``A`` times
    the mean time-utility over ``k`` draws from the node's shared model,
    and the cloud's intrinsic utility is drawn from U(0.6, 0.9) per task.
    Each triple's latency model is the empirical law of exactly those
    draws, so the reports are the exact expectations of the scenario and
    ``validate_plan`` can recompute them.
    """
    nodes = [
        NodeSpec(id=nid, options=("o1",), capacity=capacity if a is not None else None)
        for nid, _dist, a in RESOLVE_NODES
    ]
    te = rng.uniform(0.1, 0.6, n_tasks)
    ts = te + rng.uniform(0.2, 1.5, n_tasks)
    a_cloud = rng.uniform(0.6, 0.9, n_tasks)
    tasks = []
    for j in range(n_tasks):
        intrinsic = {(nid, "o1"): (a if a is not None else float(a_cloud[j]))
                     for nid, _dist, a in RESOLVE_NODES}
        tasks.append(TaskSpec(id=f"r{j:04d}", time_utility=WaitReadyFirst(float(te[j]), float(ts[j])),
                              intrinsic=intrinsic))
    lat, reports = {}, {}
    for nid, dist, _a in RESOLVE_NODES:
        draws = dist.sample(rng, k * n_tasks).reshape(k, n_tasks)
        for i, t in enumerate(tasks):
            col = draws[:, i]
            u = t.intrinsic[(nid, "o1")] * float(t.time_utility.value(col).mean())
            key = (t.id, nid, "o1")
            lat[key] = Empirical(col)
            reports[key] = UtilityReport(u, 0.0, True)
    scen = Scenario(name="resolve", tasks=tasks, nodes=nodes, latency=lat)
    scen.validate()
    return scen, reports


def assignment_optimum(scen: Scenario, reports) -> float:
    """Optimal total from the reports by rectangular assignment over slots.

    Every task earns its best unlimited option (or 0); rows are tasks,
    columns are the capacity slots of every finite node, and a cell holds
    the task's gain from its best option on that node over its fallback,
    clipped at 0.  Independent of the solver's staged DP.
    """
    finite = [n for n in scen.nodes if not n.infinite]
    unlimited = [n for n in scen.nodes if n.infinite]

    def best(t, nodes):
        vals = [reports[(t.id, n.id, x)].utility for n in nodes for x in n.options
                if (n.id, x) in t.intrinsic]
        return max(vals + [0.0])

    fallback = [best(t, unlimited) for t in scen.tasks]
    gains = np.array([[max(best(t, [n]) - fb, 0.0) for n in finite]
                      for t, fb in zip(scen.tasks, fallback)])
    cols = np.repeat(np.arange(len(finite)), [n.capacity for n in finite])
    matrix = gains[:, cols]
    rows, picked = linear_sum_assignment(matrix, maximize=True)
    return math.fsum(fallback) + math.fsum(matrix[rows, picked])


class ResolveWorkload(Workload):
    name = "resolve"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        if smoke:
            self.shape = (SMOKE_RESOLVE_INSTANCES, SMOKE_RESOLVE_TASKS,
                          SMOKE_RESOLVE_CAPACITY, SMOKE_RESOLVE_SAMPLES)
        else:
            self.shape = (RESOLVE_INSTANCES, RESOLVE_TASKS, RESOLVE_CAPACITY, RESOLVE_SAMPLES)
        self.instances = []

    def setup(self):
        count, n_tasks, capacity, k = self.shape
        rng = np.random.default_rng(self.seed)
        self.instances = [resolve_instance(rng, n_tasks, capacity, k) for _ in range(count)]

    def run_pass(self, span):
        t0 = time.perf_counter()
        plans = [solver.solve_capacitated(scen, solver.UtilityTable(scen, reports))
                 for scen, reports in self.instances]
        elapsed = time.perf_counter() - t0
        return {
            "steps": {"resolve_s": elapsed},
            "ops": len(plans),
            "failed": 0,
            "plans": plans,
            "totals": [p.total_utility for p in plans],
        }

    def check(self, passes):
        checks = []
        for i, ((scen, reports), plan) in enumerate(zip(self.instances, passes[0]["plans"])):
            problems = solver.validate_plan(scen, plan)
            checks.append((f"instance {i}: validate_plan returns []", not problems,
                           "; ".join(problems[:3])))
            optimum = assignment_optimum(scen, reports)
            checks.append((
                f"instance {i}: total matches the assignment optimum",
                abs(plan.total_utility - optimum) <= OPTIMUM_TOL,
                f"solver {plan.total_utility!r}, assignment {optimum!r}",
            ))
        return checks + _consistent(passes, "totals", "totals")


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

# Fixed in-range sizes, one target per endpoint kind, probed round-robin.
PROBE_SIZES = (("pic", 50_000), ("psf", 20_000), ("fsp", 5_000))
PROBE_PER_PASS = 300
# At least 10 samples beyond p99 for the reported RTT percentiles.
PROBE_MIN_SAMPLES = 1000
SMOKE_PROBE_PER_PASS = 30
ERROR_CURVE_N = (10, 20, 50, 100, 200, 500, 1000)
ERROR_CURVE_REPS = 100
SMOKE_ERROR_CURVE_N = (10, 100)
SMOKE_ERROR_CURVE_REPS = 5
SERVER_START_TIMEOUT_S = 60.0
STATS_TOL = 1e-9


class MeasureWorkload(Workload):
    name = "measure"

    def __init__(self, seed, workdir, smoke):
        super().__init__(seed, workdir, smoke)
        self.per_pass = SMOKE_PROBE_PER_PASS if smoke else PROBE_PER_PASS
        self.min_samples = SMOKE_PROBE_PER_PASS if smoke else PROBE_MIN_SAMPLES
        self.curve_n = SMOKE_ERROR_CURVE_N if smoke else ERROR_CURVE_N
        self.curve_reps = SMOKE_ERROR_CURVE_REPS if smoke else ERROR_CURVE_REPS
        rng = np.random.default_rng(seed)
        # Reference model on the scale of loopback round trips (seconds).
        self.reference = Gev(shape=float(rng.uniform(0.2, 0.4)),
                             scale=float(rng.uniform(5e-4, 1.5e-3)),
                             loc=float(rng.uniform(3e-3, 6e-3)))
        self.dataset = workdir / "dataset.csv"
        self.server = None
        self.url = None

    def setup(self):
        benchnet.make_dataset(self.dataset, seed=self.seed)
        self.server = subprocess.Popen(
            [sys.executable, "-m", "fogassign.cli", "serve",
             "--bind", "127.0.0.1:0", "--dataset", str(self.dataset)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=package_env(), text=True,
        )
        ready, _, _ = select.select([self.server.stdout], [], [], SERVER_START_TIMEOUT_S)
        line = self.server.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"bench server did not start (first line: {line!r})")
        self.url = line.split()[2]

    def reset(self):
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None

    def _targets(self):
        return tuple(benchnet.ProbeTarget(self.url, benchnet.BenchTask(kind, size))
                     for kind, size in PROBE_SIZES)

    def precheck(self):
        """One request per endpoint against locally computed answers."""
        column = np.loadtxt(self.dataset, delimiter=",", ndmin=2)[:, 0]
        checks = []
        for target in self._targets():
            kind, size = target.task.kind, target.task.size
            with urllib.request.urlopen(target.build_request(), timeout=30) as resp:
                got = json.loads(resp.read().decode())
            if kind == "pic":
                want = {"result": benchnet.leibniz_pi(size)}
            else:
                if kind == "psf":
                    values = column[:size]
                else:
                    body = target.build_request().data.decode()
                    values = np.array([float(line) for line in body.splitlines()])
                want = {"mean": float(np.mean(values)), "stdev": float(np.std(values)),
                        "min": float(np.min(values)), "max": float(np.max(values))}
            ok = all(abs(got.get(k, math.nan) - v) <= STATS_TOL * max(1.0, abs(v))
                     for k, v in want.items())
            checks.append((f"/{kind} answer matches local computation", ok,
                           f"got {got!r}, want {want!r}"))
        return checks

    def run_pass(self, span):
        schedule = benchnet.ProbeSchedule(targets=self._targets(), count=self.per_pass)
        t0 = time.perf_counter()
        with span("benchnet.probe"):
            rows = benchnet.probe(schedule, self.workdir / "probe.csv")
        t1 = time.perf_counter()
        ok = [r for r in rows if r.status == "ok"]
        latencies = [r.latency_s for r in ok]
        summary = benchnet.summarize(rows)
        est = characterize.estimate_cdf(latencies)
        avg, mx = characterize.cdf_distance(self.reference, est)
        ks = characterize.ks_statistic(latencies, self.reference.cdf)
        curve = characterize.error_curve(self.reference, self.curve_n, self.curve_reps, self.seed)
        t2 = time.perf_counter()
        return {
            "steps": {"probe_s": t1 - t0, "characterize_s": t2 - t1},
            "ops": len(rows) + 1,
            "failed": len(rows) - len(ok),
            "rows": [(r.endpoint.rsplit("/", 1)[-1], r.latency_s, r.exec_ms) for r in ok],
            "summary_n": sum(s["n"] for s in summary.values()),
            "distances": (avg, mx, ks),
            "curve": [p.mean_avg for p in curve.points],
        }

    def enough(self, passes):
        return sum(len(p["rows"]) for p in passes) >= self.min_samples

    def check(self, passes):
        checks = []
        for i, p in enumerate(passes):
            avg, mx, ks = p["distances"]
            checks.append((f"pass {i}: summarize counts every ok record",
                           p["summary_n"] == len(p["rows"]), f"{p['summary_n']} vs {len(p['rows'])}"))
            checks.append((f"pass {i}: CDF distances lie in [0, 1]",
                           0.0 <= avg <= mx <= 1.0 and 0.0 <= ks <= 1.0, f"{avg}, {mx}, {ks}"))
            checks.append((f"pass {i}: estimation error shrinks with sample count",
                           p["curve"][-1] < p["curve"][0], f"{p['curve']}"))
        return checks

    def metrics(self, passes):
        rtts = [lat * 1e3 for p in passes for _kind, lat, _exec in p["rows"]]
        probe_s = sum(p["steps"]["probe_s"] for p in passes)
        return {
            **super().metrics(passes),
            "probe_rps": (len(rtts) / probe_s, "1/s", len(rtts)),
            "probe_rtt_p50_ms": (percentile(rtts, 0.50), "ms", len(rtts)),
            "probe_rtt_p99_ms": (percentile(rtts, 0.99), "ms", len(rtts)),
        }

    def layer_metrics(self, passes):
        rows = [r for p in passes for r in p["rows"]]
        out = {}
        for kind, _size in PROBE_SIZES:
            exec_ms = [e for k, _lat, e in rows if k == kind]
            out[f"benchnet.{kind}.exec_ms_p50"] = percentile(exec_ms, 0.50)
            out[f"benchnet.{kind}.exec_ms_p99"] = percentile(exec_ms, 0.99)
        overhead = [lat * 1e3 - e for _k, lat, e in rows]
        out["benchnet.overhead_ms_p50"] = percentile(overhead, 0.50)
        out["benchnet.overhead_ms_p99"] = percentile(overhead, 0.99)
        out["benchnet.requests"] = sum(p["ops"] - 1 for p in passes) / len(passes)
        out["benchnet.failed"] = sum(p["failed"] for p in passes) / len(passes)
        return out


WORKLOADS = {w.name: w for w in (ReproduceWorkload, PlanWorkload, ResolveWorkload, MeasureWorkload)}
