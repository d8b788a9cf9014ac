"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  Tolerances are fixed here, not tuned: published averages carry a
0.005 band (they came from a Monte-Carlo harness; the analytic values
differ from them by under 0.002), set assignments are exact, frequency
bands for the randomized experiment are stated in percentage points, and
every criterion also has a wall-clock budget.
"""

import json
import time
import urllib.request

import numpy as np

from fogassign.benchnet import (
    BenchTask,
    ProbeRow,
    ProbeSchedule,
    ProbeTarget,
    make_dataset,
    probe,
    start_server,
    summarize,
)
from fogassign.characterize import (
    LinearMixing,
    ServerlessModel,
    error_curve,
    fit_serverless_regimes,
    ks_statistic,
    serverless_latency,
)
from fogassign.latency import Empirical, Gev, Mixture, Uniform, make_rng
from fogassign.reproduce import run_experiment
from fogassign.solver import UtilityTable, brute_force_optimum, solve_capacitated, validate_plan
from fogassign.utility import ExpDecay, Step, TaskSpec, WaitReadyFirst, expected_utility

from conftest import ks_critical, random_scenario

TABLE_GEV = Gev(shape=0.34, scale=0.04, loc=0.48)


def _report(num, name, elapsed, budget, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:>2}: {name} "
          f"({elapsed:.2f}s / {budget:g}s budget){'  ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {name} {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s >= {budget}s"


def _run_reproduction(num, experiment, budget):
    t0 = time.perf_counter()
    rep = run_experiment(experiment)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"{c.name}={c.computed!r}" for c in rep.checks if c.gating
    )
    _report(num, experiment, elapsed, budget, rep.passed, detail)


def test_criterion_01_uncapacitated_split():
    _run_reproduction(1, "uncap_split", budget=1.0)


def test_criterion_02_utility_comparison():
    _run_reproduction(2, "min_max_compare", budget=1.0)


def test_criterion_03_capacity_sweep():
    _run_reproduction(3, "cap_sweep", budget=1.0)


def test_criterion_04_randomized_quality():
    _run_reproduction(4, "random_quality", budget=60.0)


def test_criterion_05_two_capacitated_nodes():
    _run_reproduction(5, "two_capacitated", budget=1.0)


def test_criterion_06_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(200):
        scen = random_scenario(seed)
        table = UtilityTable(scen)
        plan = solve_capacitated(scen, table)
        oracle = brute_force_optimum(scen, table)
        assert validate_plan(scen, plan) == [], f"seed {seed}: planner plan infeasible"
        assert validate_plan(scen, oracle) == [], f"seed {seed}: oracle plan infeasible"
        gap = abs(plan.total_utility - oracle.total_utility)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"seed {seed}: optimality gap {gap}"
    elapsed = time.perf_counter() - t0
    _report(6, "solver equals exhaustive optimum on 200 instances", elapsed, 120.0,
            True, f"worst gap {worst:.2e}")


def test_criterion_07_expectation_engine():
    t0 = time.perf_counter()
    rng = make_rng(1207)
    dists = [
        Uniform(0.1, 0.6),
        TABLE_GEV,
        Empirical(TABLE_GEV.sample(make_rng(60), 60)),
        Mixture([Uniform(0.2, 0.5), TABLE_GEV], [0.4, 0.6]),
    ]
    families = [Step(0.45), ExpDecay(1.2), WaitReadyFirst(0.3, 0.8)]
    a = 0.9
    worst_mc = 0.0
    for dist in dists:
        for f in families:
            task = TaskSpec(id="t", time_utility=f, intrinsic={("z", "x"): a})
            rep = expected_utility(task, "z", "x", dist)
            draws = dist.sample(rng, 200_000)
            mc = a * float(f.value(draws).mean())
            worst_mc = max(worst_mc, abs(rep.utility - mc))
            assert abs(rep.utility - mc) < 0.005, (dist, f)
            if isinstance(f, Step):
                closed = a * dist.cdf(f.tv)
                assert abs(rep.utility - closed) < 1e-9, (dist, f)
    elapsed = time.perf_counter() - t0
    _report(7, "expectations match 200k-draw Monte Carlo on the 12-case matrix",
            elapsed, 30.0, True, f"worst |analytic-MC| {worst_mc:.4f}")


def test_criterion_08_sampler_fidelity():
    t0 = time.perf_counter()
    n = 5000
    crit = ks_critical(n)
    stats = {}
    for name, dist in (
        ("gev", TABLE_GEV),
        ("uniform", Uniform(0.1, 0.6)),
        ("mixture", Mixture([Uniform(0.1, 0.4), TABLE_GEV], [0.35, 0.65])),
    ):
        stats[name] = ks_statistic(dist.sample(make_rng(88), n), dist.cdf)
        assert stats[name] < crit, (name, stats[name], crit)
    elapsed = time.perf_counter() - t0
    _report(8, "5000-draw KS statistic under the 1% critical value", elapsed, 5.0,
            True, f"max D {max(stats.values()):.4f} < {crit:.4f}")


def test_criterion_09_cdf_learning_curve():
    t0 = time.perf_counter()
    curve = error_curve(TABLE_GEV, n_grid=[10, 30, 90, 270], reps=100, rng=make_rng(314))
    means = [p.mean_avg for p in curve.points]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    ratio = curve.mean_avg_at(10) / curve.mean_avg_at(90)
    elapsed = time.perf_counter() - t0
    _report(9, "estimation error shrinks with sample count at the root-N rate",
            elapsed, 10.0, decreasing and 2.0 <= ratio <= 4.5,
            f"means {[round(m, 4) for m in means]}, ratio {ratio:.2f}")


def test_criterion_10_serverless_round_trip():
    t0 = time.perf_counter()
    model = ServerlessModel.linear(
        warm=Uniform(0.05, 0.15), cold=Uniform(0.8, 1.2), lo=10.0, hi=60.0
    )
    rng = make_rng(1060)
    per_bucket = 250
    records = []
    for _ in range(per_bucket):
        records.append((float(rng.uniform(0.0, 10.0)), float(model.warm.sample(rng, 1)[0])))
        records.append((float(rng.uniform(60.0, 120.0)), float(model.cold.sample(rng, 1)[0])))
    for k in range(5):
        for _ in range(per_bucket):
            dt = float(rng.uniform(10.0 + 10 * k, 20.0 + 10 * k))
            records.append((dt, float(serverless_latency(model, dt).sample(rng, 1)[0])))
    fitted = fit_serverless_regimes(records)
    mixing = LinearMixing(10.0, 60.0)
    devs = [
        abs(w - mixing(15.0 + 10 * k)) for k, w in enumerate(fitted.mixing.weights)
    ]
    endpoints_exact = (
        serverless_latency(fitted, 10.0) is fitted.warm
        and serverless_latency(fitted, 60.0) is fitted.cold
    )
    elapsed = time.perf_counter() - t0
    _report(10, "spin-down model round trip recovers per-bucket weights",
            elapsed, 10.0, max(devs) <= 0.1 and endpoints_exact,
            f"max |w_hat - w| {max(devs):.3f}")


def test_criterion_11_bench_harness(tmp_path):
    t0 = time.perf_counter()
    dataset = make_dataset(tmp_path / "dataset.csv", seed=11)
    server, _thread = start_server(dataset, allow_out_of_range=True)
    try:
        schedule = ProbeSchedule(
            targets=(
                ProbeTarget(server.url, BenchTask("pic", 1)),
                ProbeTarget(server.url, BenchTask("psf", 500)),
                ProbeTarget(server.url, BenchTask("fsp", 500)),
            ),
            count=50,
            seed=11,
        )
        rows = probe(schedule, tmp_path / "records.csv")
        all_ok = len(rows) == 50 and all(r.status == "ok" for r in rows)

        with urllib.request.urlopen(f"{server.url}/pic?iters=1", timeout=10) as resp:
            pic_exact = json.loads(resp.read().decode())["result"] == 4.0

        ref = np.loadtxt(dataset, delimiter=",", ndmin=2)[:500, 0]
        with urllib.request.urlopen(f"{server.url}/psf?lines=500", timeout=10) as resp:
            psf = json.loads(resp.read().decode())
        # one-pass reference oracle
        mean, m2 = 0.0, 0.0
        for i, x in enumerate(ref, start=1):
            d = x - mean
            mean += d / i
            m2 += d * (x - mean)
        stats_match = (
            abs(psf["mean"] - mean) <= 1e-9 * abs(mean)
            and abs(psf["stdev"] - np.sqrt(m2 / 500)) <= 1e-9 * abs(psf["stdev"])
            and psf["min"] == ref.min()
            and psf["max"] == ref.max()
        )
        hand = summarize(
            [
                ProbeRow(float("nan"), float(v), "e", "o", 0, "ok")
                for v in range(1, 11)
            ]
        )[("e", "o")]
        quantiles_match = hand == {"median": 5.0, "p10": 1.0, "p90": 9.0, "sp": 8.0, "n": 10}
    finally:
        server.shutdown()
        server.server_close()
    elapsed = time.perf_counter() - t0
    _report(11, "loopback bench harness: valid records, exact kernels, quantiles",
            elapsed, 30.0, all_ok and pic_exact and stats_match and quantiles_match,
            f"50 rows ok={all_ok}")


def test_criterion_12_inflight_monotonicity():
    # The measured multi-environment findings need the original deployments;
    # desk-scale coverage is the quantile-seeded demo plus criteria 9-11.
    t0 = time.perf_counter()
    rep = run_experiment("inflight_demo")
    elapsed = time.perf_counter() - t0
    counts = next(c.computed for c in rep.checks if c.gating)
    _report(12, "worse connectivity never lowers the locally-placed count",
            elapsed, 10.0, rep.passed, f"local counts {counts}")
