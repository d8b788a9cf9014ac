"""Command-line interface.

Subcommands cover the whole workflow: solve or baseline a scenario file,
Monte-Carlo check a plan, reproduce the bundled experiments, characterize
probe records, fit a latency model from quantile summaries, and run the
benchmark server / probe client.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from pathlib import Path

import click

from . import benchnet, characterize, reproduce as repro
from .latency import FitError, dist_from_config, gev_from_quantiles, make_rng
from .scenario import (
    ScenarioError,
    bundled_scenario,
    bundled_scenario_names,
    load_scenario,
)
from .simulate import emit, round9, run_baseline, simulate
from .solver import (
    SizeGuardError,
    UnsupportedTopologyError,
    UtilityTable,
    WrongSolverError,
    brute_force_optimum,
    solve_capacitated,
    solve_uncapacitated,
    validate_plan,
)

SOLVERS = {
    "ua": solve_uncapacitated,
    "at": solve_capacitated,
    "oracle": brute_force_optimum,
}


SOLVE_ERRORS = (ScenarioError, WrongSolverError, UnsupportedTopologyError, SizeGuardError)


@click.group()
def main():
    """Latency-aware task placement toolkit."""


def _load(scenario_path):
    try:
        return load_scenario(scenario_path)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))


def _emit_or_print(record: dict, fmt: str, out):
    if out is None:
        click.echo(json.dumps(round9(record), sort_keys=True, indent=2))
    else:
        emit(record, fmt, out)
        click.echo(f"wrote {out}")


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--solver", type=click.Choice(sorted(SOLVERS)), default="at", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write instead of printing.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def solve(scenario_path, solver, out, fmt):
    """Solve a scenario and emit the assignment plan."""
    scen = _load(scenario_path)
    try:
        plan = SOLVERS[solver](scen)
    except SOLVE_ERRORS as exc:
        raise click.ClickException(str(exc))
    problems = validate_plan(scen, plan)
    if problems:
        raise click.ClickException("; ".join(problems))
    _emit_or_print(plan.to_record(scenario_hash=scen.content_hash()), fmt, out)


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--strategy", type=click.Choice(["min-latency", "max-quality"]), required=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def baseline(scenario_path, strategy, out, fmt):
    """Place every task by a single-statistic reference strategy."""
    scen = _load(scenario_path)
    plan = run_baseline(scen, strategy)
    _emit_or_print(plan.to_record(scenario_hash=scen.content_hash()), fmt, out)


@main.command(name="simulate")
@click.argument("scenario_path", type=click.Path(exists=True))
@click.option("--reps", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--seed", type=int, default=None, help="Defaults to the scenario seed.")
@click.option("--solver", type=click.Choice(sorted(SOLVERS)), default="at", show_default=True)
@click.option("--with-baselines", is_flag=True, help="Also simulate both reference strategies.")
@click.option("--out", type=click.Path(), default=None)
def simulate_cmd(scenario_path, reps, seed, solver, with_baselines, out):
    """Monte-Carlo mean utilities (with standard errors) of the solved plan."""
    scen = _load(scenario_path)
    table = UtilityTable(scen)
    try:
        plan = SOLVERS[solver](scen, table)
    except SOLVE_ERRORS as exc:
        raise click.ClickException(str(exc))
    baselines = (
        {s: run_baseline(scen, s, table) for s in ("min-latency", "max-quality")}
        if with_baselines
        else None
    )
    rng = make_rng(scen.seed if seed is None else seed)
    result = simulate(scen, plan, reps, rng, baselines=baselines)
    _emit_or_print(result.to_record(), "json", out)


@main.command()
@click.argument("experiment", required=False)
def reproduce(experiment):
    """Re-run bundled experiments and check reference values (timings on stderr)."""
    ids = sorted(repro.EXPERIMENTS) if experiment in (None, "all") else [experiment]
    ok = True
    for eid in ids:
        t0 = time.perf_counter()
        try:
            report = repro.run_experiment(eid)
        except ValueError as exc:
            raise click.ClickException(str(exc))
        click.echo(repro.format_report(report))
        click.echo(f"  ({eid}: {time.perf_counter() - t0:.2f}s)", err=True)
        ok = ok and report.passed
    sys.exit(0 if ok else 1)


@main.command(name="characterize")
@click.argument("records", type=click.Path(exists=True))
@click.option("--thresholds", nargs=2, type=float, default=(10.0, 60.0), show_default=True,
              help="Warm/cold inter-invocation thresholds in seconds.")
@click.option("--bucket-width", type=float, default=10.0, show_default=True)
@click.option("--reference", type=click.Path(exists=True), default=None,
              help="JSON distribution config to score the records against.")
@click.option("--out", type=click.Path(), default=None)
def characterize_cmd(records, thresholds, bucket_width, reference, out):
    """Summarize probe records and fit the gap-conditional latency model."""
    rows = benchnet.load_probe_rows(records)
    try:
        summary = benchnet.summarize(rows)
    except benchnet.EmptySummaryError as exc:
        raise click.ClickException(str(exc))
    report: dict = {
        "records": len(rows),
        "per_endpoint": {f"{e} {o}": s for (e, o), s in summary.items()},
    }
    ok_rows = benchnet.ok_rows(rows)
    pairs = [
        (r.delta_t_s, r.latency_s) for r in ok_rows if not math.isnan(r.delta_t_s)
    ]
    try:
        model = characterize.fit_serverless_regimes(
            pairs, thresholds=tuple(thresholds), bucket_width=bucket_width
        )
        report["regimes"] = {
            "thresholds": list(thresholds),
            "warm_n": model.warm.n,
            "cold_n": model.cold.n,
            "bucket_warm_weights": list(model.mixing.weights),
        }
    except characterize.InsufficientDataError as exc:
        report["regimes"] = {"skipped": str(exc)}
    except ValueError as exc:  # thresholds or bucket width out of range
        raise click.ClickException(str(exc))
    if reference is not None:
        ref = dist_from_config(json.loads(Path(reference).read_text()),
                               base_dir=Path(reference).parent)
        est = characterize.estimate_cdf([r.latency_s for r in ok_rows])
        avg, mx = characterize.cdf_distance(ref, est)
        report["reference_distance"] = {
            "avg": avg,
            "max": mx,
            "ks": characterize.ks_statistic([r.latency_s for r in ok_rows], ref.cdf),
        }
    _emit_or_print(report, "json", out)


@main.command(name="fit-gev")
@click.option("--median", type=float, required=True)
@click.option("--p10", type=float, required=True)
@click.option("--p90", type=float, required=True)
def fit_gev(median, p10, p90):
    """Fit the heavy-tailed latency model matching three quantiles."""
    try:
        dist = gev_from_quantiles(median, p10, p90)
    except FitError as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(round9(dist.to_config()), sort_keys=True))


@main.command()
@click.option("--bind", default="127.0.0.1:8080", show_default=True, help="host:port")
@click.option("--dataset", type=click.Path(exists=True), required=True)
@click.option("--allow-out-of-range", is_flag=True,
              help="Accept benchmark sizes outside the supported ranges.")
def serve(bind, dataset, allow_out_of_range):
    """Run the benchmark server (blocks until interrupted)."""
    host, _, port = bind.partition(":")
    try:
        server = benchnet.BenchServer((host, int(port or 8080)), dataset, allow_out_of_range)
    except (OSError, ValueError) as exc:
        raise click.ClickException(str(exc))
    click.echo(f"serving on {server.url} (pic/psf/fsp)")
    with server, contextlib.suppress(KeyboardInterrupt):  # Ctrl-C closes the socket
        server.serve_forever()


@main.command()
@click.option("--schedule", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def probe(schedule, out):
    """Run a probe schedule against live endpoints and record latencies."""
    try:
        rows = benchnet.probe(benchnet.load_schedule(schedule), out)
    except ValueError as exc:  # a bad target, or a URL no request can go to
        raise click.ClickException(str(exc))
    failures = sum(1 for r in rows if r.status != "ok")
    click.echo(f"wrote {len(rows)} records to {out} ({failures} failures)")


@main.command(name="make-dataset")
@click.option("--out", type=click.Path(), required=True)
@click.option("--lines", type=click.IntRange(min=1), default=benchnet.MIN_DATASET_LINES,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def make_dataset(out, lines, seed):
    """Generate the seeded numeric CSV fixture served by /psf."""
    benchnet.make_dataset(out, lines=lines, seed=seed)
    click.echo(f"wrote {lines} lines to {out}")


@main.command(name="scenarios")
@click.option("--export", "export_name", default=None,
              help="Write the named bundled scenario to --out as a starting point.")
@click.option("--out", type=click.Path(), default=None)
def scenarios_cmd(export_name, out):
    """List bundled scenario names, or export one as a JSON file."""
    if export_name is None:
        for name in bundled_scenario_names():
            click.echo(name)
        return
    if out is None:
        raise click.ClickException("--export requires --out")
    try:
        scen = bundled_scenario(export_name)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))
    scen.save(out)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
