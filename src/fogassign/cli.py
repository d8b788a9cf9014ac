"""Command-line interface.

Subcommands cover the whole workflow: solve or baseline a scenario file,
Monte-Carlo check a plan, reproduce the bundled experiments, characterize
probe records, fit a latency model from quantile summaries, and run the
benchmark server / probe client.

A bad input (a file, a scenario, a schedule, a value the library refuses)
prints one ``Error:`` line and exits with status 1; a bad option is a
usage error with status 2.  Scenario, schedule and ``--reference`` files
share one reader, ``latency.Fields``, and its one form of error.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time

import click

from . import benchnet, characterize, reproduce as repro
from .latency import _load_json, dist_from_config, gev_from_quantiles, make_rng
from .scenario import bundled_scenario, bundled_scenario_names, load_scenario
from .simulate import BASELINES, emit, round9, run_baseline, simulate
from .solver import (
    UtilityTable,
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


class _Main(click.Group):
    """The one error boundary: a command's ``ValueError`` (every error class
    of the package subclasses it) or ``OSError`` is its ``Error:`` line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own exit for a reader that closed stdout
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main():
    """Latency-aware task placement toolkit."""


def _cannot_write(path, exc: OSError) -> click.ClickException:
    return click.ClickException(f"cannot write {path}: {exc.strerror or exc}")


def _emit(record: dict, fmt: str, out):
    """Print the record, or write it to ``out`` and say so."""
    try:
        emit(record, fmt, out)
    except OSError as exc:
        raise _cannot_write("stdout" if out is None else out, exc)
    except UnicodeEncodeError as exc:  # stdout has the locale's encoding, --out UTF-8
        hint = "" if out else "; --out writes UTF-8"
        raise click.ClickException(f"cannot write {out or 'stdout'}: {exc}{hint}") from exc
    if out is not None:
        click.echo(f"wrote {out}")


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--solver", type=click.Choice(sorted(SOLVERS)), default="at", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Write instead of printing.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def solve(scenario_path, solver, out, fmt):
    """Solve a scenario and emit the assignment plan."""
    scen = load_scenario(scenario_path)
    plan = SOLVERS[solver](scen)
    problems = validate_plan(scen, plan)
    if problems:
        raise click.ClickException("; ".join(problems))
    _emit(plan.to_record(scenario_hash=scen.content_hash()), fmt, out)


@main.command()
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--strategy", type=click.Choice(BASELINES), required=True)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json",
              show_default=True)
def baseline(scenario_path, strategy, out, fmt):
    """Place every task by a single-statistic reference strategy."""
    scen = load_scenario(scenario_path)
    plan = run_baseline(scen, strategy)
    _emit(plan.to_record(scenario_hash=scen.content_hash()), fmt, out)


@main.command(name="simulate")
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--reps", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Defaults to the scenario seed.")
@click.option("--solver", type=click.Choice(sorted(SOLVERS)), default="at", show_default=True)
@click.option("--with-baselines", is_flag=True, help="Also simulate both reference strategies.")
@click.option("--out", type=click.Path(), default=None)
def simulate_cmd(scenario_path, reps, seed, solver, with_baselines, out):
    """Monte-Carlo mean utilities (with standard errors) of the solved plan."""
    scen = load_scenario(scenario_path)
    table = UtilityTable(scen)
    plan = SOLVERS[solver](scen, table)
    baselines = (
        {s: run_baseline(scen, s, table) for s in BASELINES}
        if with_baselines
        else None
    )
    rng = make_rng(scen.seed if seed is None else seed)
    result = simulate(scen, plan, reps, rng, baselines=baselines)
    _emit(result.to_record(), "json", out)


@main.command()
@click.argument("experiment", required=False)
def reproduce(experiment):
    """Re-run bundled experiments and check reference values (timings on stderr)."""
    ids = sorted(repro.EXPERIMENTS) if experiment in (None, "all") else [experiment]
    ok = True
    for eid in ids:
        t0 = time.perf_counter()
        report = repro.run_experiment(eid)
        click.echo(repro.format_report(report))
        click.echo(f"  ({eid}: {time.perf_counter() - t0:.2f}s)", err=True)
        ok = ok and report.passed
    sys.exit(0 if ok else 1)


@main.command(name="characterize")
@click.argument("records", type=click.Path(exists=True, dir_okay=False))
@click.option("--thresholds", nargs=2, type=float, default=(10.0, 60.0), show_default=True,
              help="Warm/cold inter-invocation thresholds in seconds.")
@click.option("--bucket-width", type=float, default=10.0, show_default=True)
@click.option("--reference", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON distribution config to score the records against.")
@click.option("--out", type=click.Path(), default=None)
def characterize_cmd(records, thresholds, bucket_width, reference, out):
    """Summarize probe records and fit the gap-conditional latency model."""
    rows = benchnet.load_probe_rows(records)
    report: dict = {
        "records": len(rows),
        "per_endpoint": {f"{e} {o}": s for (e, o), s in benchnet.summarize(rows).items()},
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
        skipped = str(exc)
        if len(pairs) < len(ok_rows):
            skipped += (f" ({len(ok_rows) - len(pairs)} of the {len(ok_rows)} ok records have "
                        "no gap; the first invocation of each endpoint and option has none)")
        report["regimes"] = {"skipped": skipped}
    if reference is not None:
        ref = _load_json(reference, dist_from_config, role="reference")
        est = characterize.estimate_cdf([r.latency_s for r in ok_rows])
        avg, mx = characterize.cdf_distance(ref, est)
        report["reference_distance"] = {
            "avg": avg,
            "max": mx,
            "ks": characterize.ks_statistic([r.latency_s for r in ok_rows], ref.cdf),
        }
    _emit(report, "json", out)


@main.command(name="fit-gev")
@click.option("--median", type=float, required=True)
@click.option("--p10", type=float, required=True)
@click.option("--p90", type=float, required=True)
def fit_gev(median, p10, p90):
    """Fit the heavy-tailed latency model matching three quantiles."""
    dist = gev_from_quantiles(median, p10, p90)
    click.echo(json.dumps(round9(dist.to_config()), sort_keys=True))


def _host_port(ctx, param, value):
    """``host:port`` with a port in 0-65535; a bare host serves on 8080."""
    host, _, port = value.partition(":")
    try:
        port = benchnet._digits(port, "port") if port else 8080
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise click.BadParameter(f"{value!r} is not host:port with a port in 0-65535")
    return host, port


@main.command()
@click.option("--bind", default="127.0.0.1:8080", show_default=True, help="host:port",
              callback=_host_port)
@click.option("--dataset", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--allow-out-of-range", is_flag=True,
              help="Accept benchmark sizes outside the supported ranges.")
def serve(bind, dataset, allow_out_of_range):
    """Run the benchmark server (blocks until interrupted)."""
    server = benchnet.BenchServer(bind, dataset, allow_out_of_range)
    click.echo(f"serving on {server.url} ({'/'.join(benchnet.ENDPOINTS)})")
    with server, contextlib.suppress(KeyboardInterrupt):  # Ctrl-C closes the socket
        server.serve_forever()


@main.command()
@click.option("--schedule", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--out", type=click.Path(), required=True)
def probe(schedule, out):
    """Run a probe schedule against live endpoints and record latencies."""
    sched = benchnet.load_schedule(schedule)
    try:
        rows = benchnet.probe(sched, out)
    except OSError as exc:  # a failed request is a record, so this is the file
        raise _cannot_write(out, exc)
    failures = sum(1 for r in rows if r.status != "ok")
    click.echo(f"wrote {len(rows)} records to {out} ({failures} failures)")


@main.command(name="make-dataset")
@click.option("--out", type=click.Path(), required=True)
@click.option("--lines", type=click.IntRange(min=benchnet.MIN_DATASET_LINES),
              default=benchnet.MIN_DATASET_LINES, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def make_dataset(out, lines, seed):
    """Generate the seeded numeric CSV fixture served by /psf."""
    try:
        benchnet.make_dataset(out, lines=lines, seed=seed)
    except OSError as exc:
        raise _cannot_write(out, exc)
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
    scen = bundled_scenario(export_name)
    try:
        scen.save(out)
    except OSError as exc:
        raise _cannot_write(out, exc)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
