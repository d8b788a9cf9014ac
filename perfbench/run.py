#!/usr/bin/env python3
"""fogassign benchmark: four seeded workloads run in-process.

    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --workload plan --smoke

Run from the root of a checkout; the package is imported from its
``src/`` directory, and the benchmark exits nonzero when that is
missing.  Workloads: ``reproduce``, ``plan``, ``resolve``, ``measure``
(see ``workloads.py`` and ``BENCHMARK.json`` for why each was chosen).

A run sets the workload up ``SETUP_REPS`` times (each set-up imports the
package in a fresh interpreter and builds the inputs from ``--seed``),
then repeats the workload's timed pass until ``--seconds`` of passes have
run, then checks the outputs outside the timed region.  With
``--trace 0`` the passes run untraced and the end-to-end metrics are
reported, each time rescaled to a reference CPU speed sampled while it
runs (``cpuspeed``; ``pass_raw_s`` and ``cpu_speed`` give the raw median
pass time and the factor).  With ``--trace 1`` the per-layer tracer is
installed for the passes and the per-layer metrics are reported, raw;
``trace.pass_s`` minus an untraced run's ``pass_raw_s`` is the tracing
overhead.  Times are medians over passes and counts are per pass.
``--smoke`` shrinks the inputs, runs one traced pass and reports both
metric sets.

Every metric is printed as ``name value unit n=<samples>``, followed by
the environment, and the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  The full result (with
sample counts and environment) goes to ``.perfbench_out/``, and a traced
run writes its spans there as JSON lines.  The exit status is 1 when any
operation or output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
# Passes stop at --seconds once a workload has its minimum sample count,
# and in any case after this long.
MAX_PASS_SECONDS = 120.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("reproduce", "plan", "resolve", "measure"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, one traced pass, both metric sets")
    return p.parse_args(argv)


def _import_package():
    """Import fogassign from this checkout's src/, never from elsewhere."""
    if not (SRC / "fogassign" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'fogassign'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import fogassign

    if Path(fogassign.__file__).resolve().parent != (SRC / "fogassign").resolve():
        sys.exit(f"perfbench: imported fogassign from {fogassign.__file__}, not {SRC}")


def _import_seconds(env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import fogassign"], env=env, check=True, timeout=120)
    return time.perf_counter() - t0


def _measure(sampler, fn):
    """(result, wall seconds, speed factor); factor 1 without a sampler."""
    if sampler is None:
        t0 = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - t0, 1.0
    return sampler.measure(fn)


def _timed_passes(wl, seconds, span, sampler, after_pass=None):
    passes, spent = [], 0.0
    while True:
        p, wall, speed = _measure(sampler, lambda: wl.run_pass(span))
        p["pass_s"], p["speed"] = wall, speed
        if after_pass is not None:
            after_pass(p)
        passes.append(p)
        spent += p["pass_s"]
        if spent >= seconds and (wl.enough(passes) or spent >= MAX_PASS_SECONDS):
            return passes


def _environment(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def run(args) -> int:
    import cpuspeed
    import tracer
    from workloads import WORKLOADS, median, package_env

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = bool(args.trace) or args.smoke
    seconds = 0.0 if args.smoke else args.seconds

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    workdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    tr = tracer.Tracer(args.workload)
    setup_times, passes, layer_passes, checks = [], [], [], []
    attempted = failed = 0
    error = None
    # End-to-end times are rescaled to the reference CPU speed; per-layer
    # times of a traced run stay raw and unperturbed by the sampler.
    sampler = None if args.trace else cpuspeed.SpeedSampler()
    try:
        env = package_env()
        with sampler or nullcontext():
            for i in range(SETUP_REPS):
                if i:
                    wl.reset()
                _, wall, speed = _measure(sampler, lambda: (_import_seconds(env), wl.setup()))
                setup_times.append(wall * speed)
            checks += wl.precheck()
            if traced:
                def after_pass(p):
                    stats, counts = tr.take()
                    layer_passes.append({**tracer.pass_metrics(stats, counts),
                                         "trace.pass_s": p["pass_s"]})

                tracer.install(tr)
                try:
                    passes = _timed_passes(wl, seconds, tr.span, sampler, after_pass)
                finally:
                    tr.restore()
            else:
                passes = _timed_passes(wl, seconds, lambda name: nullcontext(), sampler)
        checks += wl.check(passes)
    except Exception as exc:  # one failed operation; reported, never hidden
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
        attempted += 1
        failed += 1
    finally:
        wl.reset()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted += sum(p["ops"] for p in passes) + len(checks)
    failed += sum(p["failed"] for p in passes) + sum(1 for _n, ok, _d in checks if not ok)

    rows: dict[str, tuple[float, str, int]] = {}
    if setup_times:
        rows["setup_s"] = (median(setup_times), "s", len(setup_times))
    if passes and (not args.trace or args.smoke):
        n = len(passes)
        rows["pass_s"] = (median(p["pass_s"] * p["speed"] for p in passes), "s", n)
        rows["pass_raw_s"] = (median(p["pass_s"] for p in passes), "s", n)
        rows["cpu_speed"] = (median(p["speed"] for p in passes), "ratio", n)
        rows.update(wl.metrics(passes))
        rows["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    rows["error_rate"] = (failed / max(attempted, 1), "ratio", attempted)
    if traced and passes:
        program = wl.layer_metrics(passes)
        for name, unit in layer_units.items():
            if name in program:
                value = program[name]
            elif name.split(".")[0] in ("reproduce", "benchnet") and name not in layer_passes[0]:
                value = 0.0  # layer not exercised by this workload
            else:
                value = median(lp[name] for lp in layer_passes)
            if unit == "count":
                value = int(round(value))
            rows[name] = (value, unit, len(layer_passes))

    wanted = {}
    if not args.trace or args.smoke:
        wanted.update(e2e_units)
    if traced:
        wanted.update(layer_units)
    correct = error is None and failed == 0
    missing = [n for n in wanted if n not in rows]
    if correct and missing:
        error = f"metrics not measured: {missing}"
        correct = False

    environment = _environment(args)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    for name, (value, unit, n) in rows.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<40} {shown} {unit:<6} n={n}")
    for name, ok, detail in checks:
        if not ok:
            print(f"  FAILED CHECK {name}: {detail}")
    print(f"  checks: {sum(ok for _n, ok, _d in checks)}/{len(checks)} passed")
    if error:
        print(f"  ERROR {error}")
    print("env " + json.dumps(environment, sort_keys=True))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (outdir / f"{stem}.json").write_text(json.dumps({
        "env": environment,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "error": error,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in rows.items()},
        "setup_samples_s": setup_times,
        "passes": [{"wall_s": p["pass_s"], "speed": p["speed"], "steps_s": p["steps"]}
                   for p in passes],
        "failed_checks": [[n, d] for n, ok, d in checks if not ok],
    }, indent=2, sort_keys=True) + "\n")
    if traced:
        tr.write_spans(outdir / f"{stem}.spans.jsonl")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": rows[k][0], "unit": rows[k][1]} for k in wanted if k in rows},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _args(argv)
    # Turn a termination request into SystemExit so the bench server is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    _import_package()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
