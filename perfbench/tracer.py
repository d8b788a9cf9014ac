"""Per-layer tracing of the fogassign package from outside it.

The tracer replaces public functions and methods of the package with
timing and counting wrappers for the length of a traced pass, then puts
the originals back.  Nothing inside ``src/`` knows about it.

A function is replaced under every name a ``fogassign`` module binds it
to (``from .x import f`` copies the reference), and a method on its
class and on every subclass that defines its own copy, so a call is seen
whichever module makes it.

Every wrapped call opens a frame.  A layer's ``total_s`` and ``calls``
count only its outermost calls (recursion, such as ``simulate`` running
its baselines or a mixture expectation calling itself per component,
is not counted twice); ``self_s`` is a frame's duration minus the time
covered by its child frames.  Coarse calls (solves, solver stages,
scenario loads, simulations, experiments, characterize steps) are also
kept as spans ``[id, name, start, end, parent, workload]`` in memory and
written out by ``write_spans`` at the end of the run; hot leaf calls
(table lookups, expectations, risk, sampling) are only aggregated.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from importlib import import_module

# Frame layout: [name, start, child seconds, id of the nearest recorded span
# (its own id when recorded), parent recorded span id, recorded?]
_NAME, _START, _CHILD, _REC, _PARENT, _RECORD = range(6)


class _Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Span stack, per-layer aggregates and the patches that feed them."""

    def __init__(self, workload: str):
        self.workload = workload
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, record: bool) -> list:
        parent = self._stack[-1][_REC] if self._stack else 0
        rec = parent
        if record:
            rec = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, rec, parent, record]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name = frame[_NAME]
        dur = end - frame[_START]
        self._stack.pop()
        self._open[name] -= 1
        st = self.stats[name]
        st.self_s += dur - frame[_CHILD]
        if self._open[name] == 0:
            st.calls += 1
            st.total_s += dur
        if self._stack:
            self._stack[-1][_CHILD] += dur
        if frame[_RECORD]:
            self.spans.append([frame[_REC], name, frame[_START], end, frame[_PARENT], self.workload])

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    @contextmanager
    def span(self, name: str, record: bool = True):
        frame = self._enter(name, record)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str, record: bool = False, before=None):
        """Wrapper that runs ``fn`` inside a frame; ``before(args)`` may count."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = self._enter(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, make_wrapper) -> None:
        """Replace ``fn`` under every name a fogassign module binds it to."""
        wrapper = make_wrapper(fn)
        for modname, module in list(sys.modules.items()):
            if modname != "fogassign" and not modname.startswith("fogassign."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def patch_method(self, cls, attr: str, make_wrapper) -> None:
        """Replace ``cls.attr`` and every subclass's own override of it."""
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                self._set(klass, attr, make_wrapper(klass.__dict__[attr]))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-pass bookkeeping ----------------------------------------------

    def take(self) -> tuple[dict[str, _Stat], Counter]:
        """Return and reset the aggregates gathered since the last call."""
        stats, counts = self.stats, self.counts
        self.stats = defaultdict(_Stat)
        self.counts = Counter()
        return stats, counts

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    from fogassign import benchnet, characterize, latency, scenario, solver, utility

    simulate = import_module("fogassign.simulate")  # the package binds the function here
    t = tracer

    def timed(name, record=False, before=None):
        return lambda fn: t.wrap(fn, name, record, before)

    # latency: expectations, the integrand evaluations inside them, sampling.
    t.patch_function(latency.expect_transform, timed("latency.expect"))

    def count_value(fn):
        @wraps(fn)
        def value(self, tt):
            key = "integrand_evals" if t.inside("latency.expect") else "value_outside_expect"
            t.counts[key] += 1
            return fn(self, tt)

        return value

    t.patch_method(utility.TimeUtility, "value", count_value)

    def count_draws(args, kwargs):
        n = args[2] if len(args) > 2 else kwargs["n"]
        t.counts["sample_draws"] += int(n)

    t.patch_method(latency.LatencyDistribution, "sample", timed("latency.sample", before=count_draws))

    # utility: scoring and risk.
    t.patch_function(utility.expected_utility, timed("utility.expected_utility"))
    t.patch_function(utility.risk_probability, timed("utility.risk"))

    # solver: table lookups (a miss is a lookup that had to score), solves, stages.
    def count_report(fn):
        inner = t.wrap(fn, "solver.report")

        @wraps(fn)
        def report(*args, **kwargs):
            scored = t.stats["utility.expected_utility"].calls
            out = inner(*args, **kwargs)
            if t.stats["utility.expected_utility"].calls != scored:
                t.counts["report_misses"] += 1
            return out

        return report

    t.patch_method(solver.UtilityTable, "report", count_report)
    t.patch_function(solver.solve_capacitated, timed("solver.solve", record=True))
    t.patch_function(solver.solve_uncapacitated, timed("solver.solve", record=True))
    t.patch_function(solver.complete_uncapacitated, timed("solver.stage1", record=True))
    t.patch_function(solver.capacitated_gains, timed("solver.stage2", record=True))

    def count_cells(args, kwargs):
        task_ids, _g1, _g2, c1, c2 = args
        n = len(task_ids)
        t.counts["residual_tasks"] += n
        t.counts["dp_cells"] += n * (c1 + 1) * (c2 + 1)

    t.patch_function(
        solver.choose_for_capacitated, timed("solver.stage3", record=True, before=count_cells)
    )
    t.patch_function(solver.reject_unassignable, timed("solver.stage4", record=True))

    # scenario: load, hash, task lookup.
    t.patch_function(scenario.load_scenario, timed("scenario.load", record=True))
    t.patch_method(scenario.Scenario, "content_hash", timed("scenario.hash", record=True))
    t.patch_method(scenario.Scenario, "task", timed("scenario.task"))

    # simulate: Monte Carlo realization and the reference strategies.
    t.patch_function(simulate.simulate, timed("simulate.simulate", record=True))
    t.patch_function(simulate.run_baseline, timed("simulate.baseline", record=True))

    # benchnet: request construction, per endpoint kind.
    def per_kind(fn):
        @wraps(fn)
        def build_request(self):
            with t.span(f"benchnet.build_request.{self.task.kind}", record=False):
                return fn(self)

        return build_request

    t.patch_method(benchnet.ProbeTarget, "build_request", per_kind)

    # characterize: the steps run on probe records.
    t.patch_function(benchnet.summarize, timed("characterize.summarize", record=True))
    t.patch_function(characterize.estimate_cdf, timed("characterize.estimate_cdf"))
    t.patch_function(characterize.cdf_distance, timed("characterize.distance"))
    t.patch_function(characterize.ks_statistic, timed("characterize.distance"))
    t.patch_function(characterize.error_curve, timed("characterize.error_curve", record=True))


def pass_metrics(stats: dict[str, _Stat], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its aggregates."""

    def st(name: str) -> _Stat:
        return stats.get(name) or _Stat()

    expect, report = st("latency.expect"), st("solver.report")
    evals, misses = counts["integrand_evals"], counts["report_misses"]
    out = {
        "latency.expect_calls": expect.calls,
        "latency.expect_s": expect.total_s,
        "latency.integrand_evals": evals,
        "latency.evals_per_expect": evals / expect.calls if expect.calls else 0.0,
        "latency.sample_draws": counts["sample_draws"],
        "latency.sample_s": st("latency.sample").total_s,
        "utility.expected_utility_calls": st("utility.expected_utility").calls,
        "utility.expected_utility_s": st("utility.expected_utility").total_s,
        "utility.risk_calls": st("utility.risk").calls,
        "utility.risk_s": st("utility.risk").total_s,
        "utility.value_calls_outside_expect": counts["value_outside_expect"],
        "solver.report_calls": report.calls,
        "solver.report_misses": misses,
        "solver.table_hit_ratio": (report.calls - misses) / report.calls if report.calls else 0.0,
        "solver.solve_calls": st("solver.solve").calls,
        "solver.solve_s": st("solver.solve").total_s,
        "solver.residual_tasks": counts["residual_tasks"],
        "solver.dp_cells": counts["dp_cells"],
        "scenario.load_s": st("scenario.load").total_s,
        "scenario.hash_s": st("scenario.hash").total_s,
        "scenario.task_lookups": st("scenario.task").calls,
        "scenario.task_lookup_s": st("scenario.task").total_s,
        "simulate.simulate_s": st("simulate.simulate").total_s,
        "simulate.baseline_s": st("simulate.baseline").total_s,
        "characterize.summarize_s": st("characterize.summarize").total_s,
        "characterize.estimate_cdf_s": st("characterize.estimate_cdf").total_s,
        "characterize.distance_s": st("characterize.distance").total_s,
        "characterize.error_curve_s": st("characterize.error_curve").total_s,
    }
    for k in (1, 2, 3, 4):
        out[f"solver.stage{k}_s"] = st(f"solver.stage{k}").self_s
    for kind in ("pic", "psf", "fsp"):
        build = st(f"benchnet.build_request.{kind}")
        out[f"benchnet.{kind}.build_request_ms"] = (
            build.total_s / build.calls * 1e3 if build.calls else 0.0
        )
    return out
