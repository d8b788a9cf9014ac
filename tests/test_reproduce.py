"""Block drawing and scoring of the randomized-quality experiment.

``_rq_draw`` draws a block of runs with one generator call into a
task-major (task, run, node, sample) block, and ``_rq_scores`` evaluates
each utility family once over the block.  The references below are the
per-run loops they replaced, kept verbatim; the blocks must give the
same floats, compared with ``==``, and leave the generator in the same
state, for full blocks and for partial ones such as the experiment's
last block when its run count is not a multiple of ``_RQ_BATCH``.

Each ``_RQ_SOLVE``-run chunk draws from its own jumped copy of the
experiment's generator (``_rq_stream``), on as many worker threads as
there are usable CPUs; every chunk must see the uniforms the serial stream
gives it, so the experiment's output does not depend on the worker count.
"""

import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from fogassign import reproduce
from fogassign.latency import Columns, Gev, make_rng
from fogassign.reproduce import (
    RQ_GATEWAY_CAPACITY,
    RQ_RUNS,
    RQ_SAMPLES_PER_ESTIMATE,
    _RQ_BATCH,
    _RQ_SOLVE,
    _rq_draw,
    _rq_scores,
    _rq_stream,
)
from fogassign.scenario import bundled_scenario
from fogassign.utility import ExpDecay, Step, TaskSpec, UtilityReport


def per_run_reports(tasks, a2, gw_draws, cl_draws):
    """One run scored task by task, as the experiment did before batching."""
    reports = {}
    for i, t in enumerate(tasks):
        f = t.time_utility
        u_gw = 0.6 * float(f.value(gw_draws[:, i]).mean())
        u_cl = float(a2[i]) * float(f.value(cl_draws[:, i]).mean())
        reports[(t.id, "gateway", "o1")] = UtilityReport(u_gw, 0.0, True)
        reports[(t.id, "cloud", "o1")] = UtilityReport(u_cl, 0.0, True)
    return reports


@pytest.mark.parametrize("runs", [_RQ_BATCH, 16, 3, 5], ids=["full", "16", "partial", "partial5"])
@pytest.mark.parametrize("cloud", ["scenario", "gev"])
def test_batch_matches_per_run_reference(runs, cloud):
    scen = bundled_scenario("vii_d_base").with_node_capacity("gateway", RQ_GATEWAY_CAPACITY)
    # The experiment's ten ramp tasks plus one of each other utility kind.
    tasks = list(scen.tasks) + [
        TaskSpec(id="step", time_utility=Step(0.45)),
        TaskSpec(id="exp", time_utility=ExpDecay(3.0)),
    ]
    k, n = RQ_SAMPLES_PER_ESTIMATE, len(tasks)
    gw_dist = scen.dist("t01", "gateway", "o1")
    cl_dist = scen.dist("t01", "cloud", "o1") if cloud == "scenario" else Gev(0.3, 0.1, 0.6)
    rng = make_rng(runs)
    a2 = np.empty((runs, n))
    gw_draws = np.empty((runs, k, n))
    cl_draws = np.empty((runs, k, n))
    want = []
    for r in range(runs):
        a2[r] = rng.uniform(0.6, 0.9, n)
        gw_draws[r] = gw_dist.sample(rng, k * n).reshape(k, n)
        cl_draws[r] = cl_dist.sample(rng, k * n).reshape(k, n)
        want.append(per_run_reports(tasks, a2[r], gw_draws[r], cl_draws[r]))
    block = np.ascontiguousarray(np.stack([gw_draws, cl_draws], axis=1).transpose(3, 0, 1, 2))
    u_gw, u_cl = _rq_scores(Columns(task.time_utility for task in tasks), a2, block)
    assert u_gw.shape == u_cl.shape == (runs, n)
    for r in range(runs):
        for i, t in enumerate(tasks):
            assert u_gw[r, i] == want[r][(t.id, "gateway", "o1")].utility
            assert u_cl[r, i] == want[r][(t.id, "cloud", "o1")].utility


@pytest.mark.parametrize("runs", [_RQ_BATCH, 3, 5], ids=["full", "partial", "partial5"])
@pytest.mark.parametrize("cloud", ["scenario", "gev"])
def test_block_draw_keeps_the_random_stream(runs, cloud):
    scen = bundled_scenario("vii_d_base")
    k, n = RQ_SAMPLES_PER_ESTIMATE, len(scen.tasks)
    gw_dist = scen.dist("t01", "gateway", "o1")
    cl_dist = scen.dist("t01", "cloud", "o1") if cloud == "scenario" else Gev(0.3, 0.1, 0.6)
    ref = make_rng(runs)
    want_a2 = np.empty((runs, n))
    want_t = np.empty((n, runs, 2, k))
    for r in range(runs):
        want_a2[r] = ref.uniform(0.6, 0.9, n)
        want_t[:, r, 0] = gw_dist.sample(ref, k * n).reshape(k, n).T
        want_t[:, r, 1] = cl_dist.sample(ref, k * n).reshape(k, n).T
    rng = make_rng(runs)
    u = np.empty((_RQ_BATCH, n + 2 * k * n))
    # The experiment's buffer: a partial block views its head, contiguous.
    t = np.empty(n * _RQ_BATCH * 2 * k)[:n * runs * 2 * k].reshape(n, runs, 2, k)
    a2 = _rq_draw(rng, (gw_dist, cl_dist), u[:runs], t)
    assert np.array_equal(a2, want_a2)
    assert np.array_equal(t, want_t)
    assert rng.bit_generator.state == ref.bit_generator.state


LAST_CHUNK = RQ_RUNS - RQ_RUNS % _RQ_SOLVE  # 272 runs


@pytest.mark.parametrize("start", [0, _RQ_SOLVE, LAST_CHUNK], ids=["first", "second", "last"])
def test_jumped_stream_continues_the_serial_one(start):
    scen = bundled_scenario("vii_d_base")
    k, n = RQ_SAMPLES_PER_ESTIMATE, len(scen.tasks)
    dists = (scen.dist("t01", "gateway", "o1"), scen.dist("t01", "cloud", "o1"))
    serial = make_rng(scen.seed)
    skip = np.empty((64, n + 2 * k * n))
    for r in range(0, start, len(skip)):  # the runs before ``start``, drawn in pieces
        serial.random(out=skip[:min(len(skip), start - r)])
    jumped = _rq_stream(make_rng(scen.seed).bit_generator, start, n, k)
    u = np.empty((_RQ_BATCH, n + 2 * k * n))
    for b in (_RQ_BATCH, 3):  # a full block, then a partial one
        want_t, got_t = np.empty((2, n, b, 2, k))
        want_a2 = _rq_draw(serial, dists, u[:b], want_t)
        got_a2 = _rq_draw(jumped, dists, u[:b], got_t)
        assert np.array_equal(got_a2, want_a2)
        assert np.array_equal(got_t, want_t)
    assert jumped.bit_generator.state == serial.bit_generator.state


def _golden_frequencies() -> list[float]:
    golden = Path(__file__).parent / "golden" / "reproduce.stdout"
    found = re.findall(r"gateway frequency of t0\d \(%\): reference=\S+ computed=(\S+) ",
                       golden.read_text(encoding="utf-8"))
    assert len(found) == 3
    return [float(x) for x in found]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_any_worker_count_gives_the_golden_frequencies(monkeypatch, workers):
    monkeypatch.setattr(reproduce, "_usable_cpus", lambda: workers)
    alive = []

    def solve_batch(*args):
        alive.append(threading.active_count())
        return solve(*args)

    solve = reproduce.solve_batch
    monkeypatch.setattr(reproduce, "solve_batch", solve_batch)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race between workers shows
    try:
        rep = reproduce.run_experiment("random_quality")
    finally:
        sys.setswitchinterval(interval)
    assert [c.computed for c in rep.checks] == _golden_frequencies()
    assert len(alive) == -(-RQ_RUNS // _RQ_SOLVE) and max(alive) == threads + workers
    assert threading.active_count() == threads
