"""Block drawing and scoring of the randomized-quality experiment.

``_rq_draw`` draws a block of runs with one generator call into a
task-major (task, run, node, sample) block, and ``_rq_scores`` evaluates
each utility family once over the block.  The references below are the
per-run loops they replaced, kept verbatim; the blocks must give the
same floats, compared with ``==``, and leave the generator in the same
state, for full blocks and for partial ones such as the experiment's
last block when its run count is not a multiple of ``_RQ_BATCH``.
"""

import numpy as np
import pytest

from fogassign.latency import Columns, Gev, make_rng
from fogassign.reproduce import (
    RQ_GATEWAY_CAPACITY,
    RQ_SAMPLES_PER_ESTIMATE,
    _RQ_BATCH,
    _rq_draw,
    _rq_scores,
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
