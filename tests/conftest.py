import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fogassign.latency import Degenerate, Empirical, Gev, Mixture, Uniform, make_rng
from fogassign.scenario import NodeSpec, Scenario
from fogassign.utility import ExpDecay, Step, TaskSpec, WaitReadyFirst

SRC = Path(__file__).resolve().parents[1] / "src"

# 99th-percentile point of the Kolmogorov distribution, for KS bounds.
KS_CRIT_001 = 1.62762


def ks_critical(n: int, coeff: float = KS_CRIT_001) -> float:
    return coeff / np.sqrt(n)


def run_cli(*args, code=None, cwd=None, background=False):
    """``python -m fogassign.cli ARGS``, or ``python -c CODE ARGS``, as a user
    runs it: in a fresh interpreter with ``src/`` first on its path, a
    RuntimeWarning raised as an error, and a locale whose encoding is ASCII,
    so that no output depends on the locale.

    Returns the finished process with its output as bytes, or with
    ``background`` the running one, its stdout and stderr text pipes.
    """
    argv = [sys.executable, *(("-c", code) if code else ("-m", "fogassign.cli")), *map(str, args)]
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
               PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if background:
        return subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, timeout=120)


def assert_one_record_a_line(path, cfg: dict):
    """The file at ``path`` is ``cfg`` in the layout ``Scenario.save`` writes:
    ``{``, one top-level field a line, and one record of each nonempty
    list a line, indented by 4 spaces, each line read back by ``json.loads``."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    assert lines[0] == "{" and lines[-2:] == ["}", ""]
    body = iter(lines[1:-2])
    for i, (key, value) in enumerate(cfg.items()):
        comma = "," if i < len(cfg) - 1 else ""
        head = f"  {json.dumps(key)}: "
        line = next(body)
        if isinstance(value, list) and value:
            assert line == head + "["
            for k, record in enumerate(value):
                line = next(body)
                assert line.startswith("    {")
                assert line.endswith("}," if k < len(value) - 1 else "}")
                assert json.loads(line.rstrip(",")) == record
            assert next(body) == "  ]" + comma
        else:
            assert line.startswith(head) and line.endswith(comma)
            assert json.loads(line[len(head):len(line) - len(comma)]) == value
    assert next(body, None) is None


def savetxt_dataset(path, lines: int, seed: int) -> bytes:
    """The bytes of a ``make_dataset`` file as ``np.savetxt`` writes it in
    one call: the oracle the chunked writer must match."""
    np.savetxt(path, np.random.default_rng(seed).uniform(0.0, 1000.0, lines), fmt="%.6f")
    return Path(path).read_bytes()


@pytest.fixture
def rng():
    return make_rng(20260810)


def _random_dist(rng, kind=None) -> object:
    """One latency model of ``kind`` (0-4), drawn from ``rng`` if not given."""
    if kind is None:
        kind = rng.integers(0, 5)
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
        loc = scale / shape + float(rng.uniform(0.0, 1.0))  # keeps support nonnegative
        return Gev(shape=shape, scale=scale, loc=loc)
    lo1 = float(rng.uniform(0.0, 0.5))
    lo2 = float(rng.uniform(0.5, 1.2))
    w = float(rng.uniform(0.1, 0.9))
    return Mixture(
        [Uniform(lo1, lo1 + 0.4), Uniform(lo2, lo2 + 0.6)],
        [w, 1.0 - w],
    )


def _random_time_utility(rng, kind=None) -> object:
    """One time-utility model of ``kind`` (0-2), drawn from ``rng`` if not given."""
    if kind is None:
        kind = rng.integers(0, 3)
    if kind == 0:
        return Step(tv=float(rng.uniform(0.1, 1.5)))
    if kind == 1:
        return ExpDecay(k=float(rng.uniform(0.3, 3.0)))
    te = float(rng.uniform(0.05, 0.8))
    return WaitReadyFirst(te=te, ts=te + float(rng.uniform(0.1, 1.0)))


def random_scenario(seed: int) -> Scenario:
    """Small random instance within the exhaustive-oracle guard rails.

    Up to 8 tasks over up to 4 nodes of which at most 2 are capacitated
    (capacities 1-3), 1-2 options per node, mixed utility families and
    latency variants, and occasionally binding risk budgets.
    """
    rng = make_rng(seed)
    n_tasks = int(rng.integers(1, 9))
    n_nodes = int(rng.integers(1, 5))
    n_finite = int(rng.integers(0, min(2, n_nodes) + 1))
    nodes = []
    for z in range(n_nodes):
        options = tuple(f"x{i}" for i in range(int(rng.integers(1, 3))))
        capacity = int(rng.integers(1, 4)) if z < n_finite else None
        nodes.append(NodeSpec(id=f"z{z}", options=options, capacity=capacity))
    tasks = []
    latency = {}
    for j in range(n_tasks):
        intrinsic = {}
        tid = f"j{j}"
        for node in nodes:
            for x in node.options:
                if rng.random() < 0.8:
                    intrinsic[(node.id, x)] = float(rng.uniform(0.05, 1.0))
        binding = rng.random() < 0.3
        tasks.append(
            TaskSpec(
                id=tid,
                time_utility=_random_time_utility(rng),
                intrinsic=intrinsic,
                quality_floor=float(rng.uniform(0.1, 0.8)) if binding else 0.0,
                risk_budget=float(rng.uniform(0.2, 0.9)) if binding else 1.0,
            )
        )
        for (z, x) in intrinsic:
            latency[(tid, z, x)] = _random_dist(rng)
    scen = Scenario(
        name=f"random-{seed}", tasks=tasks, nodes=nodes, latency=latency, seed=seed
    )
    scen.validate()
    return scen


def plan_scenario(seed: int, n_tasks: int, capacity: int) -> Scenario:
    """The scenario of the ``plan`` benchmark workload, drawn as
    ``perfbench/workloads.py`` draws it: that module needs scipy, and this
    suite runs without it.

    4 nodes, the first two capacitated; each task is offered each pair with
    probability 0.8 and gets its own latency model per pair, the five
    latency kinds and the three time-utility families in fixed proportions.
    """
    rng = np.random.default_rng(seed)
    nodes = [NodeSpec(id=f"z{z}", options=tuple(f"x{i}" for i in range(1 + z % 2)),
                      capacity=capacity if z < 2 else None) for z in range(4)]
    families = rng.permutation(np.arange(n_tasks) % 3)
    binding = rng.permutation(n_tasks) < round(0.3 * n_tasks)
    tasks = []
    for j in range(n_tasks):
        intrinsic = {(node.id, x): float(rng.uniform(0.05, 1.0))
                     for node in nodes for x in node.options if rng.random() < 0.8}
        tasks.append(TaskSpec(
            id=f"j{j:04d}",
            time_utility=_random_time_utility(rng, families[j]),
            intrinsic=intrinsic,
            quality_floor=float(rng.uniform(0.1, 0.8)) if binding[j] else 0.0,
            risk_budget=float(rng.uniform(0.2, 0.9)) if binding[j] else 1.0,
        ))
    triples = [(t.id, z, x) for t in tasks for (z, x) in t.intrinsic]
    kinds = rng.permutation(np.arange(len(triples)) % 5)
    latency = {key: _random_dist(rng, kind) for key, kind in zip(triples, kinds)}
    scen = Scenario(name=f"plan-{seed}", tasks=tasks, nodes=nodes, latency=latency, seed=seed)
    scen.validate()
    return scen


TIE_UTILITIES = [0.0, 0.25, 0.5]


def tie_heavy_scenario(seed):
    """Utilities on a three-value grid, 1-3 options per node, mixed capacities.

    Step(1.0) over Degenerate(0.5) makes each utility its intrinsic value,
    so equal utilities across options and nodes are the common case.
    """
    rng = np.random.default_rng(seed)
    nodes = [
        NodeSpec(id=f"z{i}", options=tuple(f"x{k}" for k in range(int(rng.integers(1, 4)))),
                 capacity=None if rng.random() < 0.5 else int(rng.integers(1, 4)))
        for i in range(int(rng.integers(1, 5)))
    ]
    tasks, latency = [], {}
    for j in range(int(rng.integers(1, 6))):
        intrinsic = {}
        for node in nodes:
            for x in node.options:
                if rng.random() < 0.85:
                    intrinsic[(node.id, x)] = float(rng.choice(TIE_UTILITIES))
                    latency[(f"j{j}", node.id, x)] = Degenerate(0.5)
        tasks.append(TaskSpec(id=f"j{j}", time_utility=Step(1.0), intrinsic=intrinsic))
    return Scenario(name="ties", tasks=tasks, nodes=nodes, latency=latency)
