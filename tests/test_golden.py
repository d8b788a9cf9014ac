"""Result files stay byte-identical across refactors.

The files under ``tests/golden/`` hold the CLI output for both bundled
scenarios: ``fogassign solve`` as JSON (stdout) and CSV (``--out``), and
``fogassign simulate --reps 2000 --seed 7 --with-baselines`` (stdout),
``fogassign reproduce`` (stdout; its timings go to stderr), and
``fogassign fit-gev`` on the measured summary (stdout).  The other two
solvers are kept too: ``solve --solver ua`` on ``vii_d_base`` (no finite
node) and ``solve --solver oracle`` on ``vii_d_two_cap``.

The bundled scenarios use only Uniform latencies and WRF time-utilities,
so ``every_kind.scenario.json`` adds one with every latency kind the
scorer handles: a nested mixture, mixtures of 2 and 3 components, sample
sets of 1 to 9 samples, point masses, Gev shapes 0.5, 1 and 2, all three
time-utility families, binding risk budgets and a full capacitated node.
Its ``solve``, ``simulate`` and ``baseline --strategy min-latency`` stdout
are kept the same way; the last pins the grouped latency medians.
``extreme_params.scenario.json`` holds parameters at the edges of the
float range (a deadline at 1e308, a decay rate of 1e-320, a uniform of
width 5e-324), and its ``solve`` stdout is kept too.

A change that alters any of them changes a result; regenerate them only
when that is the intent, and say so in the change description.
"""

from importlib import resources
from pathlib import Path

import pytest
from click.testing import CliRunner

from fogassign.cli import main

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("vii_d_base", "vii_d_two_cap")


def _bundled_path(name: str) -> str:
    return str(resources.files("fogassign") / "scenarios" / f"{name}.json")


def _invoke(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 0, res.output
    return res.stdout_bytes


@pytest.mark.parametrize("name", SCENARIOS)
def test_solve_json(name):
    got = _invoke(["solve", _bundled_path(name)])
    assert got == (GOLDEN / f"{name}.solve.json").read_bytes()


@pytest.mark.parametrize("name, solver", [("vii_d_base", "ua"), ("vii_d_two_cap", "oracle")])
def test_solve_json_other_solver(name, solver):
    got = _invoke(["solve", _bundled_path(name), "--solver", solver])
    assert got == (GOLDEN / f"{name}.solve_{solver}.json").read_bytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_solve_csv(name, tmp_path):
    out = tmp_path / "plan.csv"
    _invoke(["solve", _bundled_path(name), "--format", "csv", "--out", str(out)])
    assert out.read_bytes() == (GOLDEN / f"{name}.solve.csv").read_bytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_simulate_with_baselines(name):
    got = _invoke(
        ["simulate", _bundled_path(name), "--reps", "2000", "--seed", "7", "--with-baselines"]
    )
    assert got == (GOLDEN / f"{name}.simulate.json").read_bytes()


def test_every_kind_solve_json():
    got = _invoke(["solve", str(GOLDEN / "every_kind.scenario.json")])
    assert got == (GOLDEN / "every_kind.solve.json").read_bytes()


def test_every_kind_simulate_with_baselines():
    got = _invoke(["simulate", str(GOLDEN / "every_kind.scenario.json"),
                   "--reps", "2000", "--seed", "7", "--with-baselines"])
    assert got == (GOLDEN / "every_kind.simulate.json").read_bytes()


def test_extreme_params_solve_json():
    # Parameters at the edges of the float range; the suite turns a
    # RuntimeWarning into an error, so this also checks none is raised.
    got = _invoke(["solve", str(GOLDEN / "extreme_params.scenario.json")])
    assert got == (GOLDEN / "extreme_params.solve.json").read_bytes()


def test_every_kind_min_latency_baseline():
    got = _invoke(["baseline", str(GOLDEN / "every_kind.scenario.json"),
                   "--strategy", "min-latency"])
    assert got == (GOLDEN / "every_kind.baseline_min_latency.json").read_bytes()


def test_reproduce_stdout():
    assert _invoke(["reproduce"]) == (GOLDEN / "reproduce.stdout").read_bytes()


def test_fit_gev_stdout():
    got = _invoke(["fit-gev", "--median", "0.34", "--p10", "0.31", "--p90", "0.41"])
    assert got == (GOLDEN / "fit_gev.json").read_bytes()
