"""Result files stay byte-identical across refactors.

The files under ``tests/golden/`` hold the CLI output for both bundled
scenarios: ``fogassign solve`` as JSON (stdout) and CSV (``--out``), and
``fogassign simulate --reps 2000 --seed 7 --with-baselines`` (stdout),
``fogassign reproduce`` (stdout; its timings go to stderr), and
``fogassign fit-gev`` on the measured summary (stdout).
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


def test_reproduce_stdout():
    assert _invoke(["reproduce"]) == (GOLDEN / "reproduce.stdout").read_bytes()


def test_fit_gev_stdout():
    got = _invoke(["fit-gev", "--median", "0.34", "--p10", "0.31", "--p90", "0.41"])
    assert got == (GOLDEN / "fit_gev.json").read_bytes()
