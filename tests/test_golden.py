"""Result files stay byte-identical across refactors.

``golden/COMMANDS`` lists each file under ``tests/golden/`` with the
``fogassign`` command whose stdout it holds, and says what each one pins.
Each command runs as a process, as a user runs it.
"""

from pathlib import Path

import pytest

from conftest import run_cli

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _commands() -> list[tuple[str, list[str]]]:
    rows = []
    for line in (GOLDEN / "COMMANDS").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, *args = line.split()
            rows.append((name, args))
    return rows


COMMANDS = _commands()


@pytest.mark.parametrize("name, args", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_stdout_matches_golden(name, args):
    run = run_cli(*args, cwd=ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (GOLDEN / name).read_bytes()


def test_commands_name_every_golden_once():
    named = [name for name, _ in COMMANDS]
    on_disk = {p.name for p in GOLDEN.iterdir() if p.is_file()
               and p.name != "COMMANDS" and not p.name.endswith(".scenario.json")}
    assert sorted(named) == sorted(on_disk)
