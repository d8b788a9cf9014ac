"""The repo's pytest configuration reports a failing property test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    # Reporting a falsifying example imports modules that warn at import
    # time; under the config's warnings-as-errors that must not become an
    # INTERNALERROR that hides the report.
    (tmp_path / "test_property.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "Falsifying example: test_fails(" in output
    assert "INTERNALERROR" not in output
