"""No command loads scipy, and the tests run without it.

scipy is a test dependency only: the package's one root finder,
``latency._ksection``, is its own, and the few tests that check against
scipy import it where they use it.  These checks run in a fresh interpreter
whose imports of ``scipy`` and every ``scipy.*`` module raise, since this
test process has long since loaded scipy.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

BLOCK_SCIPY = """
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is blocked", name=name)
        return None


assert "scipy" not in sys.modules
sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.optimize
except ImportError:
    pass
else:
    raise AssertionError("the blocker let scipy.optimize load")
"""

COLD_START = BLOCK_SCIPY + """
import fogassign, fogassign.cli
from click.testing import CliRunner

scen = sys.argv[1]
runs = {
    "scenarios": ["scenarios", "--export", "vii_d_base", "--out", scen],
    "solve": ["solve", scen],
    "simulate": ["simulate", scen, "--reps", "200"],
    "baseline": ["baseline", scen, "--strategy", "min-latency"],
    "fit-gev": ["fit-gev", "--median", "0.34", "--p10", "0.31", "--p90", "0.41"],
    "reproduce": ["reproduce", "inflight_demo"],
}
exit_codes = {}
for name, args in runs.items():
    res = CliRunner().invoke(fogassign.cli.main, args)
    assert res.exception is None or isinstance(res.exception, SystemExit), (name, res.exception)
    exit_codes[name] = res.exit_code

from fogassign.characterize import error_curve
from fogassign.latency import Gev, gev_from_quantiles
error_curve(Gev(shape=0.3, scale=1e-3, loc=5e-3), (10, 1000), 5, 1)
fit = gev_from_quantiles(0.34, 0.31, 0.41).to_config()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit_codes": exit_codes, "loaded": loaded, "fit": fit}))
"""


def _without_scipy(script: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that cannot import scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_commands_never_load_scipy(tmp_path):
    proc = _without_scipy(COLD_START, str(tmp_path / "base.json"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit_codes"] == {
        "scenarios": 0, "solve": 0, "simulate": 0, "baseline": 0, "fit-gev": 0, "reproduce": 0,
    }
    assert out["loaded"] == []
    # The k-section's fit, pinned.  Its shape is 3 ulps and its scale 1 ulp
    # from the fit scipy's brentq gives; the loc is the same float.
    assert out["fit"] == {
        "kind": "gev",
        "shape": 0.2536121642733467,
        "scale": 0.026412730217433594,
        "loc": 0.3298552062732387,
    }


RUN_TESTS = BLOCK_SCIPY + """
import pytest

sys.exit(pytest.main(["-p", "no:cacheprovider", "-q", "-rs", *sys.argv[1:]]))
"""


def test_suite_collects_and_skips_its_scipy_checks_without_scipy():
    # Collects every module under tests/, so a module that needs scipy to
    # import is an error here, and runs the three checks against scipy.
    selected = "test_matches_t_space_reference or test_shape_matches_brentq"
    proc = _without_scipy(RUN_TESTS, "tests", "-k", selected, cwd=TESTS.parent)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert re.search(r"^3 skipped, \d+ deselected in ", output, re.MULTILINE), output
    skips = re.findall(r"^SKIPPED \[(\d)\] tests/test_latency\.py:\d+: "
                       r"could not import '(scipy\.\w+)': scipy is blocked$", output, re.MULTILINE)
    assert sorted(skips) == [("1", "scipy.optimize"), ("2", "scipy.integrate")], output
