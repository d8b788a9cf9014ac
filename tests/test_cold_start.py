"""No command loads scipy.

scipy is a test dependency only: the package's one root finder,
``latency._ksection``, is its own.  These checks run in a fresh interpreter
whose imports of ``scipy`` and every ``scipy.*`` module raise, since this
test process has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_START = """
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


assert "scipy" not in sys.modules
sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.optimize
except ImportError:
    pass
else:
    raise AssertionError("the blocker let scipy.optimize load")

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

from fogassign.latency import gev_from_quantiles
fit = gev_from_quantiles(0.34, 0.31, 0.41).to_config()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"exit_codes": exit_codes, "loaded": loaded, "fit": fit}))
"""


def test_cli_commands_never_load_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path / "base.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
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
