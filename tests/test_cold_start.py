"""scipy stays out of a cold start.

``scipy.optimize`` takes most of a fresh ``import fogassign`` when loaded at
module level, and only ``gev_from_quantiles`` uses it.  These checks run in
a fresh interpreter, since this test process has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

COLD_START = """
import json, sys
import fogassign, fogassign.cli
from click.testing import CliRunner

loaded = {"import": "scipy" in sys.modules}
scen = sys.argv[1]
runs = {
    "scenarios": ["scenarios", "--export", "vii_d_base", "--out", scen],
    "solve": ["solve", scen],
    "simulate": ["simulate", scen, "--reps", "200"],
    "baseline": ["baseline", scen, "--strategy", "min-latency"],
}
for name, args in runs.items():
    res = CliRunner().invoke(fogassign.cli.main, args)
    assert res.exit_code == 0, (name, res.output)
    loaded[name] = "scipy" in sys.modules

from fogassign.latency import gev_from_quantiles
fit = gev_from_quantiles(0.34, 0.31, 0.41).to_config()
loaded["fit"] = "scipy.optimize" in sys.modules
print(json.dumps({"loaded": loaded, "fit": fit}))
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
    assert out["loaded"] == {
        "import": False, "scenarios": False, "solve": False, "simulate": False,
        "baseline": False, "fit": True,
    }
    # The deferred import runs the same root finder: the fit is bit-identical.
    assert out["fit"] == {
        "kind": "gev",
        "shape": 0.25361216427334654,
        "scale": 0.026412730217433598,
        "loc": 0.3298552062732387,
    }
