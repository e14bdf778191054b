"""Each narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# baseline_comparison.py is left out: it reruns the ar1 study that the
# acceptance criteria 3 and 4 already cover, and takes several times longer.
DEMOS = ("weights_and_conditions.py", "variance_estimation.py",
         "distribution_and_intervals.py", "double_root_bootstrap.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
