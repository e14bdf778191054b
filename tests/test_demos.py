"""Each narrative demo, and README's quick start, runs to completion."""

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


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    run_python(str(ROOT / "demos" / name))


def test_readme_quick_start_runs():
    # README's first Python block, so that a README naming a deleted or
    # renamed function fails here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    v_gbs = float(run_python("-c", code).split()[0])
    assert v_gbs > 0
