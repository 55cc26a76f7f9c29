"""Checks on how the package loads, standing in for a CI step."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_optimize_unloaded():
    # linprog is imported inside the two HPolyBackend methods that call it;
    # a module-level import would put scipy.optimize on every start-up.
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [str(SRC), os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, sys; assert 'scipy.optimize' not in sys.modules"],
        env=env, check=True, timeout=60)
