"""Checks on how the package loads and runs, standing in for CI steps."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def test_import_leaves_scipy_optimize_unloaded():
    # linprog is imported inside the two HPolyBackend methods that call it;
    # a module-level import would put scipy.optimize on every start-up.
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, sys; assert 'scipy.optimize' not in sys.modules"],
        env=ENV, check=True, timeout=60)


@pytest.mark.parametrize("demo", ["spherical_centers_and_boxes.py",
                                  "degeneration_watch.py",
                                  "pl_certificates.py"])
def test_solver_demos_run(demo, tmp_path):
    # the first two drive the spherical-center and fiber solvers; the third
    # the section check, log contours, certificates and perturbation radii
    res = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=ENV, capture_output=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr.decode()
