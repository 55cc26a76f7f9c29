"""Checks on how the package loads and runs, standing in for CI steps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from projconvex import cli, domain as dm, hilbert as hb, jsonio

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(
           [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def _flags_by_command():
    """{"module op": set of option strings} over every CLI subcommand."""
    out = {}
    for mod, sub in cli.build_parser()._subparsers._group_actions[0].choices.items():
        for op, parser in sub._subparsers._group_actions[0].choices.items():
            out[f"{mod} {op}"] = {s for a in parser._actions for s in a.option_strings}
    return out


def test_each_command_takes_only_the_flags_it_reads():
    # --seed and --tol belong to the commands that pass them on, so a shared
    # helper cannot spread them over every command again
    flags = _flags_by_command()
    assert len(flags) == 24
    assert {c for c, f in flags.items() if "--seed" in f} == {
        "vinberg surface", "plconvex build", "plconvex check", "plconvex radius"}
    assert {c for c, f in flags.items() if "--tol" in f} == {
        "group aut", "group dynamics", "group dirichlet"}
    assert not [c for c, f in flags.items() if "--threads" in f]
    assert all("--out" in f for f in flags.values())


def test_import_leaves_scipy_optimize_unloaded():
    # linprog is imported inside the two HPolyBackend methods that call it;
    # a module-level import would put scipy.optimize on every start-up.
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, sys; assert 'scipy.optimize' not in sys.modules"],
        env=ENV, check=True, timeout=60)


def test_import_leaves_scipy_unloaded():
    # hulls, LPs and kd-trees import scipy at their first call, and null
    # spaces come from numpy, so start-up loads no scipy module at all
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, projconvex.cli, sys; "
         "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"],
        env=ENV, check=True, timeout=60)


def _cli(args, tmp_path):
    """Run `python -m projconvex.cli args`; return stdout and the set of
    modules it imported (from -X importtime, which reports every import)."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "projconvex.cli", *args],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    return res.stdout, loaded


def test_ellipsoid_command_runs_without_scipy(tmp_path):
    jsonio.dump_file(dm.unit_disk().to_json(), tmp_path / "disk.json")
    out, loaded = _cli(["vinberg", "center", "--domain", "disk.json"], tmp_path)
    assert out.strip()
    assert "projconvex.vinberg" in loaded
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_hull_and_mesh_commands_load_scipy_at_first_use(tmp_path):
    jsonio.dump_file(dm.triangle_domain().to_json(), tmp_path / "tri.json")
    out, loaded = _cli(["hilbert", "dist", "--domain", "tri.json",
                        "--x", "0.2,0.2", "--y", "0.3,0.4"], tmp_path)
    expected = hb.distance(dm.triangle_domain(), [0.2, 0.2], [0.3, 0.4])
    assert out.strip() == f"{expected:.6f}"
    assert "scipy.spatial" in loaded
    jsonio.dump_file({"vertices": [[-1, 2], [0, 1], [1, 2]],
                      "simplices": [[0, 1], [1, 2]]}, tmp_path / "polyline.json")
    out, loaded = _cli(["plconvex", "check", "--mesh", "polyline.json"], tmp_path)
    assert "radial section: True" in out
    assert "scipy.spatial" in loaded


def test_surface_build_commands(tmp_path):
    # a corner domain builds and certifies; a negative budget is a reported
    # input error, not a numpy failure
    jsonio.dump_file(dm.triangle_domain().to_json(), tmp_path / "tri.json")
    out, _ = _cli(["plconvex", "build", "--domain", "tri.json", "--budget", "24"],
                  tmp_path)
    assert "certified=True" in out
    jsonio.dump_file(dm.orthant_domain(1).to_json(), tmp_path / "ray.json")
    res = subprocess.run(
        [sys.executable, "-m", "projconvex.cli", "vinberg", "surface",
         "--domain", "ray.json", "--budget=-3"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1 and "error[invalid-input]" in res.stdout
    assert "Traceback" not in res.stderr and "RuntimeWarning" not in res.stderr


def test_thin_triangle_makes_one_chord_call_per_search_step(monkeypatch):
    # the 6(m+1) golden-section searches advance in lockstep with one array
    # chord query per step; a query per distance evaluation makes about 5,200
    square = dm.square_domain()
    chord_params = square.backend.chord_params
    calls = []

    def counted(x, d):
        calls.append(1)
        return chord_params(x, d)

    monkeypatch.setattr(square.backend, "chord_params", counted)
    res = hb.thin_triangle_delta(
        square, [[0.5, 0.1], [-0.4, 0.6], [-0.2, -0.7]], m=16)
    assert res.delta > 0
    # steps that shrink a unit bracket below the search's 1e-10 tolerance
    steps = math.ceil(math.log(1e-10) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    assert len(calls) <= steps + 3


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
