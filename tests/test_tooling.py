"""Checks on how the package loads and runs, standing in for CI steps."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import boost, rotation, triangle_group
from projconvex import cli, domain as dm, group as gp, hilbert as hb, jsonio
from projconvex import normalize as nm, plconvex as pl, vinberg as vb
from projconvex.errors import OutsideDualConeError
from projconvex.projgeom import ProjTransform

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
        "vinberg surface", "plconvex build", "plconvex radius"}
    assert {c for c, f in flags.items() if "--tol" in f} == {
        "group aut", "group dynamics", "group dirichlet"}
    assert not [c for c, f in flags.items() if "--threads" in f]
    assert all("--out" in f for f in flags.values())


def test_import_leaves_scipy_optimize_unloaded():
    # linprog is imported inside the two HPolyBackend methods that call it,
    # which only half-space lists in chart dimension 3 reach; a module-level
    # import would put scipy.optimize on every start-up.
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, sys; assert 'scipy.optimize' not in sys.modules"],
        env=ENV, check=True, timeout=60)


def test_import_leaves_scipy_unloaded():
    # hulls and LPs import scipy at their first call, and null spaces come
    # from numpy, so start-up loads no scipy module at all
    subprocess.run(
        [sys.executable, "-c",
         "import projconvex, projconvex.cli, sys; "
         "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"],
        env=ENV, check=True, timeout=60)


def test_import_loads_submodules_at_first_use():
    # `import projconvex` loads config alone; each exported name and each
    # submodule is imported at its first use and is then the submodule's own
    code = """if True:
        import sys
        import projconvex
        assert {m for m in sys.modules if m.startswith("projconvex.")} == {
            "projconvex.config"}, sorted(sys.modules)
        assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert set(projconvex.__all__) <= set(dir(projconvex))
        assert len(projconvex.__all__) == 62
        assert "projconvex.hilbert" not in sys.modules
        assert projconvex.hilbert is sys.modules["projconvex.hilbert"]
        star = {}
        exec("from projconvex import *", star)
        mods = [m for name, m in sys.modules.items() if name.startswith("projconvex.")]
        for name in projconvex.__all__:
            assert star[name] is getattr(projconvex, name)
            assert {id(vars(m)[name]) for m in mods if name in vars(m)} == {
                id(star[name])}, name
        try:
            projconvex.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("unknown name resolved")
    """
    res = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


# The projconvex modules each CLI command loads, beyond those that every
# command loads to read its inputs; --svg adds svgfig.
_EVERY_COMMAND = {"config", "errors", "projgeom", "domain", "jsonio"}
_COMMAND_MODULES = {
    "domain validate": set(),
    "domain dual": set(),
    "hilbert dist": {"hilbert"},
    "vinberg volume": {"vinberg"},
    "vinberg center": {"vinberg"},
    "normalize moments": {"normalize"},
    "normalize isotropic": {"normalize"},
    "normalize sequence": {"normalize", "vinberg"},
    "group aut": {"group"},
    "group dynamics": {"group"},
    "group dirichlet": {"group", "vinberg", "normalize"},
    "plconvex check": {"plconvex"},
    "plconvex certify": {"plconvex"},
    "plconvex radius": {"plconvex"},
    "plconvex outward": {"plconvex"},
    "plconvex build": {"plconvex", "vinberg"},
}


def _cli(args, tmp_path):
    """Run `python -m projconvex.cli args`; return stdout and the set of
    modules it imported (from -X importtime, which reports every import),
    after checking its projconvex modules against `_COMMAND_MODULES`."""
    res = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "projconvex.cli", *args],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stdout + res.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    expected = _EVERY_COMMAND | _COMMAND_MODULES[" ".join(args[:2])]
    if "--svg" in args:
        expected = expected | {"svgfig"}
    assert {m for m in loaded if m.startswith("projconvex.")} == {
        f"projconvex.{m}" for m in expected}
    return res.stdout, loaded


@pytest.mark.parametrize("command", [
    ["vinberg", "center", "--domain", "disk.json"],
    ["normalize", "isotropic", "--domain", "disk.json"],
    ["normalize", "sequence", "--seq", "ellipses.json"],
    ["group", "aut", "--domain", "disk.json", "--matrix", "boost.json"],
], ids=["vinberg-center", "normalize-isotropic", "normalize-sequence", "group-aut"])
def test_ellipsoid_command_runs_without_scipy(tmp_path, command):
    # ellipsoids have closed forms, and their affine and projective maps go
    # through the quadric, so none of these commands may load scipy
    jsonio.dump_file(dm.unit_disk().to_json(), tmp_path / "disk.json")
    ellipses = [dm.ConvexDomain.ellipsoid([0.0, 0.0], [[1.0, 0.0], [0.0, k * k]])
                for k in (1, 2, 3)]
    jsonio.dump_file({"generators": ["a"], "terms": [[np.eye(3).tolist()]] * 3,
                      "domains": [e.to_json() for e in ellipses]},
                     tmp_path / "ellipses.json")
    jsonio.dump_file({"matrix": boost(1.2).tolist()}, tmp_path / "boost.json")
    out, loaded = _cli(command, tmp_path)
    assert out.strip()
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("command", [
    ["domain", "dual", "--domain", "pentagon.json"],
    ["hilbert", "dist", "--domain", "tri.json", "--x", "0.2,0.2", "--y", "0.3,0.4"],
    ["vinberg", "volume", "--domain", "pentagon.json", "--phi", "0,0,1"],
    ["vinberg", "volume", "--domain", "radial.json", "--phi", "0,0,1"],
    ["normalize", "moments", "--domain", "pentagon.json"],
    ["domain", "validate", "--domain", "hexagon.json"],
    ["domain", "dual", "--domain", "pentagon.json", "--svg", "dual.svg"],
    ["group", "dirichlet", "--domain", "disk.json", "--gens", "gens.json",
     "--x", "0.1,0,1", "--L", "2"],
    ["plconvex", "check", "--mesh", "cap.json"],
    ["plconvex", "certify", "--mesh", "cap.json"],
    ["plconvex", "radius", "--mesh", "cap.json"],
    ["plconvex", "outward", "--mesh", "cap.json", "--t", "1.5"],
], ids=["domain-dual", "hilbert-dist", "vinberg-volume", "vinberg-volume-radial",
        "normalize-moments", "domain-validate-hpoly", "domain-dual-svg",
        "group-dirichlet", "plconvex-check", "plconvex-certify", "plconvex-radius",
        "plconvex-outward"])
def test_polygon_commands_load_no_scipy(tmp_path, command):
    # a polygon's hull, fan triangulation and half-space vertices have closed
    # forms, so commands on 2-d vertex lists, radial graphs and half-space
    # lists (a polygon's dual, the Dirichlet polygons) load no scipy module;
    # nor do the commands on a given mesh, whose section check finds its
    # candidate simplices by a matrix product
    ang = 2 * np.pi * np.arange(5) / 5
    pentagon = dm.ConvexDomain.from_vertices(np.stack([np.cos(ang), np.sin(ang)], 1))
    jsonio.dump_file(pentagon.to_json(), tmp_path / "pentagon.json")
    jsonio.dump_file(dm.triangle_domain().to_json(), tmp_path / "tri.json")
    jsonio.dump_file(dm.disk_polygon(12).to_json(), tmp_path / "radial.json")
    ang = 2 * np.pi * np.arange(6) / 6
    jsonio.dump_file({"chart": [0, 0, 1], "backend": {
        "type": "hpoly", "normals": np.stack([np.cos(ang), np.sin(ang)], 1).tolist(),
        "offsets": [1.0] * 6}}, tmp_path / "hexagon.json")
    jsonio.dump_file(dm.unit_disk().to_json(), tmp_path / "disk.json")
    cap = np.vstack([[0.0, 0.0, 1.0], np.stack(
        [0.5 * np.cos(ang), 0.5 * np.sin(ang), np.full(6, np.sqrt(1.25))], 1)])
    jsonio.dump_file({"vertices": cap.tolist(), "simplices": [
        [0, 1 + i, 1 + (i + 1) % 6] for i in range(6)]}, tmp_path / "cap.json")
    turn = rotation(np.pi / 2)
    jsonio.dump_file({"generators": ["a", "b"], "terms": [[
        boost(1.2).tolist(), (turn @ boost(1.2) @ turn.T).tolist()]]},
        tmp_path / "gens.json")
    out, loaded = _cli(command, tmp_path)
    if command[:2] == ["hilbert", "dist"]:
        expected = hb.distance(dm.triangle_domain(), [0.2, 0.2], [0.3, 0.4])
        assert out.strip() == f"{expected:.6f}"
    if command[:2] in (["plconvex", "check"], ["plconvex", "certify"]):
        assert "True" in out
    assert out.strip()
    assert not [m for m in loaded if m.split(".")[0] == "scipy"]


def test_mesh_commands_load_scipy_at_first_use(tmp_path):
    # a surface build spans its vertices by qhull's origin-facing faces and
    # solves for its characteristic points in vinberg
    jsonio.dump_file(dm.triangle_domain().to_json(), tmp_path / "tri.json")
    out, loaded = _cli(["plconvex", "build", "--domain", "tri.json", "--budget", "24"],
                       tmp_path)
    assert "certified=True" in out
    assert "scipy.spatial" in loaded


def test_section_check_draws_no_random_numbers(monkeypatch, tmp_path):
    # the radial section check is exact: neither it, the certificate built
    # on it, nor the command running it draws a sample
    def refuse(*args, **kwargs):
        raise AssertionError("random numbers drawn")

    ang = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    cap = {"vertices": np.vstack([[0.0, 0.0, 1.0], np.stack(
               [0.5 * np.cos(ang), 0.5 * np.sin(ang), np.full(6, 1.25 ** 0.5)], axis=1)]).tolist(),
           "simplices": [[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)]}
    jsonio.dump_file(cap, tmp_path / "cap.json")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    surf = pl.SimplicialHypersurface(cap["vertices"], cap["simplices"])
    assert pl.radial_section_check(surf).ok
    assert pl.certify_generic_convex(surf).ok
    assert cli.dispatch(["plconvex", "check", "--mesh", str(tmp_path / "cap.json")]).exit_code == 0


def test_unbounded_3d_halfspaces_report_without_warnings(tmp_path):
    # qhull divides by zero on an unbounded intersection; the non-finite
    # vertices are reported as unbounded and no numpy warning reaches stderr
    jsonio.dump_file({"chart": [0, 0, 0, 1], "backend": {
        "type": "hpoly", "normals": np.vstack([np.eye(3), -np.eye(3)[:2]]).tolist(),
        "offsets": [1.0] * 5}}, tmp_path / "box.json")
    res = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "projconvex.cli",
         "domain", "validate", "--domain", "box.json", "--out", "report.json"],
        cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
    assert res.returncode == 1 and res.stderr == ""
    assert res.stdout == "error[not-properly-convex]: half-space data is unbounded\n"
    assert jsonio.load_file(tmp_path / "report.json") == {"error": {
        "code": "not-properly-convex", "message": "half-space data is unbounded",
        "data": {"witness": [0.0, 0.0, -1.0]}}}


def test_qhull_failure_report_is_the_same_in_every_process(tmp_path):
    # qhull's diagnostic goes on with a run id that changes with each
    # process; the error message keeps its first line only
    jsonio.dump_file({"chart": [0, 0, 0, 1], "backend": {
        "type": "vpoly", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]}},
        tmp_path / "flat.json")
    reports = []
    for i in range(2):
        res = subprocess.run(
            [sys.executable, "-m", "projconvex.cli", "domain", "validate",
             "--domain", "flat.json", "--out", f"report{i}.json"],
            cwd=tmp_path, env=ENV, capture_output=True, text=True, timeout=120)
        assert res.returncode == 1
        reports.append((tmp_path / f"report{i}.json").read_bytes())
    assert reports[0] == reports[1]
    message = jsonio.load_file(tmp_path / "report0.json")["error"]["message"]
    assert message.startswith("degenerate vertex data: QH6154 ") and "\n" not in message


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
    segment_chord = square.backend.segment_chord
    calls = []

    def counted(*args):
        calls.append(1)
        return segment_chord(*args)

    monkeypatch.setattr(square.backend, "segment_chord", counted)
    res = hb.thin_triangle_delta(
        square, [[0.5, 0.1], [-0.4, 0.6], [-0.2, -0.7]], m=16)
    assert res.delta > 0 and calls
    # steps that shrink a unit bracket below the search's 1e-10 tolerance
    steps = math.ceil(math.log(1e-10) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    assert len(calls) <= steps + 3


@pytest.mark.parametrize("make", [dm.square_domain, dm.unit_disk])
def test_distance_makes_one_chart_and_one_chord_call(monkeypatch, make):
    # the benchmark's traced hilbert.distance metrics wrap
    # hilbert._distance_chart by its module name and count segment_chord
    dom = make()
    calls = []
    chart, chord = hb._distance_chart, dom.backend.segment_chord

    def counted_chart(*args):
        calls.append("chart")
        return chart(*args)

    def counted_chord(*args):
        calls.append("chord")
        return chord(*args)

    monkeypatch.setattr(hb, "_distance_chart", counted_chart)
    monkeypatch.setattr(dom.backend, "segment_chord", counted_chord)
    assert hb.distance(dom, [0.1, -0.2], [-0.3, 0.4]) > 0
    assert calls == ["chart", "chord"]


def test_surface_build_makes_one_slice_call_per_newton_step(monkeypatch):
    # all fiber solves of a build advance in lockstep, one stacked slice
    # call per Newton step or halving; a solve per direction makes hundreds
    # (a polygon: the disk's fiber minima are closed forms, with no Newton)
    slice_exact = vb._slice_exact
    calls = []

    def counted(cone, v):
        calls.append(len(v) if v.ndim > 1 else 1)
        return slice_exact(cone, v)

    monkeypatch.setattr(vb, "_slice_exact", counted)
    res = pl.pl_characteristic_surface(dm.disk_polygon(24), 48)
    assert res.certificate.ok
    assert len(calls) <= 40
    assert max(calls) >= 48        # the sample pass solves every direction at once


def test_newton_trials_make_no_dual_margin_call(monkeypatch):
    # the slice kernel is the one dual-cone test of a Newton trial: counted
    # while a Newton loop (one problem or a lockstep stack) is running; an
    # ellipsoid cone takes its closed forms, so the domains are polytopes
    # and radial graphs
    newton, margin = vb._newton, dm.ConvexCone.dual_margin
    depth, calls = [0], []

    def inside(*args):
        depth[0] += 1
        try:
            return newton(*args)
        finally:
            depth[0] -= 1

    def counted(cone, v):
        calls.append(depth[0])
        return margin(cone, v)

    monkeypatch.setattr(vb, "_newton", inside)
    monkeypatch.setattr(dm.ConvexCone, "dual_margin", counted)
    for dom in (dm.ConvexDomain.from_vertices([[1.1, 0.2], [0.3, 0.9], [-0.8, 0.6],
                                               [-0.7, -0.5], [0.4, -0.7]]),
                dm.ConvexDomain.radial_graph(
                    [0.1, -0.05], [[1.0, 0.0], [0.3, 1.0], [-1.0, 0.4], [-0.6, -1.0],
                                   [0.7, -0.9]], [1.2, 0.9, 1.1, 0.8, 1.0])):
        assert vb.spherical_center(dom).iterations > 1
    assert pl.pl_characteristic_surface(dm.disk_polygon(24), 48).certificate.ok
    assert not [d for d in calls if d]


def _count_fiber_solves(monkeypatch):
    """The list that gets one entry per call of `vb._fiber_minimum`, one
    point or a stack."""
    fiber = vb._fiber_minimum
    calls = []

    def counted(*args):
        calls.append(1)
        return fiber(*args)

    monkeypatch.setattr(vb, "_fiber_minimum", counted)
    return calls


def test_dirichlet_domain_makes_one_fiber_solve(monkeypatch):
    # the characteristic point and the tangent functional at it both come
    # from the fiber solve on the base point's unit ray, by homogeneity
    calls = _count_fiber_solves(monkeypatch)
    r1, r2, r3 = triangle_group(3, 3, 4)
    gens = [ProjTransform(r1 @ r2), ProjTransform(r2 @ r3)]
    dd = gp.dirichlet_domain(dm.unit_disk().cone(), gens,
                             np.array([0.05, 0.03, 1.0]), 3)
    assert dd.stable and len(calls) == 1


@pytest.mark.parametrize("make", [dm.unit_disk, lambda: dm.disk_polygon(24)],
                         ids=["closed-form", "newton"])
def test_surface_build_makes_one_fiber_pass(monkeypatch, make):
    # the samples' points and the tangent functionals that bound the
    # deviation come from one stacked fiber solve
    calls = _count_fiber_solves(monkeypatch)
    assert pl.pl_characteristic_surface(make(), 48).certificate.ok
    assert len(calls) == 1


def test_sequence_analysis_measures_each_term_once(monkeypatch):
    # each term is charted once and measured once: the rotation onto the
    # moment axes has the second moment diag(w) in closed form, and the
    # rotation and the isotropic scaling are one map
    remap, moments = dm._remap, nm.moments
    calls = {"remap": 0, "moments": 0}

    def counted_remap(*args):
        calls["remap"] += 1
        return remap(*args)

    def counted_moments(dom):
        calls["moments"] += 1
        return moments(dom)

    monkeypatch.setattr(dm, "_remap", counted_remap)
    monkeypatch.setattr(nm, "_remap", counted_remap)
    monkeypatch.setattr(nm, "moments", counted_moments)
    doms = [dm.ConvexDomain.ellipsoid([0.1, 0.0], [[1.0, 0.2], [0.2, k * k]])
            for k in (1.0, 2.0)]
    doms += [dm.disk_polygon(12), dm.square_domain(), dm.ConvexDomain.from_halfspaces(
        [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [1.0, 1.0, 0.5])]
    terms = [[np.eye(3), rotation(0.3)] for _ in doms]
    rep = nm.analyze_sequence(nm.RepSequence(["a", "b"], terms, doms))
    assert len(rep.steps) == len(doms)
    assert calls == {"remap": 2 * len(doms), "moments": len(doms)}


def test_conic_slice_rejects_the_opposite_nappe():
    # v Q^-1 v < 0 holds for -v as for v; the kernel's side test tells them apart
    dom = dm.ConvexDomain.ellipsoid([0.2, -0.1], [[1.5, 0.3], [0.3, 0.8]])
    cone = dom.cone()
    v = dom.chart.infinity + np.array([0.1, -0.2, 0.0])
    assert cone.dual_margin(v) > 0 and vb._slice_exact(cone, v).volume > 0
    with pytest.raises(OutsideDualConeError):
        vb._slice_exact(cone, -v)
    with pytest.raises(OutsideDualConeError) as exc:
        vb._slice_exact(cone, np.array([v, -v, 2.0 * v]))
    assert exc.value.data["rows"] == [1]


@pytest.mark.parametrize("demo", ["spherical_centers_and_boxes.py",
                                  "degeneration_watch.py",
                                  "pl_certificates.py",
                                  "group_dynamics_tour.py",
                                  "cone_duality_and_theta.py",
                                  "hilbert_metric_tour.py"])
def test_solver_demos_run(demo, tmp_path):
    # the first two drive the spherical-center and fiber solvers; the third
    # the section check, log contours, certificates and perturbation radii;
    # the next two the group dynamics and the characteristic surface; the
    # last the Hilbert metric, geodesics, metric balls and thin triangles;
    # any warning is an error
    res = subprocess.run([sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=ENV, capture_output=True,
                         timeout=120)
    assert res.returncode == 0, res.stderr.decode()
