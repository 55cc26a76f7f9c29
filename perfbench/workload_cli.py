"""cli: one `python -m projconvex.cli` subprocess per task, one at a time.

Every task pays a cold start (interpreter, numpy, scipy, projconvex), so
import-time and CLI changes show here and only in `setup_s` elsewhere; work
moved from calls into import time shows here as a cost.  A pass is the 14
commands below on seeded JSON inputs written at set-up; each report is
compared with the same computation done in-process through the library.
"""

import contextlib
import io
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from projconvex import cli as pcli
from projconvex import domain as dm
from projconvex import group as gp
from projconvex import hilbert as hb
from projconvex import jsonio
from projconvex import normalize as nm
from projconvex import plconvex as pl
from projconvex import vinberg as vb

from common import (Task, child_env, ring_mesh, rot2, so21_element,
                    so21_hyperbolic)

SPAWN_PROBES = 5
IMPORT_PROBES = 3
# A task is a fresh interpreter, whose start-up and imports the in-process
# calibration kernel of run.py does not track (over five seeds it widened the
# quartile spread of batch_s from 0.12 to 0.21), so this workload is rescaled
# by a fresh interpreter importing numpy; CALIBRATION_S is its time on the
# reference host.
CALIBRATION_S = 0.22


def calibration_kernel():
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(),
                   check=True)
    return time.perf_counter() - t0


def _pt(x):
    return ",".join(repr(float(v)) for v in x)


def generate(seed, workdir):
    rng = np.random.default_rng([seed, 4])
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name, obj):
        path = workdir / name
        jsonio.dump_file(obj, path)
        return str(path)

    ang = 2 * np.pi * (np.arange(6) + rng.uniform(-0.25, 0.25, 6)) / 6
    hexagon = dm.ConvexDomain.from_halfspaces(
        np.stack([np.cos(ang), np.sin(ang)], 1), rng.uniform(0.8, 1.2, 6))
    ang = np.sort(2 * np.pi * (np.arange(5) + rng.uniform(-0.3, 0.3, 5)) / 5)
    pentagon = dm.ConvexDomain.from_vertices(
        np.stack([np.cos(ang), rng.uniform(0.5, 0.9) * np.sin(ang)], 1))
    th, a, b = rng.uniform(0, np.pi), *rng.uniform(0.6, 1.4, 2)
    r2 = rot2(th)
    ellipse = dm.ConvexDomain.ellipsoid(rng.uniform(-0.4, 0.4, 2),
                                        r2 @ np.diag([a ** -2, b ** -2]) @ r2.T)
    spin = rng.uniform(0, np.pi)
    seq = {"generators": ["a"], "terms": [[np.eye(3).tolist()]] * 16,
           "domains": [dm.ConvexDomain.ellipsoid(
               np.zeros(2), rot2(spin) @ np.diag([1.0, k * k])
               @ rot2(spin).T).to_json() for k in range(1, 17)]}
    box = np.diag([2.0, 2.0, 1.0]) @ so21_element(rng) @ np.diag([0.5, 0.5, 1.0])
    verts, tris = ring_mesh(4, 16, spin=rng.uniform(0, 2 * np.pi))

    hx = put("hexagon.json", hexagon.to_json())
    pg = put("pentagon.json", pentagon.to_json())
    el = put("ellipse.json", ellipse.to_json())
    dk = put("disk.json", dm.unit_disk().to_json())
    oq = put("orthant2.json", dm.orthant_domain(2).to_json())
    sq = put("sequence.json", seq)
    bx = put("box.json", {"matrix": box.tolist()})
    au = put("aut.json", {"matrix": so21_element(rng).tolist()})
    hyp, _ = so21_hyperbolic(rng)
    hy = put("hyperbolic.json", {"matrix": hyp.tolist()})
    me = put("mesh.json", {"vertices": verts.tolist(),
                           "simplices": [list(t) for t in tris]})
    x, y = pentagon.random_interior(rng, size=2, margin=0.05)
    gx, gy = dm.unit_disk().random_interior(rng, size=2, margin=0.05)
    phi = rng.uniform(0.5, 2.0, 3)
    out = str(workdir / "report.json")
    commands = [
        ["domain", "validate", "--domain", hx],
        ["domain", "dual", "--domain", pg],
        ["hilbert", "dist", "--domain", pg, f"--x={_pt(x)}", f"--y={_pt(y)}"],
        ["hilbert", "geodesic", "--domain", dk, f"--x={_pt(gx)}",
         f"--y={_pt(gy)}", "--k", "8", "--svg", str(workdir / "geodesic.svg")],
        ["vinberg", "volume", "--domain", oq, f"--phi={_pt(phi)}"],
        ["vinberg", "center", "--domain", el],
        ["normalize", "moments", "--domain", pg],
        ["normalize", "isotropic", "--domain", el],
        ["normalize", "boxcheck", "--matrix", bx, "--K", "2.0"],
        ["normalize", "sequence", "--seq", sq],
        ["group", "aut", "--domain", dk, "--matrix", au],
        ["group", "dynamics", "--domain", dk, "--matrix", hy],
        ["plconvex", "check", "--mesh", me],
        ["plconvex", "certify", "--mesh", me],
    ]
    return {"workdir": workdir, "out": out,
            "commands": [c + ["--out", out] for c in commands],
            "expected": {}, "peak_rss_kb": 0}


def build(raw):
    return raw


def cleanup(raw):
    shutil.rmtree(raw["workdir"], ignore_errors=True)


def peak_rss_kb(raw):
    return raw["peak_rss_kb"]


# ---------------------------------------------------------------------------
# the library computation each command must reproduce


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _opt(argv, flag):
    return next(a.split("=", 1)[1] for a in argv if a.startswith(flag + "="))


def _vec(text):
    return np.array([float(t) for t in text.split(",")])


def expected(argv):
    mod, op = argv[0], argv[1]
    if "--domain" in argv:
        dom = jsonio.load_domain(_arg(argv, "--domain"))
    if (mod, op) == ("domain", "validate"):
        c = dm.validate(dom)
        return {"margin": c.margin, "bounding_radius": c.bounding_radius}
    if (mod, op) == ("domain", "dual"):
        return {"domain": dm.dual_domain(dom).to_json()}
    if (mod, op) == ("hilbert", "dist"):
        return {"distance": hb.distance(dom, _vec(_opt(argv, "--x")),
                                        _vec(_opt(argv, "--y")))}
    if (mod, op) == ("hilbert", "geodesic"):
        pts = hb.geodesic(dom, _vec(_opt(argv, "--x")), _vec(_opt(argv, "--y")), 8)
        return {"points": [p.tolist() for p in pts]}
    if (mod, op) == ("vinberg", "volume"):
        r = vb.volume_functional(dom.cone(), _vec(_opt(argv, "--phi")))
        return {"value": r.value, "estimator": r.estimator}
    if (mod, op) == ("vinberg", "center"):
        sc = vb.spherical_center(dom)
        return {"center": sc.center.coords, "residual": sc.residual}
    if (mod, op) == ("normalize", "moments"):
        m = nm.moments(dom)
        return {"centroid": m.centroid, "second_moment": m.second_moment,
                "volume": m.volume}
    if (mod, op) == ("normalize", "isotropic"):
        iso = nm.isotropic_normalize(dom)
        return {"scales": iso.scales, "translation": iso.translation,
                "domain": iso.domain.to_json()}
    if (mod, op) == ("normalize", "boxcheck"):
        r = nm.box_bound_check(jsonio.load_matrix(_arg(argv, "--matrix")), 2.0)
        return {"hypothesis_holds": r.hypothesis_holds,
                "conclusion_holds": r.conclusion_holds,
                "hypothesis_margin": r.hypothesis_margin}
    if (mod, op) == ("normalize", "sequence"):
        rep = nm.analyze_sequence(jsonio.load_sequence(_arg(argv, "--seq")))
        return rep.to_json()
    if (mod, op) == ("group", "aut"):
        c = gp.is_automorphism(dom, jsonio.load_matrix(_arg(argv, "--matrix")))
        return {"is_automorphism": c.is_automorphism, "residual": c.residual}
    if (mod, op) == ("group", "dynamics"):
        hd = gp.fixed_point_dynamics(dom, jsonio.load_matrix(_arg(argv, "--matrix")))
        return {"length_eigen": hd.length_eigen,
                "translation_length": hd.translation_length}
    surf = jsonio.load_mesh(_arg(argv, "--mesh"))
    if (mod, op) == ("plconvex", "check"):
        r = pl.radial_section_check(surf)
        return {"ok": r.ok, "min_transversality": r.min_transversality}
    return pl.certify_generic_convex(surf).to_json()


def same(got, want):
    """Structural equality, numbers to 1e-12 relative."""
    if isinstance(want, dict):
        return (isinstance(got, dict)
                and all(k in got and same(got[k], v) for k, v in want.items()))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(same(g, w) for g, w in zip(got, want)))
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        return got == want
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and abs(got - want) <= 1e-12 * max(1.0, abs(want)))


def _check(raw, argv):
    def check(exit_code):
        key = " ".join(argv[:2])
        if key not in raw["expected"]:
            raw["expected"][key] = jsonio.sanitize(expected(argv))
        report = jsonio.load_file(raw["out"])["report"]
        ok = exit_code == 0 and same(report, raw["expected"][key])
        if "--svg" in argv:
            ok = ok and os.path.getsize(_arg(argv, "--svg")) > 0
        return ok
    return check


def _subprocess_call(raw, argv):
    def call():
        proc = subprocess.Popen([sys.executable, "-m", "projconvex.cli", *argv],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, env=child_env())
        proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        raw["peak_rss_kb"] = max(raw["peak_rss_kb"], usage.ru_maxrss)
        return proc.returncode
    return call


def _inprocess_call(argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return pcli.dispatch(list(argv)).exit_code
    return call


def tasks(raw):
    return [Task(".".join(argv[:2]), _subprocess_call(raw, argv),
                 _check(raw, argv)) for argv in raw["commands"]]


# ---------------------------------------------------------------------------
# traced run: start-up costs from fresh interpreters, layers from in-process
# dispatch of the same commands


def _median_wall(argv, count):
    values = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        values.append(time.perf_counter() - t0)
    return statistics.median(values)


def _import_times():
    """Cumulative `-X importtime` seconds of projconvex and scipy.optimize."""
    rows = {"projconvex": [], "scipy.optimize": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import projconvex"], env=child_env(),
                              capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in rows:
                rows[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) if v else 0.0 for k, v in rows.items()}


def traced_run(raw, run_pass):
    import tracing
    layers = {"cli.spawn_s": (_median_wall([sys.executable, "-c", "pass"],
                                           SPAWN_PROBES), "s")}
    imports = _import_times()
    layers["cli.import_s"] = (imports["projconvex"], "s")
    layers["cli.import.scipy_optimize_s"] = (imports["scipy.optimize"], "s")

    def inprocess():
        return [Task(".".join(argv[:2]), _inprocess_call(argv), _check(raw, argv))
                for argv in raw["commands"]]
    run_pass(inprocess())                       # warm: imports, first calls
    times, outcomes, notes = run_pass(inprocess())
    for task, dt in zip(inprocess(), times):
        layers[f"cli.dispatch_s.{task.cls}"] = (dt, "s")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_times, traced_outcomes, traced_notes = run_pass(inprocess(), tracer)
    finally:
        tracer.uninstall()
    layers.update(tracing.layer_metrics(tracer, {}))
    layers["trace.overhead_frac"] = (sum(traced_times) / sum(times) - 1.0,
                                     "fraction")
    return (layers, outcomes + traced_outcomes, notes + traced_notes, tracer)
