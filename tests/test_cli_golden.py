"""Golden CLI reports: the bytes of each report and figure stay as recorded.

`cli.dispatch` runs in-process on seeded domains of every backend kind in
chart dimensions 1-3 (radial graphs in 1-d and 3-d with explicit simplices),
and on small matrices, sequences, generator lists and meshes, so that every
command runs at least once; each run's exit code, report (CSV for a key
ending in `--csv`) and SVG are compared, by SHA-256, with `golden_cli.json`.  A refactor that moves one bit of one float in a report
fails here.  To re-record after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py

at a commit whose reports are trusted, and say why in CHANGES.md.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from projconvex import domain as dm
from projconvex.cli import build_parser, dispatch

GOLDEN = Path(__file__).with_name("golden_cli.json")


# The inputs come from this file's own builders, so a change to the test
# suite's random domains leaves the goldens valid.


def _sphere(rng, k, n):
    """k points on an axis-scaled sphere of R^n, all in convex position."""
    pts = rng.normal(size=(k, n))
    return pts / np.linalg.norm(pts, axis=1)[:, None] * rng.uniform(0.6, 1.4, n)


def _oval(rng, k):
    ang = 2 * np.pi * (np.arange(k) + rng.uniform(-0.3, 0.3, k)) / k
    return np.stack([rng.uniform(0.6, 1.4) * np.cos(ang),
                     rng.uniform(0.6, 1.4) * np.sin(ang)], axis=1)


def _tilted(rng, n):
    return (np.eye(n + 1)[-1] + 0.3 * rng.normal(size=n + 1)).tolist()


def _radial(center, pts, simplices):
    rel = pts - center
    backend = {"type": "radialgraph", "center": list(center),
               "directions": rel.tolist(),
               "radii": np.linalg.norm(rel, axis=1).tolist()}
    if simplices is not None:
        backend["simplices"] = [[int(i) for i in s] for s in simplices]
    return backend


def _cases():
    """{name: (domain JSON, interior base point)} from one seed."""
    rng = np.random.default_rng(1606)
    cases = {}
    for n in (1, 2, 3):
        std = np.eye(n + 1)[-1].tolist()
        normals = np.vstack([np.eye(n), -np.eye(n), rng.normal(size=(2 * (n > 1), n))])
        offsets = rng.uniform(0.6, 1.4, len(normals)) * np.linalg.norm(normals, axis=1)
        cases[f"hpoly{n}"] = ({"chart": std, "backend": {
            "type": "hpoly", "normals": normals.tolist(),
            "offsets": offsets.tolist()}}, np.zeros(n))
        b = rng.normal(size=(n, n))
        cases[f"ellipsoid{n}"] = ({"chart": _tilted(rng, n), "backend": {
            "type": "ellipsoid", "center": rng.uniform(-0.2, 0.2, n).tolist(),
            "shape": (b @ b.T + 0.5 * np.eye(n)).tolist()}}, None)
    # a 1-d vertex list given in descending order
    cases["vpoly1"] = ({"chart": [0.0, 1.0], "backend": {
        "type": "vpoly", "vertices": [[0.8], [-0.6]]}}, np.zeros(1))
    cases["vpoly2"] = ({"chart": _tilted(rng, 2), "backend": {
        "type": "vpoly", "vertices": _oval(rng, 6).tolist()}}, np.zeros(2))
    cases["vpoly3"] = ({"chart": [0.0, 0.0, 0.0, 1.0], "backend": {
        "type": "vpoly", "vertices": _sphere(rng, 9, 3).tolist()}}, np.zeros(3))
    cases["radial1"] = ({"chart": [0.0, 1.0], "backend": _radial(
        np.array([0.1]), np.array([[0.9], [-0.7]]), [[0], [1]])}, np.array([0.1]))
    pts = _oval(rng, 9)
    c = 0.1 * pts.mean(axis=0) + np.array([0.05, -0.04])
    cases["radial2"] = ({"chart": _tilted(rng, 2), "backend": _radial(c, pts, None)}, c)
    pts = _sphere(rng, 12, 3)
    c = np.array([0.04, -0.03, 0.02])
    cases["radial3"] = ({"chart": [0.0, 0.0, 0.0, 1.0], "backend": _radial(
        c, pts, ConvexHull(pts).simplices)}, c)
    cases["triangle"] = (dm.triangle_domain().to_json(), np.array([0.3, 0.3]))
    cases["square"] = (dm.square_domain().to_json(), np.zeros(2))
    cases["orthant2"] = (dm.orthant_domain(2).to_json(), np.zeros(2))
    return cases


def _commands(name, dom, base, work):
    """{label: argv} of the commands run on one domain; files go to work."""
    n = len(dom["chart"]) - 1
    path = work / f"{name}.json"
    path.write_text(json.dumps(dom))
    mat = work / f"{name}_mat.json"
    shift = np.random.default_rng(n).normal(size=(n + 1, n + 1))
    mat.write_text(json.dumps({"matrix": (np.eye(n + 1) + 1e-3 * shift).tolist()}))
    if base is None:
        base = np.asarray(dom["backend"]["center"])
    step = np.linspace(0.1, 0.05, n)
    x, y, phi = (",".join(repr(float(v)) for v in p)
                 for p in (base + step, base - 1.5 * step[::-1], dom["chart"]))
    d = ["--domain", str(path)]
    cmds = {
        "domain validate": ["domain", "validate", *d],
        "domain dual": ["domain", "dual", *d],
        "domain flats": ["domain", "flats", *d],
        "normalize moments": ["normalize", "moments", *d],
        "normalize isotropic": ["normalize", "isotropic", *d],
        "hilbert dist": ["hilbert", "dist", *d, f"--x={x}", f"--y={y}"],
        "hilbert geodesic": ["hilbert", "geodesic", *d, f"--x={x}", f"--y={y}",
                             "--k", "4"],
        "vinberg volume": ["vinberg", "volume", *d, f"--phi={phi}"],
        "vinberg center": ["vinberg", "center", *d],
        "group aut": ["group", "aut", *d, "--matrix", str(mat)],
    }
    if n == 2:
        cmds["domain dual"] += ["--svg", str(work / f"{name}_dual.svg")]
        tri = ":".join(",".join(repr(float(v)) for v in p)
                       for p in (base, base + step, base - 1.5 * step[::-1]))
        cmds["hilbert delta"] = ["hilbert", "delta", *d, f"--tri={tri}", "--m", "4"]
    if name == "radial2":
        cmds["hilbert geodesic"] += ["--svg", str(work / f"{name}_geodesic.svg")]
    if name in ("hpoly1", "ellipsoid2", "vpoly3", "radial2"):
        cmds["vinberg grad"] = ["vinberg", "grad", *d, f"--phi={phi}"]
        cmds["vinberg theta"] = ["vinberg", "theta", *d, f"--phi={phi}"]
    if name in ("ellipsoid1", "square"):
        cmds["vinberg surface"] = ["vinberg", "surface", *d, "--budget", "6",
                                   "--seed", "3"]
        if n == 1:
            cmds["vinberg surface"] += ["--svg", str(work / f"{name}_surface.svg")]
    if name in ("vpoly1", "triangle"):
        cmds["plconvex build"] = ["plconvex", "build", *d, "--budget", "6"]
    return cmds


def _boost(t):
    """Hyperbolic translation of the Klein disk along the x axis."""
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def _rotation(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _file_commands(work):
    """{"case :: command": argv} of the commands whose inputs are a matrix,
    a sequence, a generator list or a mesh, rather than one domain alone."""
    def put(name, obj):
        path = work / name
        path.write_text(json.dumps(obj))
        return str(path)

    disk = ["--domain", put("disk.json", dm.unit_disk().to_json())]
    hyp = put("hyp.json", {"matrix": (_rotation(0.4) @ _boost(1.3)
                                      @ _rotation(-0.4)).tolist()})
    box = put("box.json", {"matrix": (np.diag([2.0, 2.0, 1.0]) @ _rotation(0.7)
                                      @ _boost(0.5) @ np.diag([0.5, 0.5, 1.0])).tolist()})
    spin = _rotation(0.3)[:2, :2]
    seq = put("seq.json", {
        "generators": ["a"], "terms": [[np.eye(3).tolist()]] * 5,
        "domains": [dm.ConvexDomain.ellipsoid(
            [0.0, 0.0], spin @ np.diag([1.0, k * k]) @ spin.T
        ).to_json() for k in range(1, 6)]})
    gens = put("gens.json", {"generators": ["a", "b"], "terms": [[
        _boost(1.2).tolist(), (_rotation(1.6) @ _boost(1.2) @ _rotation(-1.6)).tolist()]]})
    ang = np.linspace(0.0, 2 * np.pi, 6, endpoint=False)
    cap = np.vstack([[0.0, 0.0, 1.0],
                     np.stack([0.5 * np.cos(ang), 0.5 * np.sin(ang),
                               np.full(6, np.sqrt(1.25))], axis=1)])
    mesh = put("cap.json", {"vertices": cap.tolist(),
                            "simplices": [[0, 1 + i, 1 + (i + 1) % 6] for i in range(6)]})
    line = put("line.json", {"vertices": [[-1.0, 2.0], [-0.4, 1.2], [0.3, 1.1], [1.0, 2.0]],
                             "simplices": [[0, 1], [1, 2], [2, 3]]})
    tol = ["--tol", "1e-6"]
    cmds = {
        "disk :: group dynamics": ["group", "dynamics", *disk, "--matrix", hyp],
        "disk :: group dynamics --tol": ["group", "dynamics", *disk, "--matrix", hyp, *tol],
        "disk :: group orbit": ["group", "orbit", *disk, "--gens", gens,
                                "--seed-point", "0.1,-0.2", "--L", "2",
                                "--svg", str(work / "orbit.svg")],
        "disk :: group dirichlet": ["group", "dirichlet", *disk, "--gens", gens,
                                    "--x", "0.1,0,1", "--L", "2"],
        "disk :: group dirichlet --tol": ["group", "dirichlet", *disk, "--gens", gens,
                                          "--x", "0.1,0,1", "--L", "2", *tol],
        "box :: normalize boxcheck": ["normalize", "boxcheck", "--matrix", box,
                                      "--K", "2.0"],
        "squash :: normalize sequence": ["normalize", "sequence", "--seq", seq],
        "squash :: normalize sequence --csv": ["normalize", "sequence", "--seq", seq],
    }
    for name, path in (("cap", mesh), ("line", line)):
        cmds[f"{name} :: plconvex check"] = ["plconvex", "check", "--mesh", path]
        cmds[f"{name} :: plconvex certify"] = ["plconvex", "certify", "--mesh", path]
        cmds[f"{name} :: plconvex outward"] = ["plconvex", "outward", "--mesh", path,
                                              "--t", "1.5"]
    cmds["line :: plconvex radius"] = ["plconvex", "radius", "--mesh", line,
                                       "--seed", "5"]
    return cmds


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def record(work):
    """{"case :: command": {"exit", "report", "svg"}} of every run."""
    runs = {f"{name} :: {label}": argv
            for name, (dom, base) in _cases().items()
            for label, argv in _commands(name, dom, base, work).items()}
    runs.update(_file_commands(work))
    out = {}
    for i, (key, argv) in enumerate(runs.items()):
        report = work / f"report{i}.{'csv' if key.endswith('--csv') else 'json'}"
        res = dispatch(argv + ["--out", str(report)])
        svg = Path(argv[argv.index("--svg") + 1]) if "--svg" in argv else None
        out[key] = {"exit": res.exit_code, "report": _digest(report),
                    "svg": _digest(svg) if svg else None}
    return out


def test_reports_match_the_goldens(tmp_path, capsys):
    want = json.loads(GOLDEN.read_text())
    got = record(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(want)
    changed = [key for key in want if got[key] != want[key]]
    assert not changed, f"reports differ from the goldens: {changed}"


def test_goldens_cover_every_backend_and_dimension():
    keys = json.loads(GOLDEN.read_text())
    names = {key.split(" :: ")[0] for key in keys}
    for kind in ("hpoly", "vpoly", "ellipsoid", "radial"):
        assert {f"{kind}{n}" for n in (1, 2, 3)} <= names
    assert all(v["exit"] == 0 for v in keys.values())
    assert sum(v["svg"] is not None for v in keys.values()) >= 6


def test_goldens_cover_every_command():
    modules = build_parser()._subparsers._group_actions[0].choices
    commands = {f"{mod} {op}" for mod, sub in modules.items()
                for op in sub._subparsers._group_actions[0].choices}
    pinned = {" ".join(key.split(" :: ")[1].split()[:2])
              for key in json.loads(GOLDEN.read_text())}
    assert commands == pinned


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = record(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} goldens to {GOLDEN}")
