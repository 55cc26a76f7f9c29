"""Golden CLI reports: the bytes of each report and figure stay as recorded.

`cli.dispatch` runs in-process on seeded domains of every backend kind in
chart dimensions 1-3 (radial graphs in 1-d and 3-d with explicit simplices),
and each command's exit code, report and SVG are compared, by SHA-256, with
`golden_cli.json`.  A refactor that moves one bit of one float in a report
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
from projconvex.cli import dispatch

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
    if name == "radial2":
        cmds["hilbert geodesic"] += ["--svg", str(work / f"{name}_geodesic.svg")]
    return cmds


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def record(work):
    """{"case :: command": {"exit", "report", "svg"}} of every run."""
    out = {}
    for name, (dom, base) in _cases().items():
        for label, argv in _commands(name, dom, base, work).items():
            report = work / f"{name} {label}.json"
            res = dispatch(argv + ["--out", str(report)])
            svg = Path(argv[argv.index("--svg") + 1]) if "--svg" in argv else None
            out[f"{name} :: {label}"] = {
                "exit": res.exit_code, "report": _digest(report),
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


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = record(Path(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} goldens to {GOLDEN}")
