from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from projconvex import domain as dm, jsonio
from projconvex.cli import dispatch
from projconvex.config import TOL
from projconvex.normalize import RepSequence

from conftest import boost, rotation


@pytest.fixture
def disk_file(tmp_path):
    path = tmp_path / "disk.json"
    jsonio.dump_file(dm.unit_disk().to_json(), path)
    return str(path)


@pytest.fixture
def squash_file(tmp_path):
    doms, terms = [], []
    for k in range(1, 9):
        doms.append(dm.ConvexDomain.ellipsoid([0.0, 0.0],
                                              np.diag([1.0, float(k * k)])))
        terms.append([np.eye(3)])
    seq = RepSequence(["a"], terms, doms)
    path = tmp_path / "squash.json"
    jsonio.dump_file(jsonio.sequence_to_dict(seq), path)
    return str(path)


def test_dist_example(disk_file, capsys):
    res = dispatch(["hilbert", "dist", "--domain", disk_file,
                    "--x", "0,0", "--y", "0.5,0"])
    assert res.exit_code == 0
    assert capsys.readouterr().out.strip() == "0.549306"


def test_validate_unbounded_exit_code(tmp_path, capsys):
    path = tmp_path / "halfplane.json"
    jsonio.dump_file({"chart": [0, 0, 1],
                      "backend": {"type": "hpoly", "normals": [[-1.0, 0.0]],
                                  "offsets": [0.0]}}, path)
    out = tmp_path / "report.json"
    res = dispatch(["domain", "validate", "--domain", str(path),
                    "--out", str(out)])
    assert res.exit_code == 1
    report = jsonio.load_file(out)
    assert report["error"]["code"] == "not-properly-convex"
    assert report["error"]["data"]["witness"] is not None


def test_sequence_csv(squash_file, tmp_path):
    out = tmp_path / "report.csv"
    res = dispatch(["normalize", "sequence", "--seq", squash_file,
                    "--out", str(out)])
    assert res.exit_code == 0
    rows = open(out).read().strip().splitlines()
    assert rows[0] == "k,d_norm,residual,maxentry"
    d_norms = [float(r.split(",")[1]) for r in rows[1:]]
    diffs = np.diff(d_norms)
    assert np.allclose(diffs, diffs[0], atol=1e-6)  # linear growth
    assert diffs[0] > 0


def test_reports_are_deterministic(disk_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        res = dispatch(["vinberg", "surface", "--domain", disk_file,
                        "--budget", "12", "--seed", "7", "--out", str(out)])
        assert res.exit_code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_computation_error_exit_code(disk_file, capsys):
    res = dispatch(["vinberg", "volume", "--domain", disk_file,
                    "--phi", "1,0,0.5"])
    assert res.exit_code == 1
    assert "outside-dual-cone" in capsys.readouterr().out


def test_usage_error_exit_code(capsys):
    res = dispatch(["no-such-command"])
    assert res.exit_code == 2


def test_malformed_file_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = dispatch(["domain", "validate", "--domain", str(bad)])
    assert res.exit_code == 2
    nan = tmp_path / "nan.json"
    nan.write_text('{"chart": [0, 0, NaN], "backend": {"type": "vpoly", '
                   '"vertices": [[0, 0], [1, 0], [0, 1]]}}')
    res = dispatch(["domain", "validate", "--domain", str(nan)])
    assert res.exit_code == 2
    bare = tmp_path / "bare.json"   # a backend without its fields
    bare.write_text('{"chart": [0, 0, 1], "backend": {"type": "hpoly"}}')
    res = dispatch(["domain", "validate", "--domain", str(bare)])
    assert res.exit_code == 2
    assert "malformed domain object" in capsys.readouterr().out
    alien = tmp_path / "alien.json"   # a backend type that does not exist
    alien.write_text('{"chart": [0, 0, 1], "backend": {"type": "foo"}}')
    res = dispatch(["domain", "validate", "--domain", str(alien)])
    assert res.exit_code == 2
    assert "unknown backend type 'foo'" in capsys.readouterr().out


def test_integer_beyond_float_range_is_an_input_error(tmp_path, capsys):
    # json.loads keeps a 401-digit integer exact; the float conversion of the
    # domain, matrix and sequence loaders and the index conversion of mesh
    # and radial-graph simplices make it an input error (exit 2)
    big = "1" + "0" * 400
    radial = ('{"chart": [0, 0, 1], "backend": {"type": "radialgraph", '
              '"center": [0, 0], "directions": [[1, 0], [-1, 1], [-1, -1]], '
              f'"radii": [1, 1, 1], "simplices": [[0, 1], [1, 2], [2, {big}]]}}}}')
    files = {"domain": f'{{"chart": [0, 0, {big}], "backend": {{"type": "vpoly", '
                       f'"vertices": [[0, 0], [1, 0], [0, 1]]}}}}',
             "matrix": f'{{"matrix": [[{big}, 0, 0], [0, 1, 0], [0, 0, 1]]}}',
             "seq": f'{{"generators": ["a"], "terms": [[[[{big}]]]]}}',
             "mesh": '{"vertices": [[-1, 2], [0, 1], [1, 2]], '
                     f'"simplices": [[0, 1], [1, {big}]]}}',
             "radial": radial}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    paths = {name: str(tmp_path / f"{name}.json") for name in files}
    for argv, kind in (
            (["domain", "validate", "--domain", paths["domain"]], "float"),
            (["normalize", "boxcheck", "--matrix", paths["matrix"], "--K", "2"], "float"),
            (["normalize", "sequence", "--seq", paths["seq"]], "float"),
            (["plconvex", "check", "--mesh", paths["mesh"]], "integer"),
            (["normalize", "moments", "--domain", paths["radial"]], "integer")):
        assert dispatch(argv).exit_code == 2
        assert f"beyond the {kind} range" in capsys.readouterr().out


def test_radial_graph_simplex_index_out_of_range(tmp_path, capsys):
    # checked at construction: the surface check and the moments would
    # otherwise read a direction that is not there, or none at all; a domain
    # file that the constructor refuses is malformed, as a mesh file is
    path = tmp_path / "radial.json"
    jsonio.dump_file({"chart": [0, 0, 1], "backend": {
        "type": "radialgraph", "center": [0, 0],
        "directions": [[1, 0], [-1, 1], [-1, -1]], "radii": [1, 1, 1],
        "simplices": [[0, 1], [1, 2], [2, 7]]}}, path)
    for op in ("validate", "moments"):
        module = "domain" if op == "validate" else "normalize"
        assert dispatch([module, op, "--domain", str(path)]).exit_code == 2
        out = capsys.readouterr().out
        assert "error[input-format]" in out and "direction indices" in out


def test_complex_error_data_reaches_the_report(disk_file, tmp_path, capsys):
    mat = tmp_path / "rot90.json"
    jsonio.dump_file({"matrix": [[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0]]}, mat)
    out = tmp_path / "r.json"
    res = dispatch(["group", "dynamics", "--domain", disk_file,
                    "--matrix", str(mat), "--out", str(out)])
    assert res.exit_code == 1
    assert "error[not-hyperbolic]" in capsys.readouterr().out
    error = jsonio.load_file(out)["error"]
    assert error["code"] == "not-hyperbolic"
    eigs = sorted(map(tuple, error["data"]["eigenvalues"]))
    assert np.allclose(eigs, [(0.0, -1.0), (0.0, 1.0), (1.0, 0.0)])


def test_boxcheck_command(tmp_path, capsys):
    mat = tmp_path / "m.json"
    jsonio.dump_file({"matrix": np.eye(3).tolist()}, mat)
    res = dispatch(["normalize", "boxcheck", "--matrix", str(mat), "--K", "1"])
    assert res.exit_code == 0
    assert "conclusion=True" in capsys.readouterr().out


def test_group_and_svg_paths(disk_file, tmp_path, capsys):
    mat = tmp_path / "boost.json"
    jsonio.dump_file({"matrix": boost(0.6).tolist()}, mat)
    res = dispatch(["group", "dynamics", "--domain", disk_file,
                    "--matrix", str(mat)])
    assert res.exit_code == 0
    assert "length=0.6" in capsys.readouterr().out

    gens = tmp_path / "gens.json"
    jsonio.dump_file({"generators": ["a"], "terms": [[boost(1.0).tolist()]]},
                     gens)
    svg = tmp_path / "orbit.svg"
    res = dispatch(["group", "orbit", "--domain", disk_file, "--gens",
                    str(gens), "--seed-point", "0,0", "--L", "3",
                    "--svg", str(svg)])
    assert res.exit_code == 0
    assert svg.exists() and svg.read_text().startswith("<svg")


def test_mesh_commands(tmp_path, capsys):
    mesh = tmp_path / "polyline.json"
    jsonio.dump_file({"vertices": [[-1, 2], [0, 1], [1, 2]],
                      "simplices": [[0, 1], [1, 2]]}, mesh)
    assert dispatch(["plconvex", "check", "--mesh", str(mesh)]).exit_code == 0
    assert dispatch(["plconvex", "certify", "--mesh", str(mesh)]).exit_code == 0
    assert dispatch(["plconvex", "radius", "--mesh", str(mesh)]).exit_code == 0
    assert dispatch(["plconvex", "outward", "--mesh", str(mesh),
                     "--t", "1.5"]).exit_code == 0
    out = capsys.readouterr().out
    assert "radial section: True" in out
    assert "outward=True" in out


def test_one_column_mesh_is_an_input_error(tmp_path, capsys):
    mesh = tmp_path / "points.json"
    jsonio.dump_file({"vertices": [[1.0], [2.0]], "simplices": [[0], [1]]}, mesh)
    assert dispatch(["plconvex", "check", "--mesh", str(mesh)]).exit_code == 2
    out = capsys.readouterr().out
    assert "'vertices'" in out and "zero-size" not in out
    # every mesh that the hypersurface constructor refuses is malformed input
    arc = [[-1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]
    for vertices, simplices, why in (
            (arc, [[0, 1, 2]], "need 2 vertices, got 3"),
            (arc, [[0, 1], [1, 3]], "out of range"),
            ([[1.0, 1.0], [1.0, 1.0]], [[0, 1]], "degenerate simplex")):
        jsonio.dump_file({"vertices": vertices, "simplices": simplices}, mesh)
        assert dispatch(["plconvex", "check", "--mesh", str(mesh)]).exit_code == 2
        assert why in capsys.readouterr().out


def test_domain_dual_and_flats(tmp_path, capsys):
    sq = tmp_path / "square.json"
    jsonio.dump_file(dm.square_domain().to_json(), sq)
    out = tmp_path / "dual.json"
    res = dispatch(["domain", "dual", "--domain", str(sq), "--out", str(out)])
    assert res.exit_code == 0
    assert jsonio.load_file(out)["report"]["domain"]["backend"]["type"] == "hpoly"
    res = dispatch(["domain", "flats", "--domain", str(sq)])
    assert res.exit_code == 0
    assert "4 maximal flat pieces" in capsys.readouterr().out


def test_tol_does_not_outlive_the_command(disk_file, tmp_path):
    mat = tmp_path / "boost.json"
    jsonio.dump_file({"matrix": boost(0.6).tolist()}, mat)
    res = dispatch(["group", "dynamics", "--domain", disk_file,
                    "--matrix", str(mat), "--tol", "1e-6"])
    assert res.exit_code == 0
    assert TOL.frontier == 1e-8
    with pytest.raises(FrozenInstanceError):
        TOL.frontier = 1e-6


def test_tol_reaches_the_library(disk_file, tmp_path, capsys):
    # the fixed points of a conjugated boost land on the circle only up to
    # rounding: within the default frontier tolerance, not within --tol 0
    mat = tmp_path / "hyp.json"
    jsonio.dump_file({"matrix": (rotation(0.4) @ boost(1.3)
                                 @ rotation(-0.4)).tolist()}, mat)
    argv = ["group", "dynamics", "--domain", disk_file, "--matrix", str(mat)]
    assert dispatch(argv).exit_code == 0
    assert dispatch(argv + ["--tol", "0"]).exit_code == 1
    assert "error[automorphism-inconsistency]" in capsys.readouterr().out


def test_bad_numbers_are_rejected(disk_file, tmp_path, capsys):
    mat = tmp_path / "eye.json"
    jsonio.dump_file({"matrix": np.eye(3).tolist()}, mat)
    for op in ("aut", "dynamics"):
        for tol in ("-1", "nan"):
            res = dispatch(["group", op, "--domain", disk_file,
                            "--matrix", str(mat), "--tol", tol])
            assert res.exit_code == 2
    capsys.readouterr()
    res = dispatch(["hilbert", "delta", "--domain", disk_file,
                    "--tri", "0,0:0.5,0:0,0.5", "--m", "-1"])
    assert res.exit_code == 1
    assert "error[invalid-input]" in capsys.readouterr().out
    res = dispatch(["hilbert", "dist", "--domain", disk_file,
                    "--x", "0,zero", "--y", "0.5,0"])
    assert res.exit_code == 1
    assert capsys.readouterr().out == (
        "error[invalid-input]: cannot parse point '0,zero'\n")


def test_aut_tol_zero_is_exact(disk_file, tmp_path):
    # a rotation of the disk by 0.3 rad leaves a rounding residual of about
    # 1e-16: within the default tolerance, but not within --tol 0
    c, s = np.cos(0.3), np.sin(0.3)
    mat = tmp_path / "rot.json"
    jsonio.dump_file({"matrix": [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]}, mat)
    verdicts = []
    for extra in ([], ["--tol", "0"]):
        out = tmp_path / "aut.json"
        res = dispatch(["group", "aut", "--domain", disk_file, "--matrix", str(mat),
                        "--out", str(out), *extra])
        assert res.exit_code == 0
        report = jsonio.load_file(out)["report"]
        assert 0.0 < report["residual"] < 1e-12
        verdicts.append(report["is_automorphism"])
    assert verdicts == [True, False]
