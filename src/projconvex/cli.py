"""Command-line frontend: load domains, cones, sequences, and meshes, run the
library operations, and emit JSON reports, CSV tables, and SVG figures.

Each command is declared once, in `COMMANDS`: its flags and the function
that runs it.  `_run` loads the input files the command takes, by flag
(`--domain`, `--mesh`, `--matrix`, `--seq`, `--gens`, in that order), and
passes them to that function, which parses its point flags and returns the
report, a summary line and warnings.  A report that holds every field of a
result object is written from `dataclasses.asdict` of it.  `--tol` reaches
the library as an argument; no command changes global state.

The module imports only `config`, `jsonio` and `errors`; each command
function imports the library module it calls, and `svgfig` only when it
draws, so a command loads no module that it does not use.

Exit codes: 0 success, 1 computation error, 2 usage or input-format error.
A mesh or domain file that its constructor refuses is an input-format error,
as is one with a missing field or an unknown backend type.
"""

import argparse
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import config, jsonio
from .errors import GeometryError, InputFormatError, InvalidInputError


@dataclass
class CommandResult:
    exit_code: int
    report_path: str
    warnings: list


def _parse_point(text):
    try:
        p = np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse point {text!r}") from exc
    if not np.isfinite(p).all():
        raise InvalidInputError(f"point {text!r} is not finite")
    return p


def _parse_triangle(text):
    return [_parse_point(part) for part in text.split(":")]


def _tolerance(text):
    if not float(text) >= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return float(text)


# ---------------------------------------------------------------------------
# commands: each takes the parsed flags and the loaded input files, and
# returns (report dict, or None when a CSV was written; summary; warnings)


def _domain_validate(args, domain):
    from . import domain as dm
    cert = dm.validate(domain)
    return ({**asdict(cert), "hyperplane": cert.hyperplane.coeffs},
            f"properly convex: margin={cert.margin:.6g} "
            f"R={cert.bounding_radius:.6g}", [])


def _domain_dual(args, domain):
    from . import domain as dm
    dual = dm.dual_domain(domain)
    if args.svg and domain.dim == 2:
        from . import svgfig
        svgfig.render_scene(
            [{"type": "polygon", "points": svgfig.domain_outline(dual)}], args.svg)
    return {"domain": dual.to_json()}, f"dual backend: {dual.backend.kind}", []


def _domain_flats(args, domain):
    from . import domain as dm
    flats = dm.boundary_flats(domain)
    return {"flats": flats}, f"{len(flats)} maximal flat pieces", []


def _hilbert_dist(args, domain):
    from . import hilbert as hb
    d = hb.distance(domain, _parse_point(args.x), _parse_point(args.y))
    return {"distance": d}, f"{d:.6f}", []


def _hilbert_geodesic(args, domain):
    from . import hilbert as hb
    pts = hb.geodesic(domain, _parse_point(args.x), _parse_point(args.y), args.k)
    if args.svg and domain.dim == 2:
        from . import svgfig
        d_total = hb.distance(domain, pts[0], pts[-1])
        ball = hb.metric_ball(domain, pts[0], 0.5 * d_total)
        svgfig.render_scene(
            [{"type": "polygon", "points": svgfig.domain_outline(domain)},
             {"type": "polyline", "points": np.array(pts)},
             {"type": "points", "points": np.array(pts)},
             {"type": "polygon", "points": ball}], args.svg)
    return {"points": [p.tolist() for p in pts]}, f"{len(pts)} geodesic points", []


def _hilbert_delta(args, domain):
    from . import hilbert as hb
    res = hb.thin_triangle_delta(domain, _parse_triangle(args.tri), m=args.m)
    warnings = ["degenerate (collinear) triangle"] if res.degenerate else []
    return asdict(res), f"delta={res.delta:.6f}", warnings


def _vinberg_volume(args, domain):
    from . import vinberg as vb
    res = vb.volume_functional(domain.cone(), _parse_point(args.phi))
    return asdict(res), f"{res.value:.12g}", []


def _vinberg_grad(args, domain):
    from . import vinberg as vb
    g = vb.grad_volume(domain.cone(), _parse_point(args.phi))
    return {"gradient": g}, f"gradient norm {np.linalg.norm(g):.6g}", []


def _vinberg_theta(args, domain):
    from . import vinberg as vb
    p = vb.theta(domain.cone(), _parse_point(args.phi))
    return ({"point": p.coords, "chart": domain.chart.to_chart(p)},
            "theta point computed", [])


def _vinberg_center(args, domain):
    from . import vinberg as vb
    sc = vb.spherical_center(domain)
    return ({"center": sc.center.coords, "rotation": sc.rotation.matrix,
             "residual": sc.residual}, f"center residual {sc.residual:.2e}", [])


def _surface_report(res):
    return {"mesh": res.surface.to_json(), "certificate": res.certificate.to_json(),
            "deviation_bound": res.deviation_bound}


def _vinberg_surface(args, domain):
    from . import plconvex as pl
    res = pl.pl_characteristic_surface(domain.cone(), args.budget, seed=args.seed)
    if args.svg and domain.dim == 1:
        from . import svgfig
        svgfig.render_scene(
            [{"type": "polyline", "points": res.surface.vertices}], args.svg)
    return ({**_surface_report(res), "jitter_rounds": res.jitter_rounds},
            f"certified={res.certificate.ok} "
            f"deviation<={res.deviation_bound:.3g}", [])


def _plconvex_build(args, domain):
    from . import plconvex as pl
    res = pl.pl_characteristic_surface(domain.cone(), args.budget, seed=args.seed)
    return _surface_report(res), f"certified={res.certificate.ok}", []


def _normalize_moments(args, domain):
    from . import normalize as nm
    m = nm.moments(domain)
    return asdict(m), f"volume {m.volume:.6g}", []


def _normalize_isotropic(args, domain):
    from . import normalize as nm
    iso = nm.isotropic_normalize(domain)
    return ({"rotation": iso.rotation, "scales": iso.scales,
             "translation": iso.translation, "domain": iso.domain.to_json(),
             "sandwich": asdict(iso.sandwich)},
            f"K={iso.sandwich.outer_K:.6g}", [])


def _normalize_boxcheck(args, matrix):
    from . import normalize as nm
    res = nm.box_bound_check(matrix, args.K)
    return ({"hypothesis_holds": res.hypothesis_holds,
             "hypothesis_margin": res.hypothesis_margin,
             "conclusion_holds": res.conclusion_holds,
             "margins": res.margins, "bound": res.bound},
            f"hypothesis={res.hypothesis_holds} "
            f"conclusion={res.conclusion_holds}", [])


def _normalize_sequence(args, seq):
    from . import normalize as nm
    rep = nm.analyze_sequence(seq)
    report = rep.to_json()
    if args.out and args.out.endswith(".csv"):
        jsonio.write_csv(rep.to_csv_rows(), args.out)
        report = None
    return report, f"verdict: {rep.verdict}", []


def _group_aut(args, domain, matrix):
    from . import group as gp
    chk = gp.is_automorphism(domain, matrix, tol=args.tol)
    return (asdict(chk), f"automorphism={chk.is_automorphism} "
            f"residual={chk.residual:.2e}", [])


def _group_dynamics(args, domain, matrix):
    from . import group as gp
    hd = gp.fixed_point_dynamics(domain, matrix, tol=args.tol)
    return ({"a_plus": hd.a_plus.coords, "a_minus": hd.a_minus.coords,
             "translation_length": hd.translation_length,
             "length_eigen": hd.length_eigen,
             "eigenvalue_gap": hd.eigenvalue_gap},
            f"length={hd.translation_length:.6f}", [])


def _group_orbit(args, domain, gens):
    from . import group as gp
    seed_pt = domain.chart.from_chart(_parse_point(args.seed_point))
    pts = gp.orbit(gens.terms[0], seed_pt, args.L)
    charted = []
    for p in pts:
        try:
            charted.append(domain.chart.to_chart(p).tolist())
        except GeometryError:
            pass
    if args.svg and domain.dim == 2 and charted:
        from . import svgfig
        svgfig.render_scene(
            [{"type": "polygon", "points": svgfig.domain_outline(domain)},
             {"type": "points", "points": np.array(charted)}], args.svg)
    return ({"count": len(pts), "chart_points": charted},
            f"{len(pts)} orbit points", [])


def _group_dirichlet(args, domain, gens):
    from . import group as gp
    dd = gp.dirichlet_domain(domain.cone(), gens.terms[0], _parse_point(args.x),
                             args.L, tol=args.tol)
    warnings = [] if dd.stable else ["facet set not stable at this word length"]
    return ({"vertices": dd.vertices,
             "facets": [{"label": f.label, "offset": f.offset} for f in dd.facets],
             "pairings": dd.pairings, "stable": dd.stable},
            f"{len(dd.facets)} facets, stable={dd.stable}", warnings)


def _plconvex_check(args, mesh):
    from . import plconvex as pl
    res = pl.radial_section_check(mesh)
    return asdict(res), f"radial section: {res.ok}", []


def _plconvex_certify(args, mesh):
    from . import plconvex as pl
    cert = pl.certify_generic_convex(mesh)
    return cert.to_json(), f"certified={cert.ok} margin={cert.margin:.6g}", []


def _plconvex_radius(args, mesh):
    from . import plconvex as pl
    res = pl.perturbation_radius(mesh, seed=args.seed)
    return (asdict(res), f"epsilon={res.epsilon:.6g} "
            f"({res.reverify_passes}/{res.reverify_trials} reverified)", [])


def _plconvex_outward(args, mesh):
    from . import plconvex as pl
    ok = pl.outward_check(mesh, args.t)
    return {"outward": ok, "t": args.t}, f"outward={ok}", []


# ---------------------------------------------------------------------------
# the command table


def _flag(name, **kwargs):
    return name, kwargs


DOMAIN = _flag("--domain", required=True)
MESH = _flag("--mesh", required=True)
MATRIX = _flag("--matrix", required=True)
PHI = _flag("--phi", required=True, help="raw coefficient vector")
X, Y = _flag("--x", required=True), _flag("--y", required=True)
BUDGET = _flag("--budget", type=int, default=32)
SEED = _flag("--seed", type=int, default=config.DEFAULT_SEED)
FRONTIER = _flag("--tol", type=_tolerance, help="frontier-membership tolerance")
OUT = _flag("--out", help="report path (.json, or .csv where supported)")
SVG = _flag("--svg", help="figure path (2-d charts only)")
SVG_1D = _flag("--svg", help="figure path (1-d charts only)")

# "module op": (function, flags).  Every command also takes OUT, which goes
# before --svg in the commands that draw, and --svg comes last in their flags.
COMMANDS = {
    "domain validate": (_domain_validate, [DOMAIN]),
    "domain dual": (_domain_dual, [DOMAIN, SVG]),
    "domain flats": (_domain_flats, [DOMAIN]),
    "hilbert dist": (_hilbert_dist, [DOMAIN, X, Y]),
    "hilbert geodesic": (_hilbert_geodesic, [
        DOMAIN, X, Y, _flag("--k", type=int, default=8), SVG]),
    "hilbert delta": (_hilbert_delta, [
        DOMAIN, _flag("--tri", required=True, help="x1,y1:x2,y2:x3,y3"),
        _flag("--m", type=int, default=64)]),
    "vinberg volume": (_vinberg_volume, [DOMAIN, PHI]),
    "vinberg grad": (_vinberg_grad, [DOMAIN, PHI]),
    "vinberg theta": (_vinberg_theta, [DOMAIN, PHI]),
    "vinberg center": (_vinberg_center, [DOMAIN]),
    "vinberg surface": (_vinberg_surface, [DOMAIN, BUDGET, SEED, SVG_1D]),
    "normalize moments": (_normalize_moments, [DOMAIN]),
    "normalize isotropic": (_normalize_isotropic, [DOMAIN]),
    "normalize boxcheck": (_normalize_boxcheck, [
        MATRIX, _flag("--K", type=float, required=True)]),
    "normalize sequence": (_normalize_sequence, [_flag("--seq", required=True)]),
    "group aut": (_group_aut, [
        DOMAIN, MATRIX, _flag("--tol", type=_tolerance, default=1e-8,
                              help="largest automorphism residual")]),
    "group dynamics": (_group_dynamics, [DOMAIN, MATRIX, FRONTIER]),
    "group orbit": (_group_orbit, [
        DOMAIN, _flag("--gens", required=True, help="sequence file; first term used"),
        _flag("--seed-point", required=True), _flag("--L", type=int, default=4), SVG]),
    "group dirichlet": (_group_dirichlet, [
        DOMAIN, _flag("--gens", required=True),
        _flag("--x", required=True, help="base point, raw cone coordinates"),
        _flag("--L", type=int, default=3), FRONTIER]),
    "plconvex check": (_plconvex_check, [MESH]),
    "plconvex certify": (_plconvex_certify, [MESH]),
    "plconvex radius": (_plconvex_radius, [MESH, SEED]),
    "plconvex outward": (_plconvex_outward, [
        MESH, _flag("--t", type=float, required=True)]),
    "plconvex build": (_plconvex_build, [DOMAIN, BUDGET, SEED]),
}

# input files, loaded in this order and passed on by flag name
_LOADERS = {"domain": jsonio.load_domain, "mesh": jsonio.load_mesh,
            "matrix": jsonio.load_matrix, "seq": jsonio.load_sequence,
            "gens": jsonio.load_sequence}


def build_parser():
    ap = argparse.ArgumentParser(prog="projconvex")
    top = ap.add_subparsers(dest="module", required=True)
    modules = {}
    for name, (run, flags) in COMMANDS.items():
        mod, op = name.split()
        if mod not in modules:
            modules[mod] = top.add_parser(mod).add_subparsers(dest="op", required=True)
        q = modules[mod].add_parser(op)
        for flag, kwargs in (flags[:-1] + [OUT, flags[-1]] if flags[-1] in (SVG, SVG_1D)
                             else flags + [OUT]):
            q.add_argument(flag, **kwargs)
        q.set_defaults(run=run)
    return ap


def _run(args):
    """Execute the parsed command; returns (report dict, summary, warnings)."""
    inputs = {flag: load(getattr(args, flag)) for flag, load in _LOADERS.items()
              if hasattr(args, flag)}
    return args.run(args, **inputs)


def dispatch(argv) -> CommandResult:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "", [])
    report_path = getattr(args, "out", None) or ""
    try:
        report, summary, warnings = _run(args)
    except InputFormatError as exc:
        print(f"input error[{exc.code}]: {exc}")
        return CommandResult(2, "", [])
    except GeometryError as exc:
        payload = {"error": exc.report()}
        if report_path and not report_path.endswith(".csv"):
            jsonio.dump_file(payload, report_path)
        print(f"error[{exc.code}]: {exc}")
        return CommandResult(1, report_path, [])
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}")
        return CommandResult(2, "", [])
    if report is not None and report_path and not report_path.endswith(".csv"):
        jsonio.dump_file({"report": report, "warnings": warnings}, report_path)
    print(summary)
    for w in warnings:
        print(f"warning: {w}")
    return CommandResult(0, report_path, warnings)


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv).exit_code


if __name__ == "__main__":
    sys.exit(main())
