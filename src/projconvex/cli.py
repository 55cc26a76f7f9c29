"""Command-line frontend: load domains, cones, sequences, and meshes, run the
library operations, and emit JSON reports, CSV tables, and SVG figures.

Exit codes: 0 success, 1 computation error, 2 usage or input-format error.
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import config, domain as dm, group as gp, hilbert as hb
from . import jsonio, normalize as nm, plconvex as pl, svgfig, vinberg as vb
from .errors import GeometryError, InputFormatError, InvalidInputError
from .projgeom import ProjPoint


@dataclass
class CommandResult:
    exit_code: int
    report_path: str
    warnings: list


def _parse_point(text):
    try:
        return np.array([float(t) for t in text.split(",")])
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse point {text!r}") from exc


def _parse_triangle(text):
    return [_parse_point(part) for part in text.split(":")]


def _tolerance(text):
    if not float(text) >= 0:
        raise argparse.ArgumentTypeError(f"tolerance must be >= 0, got {text!r}")
    return float(text)


def _add_common(p, svg=False):
    p.add_argument("--out", help="report path (.json, or .csv where supported)")
    if svg:
        p.add_argument("--svg", help="figure path (2-d charts only)")


def build_parser():
    ap = argparse.ArgumentParser(prog="projconvex")
    top = ap.add_subparsers(dest="module", required=True)

    p = top.add_parser("domain").add_subparsers(dest="op", required=True)
    q = p.add_parser("validate"); q.add_argument("--domain", required=True); _add_common(q)
    q = p.add_parser("dual"); q.add_argument("--domain", required=True); _add_common(q, svg=True)
    q = p.add_parser("flats"); q.add_argument("--domain", required=True); _add_common(q)

    p = top.add_parser("hilbert").add_subparsers(dest="op", required=True)
    q = p.add_parser("dist")
    q.add_argument("--domain", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    _add_common(q)
    q = p.add_parser("geodesic")
    q.add_argument("--domain", required=True)
    q.add_argument("--x", required=True)
    q.add_argument("--y", required=True)
    q.add_argument("--k", type=int, default=8)
    _add_common(q, svg=True)
    q = p.add_parser("delta")
    q.add_argument("--domain", required=True)
    q.add_argument("--tri", required=True, help="x1,y1:x2,y2:x3,y3")
    q.add_argument("--m", type=int, default=64)
    _add_common(q)

    p = top.add_parser("vinberg").add_subparsers(dest="op", required=True)
    for name in ("volume", "grad", "theta"):
        q = p.add_parser(name)
        q.add_argument("--domain", required=True)
        q.add_argument("--phi", required=True, help="raw coefficient vector")
        _add_common(q)
    q = p.add_parser("center"); q.add_argument("--domain", required=True); _add_common(q)
    q = p.add_parser("surface")
    q.add_argument("--domain", required=True)
    q.add_argument("--budget", type=int, default=32)
    q.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    _add_common(q, svg=True)

    p = top.add_parser("normalize").add_subparsers(dest="op", required=True)
    q = p.add_parser("moments"); q.add_argument("--domain", required=True); _add_common(q)
    q = p.add_parser("isotropic"); q.add_argument("--domain", required=True); _add_common(q)
    q = p.add_parser("boxcheck")
    q.add_argument("--matrix", required=True)
    q.add_argument("--K", type=float, required=True)
    _add_common(q)
    q = p.add_parser("sequence")
    q.add_argument("--seq", required=True)
    _add_common(q)

    p = top.add_parser("group").add_subparsers(dest="op", required=True)
    q = p.add_parser("aut")
    q.add_argument("--domain", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--tol", type=_tolerance, default=1e-8,
                   help="largest automorphism residual")
    _add_common(q)
    q = p.add_parser("dynamics")
    q.add_argument("--domain", required=True)
    q.add_argument("--matrix", required=True)
    q.add_argument("--tol", type=_tolerance, help="frontier-membership tolerance")
    _add_common(q)
    q = p.add_parser("orbit")
    q.add_argument("--domain", required=True)
    q.add_argument("--gens", required=True, help="sequence file; first term used")
    q.add_argument("--seed-point", required=True)
    q.add_argument("--L", type=int, default=4)
    _add_common(q, svg=True)
    q = p.add_parser("dirichlet")
    q.add_argument("--domain", required=True)
    q.add_argument("--gens", required=True)
    q.add_argument("--x", required=True, help="base point, raw cone coordinates")
    q.add_argument("--L", type=int, default=3)
    q.add_argument("--tol", type=_tolerance, help="frontier-membership tolerance")
    _add_common(q)

    p = top.add_parser("plconvex").add_subparsers(dest="op", required=True)
    for name in ("check", "certify", "radius"):
        q = p.add_parser(name)
        q.add_argument("--mesh", required=True)
        if name != "certify":
            q.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
        _add_common(q)
    q = p.add_parser("outward")
    q.add_argument("--mesh", required=True)
    q.add_argument("--t", type=float, required=True)
    _add_common(q)
    q = p.add_parser("build")
    q.add_argument("--domain", required=True)
    q.add_argument("--budget", type=int, default=32)
    q.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    _add_common(q)
    return ap


def _run(args):
    """Execute the parsed command; returns (report dict, summary, warnings)."""
    warnings = []
    mod, op = args.module, args.op

    if mod == "domain":
        dom = jsonio.load_domain(args.domain)
        if op == "validate":
            cert = dm.validate(dom)
            return ({"margin": cert.margin,
                     "bounding_radius": cert.bounding_radius,
                     "hyperplane": cert.hyperplane.coeffs,
                     "interior_point": cert.interior_point},
                    f"properly convex: margin={cert.margin:.6g} "
                    f"R={cert.bounding_radius:.6g}", warnings)
        if op == "dual":
            dual = dm.dual_domain(dom)
            if args.svg and dom.dim == 2:
                svgfig.render_scene(
                    [{"type": "polygon", "points": svgfig.domain_outline(dual)}],
                    args.svg)
            return ({"domain": dual.to_json()},
                    f"dual backend: {dual.backend.kind}", warnings)
        if op == "flats":
            flats = dm.boundary_flats(dom)
            return ({"flats": [{"normal": f["normal"], "offset": f["offset"],
                                "vertices": f["vertices"]} for f in flats]},
                    f"{len(flats)} maximal flat pieces", warnings)

    if mod == "hilbert":
        dom = jsonio.load_domain(args.domain)
        if op == "dist":
            d = hb.distance(dom, _parse_point(args.x), _parse_point(args.y))
            return {"distance": d}, f"{d:.6f}", warnings
        if op == "geodesic":
            pts = hb.geodesic(dom, _parse_point(args.x), _parse_point(args.y),
                              args.k)
            if args.svg and dom.dim == 2:
                d_total = hb.distance(dom, pts[0], pts[-1])
                ball = hb.metric_ball(dom, pts[0], 0.5 * d_total)
                svgfig.render_scene(
                    [{"type": "polygon", "points": svgfig.domain_outline(dom)},
                     {"type": "polyline", "points": np.array(pts)},
                     {"type": "points", "points": np.array(pts)},
                     {"type": "polygon", "points": ball}], args.svg)
            return ({"points": [p.tolist() for p in pts]},
                    f"{len(pts)} geodesic points", warnings)
        if op == "delta":
            res = hb.thin_triangle_delta(dom, _parse_triangle(args.tri), m=args.m)
            if res.degenerate:
                warnings.append("degenerate (collinear) triangle")
            return ({"delta": res.delta, "degenerate": res.degenerate,
                     "side_maxima": res.side_maxima},
                    f"delta={res.delta:.6f}", warnings)

    if mod == "vinberg":
        dom = jsonio.load_domain(args.domain)
        cone = dom.cone()
        if op == "volume":
            phi = _parse_point(args.phi)
            res = vb.volume_functional(cone, phi)
            return ({"value": res.value, "estimator": res.estimator,
                     "error_bound": res.error_bound},
                    f"{res.value:.12g}", warnings)
        if op == "grad":
            g = vb.grad_volume(cone, _parse_point(args.phi))
            return {"gradient": g}, f"gradient norm {np.linalg.norm(g):.6g}", warnings
        if op == "theta":
            p = vb.theta(cone, _parse_point(args.phi))
            return ({"point": p.coords, "chart": dom.chart.to_chart(p)},
                    "theta point computed", warnings)
        if op == "center":
            sc = vb.spherical_center(dom)
            return ({"center": sc.center.coords,
                     "rotation": sc.rotation.matrix,
                     "residual": sc.residual},
                    f"center residual {sc.residual:.2e}", warnings)
        if op == "surface":
            res = pl.pl_characteristic_surface(cone, args.budget, seed=args.seed)
            if args.svg and dom.dim == 1:
                svgfig.render_scene(
                    [{"type": "polyline", "points": res.surface.vertices}],
                    args.svg)
            return ({"mesh": res.surface.to_json(),
                     "certificate": res.certificate.to_json(),
                     "deviation_bound": res.deviation_bound,
                     "jitter_rounds": res.jitter_rounds},
                    f"certified={res.certificate.ok} "
                    f"deviation<={res.deviation_bound:.3g}", warnings)

    if mod == "normalize":
        if op == "moments":
            dom = jsonio.load_domain(args.domain)
            m = nm.moments(dom)
            return ({"centroid": m.centroid, "second_moment": m.second_moment,
                     "volume": m.volume},
                    f"volume {m.volume:.6g}", warnings)
        if op == "isotropic":
            dom = jsonio.load_domain(args.domain)
            iso = nm.isotropic_normalize(dom)
            return ({"rotation": iso.rotation, "scales": iso.scales,
                     "translation": iso.translation,
                     "domain": iso.domain.to_json(),
                     "sandwich": {"inner_K": iso.sandwich.inner_K,
                                  "outer_K": iso.sandwich.outer_K,
                                  "outer_tight": iso.sandwich.outer_tight,
                                  "inner_scale": iso.sandwich.inner_scale}},
                    f"K={iso.sandwich.outer_K:.6g}", warnings)
        if op == "boxcheck":
            mat = jsonio.load_matrix(args.matrix)
            res = nm.box_bound_check(mat, args.K)
            return ({"hypothesis_holds": res.hypothesis_holds,
                     "hypothesis_margin": res.hypothesis_margin,
                     "conclusion_holds": res.conclusion_holds,
                     "margins": res.margins, "bound": res.bound},
                    f"hypothesis={res.hypothesis_holds} "
                    f"conclusion={res.conclusion_holds}", warnings)
        if op == "sequence":
            seq = jsonio.load_sequence(args.seq)
            rep = nm.analyze_sequence(seq)
            report = rep.to_json()
            if args.out and args.out.endswith(".csv"):
                jsonio.write_csv(rep.to_csv_rows(), args.out)
                return None, f"verdict: {rep.verdict}", warnings
            return report, f"verdict: {rep.verdict}", warnings

    if mod == "group":
        dom = jsonio.load_domain(args.domain)
        if op in ("dynamics", "dirichlet") and args.tol is not None:
            config.TOL.frontier = args.tol      # dispatch restores it
        if op == "aut":
            chk = gp.is_automorphism(dom, jsonio.load_matrix(args.matrix),
                                     tol=args.tol)
            return ({"is_automorphism": chk.is_automorphism,
                     "residual": chk.residual},
                    f"automorphism={chk.is_automorphism} "
                    f"residual={chk.residual:.2e}", warnings)
        if op == "dynamics":
            hd = gp.fixed_point_dynamics(dom, jsonio.load_matrix(args.matrix))
            return ({"a_plus": hd.a_plus.coords, "a_minus": hd.a_minus.coords,
                     "translation_length": hd.translation_length,
                     "length_infimum": hd.length_infimum,
                     "length_eigen": hd.length_eigen,
                     "eigenvalue_gap": hd.eigenvalue_gap},
                    f"length={hd.translation_length:.6f}", warnings)
        if op == "orbit":
            seq = jsonio.load_sequence(args.gens)
            gens = [m for m in seq.terms[0]]
            seed_pt = dom.chart.from_chart(_parse_point(args.seed_point))
            pts = gp.orbit(gens, seed_pt, args.L)
            charted = []
            for p in pts:
                try:
                    charted.append(dom.chart.to_chart(p).tolist())
                except GeometryError:
                    pass
            if args.svg and dom.dim == 2 and charted:
                svgfig.render_scene(
                    [{"type": "polygon", "points": svgfig.domain_outline(dom)},
                     {"type": "points", "points": np.array(charted)}], args.svg)
            return ({"count": len(pts), "chart_points": charted},
                    f"{len(pts)} orbit points", warnings)
        if op == "dirichlet":
            seq = jsonio.load_sequence(args.gens)
            gens = [m for m in seq.terms[0]]
            dd = gp.dirichlet_domain(dom.cone(), gens, _parse_point(args.x),
                                     args.L)
            if not dd.stable:
                warnings.append("facet set not stable at this word length")
            return ({"vertices": dd.vertices,
                     "facets": [{"label": f.label, "offset": f.offset}
                                for f in dd.facets],
                     "pairings": dd.pairings, "stable": dd.stable},
                    f"{len(dd.facets)} facets, stable={dd.stable}", warnings)

    if mod == "plconvex":
        if op == "build":
            dom = jsonio.load_domain(args.domain)
            res = pl.pl_characteristic_surface(dom.cone(), args.budget,
                                               seed=args.seed)
            return ({"mesh": res.surface.to_json(),
                     "certificate": res.certificate.to_json(),
                     "deviation_bound": res.deviation_bound},
                    f"certified={res.certificate.ok}", warnings)
        surf = jsonio.load_mesh(args.mesh)
        if op == "check":
            res = pl.radial_section_check(surf, seed=args.seed)
            return ({"ok": res.ok, "violations": res.violations,
                     "min_transversality": res.min_transversality},
                    f"radial section: {res.ok}", warnings)
        if op == "certify":
            cert = pl.certify_generic_convex(surf)
            return cert.to_json(), \
                f"certified={cert.ok} margin={cert.margin:.6g}", warnings
        if op == "radius":
            res = pl.perturbation_radius(surf, seed=args.seed)
            return ({"epsilon": res.epsilon,
                     "lipschitz_bound": res.lipschitz_bound,
                     "reverify_passes": res.reverify_passes,
                     "reverify_trials": res.reverify_trials,
                     "failed_at_10x": res.failed_at_10x},
                    f"epsilon={res.epsilon:.6g} "
                    f"({res.reverify_passes}/{res.reverify_trials} reverified)",
                    warnings)
        if op == "outward":
            ok = pl.outward_check(surf, args.t)
            return {"outward": ok, "t": args.t}, f"outward={ok}", warnings

    raise InvalidInputError(f"unhandled command {mod} {op}")


def dispatch(argv) -> CommandResult:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "", [])
    report_path = getattr(args, "out", None) or ""
    frontier = config.TOL.frontier
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
    finally:
        config.TOL.frontier = frontier   # --tol holds for this command only
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
