"""Spans around calls into projconvex, recorded from the benchmark's side.

`Tracer.install()` replaces module functions and backend methods with
wrappers that record one span per call (name, start, end, parent).  Cheap
leaf predicates are only counted.  Spans stay in memory; `dump` writes them
once, and `layer_metrics` turns them into the per-layer metrics.  The
library itself is not modified on disk and is restored by `uninstall()`.
"""

import functools
import json
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

from projconvex import domain as dm
from projconvex import group as gp
from projconvex import hilbert as hb
from projconvex import jsonio
from projconvex import normalize as nm
from projconvex import plconvex as pl
from projconvex import vinberg as vb

BACKENDS = {"ellipsoid": dm.EllipsoidBackend, "hpoly": dm.HPolyBackend,
            "vpoly": dm.VPolyBackend, "radialgraph": dm.RadialGraphBackend}
SIZES = ("small", "medium", "large")


def _slice_name(args):
    kind = args[0].domain.backend.kind
    return "vinberg.slice_exact." + ("conic" if kind == "ellipsoid"
                                     else "triangulated")


class Tracer:
    def __init__(self):
        self.names, self.parents, self.starts, self.ends = [], [], [], []
        self.stack = []
        self.counts = Counter()
        self.extra = {}       # span index -> figure taken from the returned value
        self.raised = set()   # span indexes whose call raised
        self.paused = False   # set while the harness checks an answer
        self._undo = []

    # -- spans

    def open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts[idx] = perf_counter()
        return idx

    def close(self, idx):
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _span(self, name, fn, extra=None):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(idx)
                raise
            finally:
                self.close(idx)
            if extra is not None:
                self.extra[idx] = extra(result)
            return result
        return wrapped

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.paused:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    # -- patching

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _everywhere(self, fn, wrapped):
        """Rebind fn in every projconvex module that imported it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "projconvex" or mod_name.startswith("projconvex."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)

    def install(self):
        for kind, cls in BACKENDS.items():
            self._set(cls, "chord_params", self._span(
                f"domain.chord_params.{kind}", cls.chord_params))
            self._set(cls, "contains_margin", self._count(
                "domain.contains_margin.calls", cls.contains_margin))
            self._set(cls, "moments", self._span("domain.moments", cls.moments))
            self._set(cls, "__init__", self._span("domain.construct",
                                                  cls.__init__))
        # Wrap scipy's linprog itself, so the count holds wherever projconvex
        # imports it: module-level names bound to it are rebound, and a
        # `from scipy.optimize import linprog` made later reads the wrapper.
        import scipy.optimize
        linprog = scipy.optimize.linprog
        counted = self._count("domain.linprog.calls", linprog)
        self._set(scipy.optimize, "linprog", counted)
        self._everywhere(linprog, counted)
        spans = [
            (hb._distance_chart, "hilbert.distance", None),
            (hb.geodesic, "hilbert.geodesic", None),
            (hb.metric_ball, "hilbert.metric_ball", None),
            (hb.thin_triangle_delta, "hilbert.thin_triangle_delta", None),
            (vb._slice_exact, _slice_name, None),
            (vb.min_volume_on_fiber, "vinberg.min_volume_on_fiber",
             lambda r: r.iterations),
            (vb.spherical_center, "vinberg.spherical_center",
             lambda r: r.iterations),
            (vb.characteristic_point, "vinberg.characteristic_point", None),
            (nm.analyze_sequence, "normalize.analyze_sequence", None),
            (nm.isotropic_normalize, "normalize.isotropic_normalize", None),
            (nm.box_bound_check, "normalize.box_bound_check", None),
            (gp.dirichlet_domain, "group.dirichlet_domain", None),
            (gp.is_automorphism, "group.is_automorphism", None),
            (gp.orbit, "group.orbit", None),
            (gp.fixed_point_dynamics, "group.fixed_point_dynamics", None),
            (pl.radial_section_check, "plconvex.radial_section_check", None),
            (pl.certify_generic_convex, "plconvex.certify_generic_convex",
             lambda r: r.checks),
            (pl.vertex_convexity, "plconvex.vertex_convexity", None),
            (pl.perturbation_radius, "plconvex.perturbation_radius",
             lambda r: (r.reverify_passes, r.reverify_trials)),
            (pl.pl_characteristic_surface, "plconvex.pl_characteristic_surface",
             lambda r: r.jitter_rounds),
            (jsonio.load_file, "jsonio.load", None),
            (jsonio.dump_file, "jsonio.dump", None),
        ]
        for fn, name, extra in spans:
            self._everywhere(fn, self._span(name, fn, extra))
        cls = pl.SimplicialHypersurface
        self._set(cls, "__init__", self._span("plconvex.hypersurface_build",
                                              cls.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output

    def arrays(self):
        names = np.array(self.names, dtype=object)
        parents = np.array(self.parents, dtype=np.int64)
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return names, parents, dur, dur - child

    def dump(self, path):
        """Write all spans once: name table plus [name, start, end, parent]."""
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        spans = [[code[n], round(s - t0, 9), round(e - t0, 9), p]
                 for n, s, e, p in zip(self.names, self.starts, self.ends,
                                       self.parents)]
        path.write_text(json.dumps({"names": table,
                                    "columns": ["name", "start_s", "end_s",
                                                "parent"],
                                    "spans": spans,
                                    "counts": dict(self.counts)}))


def _under(names, parents, target):
    """For each span, is some ancestor named target?"""
    out = np.zeros(len(names), dtype=bool)
    for i, p in enumerate(parents):
        if p >= 0:
            out[i] = out[p] or names[p] == target
    return out


def _task_of(names, parents):
    """Name of the nearest enclosing task span ("" outside any task)."""
    out = [""] * len(names)
    for i, p in enumerate(parents):
        if names[i].startswith("task."):
            out[i] = names[i]
        elif p >= 0:
            out[i] = out[p]
    return np.array(out, dtype=object)


def _ratio(num, den):
    return float(num) / den if den else 0.0


def layer_metrics(tracer, simplices):
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    simplices maps the certify mesh sizes to their simplex counts, for the
    scaling exponent of the radial section check.
    """
    names, parents, dur, self_s = tracer.arrays()
    m = {}

    def sel(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def selftime(mask):
        return float(self_s[mask].sum())

    def extras(name):
        return [tracer.extra[i] for i in np.nonzero(sel(name))[0]
                if i in tracer.extra]

    chord = np.array([n.startswith("domain.chord_params.") for n in names],
                     dtype=bool)
    # delegations (vpoly and radialgraph clip through their hpoly) count once
    nested = np.zeros_like(chord)
    nested[parents >= 0] = chord[parents[parents >= 0]]
    m["domain.chord_params.calls"] = (int((chord & ~nested).sum()), "count")
    for kind in BACKENDS:
        name = f"domain.chord_params.{kind}"
        n = calls(name)
        t = selftime(sel(name))
        m[f"{name}.self_s"] = (t, "s")
        m[f"{name}.us_per_call"] = (_ratio(t * 1e6, n), "us")
    m["domain.contains_margin.calls"] = (
        tracer.counts["domain.contains_margin.calls"], "count")
    m["domain.moments.calls"] = (calls("domain.moments"), "count")
    m["domain.moments.self_s"] = (selftime(sel("domain.moments")), "s")
    m["domain.construct.self_s"] = (selftime(sel("domain.construct")), "s")
    m["domain.linprog.calls"] = (tracer.counts["domain.linprog.calls"], "count")

    n = calls("hilbert.distance")
    t = selftime(sel("hilbert.distance"))
    m["hilbert.distance.calls"] = (n, "count")
    m["hilbert.distance.self_s"] = (t, "s")
    m["hilbert.distance.us_per_call"] = (_ratio(t * 1e6, n), "us")
    for op in ("geodesic", "metric_ball", "thin_triangle_delta"):
        inner = sel("hilbert.distance") & _under(names, parents, f"hilbert.{op}")
        m[f"hilbert.distance_evals.{op}"] = (
            _ratio(inner.sum(), calls(f"hilbert.{op}")), "evals/call")
        m[f"hilbert.{op}.self_s"] = (selftime(sel(f"hilbert.{op}")), "s")

    for kind in ("triangulated", "conic"):
        name = f"vinberg.slice_exact.{kind}"
        n = calls(name)
        t = selftime(sel(name))
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}.self_s"] = (t, "s")
        m[f"{name}.us_per_call"] = (_ratio(t * 1e6, n), "us")
    slices = np.array([n.startswith("vinberg.slice_exact.") for n in names],
                      dtype=bool)
    fiber = "vinberg.min_volume_on_fiber"
    n_fiber = calls(fiber)
    m[f"{fiber}.calls"] = (n_fiber, "count")
    m[f"{fiber}.self_s"] = (selftime(sel(fiber)), "s")
    its = extras(fiber)
    m[f"{fiber}.iterations_mean"] = (_ratio(sum(its), len(its)), "iterations")
    m[f"{fiber}.slice_evals_per_call"] = (
        _ratio((slices & _under(names, parents, fiber)).sum(), n_fiber),
        "evals/call")
    sc = "vinberg.spherical_center"
    n_sc = calls(sc)
    its = extras(sc)
    m[f"{sc}.calls"] = (n_sc, "count")
    m[f"{sc}.self_s"] = (selftime(sel(sc)), "s")
    m[f"{sc}.iterations_mean"] = (_ratio(sum(its), len(its)), "iterations")
    m[f"{sc}.fiber_solves_per_call"] = (
        _ratio((sel(fiber) & _under(names, parents, sc)).sum(), n_sc),
        "solves/call")
    m[f"{sc}.failures"] = (
        sum(1 for i in np.nonzero(sel(sc))[0] if i in tracer.raised), "count")
    cp = "vinberg.characteristic_point"
    m[f"{cp}.calls"] = (calls(cp), "count")
    m[f"{cp}.self_s"] = (selftime(sel(cp)), "s")

    seq = "normalize.analyze_sequence"
    m[f"{seq}.self_s"] = (selftime(sel(seq)), "s")
    m[f"{seq}.center_share"] = (_ratio(
        dur[sel(sc) & _under(names, parents, seq)].sum(), dur[sel(seq)].sum()),
        "fraction")
    for op in ("isotropic_normalize", "box_bound_check"):
        m[f"normalize.{op}.self_s"] = (selftime(sel(f"normalize.{op}")), "s")
    for op in ("dirichlet_domain", "is_automorphism", "orbit",
               "fixed_point_dynamics"):
        m[f"group.{op}.self_s"] = (selftime(sel(f"group.{op}")), "s")

    m["plconvex.hypersurface_build.self_s"] = (
        selftime(sel("plconvex.hypersurface_build")), "s")
    task = _task_of(names, parents)
    rsc = "plconvex.radial_section_check"
    cert = "plconvex.certify_generic_convex"
    for size in SIZES:
        m[f"{rsc}.self_s.{size}"] = (
            selftime(sel(rsc) & (task == f"task.section.{size}")), "s")
        m[f"{cert}.self_s.{size}"] = (
            selftime(sel(cert) & (task == f"task.certify.{size}")), "s")
    small = m[f"{rsc}.self_s.small"][0]
    large = m[f"{rsc}.self_s.large"][0]
    exponent = 0.0
    if small > 0 and large > 0 and simplices:
        exponent = (math.log(large / small)
                    / math.log(simplices["large"] / simplices["small"]))
    m[f"{rsc}.scaling_exponent"] = (exponent, "exponent")
    m[f"{cert}.checks"] = (int(sum(extras(cert))), "count")
    vc = "plconvex.vertex_convexity"
    m[f"{vc}.calls"] = (calls(vc), "count")
    m[f"{vc}.self_s"] = (selftime(sel(vc)), "s")
    pr = "plconvex.perturbation_radius"
    n_pr = calls(pr)
    m[f"{pr}.self_s"] = (selftime(sel(pr)), "s")
    m[f"{pr}.recertifications"] = (
        int((sel(cert) & _under(names, parents, pr)).sum()) - n_pr, "count")
    passes = extras(pr)
    m[f"{pr}.reverify_pass_ratio"] = (
        _ratio(sum(p for p, _ in passes), sum(t for _, t in passes)),
        "passes/trial")
    pcs = "plconvex.pl_characteristic_surface"
    n_pcs = calls(pcs)
    m[f"{pcs}.self_s"] = (selftime(sel(pcs)), "s")
    m[f"{pcs}.jitter_rounds"] = (int(sum(extras(pcs))), "count")
    m[f"{pcs}.failed"] = (_ratio(
        sum(1 for i in np.nonzero(sel(pcs))[0] if i in tracer.raised), n_pcs),
        "failed/built")
    m["jsonio.load_s"] = (selftime(sel("jsonio.load")), "s")
    m["jsonio.dump_s"] = (selftime(sel("jsonio.dump")), "s")
    return m
